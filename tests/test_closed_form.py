"""The heads' closed-form value-and-gradient functions.

preference.pair_value_and_grad and preference.sft_value_and_grad are what
training runs; the tape (value_and_grad over pair_loss_terms and sft_terms)
is their reference. These tests hold them to its bytes, to central finite
differences with criterion 3's bound, and to its checks.
"""
import numpy as np
import pytest

import inpo.preference as preference_mod
from inpo.denoiser import (
    DenoiserArch,
    StepWorkspace,
    TapeParams,
    _cond_rows,
    init_denoiser,
    value_and_grad,
)
from inpo.errors import InvalidArgument, NumericError
from inpo.preference import pair_loss_terms, pair_value_and_grad, sft_terms, sft_value_and_grad
from inpo.schedule import make_schedule

from conftest import finite_diff, max_rel_err


def _batch(rng, B, T, K):
    """Stacked (2B, 2) latents and targets, B timesteps and B condition ids."""
    x = rng.standard_normal((2 * B, 2))
    tau = rng.standard_normal((2 * B, 2))
    return x, tau, rng.integers(1, T + 1, size=B), rng.integers(-1, K, size=B)


def _twice(a):
    return np.concatenate([a, a])


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["none", "6", "6-5"])
@pytest.mark.parametrize("loss_weight", ["constant", "snr"])
def test_heads_match_the_tape_bytes(hidden, loss_weight):
    # each function runs twice in one workspace, on two batches, so a stale
    # buffer from the first call would show in the second
    arch = DenoiserArch(2, hidden, 3, 4)
    s = make_schedule("cosine", 100, loss_weight=loss_weight)
    B = 7
    pair_ws, sft_ws = StepWorkspace(arch, 2 * B), StepWorkspace(arch, B)
    for trial in range(6):
        rng = np.random.default_rng(700 + trial)
        p, ref = init_denoiser(arch, trial), init_denoiser(arch, trial + 50)
        beta = (3.0, 2000.0)[trial % 2]
        x, tau, t, c = _batch(rng, B, s.T, 3)
        rows = _cond_rows(c, 3)

        val, grad = pair_value_and_grad(p, ref, s, x, tau, _twice(t), _twice(rows), beta,
                                        pair_ws)
        assert grad is pair_ws.grad
        want = value_and_grad(p, lambda tape: pair_loss_terms(
            tape, ref, s, x[:B], tau[:B], x[B:], tau[B:], t, c, beta)["mean_total"])
        assert val == want[0]
        assert grad.vec.tobytes() == want[1].vec.tobytes()

        t0 = np.concatenate([[0], t[1:]])  # the denoising head takes t = 0
        val, grad = sft_value_and_grad(p, s, x[:B], t0, rows, tau[:B], sft_ws)
        assert grad is sft_ws.grad
        want = value_and_grad(p, lambda tape: sft_terms(tape, s, x[:B], t0, c, rows, tau[:B]))
        assert val == want[0]
        assert grad.vec.tobytes() == want[1].vec.tobytes()


def test_heads_pass_the_gradient_check():
    # criterion 3's network, draws and bound, on the closed-form functions
    s = make_schedule("cosine", 1000)
    arch = DenoiserArch(2, (12,), 3, 6)
    B = 3
    pair_ws, sft_ws = StepWorkspace(arch, 2 * B), StepWorkspace(arch, B)
    worst = {"sft": 0.0, "pair": 0.0}
    for trial in range(20):
        rng = np.random.default_rng(30_000 + trial)
        p, ref = init_denoiser(arch, trial), init_denoiser(arch, trial + 500)
        x, tau, t, c = _batch(rng, B, s.T, 3)
        t2, rows2 = _twice(t), _twice(_cond_rows(c, 3))

        def pair(q):
            return pair_value_and_grad(q, ref, s, x, tau, t2, rows2, 3.0, pair_ws)

        def sft(q):
            return sft_value_and_grad(q, s, x[:B], t, rows2[:B], tau[:B], sft_ws)

        # the gradient is the workspace's vector, which the differences overwrite
        for name, fn in (("pair", pair), ("sft", sft)):
            ad = fn(p)[1].copy()
            fd = finite_diff(p, lambda q: fn(q)[0])
            worst[name] = max(worst[name], max_rel_err(ad, fd))
    assert max(worst.values()) < 1e-4, worst


@pytest.mark.parametrize("name, half, model", [
    ("term_w_theta", 0, "theta"), ("term_w_ref", 0, "ref"),
    ("term_l_theta", 1, "theta"), ("term_l_ref", 1, "ref"),
])
def test_pair_function_names_the_first_nonfinite_term(monkeypatch, name, half, model):
    arch = DenoiserArch(2, (8,), 4, 4)
    theta, ref = init_denoiser(arch, 3), init_denoiser(arch, 4)
    real = preference_mod.eps_forward
    B = 3

    def poisoned(m, x, t, rows, ws=None):
        out = real(m, x, t, rows, ws=ws)
        if (m is ref) == (model == "ref"):
            out[half * B] = np.inf
        return out

    monkeypatch.setattr(preference_mod, "eps_forward", poisoned)
    s = make_schedule("cosine", 100)
    x = np.random.default_rng(18).standard_normal((2 * B, 2))
    with pytest.raises(NumericError, match=rf"^{name} is non-finite$"):
        pair_value_and_grad(theta, ref, s, x, x, np.full(2 * B, 50), np.ones(2 * B, int), 1.0)


def test_pair_function_hands_out_the_loss_argument_before_a_nonfinite_loss():
    arch = DenoiserArch(2, (8,), 4, 4)
    theta, ref = init_denoiser(arch, 3), init_denoiser(arch, 4)
    s = make_schedule("cosine", 100)
    x = np.random.default_rng(19).standard_normal((4, 2))
    aux = {}
    with pytest.raises(NumericError, match=r"^loss is non-finite: inf$"):
        pair_value_and_grad(theta, ref, s, x, -x, np.full(4, 50), np.ones(4, int), np.inf,
                            aux=aux)
    assert aux["sigmoid_arg"].shape == (2,) and not np.isfinite(aux["sigmoid_arg"]).all()


def test_functions_check_their_inputs():
    arch = DenoiserArch(2, (8,), 4, 4)
    p = init_denoiser(arch, 3)
    s = make_schedule("cosine", 100)
    x, t, rows = np.zeros((4, 2)), np.full(4, 50), np.zeros(4, int)
    with pytest.raises(InvalidArgument, match="reference model must be DenoiserParams"):
        pair_value_and_grad(p, TapeParams(p), s, x, x, t, rows, 1.0)
    with pytest.raises(InvalidArgument, match="model must be DenoiserParams"):
        pair_value_and_grad(TapeParams(p), p, s, x, x, t, rows, 1.0)
    with pytest.raises(InvalidArgument, match="num_conditions=2"):
        pair_value_and_grad(init_denoiser(DenoiserArch(2, (8,), 2, 4), 1), p, s, x, x, t, rows,
                            1.0)
    with pytest.raises(InvalidArgument, match="workspace of 6 rows for a batch of 4"):
        pair_value_and_grad(p, p, s, x, x, t, rows, 1.0, StepWorkspace(arch, 6))
    with pytest.raises(InvalidArgument, match="workspace of 6 rows for a batch of 4"):
        sft_value_and_grad(p, s, x, t, rows, x, StepWorkspace(arch, 6))
    with pytest.raises(InvalidArgument, match="even number of rows, got 3"):
        pair_value_and_grad(p, p, s, x[:3], x[:3], t[:3], rows[:3], 1.0)
    with pytest.raises(InvalidArgument, match=r"timesteps of shape \(3,\) for a batch of 4"):
        pair_value_and_grad(p, p, s, x, x, t[:3], rows, 1.0)
    with pytest.raises(InvalidArgument, match=r"condition rows of shape \(3,\) for a batch of 4"):
        sft_value_and_grad(p, s, x, t, rows[:3], x)
    for bad in (np.array([0, 1, 2, 5]), np.array([0, -1, 0, 0]), np.zeros(4)):
        with pytest.raises(InvalidArgument, match=r"condition rows must be integers in \[0, 4\]"):
            sft_value_and_grad(p, s, x, t, bad, x)
        with pytest.raises(InvalidArgument, match=r"condition rows must be integers in \[0, 4\]"):
            pair_value_and_grad(p, p, s, x, x, t, bad, 1.0)
    for bad in (0, 101):
        with pytest.raises(InvalidArgument, match=r"timestep out of range \[1, 100\]"):
            pair_value_and_grad(p, p, s, x, x, np.full(4, bad), rows, 1.0)
    with pytest.raises(InvalidArgument, match=r"timestep out of range \[0, 100\]"):
        sft_value_and_grad(p, s, x, np.full(4, -1), rows, x)
    # one timestep or row is broadcast to the batch, as in the tape's heads
    assert (sft_value_and_grad(p, s, x, 50, 0, x)[0]
            == sft_value_and_grad(p, s, x, t, rows, x)[0])
