"""The heads' closed-form value-and-gradient cores.

preference._pair_step and preference._sft_step, in a StepWorkspace built
for the schedule's T, are what training runs; the tape (value_and_grad over
pair_loss_terms and sft_terms) is their reference. These tests hold them to
its bytes, to central finite differences with criterion 3's bound, and to
the non-finite terms they name; align's pair window and the tape's pair
head check the reference, which the cores take unchecked.
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
from inpo.preference import _pair_step, _sft_step, pair_loss_terms, sft_terms
from inpo.schedule import make_schedule
from inpo.trainer import AlignConfig, align

from conftest import PreferencePair, finite_diff, max_rel_err, pair_table


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
    pair_ws, sft_ws = StepWorkspace(arch, 2 * B, s.T), StepWorkspace(arch, B, s.T)
    for trial in range(6):
        rng = np.random.default_rng(700 + trial)
        p, ref = init_denoiser(arch, trial), init_denoiser(arch, trial + 50)
        beta = (3.0, 2000.0)[trial % 2]
        x, tau, t, c = _batch(rng, B, s.T, 3)
        rows = _cond_rows(c, 3)

        val, grad = _pair_step(p, ref, s, x, tau, _twice(t), _twice(rows), beta, pair_ws)
        assert grad is pair_ws.grad
        want = value_and_grad(p, lambda tape: pair_loss_terms(
            tape, ref, s, x[:B], tau[:B], x[B:], tau[B:], t, c, beta)["mean_total"])
        assert val == want[0]
        assert grad.vec.tobytes() == want[1].vec.tobytes()

        t0 = np.concatenate([[0], t[1:]])  # the denoising head takes t = 0
        val, grad = _sft_step(p, s, x[:B], t0, rows, tau[:B], sft_ws)
        assert grad is sft_ws.grad
        want = value_and_grad(p, lambda tape: sft_terms(tape, s, x[:B], t0, c, rows, tau[:B]))
        assert val == want[0]
        assert grad.vec.tobytes() == want[1].vec.tobytes()


def test_heads_pass_the_gradient_check():
    # criterion 3's network, draws and bound, on the closed-form cores
    s = make_schedule("cosine", 1000)
    arch = DenoiserArch(2, (12,), 3, 6)
    B = 3
    pair_ws, sft_ws = StepWorkspace(arch, 2 * B, s.T), StepWorkspace(arch, B, s.T)
    worst = {"sft": 0.0, "pair": 0.0}
    for trial in range(20):
        rng = np.random.default_rng(30_000 + trial)
        p, ref = init_denoiser(arch, trial), init_denoiser(arch, trial + 500)
        x, tau, t, c = _batch(rng, B, s.T, 3)
        t2, rows2 = _twice(t), _twice(_cond_rows(c, 3))

        def pair(q):
            return _pair_step(q, ref, s, x, tau, t2, rows2, 3.0, pair_ws)

        def sft(q):
            return _sft_step(q, s, x[:B], t, rows2[:B], tau[:B], sft_ws)

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
        _pair_step(theta, ref, s, x, x, np.full(2 * B, 50), np.ones(2 * B, int), 1.0,
                   StepWorkspace(arch, 2 * B, s.T))


def test_pair_function_hands_out_the_loss_argument_before_a_nonfinite_loss():
    arch = DenoiserArch(2, (8,), 4, 4)
    theta, ref = init_denoiser(arch, 3), init_denoiser(arch, 4)
    s = make_schedule("cosine", 100)
    x = np.random.default_rng(19).standard_normal((4, 2))
    aux = {}
    with pytest.raises(NumericError, match=r"^loss is non-finite: inf$"):
        _pair_step(theta, ref, s, x, -x, np.full(4, 50), np.ones(4, int), np.inf,
                   StepWorkspace(arch, 4, s.T), aux=aux)
    assert aux["sigmoid_arg"].shape == (2,) and not np.isfinite(aux["sigmoid_arg"]).all()


def test_pair_heads_check_their_reference():
    # _pair_step takes its reference checked: the pair window checks it
    # once per align call, and the tape's pair head on every call
    arch = DenoiserArch(2, (8,), 4, 4)
    p = init_denoiser(arch, 3)
    s = make_schedule("cosine", 100)
    x, t, c = np.zeros((1, 2)), np.full(1, 50), np.zeros(1, int)
    pairs = pair_table([PreferencePair(0, np.ones(2), np.zeros(2), 1.0, 0.0, 0)])
    cfg = AlignConfig(method="dpo", steps=1, batch_pairs=1)
    for ref, message in ((TapeParams(p), "reference model must be DenoiserParams"),
                         (init_denoiser(DenoiserArch(2, (8,), 2, 4), 1), "num_conditions=2")):
        with pytest.raises(InvalidArgument, match=message):
            pair_loss_terms(p, ref, s, x, x, x, x, t, c, 1.0)
        with pytest.raises(InvalidArgument, match=message):
            align(p, ref, pairs, s, cfg)
