import math

import numpy as np
import pytest

from inpo.autodiff import Var
from inpo.denoiser import DenoiserArch, TapeParams, init_denoiser, value_and_grad
from inpo.data import PreferencePair
import inpo.preference as preference_mod
from inpo.errors import InvalidArgument, NumericError
from inpo.preference import (
    DELTA_KINDS,
    DeltaStrategy,
    implicit_reward,
    make_targets,
    pair_loss_terms,
    sft_terms,
    solve_delta_fixed_point,
)
from inpo.schedule import forward_diffuse, make_schedule

from conftest import (
    const_model,
    dpo_diffusion_loss,
    inpo_loss,
    make_linear_model,
    sft_loss,
    zero_model,
)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def s():
    return make_schedule("cosine", 1000)


class ZeroDraws:
    """RNG stub whose normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def random_pair(rng, c=0):
    return PreferencePair(
        condition=c,
        winner=rng.standard_normal(2),
        loser=rng.standard_normal(2),
        reward_w=1.0,
        reward_l=0.0,
        seed=0,
    )


# -------------------------------------------------------------------- sft


def test_sft_zero_when_probe_echoes_noise(s):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((4, 2))
    eps = rng.standard_normal((4, 2))
    # one shared noise row so a constant probe can echo it exactly
    eps[:] = eps[0]
    probe = const_model(eps[0])
    t = np.full(4, 300)
    assert sft_loss(probe, s, (x0, np.zeros(4, int)), t, eps) == 0.0


def test_sft_zero_net_gives_chi_square_mean(s):
    rng = np.random.default_rng(1)
    n = 40_000
    x0 = rng.standard_normal((n, 2))
    eps = rng.standard_normal((n, 2))
    t = rng.integers(1, 1001, size=n)
    loss = sft_loss(zero_model(2), s, (x0, np.zeros(n, int)), t, eps)
    se = math.sqrt(8.0 / n)  # var of ||eps||^2 for 2-D standard normal is 8
    assert abs(loss - 2.0) < 4 * se


def test_sft_zero_noise_measures_prediction_norm(s):
    rng = np.random.default_rng(2)
    A = 0.3 * rng.standard_normal((2, 2))
    p = make_linear_model(A)
    x0 = rng.standard_normal((8, 2))
    t = np.full(8, 100)
    eps = np.zeros((8, 2))
    loss = sft_loss(p, s, (x0, np.zeros(8, int)), t, eps)
    x_t = forward_diffuse(s, x0, t, eps)
    expect = np.mean(np.sum((x_t @ A.T) ** 2, axis=1))
    assert loss == pytest.approx(expect, rel=1e-12)


def test_sft_empty_batch_rejected(s):
    with pytest.raises(InvalidArgument):
        sft_loss(zero_model(2), s, (np.zeros((0, 2)), np.zeros(0, int)), [], np.zeros((0, 2)))


# ------------------------------------------------------------- fixed point


def test_fixed_point_constant_probe(s):
    v = np.array([0.3, -1.2])
    cfg = DeltaStrategy("fixed_point", max_iters=5, tol=1e-12, damping=1.0)
    rng = np.random.default_rng(3)
    delta, converged, resid = solve_delta_fixed_point(const_model(v), s, np.zeros(2), 500, 0, cfg, rng)
    assert converged
    assert np.allclose(delta, v, atol=1e-12)
    assert resid <= 1e-12


def test_fixed_point_contractive_linear_closed_form(s):
    # eps(x) = 0.1 x  =>  delta = 0.1 sqrt(ab) x0 / (1 - 0.1 sqrt(1 - ab))
    p = make_linear_model(0.1 * np.eye(2))
    x0 = np.array([1.5, -2.5])
    t = 700
    cfg = DeltaStrategy("fixed_point", max_iters=200, tol=1e-12, damping=1.0)
    rng = np.random.default_rng(4)
    delta, converged, _ = solve_delta_fixed_point(p, s, x0, t, 0, cfg, rng)
    ab = s.alpha_bar[t]
    expect = 0.1 * np.sqrt(ab) * x0 / (1 - 0.1 * np.sqrt(1 - ab))
    assert converged
    assert np.allclose(delta, expect, atol=1e-10)


def test_fixed_point_iteration_budget(s):
    p = make_linear_model(0.5 * np.eye(2))
    cfg = DeltaStrategy("fixed_point", max_iters=1, tol=1e-12, damping=0.5)
    rng = np.random.default_rng(5)
    _, converged, resid = solve_delta_fixed_point(p, s, np.ones(2), 500, 0, cfg, rng)
    assert not converged
    assert resid > cfg.tol


def test_delta_strategy_validation():
    with pytest.raises(InvalidArgument):
        DeltaStrategy("nope")
    with pytest.raises(InvalidArgument):
        DeltaStrategy("inversion", n=0)
    with pytest.raises(InvalidArgument):
        DeltaStrategy("fixed_point", max_iters=0)
    with pytest.raises(InvalidArgument):
        DeltaStrategy("fixed_point", tol=0.0)
    with pytest.raises(InvalidArgument):
        DeltaStrategy("fixed_point", damping=0.0)


# ------------------------------------------------------------ make_targets


def test_targets_gaussian_zero_draw(s):
    x0 = np.array([0.7, -0.2])
    x_t, tau = make_targets(zero_model(2), s, x0, 400, 0, DeltaStrategy("gaussian"), ZeroDraws())
    assert np.array_equal(x_t, np.sqrt(s.alpha_bar[400]) * x0)
    assert np.array_equal(tau, np.zeros(2))


def test_targets_inversion_zero_net(s):
    x0 = np.array([0.7, -0.2])
    strat = DeltaStrategy("inversion", n=6)
    x_t, tau = make_targets(zero_model(2), s, x0, 400, 0, strat, None)
    assert np.allclose(x_t, np.sqrt(s.alpha_bar[400]) * x0, rtol=1e-15)
    assert np.array_equal(tau, np.zeros(2))


def test_targets_fixed_point_tau_equals_delta(s):
    p = make_linear_model(0.1 * np.eye(2))
    x0 = np.array([1.0, 2.0])
    strat = DeltaStrategy("fixed_point", max_iters=100, tol=1e-12)
    rng = np.random.default_rng(6)
    x_t, tau = make_targets(p, s, x0, 600, 0, strat, rng)
    rng2 = np.random.default_rng(6)
    delta, _, _ = solve_delta_fixed_point(p, s, x0, 600, 0, strat, rng2)
    assert np.array_equal(tau, delta)
    ab = s.alpha_bar[600]
    assert np.allclose(x_t, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * delta, rtol=1e-15)


@pytest.mark.parametrize("per_row", [False, True])
def test_targets_fixed_point_latent_is_the_forward_noising_of_delta(s, per_row):
    # the latent is sqrt(ab_t) * x0 + sqrt(1 - ab_t) * delta, bit for bit,
    # with the coefficients taken from alpha_bar here
    p = init_denoiser(DenoiserArch(2, (8,), 3, 4), 2)
    x0 = np.random.default_rng(7).standard_normal((5, 2))
    t = np.array([1, 77, 400, 901, 1000]) if per_row else 640
    c, strat = np.array([0, 1, 2, 0, 1]), DeltaStrategy("fixed_point", max_iters=7)
    x_t, tau = make_targets(p, s, x0, t, c, strat, np.random.default_rng(3))
    delta, _, _ = solve_delta_fixed_point(p, s, x0, t, c, strat, np.random.default_rng(3))
    ab = s.alpha_bar[t][:, None] if per_row else s.alpha_bar[t]
    assert tau.tobytes() == delta.tobytes()
    assert x_t.tobytes() == (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * delta).tobytes()


# ------------------------------------------------------------------ losses


def test_inpo_loss_at_reference_is_ln2(s):
    rng = np.random.default_rng(7)
    arch = DenoiserArch(2, (8,), 4, 4)
    p = init_denoiser(arch, 3)
    pair = random_pair(rng, c=2)
    for strat in (
        DeltaStrategy("inversion", n=4),
        DeltaStrategy("gaussian"),
        DeltaStrategy("fixed_point", max_iters=10),
    ):
        out = inpo_loss(p, p, s, pair, 321, strat, beta=2000.0, rng=np.random.default_rng(8))
        assert out.sigmoid_arg == 0.0
        assert abs(out.total - LN2) < 1e-15


def test_inpo_loss_beta_zero_is_ln2(s):
    rng = np.random.default_rng(9)
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    q = init_denoiser(DenoiserArch(2, (8,), 4, 4), 4)
    pair = random_pair(rng, c=1)
    out = inpo_loss(p, q, s, pair, 55, DeltaStrategy("gaussian"), 0.0, np.random.default_rng(1))
    assert out.total == pytest.approx(LN2, abs=1e-15)


def test_dpo_loss_reference_and_symmetry_cases(s):
    rng = np.random.default_rng(10)
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    q = init_denoiser(DenoiserArch(2, (8,), 4, 4), 5)
    pair = random_pair(rng, c=0)
    eps_w, eps_l = rng.standard_normal((2, 2))
    assert dpo_diffusion_loss(p, p, s, pair, 100, eps_w, eps_l, 2000.0).total == pytest.approx(LN2, abs=1e-15)
    x0 = rng.standard_normal(2)
    same = PreferencePair(0, x0, x0.copy(), 1.0, 1.0, 0)
    assert dpo_diffusion_loss(p, q, s, same, 100, eps_w, eps_w, 2000.0).total == pytest.approx(LN2, abs=1e-15)


def test_reduction_identity_gaussian_equals_dpo(s):
    arch = DenoiserArch(2, (8,), 4, 4)
    p = init_denoiser(arch, 3)
    ref = init_denoiser(arch, 4)
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        pair = random_pair(rng, c=int(rng.integers(0, 4)))
        t = int(rng.integers(1, 1001))
        beta = float(rng.choice([0.0, 10.0, 2000.0]))
        draws = np.random.default_rng(2000 + seed)
        a = inpo_loss(p, ref, s, pair, t, DeltaStrategy("gaussian"), beta, draws)
        draws2 = np.random.default_rng(2000 + seed)
        eps_w = draws2.standard_normal(2)
        eps_l = draws2.standard_normal(2)
        b = dpo_diffusion_loss(p, ref, s, pair, t, eps_w, eps_l, beta)
        assert a.total == b.total
        assert a.sigmoid_arg == b.sigmoid_arg
        assert abs(a.total - b.total) <= 1e-12


def test_breakdown_total_matches_softplus(s):
    rng = np.random.default_rng(11)
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    ref = init_denoiser(DenoiserArch(2, (8,), 4, 4), 4)
    pair = random_pair(rng, c=1)
    out = inpo_loss(p, ref, s, pair, 77, DeltaStrategy("gaussian"), 100.0, np.random.default_rng(2))
    assert out.total == pytest.approx(float(np.logaddexp(0, -out.sigmoid_arg)), abs=1e-12)
    assert out.total > 0


def test_monotonicity_in_winner_fit(s):
    # nudging the trained model's winner prediction toward the target must
    # raise sigmoid_arg and lower the loss
    rng = np.random.default_rng(12)
    x_tw, tau_w, x_tl, tau_l = rng.standard_normal((4, 2))
    base_out = rng.standard_normal(2)

    def theta(shift):
        # rank-one affine map taking x_tl to base_out and x_tw to
        # base_out + shift * (tau_w - base_out)
        u = (x_tw - x_tl) / np.dot(x_tw - x_tl, x_tw - x_tl)
        A = np.outer(shift * (tau_w - base_out), u)
        return make_linear_model(A, b=base_out - A @ x_tl)

    ref = const_model(rng.standard_normal(2))
    args = []
    tots = []
    for shift in (0.0, 0.5, 0.9):
        terms = pair_loss_terms(theta(shift), ref, s, x_tw, tau_w, x_tl, tau_l, 345, 0, beta=5.0)
        args.append(float(terms["sigmoid_arg"][0]))
        tots.append(float(terms["totals"][0]))
    assert args[0] < args[1] < args[2]
    assert tots[0] > tots[1] > tots[2]


def test_loss_finite_at_extreme_argument(s):
    # |sigmoid_arg| = 1e4 must stay finite through the softplus form
    theta = zero_model(2)
    ref = const_model(np.ones(2))
    x_tw, x_tl = np.zeros(2), np.zeros(2)
    tau_w = np.zeros(2)
    for sign in (1.0, -1.0):
        tau_l = sign * np.ones(2)
        terms = pair_loss_terms(theta, ref, s, x_tw, tau_w, x_tl, tau_l, 10, 0, beta=2500.0)
        arg = float(terms["sigmoid_arg"][0])
        assert abs(arg) == pytest.approx(1e4, rel=1e-12)
        assert np.isfinite(float(terms["totals"][0]))


def test_non_integer_condition_rejected_by_losses(s):
    # a float id must raise, not be truncated to the integer id below it
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    x, t = np.zeros((2, 2)), np.full(2, 100)
    with pytest.raises(InvalidArgument, match="integers"):
        sft_loss(p, s, (x, np.array([0.0, 1.5])), t, x)
    with pytest.raises(InvalidArgument, match="integers"):
        pair_loss_terms(p, p, s, x, x, x, x, t, 1.5, beta=1.0)
    with pytest.raises(InvalidArgument, match="integers"):
        implicit_reward(p, p, s, x[0], 1.5, [100], DeltaStrategy("gaussian"), 1.0,
                        np.random.default_rng(0))


def test_pair_loss_rejects_tape_reference(s):
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    x = np.zeros((2, 2))
    with pytest.raises(InvalidArgument, match="reference"):
        pair_loss_terms(p, TapeParams(p), s, x, x, x, x, 100, 0, beta=1.0)


@pytest.mark.parametrize("t, c, what", [
    (np.full(3, 50), 0, "timesteps"),
    (50, np.array([0, 1, 2]), "condition ids"),
])
def test_losses_reject_per_row_values_of_another_length(s, t, c, what):
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    x = np.zeros((4, 2))
    msg = rf"{what} of shape \(3,\) for a batch of 4 rows"
    for model in (p, TapeParams(p)):
        with pytest.raises(InvalidArgument, match=msg):
            pair_loss_terms(model, p, s, x, x, x, x, t, c, beta=1.0)
    with pytest.raises(InvalidArgument, match=msg):
        sft_loss(p, s, (x, c), t, x)
    # gaussian targets read neither c nor the per-row t's length on their own
    for kind in DELTA_KINDS:
        with pytest.raises(InvalidArgument, match=msg):
            make_targets(p, s, x, t, c, DeltaStrategy(kind, n=2, max_iters=2),
                         np.random.default_rng(0))


@pytest.mark.parametrize("name, half, model", [
    ("term_w_theta", 0, "theta"), ("term_w_ref", 0, "ref"),
    ("term_l_theta", 1, "theta"), ("term_l_ref", 1, "ref"),
])
def test_pair_loss_names_the_first_nonfinite_term(s, monkeypatch, name, half, model):
    # one model's prediction is non-finite on one half of the stacked batch;
    # the error names that term, winners before losers, trained before reference
    arch = DenoiserArch(2, (8,), 4, 4)
    theta, ref = init_denoiser(arch, 3), init_denoiser(arch, 4)
    real = preference_mod.eps_forward
    B = 3

    def poisoned(m, x, t, rows, ws=None):
        out = real(m, x, t, rows, ws=ws)
        hit = m is ref if model == "ref" else m is not ref
        if hit:
            (out.data if isinstance(out, Var) else out)[half * B] = np.inf
        return out

    monkeypatch.setattr(preference_mod, "eps_forward", poisoned)
    x = np.random.default_rng(18).standard_normal((B, 2))
    for th in (theta, TapeParams(theta)):
        with pytest.raises(NumericError, match=rf"^{name} is non-finite$"):
            pair_loss_terms(th, ref, s, x, x, x, x, np.full(B, 50), 1, beta=1.0)


def test_gradient_finite_at_reference(s):
    arch = DenoiserArch(2, (6,), 3, 4)
    p = init_denoiser(arch, 1)
    rng = np.random.default_rng(13)
    pair = random_pair(rng, c=1)
    t = 200
    x_tw, tau_w = make_targets(p, s, pair.winner, t, 1, DeltaStrategy("gaussian"), np.random.default_rng(3))
    x_tl, tau_l = make_targets(p, s, pair.loser, t, 1, DeltaStrategy("gaussian"), np.random.default_rng(4))

    def loss(tape):
        return pair_loss_terms(tape, p, s, x_tw, tau_w, x_tl, tau_l, t, 1, 2000.0)["mean_total"]

    val, grad = value_and_grad(p, loss)
    assert val == pytest.approx(LN2, abs=1e-12)
    assert np.all(np.isfinite(grad.vec))
    assert np.any(grad.vec != 0)


# ---------------------------------------------------------- implicit reward


def test_implicit_reward_zero_at_reference(s):
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal(2)
    r = implicit_reward(p, p, s, x0, 1, [50, 300, 800], DeltaStrategy("inversion", n=3), 2000.0, rng)
    assert r == 0.0


def test_implicit_reward_linear_in_beta(s):
    arch = DenoiserArch(2, (8,), 4, 4)
    p = init_denoiser(arch, 3)
    ref = init_denoiser(arch, 4)
    x0 = np.random.default_rng(15).standard_normal(2)
    r1 = implicit_reward(p, ref, s, x0, 0, [100, 500], DeltaStrategy("gaussian"), 7.0, np.random.default_rng(5))
    r2 = implicit_reward(p, ref, s, x0, 0, [100, 500], DeltaStrategy("gaussian"), 14.0, np.random.default_rng(5))
    assert r2 == 2.0 * r1


def test_implicit_reward_ranking_shift_invariant(s):
    rng = np.random.default_rng(16)
    for _ in range(20):
        ra, rb = rng.standard_normal(2)
        shift = rng.standard_normal() * 100
        assert (ra > rb) == (ra + shift > rb + shift)


def test_implicit_reward_empty_draws_rejected(s):
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    with pytest.raises(InvalidArgument):
        implicit_reward(p, p, s, np.zeros(2), 0, [], DeltaStrategy("gaussian"), 1.0, None)


def test_implicit_reward_takes_one_condition_id(s):
    p = init_denoiser(DenoiserArch(2, (8,), 4, 4), 3)
    with pytest.raises(InvalidArgument, match=r"one condition id, got an array of shape \(2,\)"):
        implicit_reward(p, p, s, np.zeros(2), np.array([0, 1]), [50, 300, 800],
                        DeltaStrategy("gaussian"), 1.0, np.random.default_rng(5))


@pytest.mark.parametrize("k_theta, k_ref", [(2, 8), (8, 2)])
def test_pair_loss_terms_rejects_ref_of_another_arch(s, k_theta, k_ref):
    theta = init_denoiser(DenoiserArch(2, (8,), k_theta, 4), 3)
    ref = init_denoiser(DenoiserArch(2, (8,), k_ref, 4), 4)
    x = np.random.default_rng(17).standard_normal((4, 2))
    c = np.array([-1, 0, 1, 1])
    for model in (theta, TapeParams(theta)):
        with pytest.raises(InvalidArgument, match=f"num_conditions={k_ref}.*num_conditions={k_theta}"):
            pair_loss_terms(model, ref, s, x, x, x, x, np.full(4, 50), c, 10.0)


@pytest.mark.parametrize("k_theta, k_ref", [(2, 8), (8, 2)])
def test_implicit_reward_rejects_ref_of_another_arch(s, k_theta, k_ref):
    p = init_denoiser(DenoiserArch(2, (8,), k_theta, 4), 3)
    ref = init_denoiser(DenoiserArch(2, (8,), k_ref, 4), 4)
    with pytest.raises(InvalidArgument, match=f"num_conditions={k_ref}.*num_conditions={k_theta}"):
        implicit_reward(p, ref, s, np.zeros(2), 1, [50, 300], DeltaStrategy("gaussian"), 1.0,
                        np.random.default_rng(5))


@pytest.mark.parametrize("per_row", [False, True])
def test_loss_heads_range_check_t(per_row):
    # the pair head takes t in [1, T], as inpo_loss and make_targets do, and
    # the denoising head t in [0, T], as sft_loss does; neither may read
    # loss_weight[-1] or index past T
    s = make_schedule("cosine", 100, loss_weight="snr")
    p = make_linear_model(0.3 * np.eye(2))
    tape = TapeParams(p)
    x = np.array([[0.2, -0.4], [1.0, 0.5]])
    rows = np.zeros(2, dtype=np.int64)

    def at(t):
        return np.array([50, t]) if per_row else t

    for t in (-1, 0, 101):
        for model in (p, tape):
            with pytest.raises(InvalidArgument, match=r"timestep out of range \[1, 100\]"):
                pair_loss_terms(model, p, s, x, x, x, x, at(t), 0, 1.0)
    for t in (-1, 101):
        for model in (p, tape):
            with pytest.raises(InvalidArgument, match=r"timestep out of range \[0, 100\]"):
                sft_terms(model, s, x, at(t), None, rows, x)
    pair_loss_terms(p, p, s, x, x, x, x, at(1), 0, 1.0)
    pair_loss_terms(p, p, s, x, x, x, x, at(100), 0, 1.0)
    assert np.isfinite(sft_terms(p, s, x, at(0), None, rows, x))
    assert np.isfinite(sft_terms(p, s, x, at(100), None, rows, x))
    # one timestep is broadcast to the rows, as in the pair head
    assert sft_terms(p, s, x, 7, None, rows, x) == sft_terms(p, s, x, np.array([7, 7]), None,
                                                            rows, x)
