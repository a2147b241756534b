import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inpo.denoiser import DenoiserArch, init_denoiser
from inpo.errors import InvalidArgument, NumericError
from inpo.preference import DELTA_KINDS, DeltaStrategy, make_targets, solve_delta_fixed_point
from inpo.sampler import SamplerConfig, ddim_invert, ddim_sample
from inpo.schedule import forward_diffuse, make_schedule

from conftest import (
    const_model,
    linear_ode_solution,
    make_linear_model,
    oracle_initial_variable,
    zero_model,
)


@pytest.fixture(scope="module")
def s():
    return make_schedule("cosine", 1000)


# ---------------------------------------------------------------- ddim_sample


def test_sample_zero_net_is_pure_scaling(s):
    p = zero_model(2)
    rng = np.random.default_rng(0)
    xT = rng.standard_normal(2)
    out = ddim_sample(p, s, xT, SamplerConfig(num_steps=25, t_start=900), c=0)
    expect = xT / np.sqrt(s.alpha_bar[900])
    assert np.allclose(out, expect, rtol=1e-12)


def test_sample_single_step_equals_initial_variable(s):
    rng = np.random.default_rng(1)
    A = 0.1 * rng.standard_normal((2, 2))
    p = make_linear_model(A)
    x = rng.standard_normal(2)
    t0 = 700
    one = ddim_sample(p, s, x, SamplerConfig(num_steps=1, t_start=t0), c=0)
    est = oracle_initial_variable(p, s, x, t0, c=0)
    assert np.allclose(one, est, rtol=1e-12)


def test_sample_matches_linear_closed_form(s):
    # run the sampler down from t_start and compare against the closed-form
    # solution of the linear reverse-process ODE
    rng = np.random.default_rng(2)
    B = rng.standard_normal((2, 2))
    A = 0.05 * (B + B.T) / 2
    p = make_linear_model(A)
    t0 = 600
    x0 = rng.standard_normal(2)
    x_t = linear_ode_solution(A, s, x0, t0)
    back = ddim_sample(p, s, x_t, SamplerConfig(num_steps=100, t_start=t0), c=0)
    rel = np.linalg.norm(back - x0) / np.linalg.norm(x0)
    assert rel < 1e-3


def test_sample_grid_validation(s):
    p = zero_model(2)
    with pytest.raises(InvalidArgument):
        ddim_sample(p, s, np.zeros(2), SamplerConfig(num_steps=0, t_start=100), c=0)
    with pytest.raises(InvalidArgument):
        ddim_sample(p, s, np.zeros(2), SamplerConfig(num_steps=5, t_start=0), c=0)


# ------------------------------- the single-step estimate (conftest's oracle)


def test_initial_variable_zero_net(s):
    p = zero_model(2)
    x = np.array([1.0, -3.0])
    out = oracle_initial_variable(p, s, x, 400, c=0)
    assert np.allclose(out, x / np.sqrt(s.alpha_bar[400]), rtol=1e-14)


def test_initial_variable_inverts_forward_map(s):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(2)
    eps = rng.standard_normal(2)
    t = 350
    x_t = forward_diffuse(s, x0, t, eps)
    probe = const_model(eps)
    out = oracle_initial_variable(probe, s, x_t, t, c=0)
    assert np.allclose(out, x0, atol=1e-9)


def test_initial_variable_matches_manual_recomputation(s):
    rng = np.random.default_rng(4)
    A = 0.2 * rng.standard_normal((2, 2))
    p = make_linear_model(A)
    x = rng.standard_normal(2)
    t = 512
    from inpo.denoiser import predict_noise

    eps = predict_noise(p, x, t, 0, guidance_w=0.0)
    manual = (x - np.sqrt(1 - s.alpha_bar[t]) * eps) / np.sqrt(s.alpha_bar[t])
    assert np.allclose(oracle_initial_variable(p, s, x, t, c=0), manual, rtol=1e-12)


def test_initial_variable_rejects_t0(s):
    with pytest.raises(InvalidArgument):
        oracle_initial_variable(zero_model(2), s, np.zeros(2), 0, c=0)


# ---------------------------------------------------------------- ddim_invert


def test_invert_zero_net_trivial(s):
    p = zero_model(2)
    x0 = np.array([0.4, -0.7])
    res = ddim_invert(p, s, x0, t_target=800, n=10, c=0)
    assert np.array_equal(res.delta_t, np.zeros(2))
    assert np.array_equal(res.x0_t, x0)
    assert np.allclose(res.x_t, np.sqrt(s.alpha_bar[800]) * x0, rtol=1e-15)
    assert np.array_equal(res.tau_t, np.zeros(2))


def test_invert_matches_linear_closed_form(s):
    rng = np.random.default_rng(5)
    B = rng.standard_normal((2, 2))
    A = 0.05 * (B + B.T) / 2
    p = make_linear_model(A)
    x0 = rng.standard_normal(2)
    t = 600
    res = ddim_invert(p, s, x0, t_target=t, n=100, c=0)
    x_t_true = linear_ode_solution(A, s, x0, t)
    delta_true = A @ x_t_true
    assert np.linalg.norm(res.delta_t - delta_true) / np.linalg.norm(delta_true) < 1e-3
    assert np.linalg.norm(res.x_t - x_t_true) / np.linalg.norm(x_t_true) < 1e-3


def test_invert_latent_reconstructs_exactly(s):
    rng = np.random.default_rng(6)
    A = 0.1 * rng.standard_normal((2, 2))
    p = make_linear_model(A)
    x0 = rng.standard_normal(2)
    res = ddim_invert(p, s, x0, t_target=750, n=12, c=0)
    rebuilt = forward_diffuse(s, res.x0_t, 750, res.delta_t)
    denom = np.linalg.norm(res.x_t)
    assert np.linalg.norm(rebuilt - res.x_t) / denom < 1e-12


def test_invert_is_pure(s):
    rng = np.random.default_rng(7)
    A = 0.1 * rng.standard_normal((2, 2))
    p = make_linear_model(A)
    x0 = rng.standard_normal(2)
    a = ddim_invert(p, s, x0, 500, 8, c=0)
    b = ddim_invert(p, s, x0, 500, 8, c=0)
    assert a.x_t.tobytes() == b.x_t.tobytes()
    assert a.tau_t.tobytes() == b.tau_t.tobytes()


def test_invert_batched_rows_match_single(s):
    rng = np.random.default_rng(8)
    A = 0.1 * rng.standard_normal((2, 2))
    p = make_linear_model(A)
    x0 = rng.standard_normal((5, 2))
    ts = np.array([100, 400, 640, 800, 999])
    batched = ddim_invert(p, s, x0, ts, n=7, c=0)
    for i in range(5):
        single = ddim_invert(p, s, x0[i], int(ts[i]), n=7, c=0)
        assert np.allclose(batched.x_t[i], single.x_t, rtol=1e-12, atol=1e-14)
        assert np.allclose(batched.tau_t[i], single.tau_t, rtol=1e-12, atol=1e-14)


def test_invert_validation(s):
    p = zero_model(2)
    with pytest.raises(InvalidArgument):
        ddim_invert(p, s, np.zeros(2), 100, 0, c=0)
    with pytest.raises(InvalidArgument):
        ddim_invert(p, s, np.zeros(2), 0, 5, c=0)


def test_loops_reject_bad_conditions_and_nonfinite_input(s):
    p = init_denoiser(DenoiserArch(2, (8,), 4, 8), 0)
    x = np.zeros((3, 2))
    bad_c = np.array([0, 4, 1])
    cfg = SamplerConfig(num_steps=4, guidance_w=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidArgument):
        ddim_sample(p, s, x, cfg, bad_c)
    with pytest.raises(InvalidArgument):
        ddim_invert(p, s, x, 300, 4, bad_c)
    with pytest.raises(InvalidArgument):
        solve_delta_fixed_point(p, s, x, 300, bad_c, DeltaStrategy("fixed_point"), rng)
    x[1, 0] = np.nan
    with pytest.raises(NumericError):
        ddim_sample(p, s, x, cfg, 1)
    with pytest.raises(NumericError):
        ddim_invert(p, s, x, 300, 4, 1)
    with pytest.raises(NumericError):
        solve_delta_fixed_point(p, s, x, 300, 1, DeltaStrategy("fixed_point"), rng)


def test_loops_reject_condition_ids_of_another_length(s):
    # 3 ids for 4 rows name both lengths instead of failing inside numpy's
    # broadcasting
    p = init_denoiser(DenoiserArch(2, (8,), 4, 8), 0)
    x, c = np.zeros((4, 2)), np.array([0, 1, 2])
    msg = r"condition ids of shape \(3,\) for a batch of 4 rows"
    for w in (1.0, 3.5):
        with pytest.raises(InvalidArgument, match=msg):
            ddim_sample(p, s, x, SamplerConfig(num_steps=4, guidance_w=w), c)
        with pytest.raises(InvalidArgument, match=msg):
            ddim_invert(p, s, x, 300, 4, c, w)
    with pytest.raises(InvalidArgument, match=msg):
        solve_delta_fixed_point(p, s, x, 300, c, DeltaStrategy("fixed_point"),
                                np.random.default_rng(0))


# ------------------------- the latent and the target held to their closed forms


def test_reconstruct_zero_delta(s):
    x0t = np.array([2.0, 3.0])
    out = forward_diffuse(s, x0t, 321, np.zeros(2))
    assert np.array_equal(out, np.sqrt(s.alpha_bar[321]) * x0t)


def test_reconstruct_fixed_point_with_echo_probe(s):
    rng = np.random.default_rng(9)
    delta = rng.standard_normal(2)
    x0t = rng.standard_normal(2)
    t = 444
    x_t = forward_diffuse(s, x0t, t, delta)
    est = oracle_initial_variable(const_model(delta), s, x_t, t, c=0)
    again = forward_diffuse(s, est, t, delta)
    assert np.allclose(again, x_t, rtol=1e-12)


def test_reconstruct_linearity_superposition(s):
    rng = np.random.default_rng(10)
    a1, a2 = rng.standard_normal((2, 3))
    b1, b2 = rng.standard_normal((2, 3))
    t = 222
    lhs = forward_diffuse(s, a1 + a2, t, b1 + b2)
    rhs = forward_diffuse(s, a1, t, b1) + forward_diffuse(s, a2, t, b2)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_tau_collapses_to_delta_when_estimate_exact(s):
    # a constant predictor leaves the inversion's estimate at x0 exactly
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(2)
    delta = rng.standard_normal(2)
    res = ddim_invert(const_model(delta), s, x0, 333, 6, c=0)
    assert np.array_equal(res.x0_t, x0)
    assert np.array_equal(res.tau_t, delta)


def test_tau_reduces_to_forward_noise_target(s):
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((3, 2))
    eps = rng.standard_normal(2)
    t = np.array([1, 555, 1000])
    res = ddim_invert(const_model(eps), s, x0, t, 4, c=0)
    assert np.array_equal(res.x_t, forward_diffuse(s, x0, t, np.tile(eps, (3, 1))))
    assert np.array_equal(res.tau_t, np.tile(eps, (3, 1)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 1000))
def test_tau_two_closed_forms_agree(seed, t):
    # (x0_t - x0) / sigma_t + delta_t, the inversion's target, equals
    # (x_t - sqrt(ab_t) x0) / sqrt(1 - ab_t) for its latent
    s = make_schedule("cosine", 1000)
    p = init_denoiser(DenoiserArch(2, (8,), 1, 4), seed)
    x0 = np.random.default_rng(seed).standard_normal((3, 2))
    res = ddim_invert(p, s, x0, t, 4, c=0)
    other = (res.x_t - np.sqrt(s.alpha_bar[t]) * x0) / np.sqrt(1 - s.alpha_bar[t])
    scale = max(np.max(np.abs(res.tau_t)), 1.0)
    assert np.max(np.abs(res.tau_t - other)) / scale < 1e-10


def test_tau_rejects_t0(s):
    # sigma_0 = 0: no strategy makes a target at t = 0
    for kind in DELTA_KINDS:
        with pytest.raises(InvalidArgument, match=r"timestep out of range \[1, 1000\]"):
            make_targets(zero_model(2), s, np.zeros(2), 0, 0, DeltaStrategy(kind),
                         np.random.default_rng(0))


def test_a_sample_that_overflows_names_its_step(s):
    # the start is finite, so the input check passes; the first update
    # divides 1e308 by sqrt(ab) < 1 and overflows
    p = init_denoiser(DenoiserArch(2, (8,), 4, 8), 0)
    cfg = SamplerConfig(num_steps=4, guidance_w=1.0, t_start=1000)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=r"^non-finite sample at step 0 \(t=1000 -> 750\)$"):
        ddim_sample(p, s, np.full((3, 2), 1e308), cfg, 1)


def test_a_fixed_point_iterate_that_overflows_names_its_iteration(s):
    # eps(x) = 1e300 x: the first iterate is finite, the second is not
    m = make_linear_model(1e300 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="^non-finite fixed-point iterate at iteration 1$"):
        solve_delta_fixed_point(m, s, np.ones((3, 2)), 300, 0, DeltaStrategy("fixed_point"),
                                np.random.default_rng(0))
