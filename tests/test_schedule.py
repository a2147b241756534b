import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inpo.errors import InvalidArgument
from inpo.schedule import NoiseSchedule, forward_diffuse, make_schedule

KINDS = ("cosine", "linear_beta")


@pytest.fixture(scope="module", params=KINDS)
def sched(request):
    return make_schedule(request.param, 1000)


def test_endpoints(sched):
    assert sched.alpha_bar[0] == 1.0
    assert sched.sigma[0] == 0.0
    assert sched.alpha_bar[sched.T] > 0.0


def test_strict_monotonicity(sched):
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert np.all(np.diff(sched.sigma) > 0)


def test_sigma_alpha_identity(sched):
    # sigma^2 + 1 == 1/alpha_bar at every grid point
    lhs = sched.sigma**2 + 1.0
    rhs = 1.0 / sched.alpha_bar
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_sigma_formula(sched):
    expect = np.sqrt(1.0 - sched.alpha_bar) / np.sqrt(sched.alpha_bar)
    assert np.allclose(sched.sigma, expect, rtol=1e-12, atol=0)


def test_loss_weight_positive(sched):
    assert np.all(sched.loss_weight[1:] > 0)


def test_sigma_one_where_alpha_half():
    # sigma = sqrt(1 - a)/sqrt(a) equals 1 exactly at a = 1/2
    assert math.sqrt(1 - 0.5) / math.sqrt(0.5) == pytest.approx(1.0, rel=1e-15)
    s = make_schedule("cosine", 1000)
    k = int(np.argmin(np.abs(s.alpha_bar - 0.5)))
    assert s.sigma[k] == pytest.approx(
        math.sqrt(1 - s.alpha_bar[k]) / math.sqrt(s.alpha_bar[k]), rel=1e-14
    )


def test_linear_beta_product_oracle():
    # alpha_bar[T] must equal the running product of (1 - beta_s) computed
    # independently in exact rational arithmetic.
    T = 1000
    s = make_schedule("linear_beta", T)
    betas = np.linspace(1e-4, 0.02, T)
    prod = Fraction(1)
    for b in betas:
        prod *= 1 - Fraction(b)
    assert abs(s.alpha_bar[T] - float(prod)) / float(prod) < 1e-12


def test_cosine_midpoint_matches_closed_form():
    T = 1000
    s = make_schedule("cosine", T)
    t = T // 2
    off = 0.008
    f = lambda u: math.cos(((u / T + off) / (1 + off)) * math.pi / 2.0) ** 2
    expect = f(t) / f(0)
    ab, sg = s.alpha_bar[t], s.sigma[t]
    assert ab == pytest.approx(expect, rel=1e-12)
    assert sg == pytest.approx(math.sqrt(1 - expect) / math.sqrt(expect), rel=1e-12)


def test_make_schedule_errors():
    with pytest.raises(InvalidArgument):
        make_schedule("cosine", 1)
    with pytest.raises(InvalidArgument):
        make_schedule("nope", 100)
    with pytest.raises(InvalidArgument):
        make_schedule("cosine", 100, loss_weight="nope")


def test_snr_loss_weight():
    s = make_schedule("cosine", 100, loss_weight="snr")
    assert np.allclose(s.loss_weight[1:], s.sigma[1:] ** 2, rtol=1e-15)
    assert np.all(s.loss_weight[1:] > 0)


def test_forward_diffuse_t0_identity():
    s = make_schedule("cosine", 100)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(4)
    eps = rng.standard_normal(4)
    assert np.array_equal(forward_diffuse(s, x0, 0, eps), x0)


def test_forward_diffuse_zero_noise():
    s = make_schedule("cosine", 100)
    x0 = np.array([1.0, -2.0])
    t = 40
    out = forward_diffuse(s, x0, t, np.zeros(2))
    assert np.array_equal(out, np.sqrt(s.alpha_bar[t]) * x0)


def test_forward_diffuse_mc_variance():
    # per-coordinate sample variance of (x_t - sqrt(ab) x0) must sit within
    # 3 standard errors of 1 - alpha_bar
    s = make_schedule("cosine", 1000)
    t = 350
    n = 100_000
    rng = np.random.default_rng(7)
    x0 = np.array([0.3, -1.1])
    eps = rng.standard_normal((n, 2))
    xt = forward_diffuse(s, np.tile(x0, (n, 1)), t, eps)
    resid = xt - np.sqrt(s.alpha_bar[t]) * x0
    var = resid.var(axis=0)
    target = 1.0 - s.alpha_bar[t]
    se = target * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - target) < 3 * se)


def test_forward_diffuse_linearity():
    s = make_schedule("linear_beta", 500)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(5)
    eps = rng.standard_normal(5)
    a = 3.7
    lhs = forward_diffuse(s, a * x0, 123, a * eps)
    rhs = a * forward_diffuse(s, x0, 123, eps)
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-12


def test_forward_diffuse_dim_mismatch():
    s = make_schedule("cosine", 100)
    with pytest.raises(InvalidArgument):
        forward_diffuse(s, np.zeros(3), 10, np.zeros(4))


def test_forward_diffuse_batched_rows_match_single():
    s = make_schedule("cosine", 200)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((6, 2))
    eps = rng.standard_normal((6, 2))
    ts = rng.integers(1, 201, size=6)
    batched = forward_diffuse(s, x0, ts, eps)
    for i in range(6):
        row = forward_diffuse(s, x0[i], int(ts[i]), eps[i])
        assert np.array_equal(batched[i], row)


def test_immutability():
    s = make_schedule("cosine", 50)
    with pytest.raises(ValueError):
        s.alpha_bar[3] = 0.5


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), T=st.integers(min_value=2, max_value=64))
def test_invariants_hold_for_any_size(kind, T):
    s = make_schedule(kind, T)
    assert s.alpha_bar[0] == 1.0
    assert s.sigma[0] == 0.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all(np.diff(s.sigma) > 0)
    assert np.max(np.abs(s.sigma**2 + 1 - 1 / s.alpha_bar) * s.alpha_bar) < 1e-12
    assert isinstance(s, NoiseSchedule)
