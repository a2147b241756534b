import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inpo.data import RewardSpec, default_reward_spec, score
from inpo.denoiser import DenoiserArch, init_denoiser
from inpo.errors import InvalidArgument
from inpo.evaluation import (
    EvalReport,
    emit_report,
    inversion_roundtrip,
    roundtrip_errors,
    win_rate,
)
from inpo.sampler import SamplerConfig, ddim_invert, ddim_sample
from inpo.schedule import make_schedule

from conftest import (
    linear_ode_solution,
    make_linear_model,
    make_tanh_model,
    oracle_ddim_invert,
    oracle_ode_integrate,
    oracle_sample_on,
    oracle_win_rate_csv,
    zero_model,
)


@pytest.fixture(scope="module")
def s():
    return make_schedule("cosine", 1000)


@pytest.fixture(scope="module")
def cfg():
    return SamplerConfig(num_steps=12, guidance_w=0.0)


def test_win_rate_identical_models_is_half(s, cfg):
    p = make_linear_model(0.2 * np.eye(2), num_conditions=8)
    spec = default_reward_spec("eight_gaussians")
    rep = win_rate(p, p, s, spec, range(8), 64, cfg, seed=1)
    assert rep.win_rate == 0.5
    assert rep.mean_reward_a == rep.mean_reward_b


def test_win_rate_constant_reward_is_half(s, cfg):
    a = make_linear_model(0.2 * np.eye(2), num_conditions=8)
    b = make_linear_model(0.1 * np.eye(2), num_conditions=8)
    spec = RewardSpec("linear", direction=np.zeros(2))
    rep = win_rate(a, b, s, spec, range(8), 64, cfg, seed=2)
    assert rep.win_rate == 0.5


def test_win_rate_symmetry(s, cfg):
    a = make_linear_model(0.25 * np.eye(2), num_conditions=8)
    b = make_linear_model(-0.1 * np.eye(2), num_conditions=8)
    spec = default_reward_spec("eight_gaussians")
    r1 = win_rate(a, b, s, spec, range(8), 128, cfg, seed=3)
    r2 = win_rate(b, a, s, spec, range(8), 128, cfg, seed=3)
    assert r1.win_rate + r2.win_rate == 1.0


@pytest.mark.parametrize("w", [1.0, 2.0])
def test_win_rate_one_batch_matches_per_condition_sampling(s, w):
    arch = DenoiserArch(2, (16,), 8, 8)
    a, b = init_denoiser(arch, 1), init_denoiser(arch, 2)
    spec = default_reward_spec("eight_gaussians")
    gen = SamplerConfig(num_steps=12, guidance_w=w, t_start=950)
    n, seed = 200, 5
    rep = win_rate(a, b, s, spec, range(8), n, gen, seed)
    # the trial draws of win_rate, sampled one condition at a time
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    cond = rng.integers(0, 8, size=n)
    latents = rng.standard_normal((n, 2))
    xa, xb = np.empty_like(latents), np.empty_like(latents)
    for c in np.unique(cond):
        m = cond == c
        xa[m] = ddim_sample(a, s, latents[m], gen, int(c))
        xb[m] = ddim_sample(b, s, latents[m], gen, int(c))
    ra = np.array([score(spec, xa[i], int(cond[i])) for i in range(n)])
    rb = np.array([score(spec, xb[i], int(cond[i])) for i in range(n)])
    trials = np.array([row[1:] for row in rep.trials])
    assert np.array_equal(trials[:, 0], cond)
    np.testing.assert_allclose(trials[:, 1], ra, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trials[:, 2], rb, rtol=0, atol=1e-12)
    assert np.array_equal(trials[:, 3], np.where(ra > rb, 1.0, np.where(ra < rb, 0.0, 0.5)))


def test_win_rate_validation(s, cfg):
    p = zero_model(2)
    with pytest.raises(InvalidArgument):
        win_rate(p, p, s, default_reward_spec("eight_gaussians"), range(8), 0, cfg, 1)


def test_roundtrip_zero_net_is_exact(s):
    p = zero_model(2)
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((6, 2))
    table = inversion_roundtrip(p, s, samples, t_target=800, n_grid=[1, 5, 10])
    for err in table.values():
        assert err < 1e-12


def test_roundtrip_empty_samples_rejected(s):
    with pytest.raises(InvalidArgument):
        inversion_roundtrip(zero_model(2), s, np.zeros((0, 2)), 800, [5])


def test_roundtrip_takes_one_target_time(s):
    # a per-row t would give each row its own inversion grid, and the
    # round trip samples back down one
    with pytest.raises(InvalidArgument, match="one timestep"):
        roundtrip_errors(zero_model(2), s, np.zeros((2, 2)), np.array([10, 20]), 2)


@pytest.mark.parametrize("t_target, n", [(15, 10), (950, 40)])
@pytest.mark.parametrize("w", [0.0, 2.0])
def test_roundtrip_samples_back_down_the_inversion_grid(s, t_target, n, w):
    # at these (t, n) the inversion's grid rint(linspace(0, 1, n + 1) * t)
    # and the sampler's rint(linspace(t, 0, n + 1)) differ, so a round trip
    # must undo the inversion's own steps
    p = init_denoiser(DenoiserArch(2, (16, 16), 8, 8), 5)
    rng = np.random.default_rng(6)
    x, c = rng.standard_normal((9, 2)), rng.integers(0, 8, size=9)
    up = np.rint(np.linspace(0.0, 1.0, n + 1) * t_target).astype(np.int64)
    assert up.tolist() != np.rint(np.linspace(t_target, 0, n + 1))[::-1].tolist()
    x_t = oracle_ddim_invert(p, s, x, t_target, n, c, w).x_t
    want = np.linalg.norm(oracle_sample_on(p, s, x_t, up[::-1], w, c) - x, axis=1)
    got = roundtrip_errors(p, s, x, t_target, n, c, w)
    assert got.tobytes() == want.tobytes()


def test_oracle_zero_net_exact_scaling(s):
    p = zero_model(2)
    x = np.array([1.0, -2.0])
    out = oracle_ode_integrate(p, s, x, t_from=700, t_to=100, steps=16)
    expect = x * np.sqrt(s.alpha_bar[100] / s.alpha_bar[700])
    assert np.allclose(out, expect, rtol=1e-12)


def test_oracle_matches_matrix_exponential(s):
    rng = np.random.default_rng(5)
    B = rng.standard_normal((2, 2))
    A = 0.15 * (B + B.T) / 2
    p = make_linear_model(A)
    x0 = rng.standard_normal(2)
    t = 700
    # integrate upward from clean data and compare to the closed form
    out = oracle_ode_integrate(p, s, x0, t_from=0, t_to=t, steps=1000)
    expect = linear_ode_solution(A, s, x0, t)
    assert np.linalg.norm(out - expect) / np.linalg.norm(expect) < 1e-6


def test_oracle_self_convergence_fourth_order(s):
    # smooth nonlinear time-independent probe; error vs a 10x reference must
    # shrink at fourth order as the step count doubles
    rng = np.random.default_rng(6)
    probe = make_tanh_model(0.6 * rng.standard_normal((2, 2)))
    x = rng.standard_normal(2)
    ref = oracle_ode_integrate(probe, s, x, 0, 800, steps=1280)
    errs = []
    steps_grid = [8, 16, 32, 64]
    for n in steps_grid:
        out = oracle_ode_integrate(probe, s, x, 0, 800, steps=n)
        errs.append(np.linalg.norm(out - ref))
    slope = np.polyfit(np.log(steps_grid), np.log(errs), 1)[0]
    assert -5 < slope < -3


def test_sampler_agrees_with_oracle(s):
    rng = np.random.default_rng(17)
    B = rng.standard_normal((2, 2))
    A = 0.05 * (B + B.T) / 2
    p = make_linear_model(A)
    t = 600
    x_t = linear_ode_solution(A, s, rng.standard_normal(2), t)
    from inpo.sampler import SamplerConfig, ddim_sample

    down = ddim_sample(p, s, x_t, SamplerConfig(num_steps=100, t_start=t), c=0)
    orc = oracle_ode_integrate(p, s, x_t, t, 0, steps=800)
    assert np.linalg.norm(down - orc) / np.linalg.norm(orc) < 1e-3


def test_oracle_agrees_with_inversion(s):
    rng = np.random.default_rng(7)
    B = rng.standard_normal((2, 2))
    A = 0.05 * (B + B.T) / 2
    p = make_linear_model(A)
    x0 = rng.standard_normal(2)
    t = 600
    inv = ddim_invert(p, s, x0, t, n=100, c=0)
    orc = oracle_ode_integrate(p, s, x0, 0, t, steps=400)
    assert np.linalg.norm(inv.x_t - orc) / np.linalg.norm(orc) < 1e-3


def test_emit_and_parse_report(tmp_path):
    rep = EvalReport(
        win_rate=0.625,
        n_trials=8,
        mean_reward_a=-0.5,
        mean_reward_b=-0.75,
        median_reward_a=-0.4,
        median_reward_b=-0.7,
        roundtrip_errors={5: 0.125, 10: 0.0625},
        roundtrip_std={5: 0.01, 10: 0.005},
        wall_times={"n10": 1.5},
        seeds={"seed": 7},
        trials=[(0, 1, -0.5, -0.75, 1.0)],
    )
    emit_report(rep, tmp_path)
    with open(tmp_path / "report.json") as fh:
        back = json.load(fh)
    assert back["win_rate"] == rep.win_rate
    assert back["roundtrip_errors"]["5"] == 0.125
    assert back["seeds"]["seed"] == 7
    with open(tmp_path / "win_rate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["reward_a"] == "-0.5"
    with open(tmp_path / "roundtrip.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["mean_err"]) == 0.125


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, -1.7976931348623157e308]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trials=st.lists(st.tuples(st.integers(0, 2**31), st.integers(-1, 7), _EDGE_FLOATS,
                                 _EDGE_FLOATS, st.sampled_from([0.0, 0.5, 1.0])),
                       max_size=6))
def test_win_rate_csv_is_the_csv_writer_bytes(tmp_path, trials):
    emit_report(EvalReport(trials=trials, n_trials=len(trials)), tmp_path)
    assert (tmp_path / "win_rate.csv").read_bytes() == oracle_win_rate_csv(trials)


def test_win_rate_trials_are_python_scalars(s, tmp_path):
    arch = DenoiserArch(2, (16,), 8, 8)
    rep = win_rate(init_denoiser(arch, 1), init_denoiser(arch, 2), s,
                   default_reward_spec("eight_gaussians"), range(8), 40,
                   SamplerConfig(num_steps=6, guidance_w=2.0), seed=3)
    assert [i for i, *_ in rep.trials] == list(range(40))
    assert all(list(map(type, row)) == [int, int, float, float, float] for row in rep.trials)
    emit_report(rep, tmp_path)
    assert (tmp_path / "win_rate.csv").read_bytes() == oracle_win_rate_csv(rep.trials)


def test_emit_empty_maps(tmp_path):
    emit_report(EvalReport(), tmp_path)
    with open(tmp_path / "roundtrip.csv") as fh:
        rows = fh.read().splitlines()
    assert rows == ["n,mean_err,std_err"]
    with open(tmp_path / "timing.csv") as fh:
        rows = fh.read().splitlines()
    assert rows == ["config_id,seconds"]


def test_csv_full_precision_cross_parser(tmp_path):
    val = 0.1234567890123456789
    rep = EvalReport(trials=[(0, 3, val, -val, 1.0)], n_trials=1)
    emit_report(rep, tmp_path)
    with open(tmp_path / "win_rate.csv") as fh:
        next(fh)
        line = next(fh)
    cells = line.strip().split(",")
    assert float(cells[2]) == float(repr(val))
    assert float(cells[2]) == val
