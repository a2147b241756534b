"""The sampler loops bind their loop invariants once per call: the noise
predictor's conditions, workspaces and grid time embeddings, and the
schedule coefficients of the grid. These tests hold the bound loops to the
bytes of the per-step loops in conftest, and check that every step still
runs its own forward, shape check and finiteness check."""
import numpy as np
import pytest

import inpo.denoiser as denoiser_mod
from inpo.denoiser import (
    NULL_CONDITION,
    BoundWorkspace,
    DenoiserArch,
    NoisePredictor,
    eps_forward,
    init_denoiser,
    predict_noise,
    time_embedding,
)
from inpo.errors import InvalidArgument, NumericError
from inpo.preference import DeltaStrategy, solve_delta_fixed_point
from inpo.sampler import SamplerConfig, ddim_invert, ddim_sample
from inpo.schedule import make_schedule

from conftest import (
    oracle_ddim_invert,
    oracle_ddim_sample,
    oracle_fixed_point,
    oracle_noise_fn,
)

ARCH = DenoiserArch(2, (16, 16), 4, 8)
GUIDANCE = [0.0, 1.0, 3.5]


@pytest.fixture(scope="module")
def s():
    return make_schedule("cosine", 1000)


@pytest.fixture(scope="module")
def p():
    return init_denoiser(ARCH, 12)


def _batch(shape, seed):
    """Samples, one condition per row mixing in NULL_CONDITION, and per-row
    timesteps. A shape of (2,) is one 1-D sample."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    n = 1 if x.ndim == 1 else shape[0]
    c = np.array([2, NULL_CONDITION, 0, NULL_CONDITION, 3, 1, 2][:n])
    return x, c if x.ndim == 2 else int(c[0]), rng.integers(1, 1000, size=n)


SHAPES = [(2,), (1, 2), (7, 2)]


@pytest.mark.parametrize("w", GUIDANCE)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("num_steps", [1, 7])
def test_ddim_sample_matches_per_step_oracle_bytes(s, p, w, shape, num_steps):
    x, c, _ = _batch(shape, 1)
    for cond in (c, NULL_CONDITION):
        cfg = SamplerConfig(num_steps, w, t_start=950)
        got = ddim_sample(p, s, x, cfg, cond)
        assert got.shape == np.shape(x)
        assert got.tobytes() == oracle_ddim_sample(p, s, x, cfg, cond).tobytes()


@pytest.mark.parametrize("w", GUIDANCE)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("per_row_t", [False, True])
def test_ddim_invert_matches_per_step_oracle_bytes(s, p, w, shape, n, per_row_t):
    x, c, t_rows = _batch(shape, 2)
    t = t_rows if per_row_t and np.ndim(x) == 2 else 640
    got = ddim_invert(p, s, x, t, n, c, w)
    want = oracle_ddim_invert(p, s, x, t, n, c, w)
    for field in ("x0_t", "delta_t", "x_t", "tau_t"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape == np.shape(x)
        assert a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("per_row_t", [False, True])
@pytest.mark.parametrize("tol", [1e-8, 0.3])
def test_fixed_point_matches_per_step_oracle_bytes(s, p, shape, per_row_t, tol):
    x, c, t_rows = _batch(shape, 3)
    t = t_rows if per_row_t and np.ndim(x) == 2 else 640
    cfg = DeltaStrategy("fixed_point", max_iters=6, tol=tol)
    got = solve_delta_fixed_point(p, s, x, t, c, cfg, np.random.default_rng(5))
    want = oracle_fixed_point(p, s, x, t, c, cfg, np.random.default_rng(5))
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert np.asarray(got[2]).tobytes() == np.asarray(want[2]).tobytes()


@pytest.mark.parametrize("w", GUIDANCE)
def test_predict_noise_continuous_t_matches_oracle_bytes(p, w):
    x, c, _ = _batch((7, 2), 4)
    for t in (417.25, np.linspace(3.5, 990.75, 7)):
        want = oracle_noise_fn(p, c, w, 7)(x, t)
        assert predict_noise(p, x, t, c, w).tobytes() == want.tobytes()
    one = predict_noise(p, x[0], 417.25, 1, w)
    assert one.tobytes() == oracle_noise_fn(p, 1, w, 1)(x[:1], 417.25)[0].tobytes()


def test_bound_workspace_rewrites_the_blocks_that_change(p):
    # whatever rows and step a forward asks for, a bound workspace gives the
    # bytes of an unbound forward at those rows and timesteps
    rng = np.random.default_rng(6)
    grid = rng.integers(1, 1000, size=(3, 5))
    ws = BoundWorkspace(ARCH, 5,
                        time_embedding(grid.ravel(), ARCH.time_embed_dim).reshape(3, 5, -1))
    rows_a, rows_b = rng.integers(0, 5, size=5), rng.integers(0, 5, size=5)
    for i, rows in [(0, rows_a), (0, rows_b), (2, rows_b), (2, rows_a), (1, rows_a), (1, rows_a)]:
        x = rng.standard_normal((5, 2))
        got = eps_forward(p, x, i, rows, ws=ws)
        assert got.tobytes() == eps_forward(p, x, grid[i], rows).tobytes()
        assert not np.shares_memory(got, ws.bufs[0])


@pytest.mark.parametrize("w", [0.0, 1.0, 2.5])
def test_a_rebind_retiles_biases_changed_in_place(p, w):
    # a bind copies the biases into row tiles that both guidance branches
    # read; biases changed in place since the last bind are re-tiled, so
    # each call has the bytes of unbound forwards on the changed model. A
    # guided call runs the null rows then the condition rows in the one
    # workspace, each forward rewriting the condition block the other left
    rng = np.random.default_rng(8)
    for n in (7, 64, 1024):
        q = p.copy()
        x = rng.standard_normal((n, 2))
        c = np.resize(_batch((7, 2), 8)[1], n)
        eps = NoisePredictor(q, w, n)
        for _ in range(3):
            for b in q.biases:
                b += rng.standard_normal(b.shape)
            eps.bind(c, [[640], [17]])
            for i, t in enumerate((640, 17)):
                assert eps(x, i).tobytes() == oracle_noise_fn(q, c, w, n)(x, t).tobytes()
                assert eps.ws.rows is eps.rows


@pytest.mark.parametrize("w,c", [(0.0, 1), (1.0, 1), (3.5, 1), (3.5, NULL_CONDITION)])
def test_every_guidance_branch_checks_each_sample(w, c):
    p = init_denoiser(ARCH, 0)
    eps = NoisePredictor(p, w, 3).bind(c, [[5], [9]])
    good = np.zeros((3, 2))
    eps(good, 0)
    bad = good.copy()
    bad[1, 0] = np.nan
    for i in (0, 1):
        with pytest.raises(NumericError):
            eps(bad, i)
        with pytest.raises(InvalidArgument, match="batch shape"):
            eps(np.zeros((3, 3)), i)
        with pytest.raises(InvalidArgument, match="batch shape"):
            eps(np.zeros((2, 2)), i)
    # a rejected sample leaves the bound workspace usable
    assert eps(good, 1).tobytes() == oracle_noise_fn(p, c, w, 3)(good, 9).tobytes()


@pytest.fixture
def forwards(monkeypatch):
    calls = []
    real = denoiser_mod.eps_forward

    def counted(model, x, t, rows, ws=None):
        calls.append(len(x))
        return real(model, x, t, rows, ws=ws)

    monkeypatch.setattr(denoiser_mod, "eps_forward", counted)
    return calls


@pytest.mark.parametrize("w,per_step", [(0.0, 1), (1.0, 1), (3.5, 2)])
def test_ddim_sample_costs_one_forward_per_step_and_branch(s, p, forwards, w, per_step):
    ddim_sample(p, s, np.zeros((5, 2)), SamplerConfig(6, w), 2)
    assert forwards == [5] * (6 * per_step)


def test_inversion_and_fixed_point_cost_one_forward_per_step(s, p, forwards):
    ddim_invert(p, s, np.zeros((5, 2)), np.arange(5) + 300, 4, 2, 3.5)
    assert forwards == [5] * 8
    forwards.clear()
    cfg = DeltaStrategy("fixed_point", max_iters=3, tol=1e-12)
    solve_delta_fixed_point(p, s, np.zeros((5, 2)), 300, 2, cfg, np.random.default_rng(0))
    assert forwards == [5] * 4


def test_a_sampler_call_embeds_its_grid_once(s, p, monkeypatch):
    calls = []
    real = denoiser_mod.time_embedding

    def counted(t, dim, out=None):
        calls.append(np.shape(t))
        return real(t, dim, out=out)

    monkeypatch.setattr(denoiser_mod, "time_embedding", counted)
    ddim_sample(p, s, np.zeros((5, 2)), SamplerConfig(6, 3.5), 2)
    ddim_invert(p, s, np.zeros((5, 2)), np.arange(5) + 300, 4, 2)
    ddim_invert(p, s, np.zeros((5, 2)), 300, 4, 2)
    solve_delta_fixed_point(p, s, np.zeros((5, 2)), 300, 2,
                            DeltaStrategy("fixed_point", max_iters=3), np.random.default_rng(0))
    assert calls == [(6, 1), (4, 5), (4, 1), (1, 1)]


# ------------------------------------------------------------ input checks


def test_fixed_point_accepts_a_list_sample(s, p):
    cfg = DeltaStrategy("fixed_point", max_iters=4)
    got = solve_delta_fixed_point(p, s, [0.3, -1.2], 300, 1, cfg, np.random.default_rng(0))
    want = solve_delta_fixed_point(p, s, np.array([0.3, -1.2]), 300, 1, cfg,
                                   np.random.default_rng(0))
    assert got[0].shape == (2,)
    assert got[0].tobytes() == want[0].tobytes()
    inv = ddim_invert(p, s, [0.3, -1.2], 300, 4, 1)
    assert inv.x_t.tobytes() == ddim_invert(p, s, np.array([0.3, -1.2]), 300, 4, 1).x_t.tobytes()


def test_per_row_t_of_another_length_is_invalid_argument(s, p):
    x = np.zeros((4, 2))
    t = np.array([100, 200, 300])
    with pytest.raises(InvalidArgument, match=r"length 3 for a batch of 4 rows"):
        ddim_invert(p, s, x, t, 3, 0)
    with pytest.raises(InvalidArgument, match=r"length 3 for a batch of 4 rows"):
        solve_delta_fixed_point(p, s, x, t, 0, DeltaStrategy("fixed_point"),
                                np.random.default_rng(0))
    with pytest.raises(InvalidArgument, match=r"length 3 for a batch of 4 rows"):
        predict_noise(p, x, t, 0)
    t2 = np.array([[100, 200], [300, 400]])
    with pytest.raises(InvalidArgument, match="per-row timesteps"):
        ddim_invert(p, s, x, t2, 3, 0)
    with pytest.raises(InvalidArgument, match="per-row timesteps"):
        solve_delta_fixed_point(p, s, x, t2, 0, DeltaStrategy("fixed_point"),
                                np.random.default_rng(0))
    with pytest.raises(InvalidArgument, match="per-row timesteps"):
        predict_noise(p, x, t2, 0)
    # one timestep per row, or one for all, is accepted
    ddim_invert(p, s, x, np.array([100, 200, 300, 400]), 3, 0)
    ddim_invert(p, s, x, np.array([100]), 3, 0)
