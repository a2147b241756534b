"""The bound inverter: align builds one Inverter per call and every window
rebinds it. These tests hold a rebound inverter to the bytes of a fresh
ddim_invert, also when the model changes in place between windows, as Adam
changes it, and check that it fails as ddim_invert does."""
import numpy as np
import pytest

from inpo.denoiser import DenoiserArch, init_denoiser
from inpo.errors import InvalidArgument, NumericError
from inpo.preference import DeltaStrategy, make_targets
from inpo.sampler import Inverter, ddim_invert
from inpo.schedule import make_schedule
from inpo.trainer import AdamState, adam_step

from conftest import make_linear_model, oracle_ddim_invert

ARCH = DenoiserArch(2, (16, 16), 4, 8)
GUIDANCE = [0.0, 1.0, 0.5]
FIELDS = ("x0_t", "delta_t", "x_t", "tau_t")


@pytest.fixture(scope="module")
def s():
    return make_schedule("cosine", 1000)


def _window(rng, rows):
    """Samples, per-row timesteps and per-row conditions mixing in the null one."""
    return (rng.standard_normal((rows, 2)), rng.integers(1, 1001, size=rows),
            rng.integers(-1, ARCH.num_conditions, size=rows))


def _assert_same(got, want):
    for field in FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("w", GUIDANCE)
@pytest.mark.parametrize("n", [1, 5])
def test_rebound_inverter_matches_a_fresh_ddim_invert(s, w, n):
    # at n=1 every call evaluates grid step 0 only, so a rebind must rewrite
    # the time block even though the step index repeats
    p = init_denoiser(ARCH, 2)
    inv = Inverter(p, s, n, 12, w)
    rng = np.random.default_rng(1)
    # per-row t, then one t for every row, then per-row t again
    for per_row in (True, False, True, True):
        x0, t, c = _window(rng, 12)
        tt = t if per_row else int(t[0])
        _assert_same(inv(x0, tt, c), ddim_invert(p, s, x0, tt, n, c, w))


@pytest.mark.parametrize("w", GUIDANCE)
def test_rebound_inverter_reads_the_model_as_updated_in_place(s, w):
    # Adam rewrites params.vec, and with it the condition-embedding table,
    # between windows; a window that kept the last one's condition or time
    # block would differ from a fresh inversion here
    p = init_denoiser(ARCH, 3)
    inv = Inverter(p, s, 4, 10, w)
    adam = AdamState.zeros_like(p.vec)
    work = (np.empty_like(p.vec), np.empty_like(p.vec))
    rng = np.random.default_rng(2)
    x0, t, c = _window(rng, 10)
    for _ in range(3):
        before = p.vec.copy()
        _assert_same(inv(x0, t, c), ddim_invert(p, s, x0, t, 4, c, w))
        adam_step(p.vec, rng.standard_normal(p.vec.size), adam, 0.05, work)
        assert not np.array_equal(p.cond_embed, before[-p.cond_embed.size:].reshape(5, 8))
    x0, t, c = _window(rng, 10)
    _assert_same(inv(x0, t, c), ddim_invert(p, s, x0, t, 4, c, w))


@pytest.mark.parametrize("w", [0.0, 2.5])
def test_rebound_inverter_retiles_the_biases_an_adam_step_moved(s, w):
    # the bias tiles bound with the inverter's predictor are copied again at
    # every call: on either side of an Adam step the inversion has the bytes
    # of the per-step oracle's unbound forwards on the model as it is
    p = init_denoiser(ARCH, 4)
    rng = np.random.default_rng(5)
    for b in p.biases:
        b += rng.standard_normal(b.shape)
    inv = Inverter(p, s, 4, 10, w)
    adam = AdamState.zeros_like(p.vec)
    work = (np.empty_like(p.vec), np.empty_like(p.vec))
    x0, t, c = _window(rng, 10)
    for _ in range(2):
        _assert_same(inv(x0, t, c), oracle_ddim_invert(p, s, x0, t, 4, c, w))
        before = [b.copy() for b in p.biases]
        adam_step(p.vec, rng.standard_normal(p.vec.size), adam, 0.05, work)
        assert not any(np.array_equal(b, old) for b, old in zip(p.biases, before))
    _assert_same(inv(x0, t, c), oracle_ddim_invert(p, s, x0, t, 4, c, w))


def test_inverter_names_the_nonfinite_step_as_ddim_invert_does(s):
    # eps(x) = 1e40 x grows the state each step until it overflows
    model = make_linear_model(1e40 * np.eye(2))
    x0 = np.array([[0.5, -0.25], [0.1, 0.2]])
    t = np.array([900, 1000])
    msg = "non-finite inversion state at step 8 of 12"
    inv = Inverter(model, s, 12, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"^{msg}$"):
            ddim_invert(model, s, x0, t, 12, 0)
        for _ in range(2):
            with pytest.raises(NumericError, match=f"^{msg}$"):
                inv(x0, t, 0)
    # a failed call leaves the inverter usable: zero samples stay at zero
    zeros = np.zeros_like(x0)
    _assert_same(inv(zeros, t, 0), ddim_invert(model, s, zeros, t, 12, 0))


def test_inverter_checks_its_inputs(s):
    p = init_denoiser(ARCH, 4)
    inv = Inverter(p, s, 3, 4)
    x0 = np.zeros((4, 2))
    with pytest.raises(InvalidArgument, match=r"sample batch shape \(3, 2\) != \(4, 2\)"):
        inv(np.zeros((3, 2)), 500, 0)
    with pytest.raises(InvalidArgument, match=r"timestep out of range \[1, 1000\]"):
        inv(x0, np.array([0, 5, 6, 7]), 0)
    with pytest.raises(InvalidArgument, match="per-row timesteps of length 3 for a batch of 4"):
        inv(x0, np.array([5, 6, 7]), 0)
    with pytest.raises(InvalidArgument, match="condition id out of range"):
        inv(x0, 500, np.array([0, 1, 4, 0]))
    with pytest.raises(InvalidArgument, match="inversion step count"):
        Inverter(p, s, 0, 4)


def test_make_targets_runs_inversion_in_the_given_inverter(s):
    p = init_denoiser(ARCH, 5)
    strategy = DeltaStrategy("inversion", n=4, guidance_w_inv=0.5)
    rng = np.random.default_rng(3)
    x0, t, c = _window(rng, 6)
    inv = Inverter(p, s, 4, 6, 0.5)
    got = make_targets(p, s, x0, t, c, strategy, None, inverter=inv)
    want = make_targets(p, s, x0, t, c, strategy, None)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for other in (Inverter(p.copy(), s, 4, 6, 0.5), Inverter(p, s, 3, 6, 0.5),
                  Inverter(p, s, 4, 6, 1.0), Inverter(p, make_schedule("cosine", 1000), 4, 6, 0.5)):
        with pytest.raises(InvalidArgument, match="inverter is bound to another"):
            make_targets(p, s, x0, t, c, strategy, None, inverter=other)
