import csv
import os
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import inpo
import inpo.denoiser as denoiser_mod
import inpo.preference as preference_mod
import inpo.trainer as trainer_mod
from inpo.data import RewardSpec
from inpo.denoiser import (
    NULL_CONDITION,
    DenoiserArch,
    NoisePredictor,
    StepWorkspace,
    _cond_rows,
    init_denoiser,
    params_to_bytes,
    value_and_grad,
)
from inpo.errors import InvalidArgument, TrainingError
from inpo.preference import (
    DeltaStrategy,
    _pair_step,
    _sft_step,
    make_targets,
    pair_loss_terms,
    sft_terms,
)
from inpo.sampler import Inverter, SamplerConfig
from inpo.schedule import forward_diffuse, make_schedule
from inpo.trainer import (
    ALIGN_METHODS,
    AdamState,
    AlignConfig,
    adam_step,
    align,
    pretrain_base,
    sft_ref_init,
    warmup_lr,
)

from conftest import PreferencePair, oracle_adam_step, pair_table, sft_loss

ARCH = DenoiserArch(2, (12,), 4, 8)


@pytest.fixture(scope="module")
def s():
    return make_schedule("cosine", 200)


@pytest.fixture(scope="module")
def tiny_records():
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(32):
        c = i % 4
        pairs.append(
            PreferencePair(
                condition=c,
                winner=rng.standard_normal(2) * 0.3,
                loser=rng.standard_normal(2) * 0.3 + 1.0,
                reward_w=1.0,
                reward_l=0.0,
                seed=0,
            )
        )
    return pairs


@pytest.fixture(scope="module")
def tiny_pairs(tiny_records):
    return pair_table(tiny_records)


@pytest.fixture(scope="module")
def tiny_data():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((256, 2))
    cond = rng.integers(0, 4, size=256)
    return X, cond


def small_cfg(**kw):
    base = dict(
        method="inpo",
        beta=50.0,
        delta=DeltaStrategy("gaussian"),
        steps=12,
        batch_pairs=8,
        accum_steps=1,
        lr=1e-3,
        warmup_steps=4,
        seed=3,
    )
    base.update(kw)
    return AlignConfig(**base)


def test_pretrain_zero_steps_returns_init(s, tiny_data):
    out = pretrain_base(tiny_data, ARCH, s, steps=0, lr=1e-3, seed=5)
    assert out.vec.tobytes() == init_denoiser(ARCH, 5).vec.tobytes()


def test_pretrain_deterministic(s, tiny_data):
    a = pretrain_base(tiny_data, ARCH, s, steps=15, lr=1e-3, seed=5, batch=32)
    b = pretrain_base(tiny_data, ARCH, s, steps=15, lr=1e-3, seed=5, batch=32)
    for x, y in zip(a.flat(), b.flat()):
        assert x.tobytes() == y.tobytes()


def test_pretrain_reduces_heldout_loss(s):
    from inpo.data import gen_toy_dataset

    X, cond = gen_toy_dataset("eight_gaussians", 1200, seed=6)
    arch = DenoiserArch(2, (32,), 8, 8)
    trained = pretrain_base((X[:1000], cond[:1000]), arch, s, steps=800, lr=1e-3, seed=5, batch=64)
    rng = np.random.default_rng(9)
    t = rng.integers(1, s.T + 1, size=200)
    eps = rng.standard_normal((200, 2))
    hold = (X[1000:], cond[1000:])
    init_loss = sft_loss(init_denoiser(arch, 5), s, hold, t, eps)
    final_loss = sft_loss(trained, s, hold, t, eps)
    assert final_loss < 0.5 * init_loss


def test_sft_ref_init_zero_steps(s, tiny_pairs):
    base = init_denoiser(ARCH, 2)
    out = sft_ref_init(base, tiny_pairs, s, steps=0, lr=1e-3, seed=1)
    assert out.vec.tobytes() == base.vec.tobytes()
    assert out is not base


def test_sft_ref_init_fits_winners(s, tiny_pairs):
    base = init_denoiser(ARCH, 2)
    out = sft_ref_init(base, tiny_pairs, s, steps=300, lr=1e-3, seed=1, batch=32)
    rng = np.random.default_rng(3)
    X, cond = tiny_pairs.winner, tiny_pairs.condition
    t = rng.integers(1, s.T + 1, size=len(X))
    eps = rng.standard_normal(X.shape)
    assert sft_loss(out, s, (X, cond), t, eps) < sft_loss(base, s, (X, cond), t, eps)


def test_align_zero_steps(s, tiny_pairs):
    base = init_denoiser(ARCH, 7)
    out = align(base, base, tiny_pairs, s, small_cfg(steps=0))
    assert out.vec.tobytes() == base.vec.tobytes()


def test_align_deterministic_and_ref_frozen(s, tiny_pairs):
    base = init_denoiser(ARCH, 7)
    ref = init_denoiser(ARCH, 8)
    ref_before = [a.copy() for a in ref.flat()]
    a = align(base, ref, tiny_pairs, s, small_cfg())
    b = align(base, ref, tiny_pairs, s, small_cfg())
    for x, y in zip(a.flat(), b.flat()):
        assert x.tobytes() == y.tobytes()
    for x, y in zip(ref.flat(), ref_before):
        assert np.array_equal(x, y)
    assert a.vec.tobytes() != base.vec.tobytes()


def test_align_dpo_equals_inpo_gaussian_bitwise(s, tiny_pairs):
    base = init_denoiser(ARCH, 7)
    a = align(base, base, tiny_pairs, s, small_cfg(method="inpo", delta=DeltaStrategy("gaussian")))
    b = align(base, base, tiny_pairs, s, small_cfg(method="dpo", delta=DeltaStrategy("gaussian")))
    for x, y in zip(a.flat(), b.flat()):
        assert x.tobytes() == y.tobytes()


def _targets_separately(model, s, x0, t, c, strategy, rng, *bound):
    """make_targets on the winner half, then on the loser half, of a stacked
    batch; each half inverts in a one-off call, not in align's inverter, and
    draws fresh arrays, not into the window's buffers (``bound``)."""
    B = len(x0) // 2
    w = make_targets(model, s, x0[:B], t[:B], c[:B], strategy, rng)
    l = make_targets(model, s, x0[B:], t[B:], c[B:], strategy, rng)
    return np.vstack([w[0], l[0]]), np.vstack([w[1], l[1]])


@pytest.mark.parametrize("delta", [DeltaStrategy("inversion", n=5),
                                   DeltaStrategy("fixed_point", max_iters=6)])
def test_stacked_targets_match_separate(s, delta):
    p = init_denoiser(ARCH, 3)
    rng = np.random.default_rng(6)
    B = 64
    x0 = rng.standard_normal((2 * B, 2))
    t = np.tile(rng.integers(1, s.T + 1, size=B), 2)
    c = np.tile(rng.integers(0, 4, size=B), 2)
    stacked = make_targets(p, s, x0, t, c, delta, np.random.default_rng(9))
    separate = _targets_separately(p, s, x0, t, c, delta, np.random.default_rng(9))
    for a, b in zip(stacked, separate):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method,delta", [
    ("inpo", DeltaStrategy("inversion", n=3)),
    ("inpo", DeltaStrategy("fixed_point", max_iters=4)),
    ("dpo", DeltaStrategy("gaussian")),
])
def test_align_stacked_targets_bytewise_equal_to_separate(s, tiny_pairs, monkeypatch,
                                                          method, delta):
    # the pair window makes its targets in one preference._targets call on
    # the stacked batch; the spies hold every window to its full batch,
    # each winner over its own loser, and to handing the head the targets
    # made for it, both halves
    base = init_denoiser(ARCH, 7)
    cfg = small_cfg(method=method, delta=delta, steps=3, batch_pairs=64)
    B = cfg.batch_pairs
    stacked = align(base, base, tiny_pairs, s, cfg)
    loser_of = {w.tobytes(): l.tobytes() for w, l in zip(tiny_pairs.winner, tiny_pairs.loser)}
    made, headed = [], []
    pair_step = trainer_mod._pair_step

    def targets(model, s, x0, t, c, strategy, rng, *bound):
        assert x0.shape == (2 * B, 2)
        assert [loser_of[w.tobytes()] for w in x0[:B]] == [l.tobytes() for l in x0[B:]]
        made.append(_targets_separately(model, s, x0, t, c, strategy, rng))
        return made[-1]

    def step(theta, ref, s, x_t, tau, *rest):
        headed.append((x_t.copy(), tau.copy()))
        return pair_step(theta, ref, s, x_t, tau, *rest)

    monkeypatch.setattr(trainer_mod, "_targets", targets)
    monkeypatch.setattr(trainer_mod, "_pair_step", step)
    separate = align(base, base, tiny_pairs, s, cfg)
    assert params_to_bytes(stacked, "cosine", s.T) == params_to_bytes(separate, "cosine", s.T)
    assert len(made) == len(headed) == cfg.steps
    for (x_t, tau), (head_x, head_tau) in zip(made, headed):
        assert x_t.tobytes() == head_x.tobytes() and tau.tobytes() == head_tau.tobytes()


def test_inversion_step_costs_one_forward_per_grid_step(s, tiny_pairs, monkeypatch):
    rows = []
    real = denoiser_mod.eps_forward

    def counted(model, x, t, at_rows, ws=None):
        rows.append(len(x))
        return real(model, x, t, at_rows, ws=ws)

    monkeypatch.setattr(denoiser_mod, "eps_forward", counted)
    monkeypatch.setattr(preference_mod, "eps_forward", counted)
    base = init_denoiser(ARCH, 7)
    align(base, base, tiny_pairs, s,
          small_cfg(delta=DeltaStrategy("inversion", n=4), steps=1, batch_pairs=8))
    # n forwards over the 16 stacked winner and loser rows, then the loss's
    # forwards under the trained (taped) and the reference parameters
    assert rows == [16] * 4 + [16, 16]


@pytest.mark.parametrize("method,delta", [("dpo", DeltaStrategy("gaussian")),
                                          ("inpo", DeltaStrategy("inversion", n=3))])
def test_window_reference_forward_equals_the_unbound_forward(s, tiny_pairs, monkeypatch,
                                                             method, delta):
    # the pair window tiles the frozen reference's biases once; every step's
    # bound reference forward must still equal a one-off eps_forward of ref
    rng = np.random.default_rng(4)
    base, ref = init_denoiser(ARCH, 7), init_denoiser(ARCH, 8)
    base.vec[:] += 0.1 * rng.standard_normal(base.vec.shape)
    ref.vec[:] += 0.1 * rng.standard_normal(ref.vec.shape)
    seen = []
    real = trainer_mod._pair_step

    def checked(theta, ref_, s_, x_t, tau, t, rows, beta, ws, *rest):
        ws.bind_step(t)
        bound = preference_mod.eps_forward(ref_, x_t, 0, rows, ws=ws.bound_ref)
        seen.append((ws.bound_ref.tiles, bound.tobytes(),
                     preference_mod.eps_forward(ref_, x_t, t, rows).tobytes()))
        return real(theta, ref_, s_, x_t, tau, t, rows, beta, ws, *rest)

    monkeypatch.setattr(trainer_mod, "_pair_step", checked)
    align(base, ref, tiny_pairs, s, small_cfg(method=method, delta=delta, steps=5, lr=3e-2))
    tiles = seen[0][0]
    assert len(seen) == 5 and tiles is not None
    assert all(t.tobytes() == np.broadcast_to(b, t.shape).tobytes()
               for t, b in zip(tiles, ref.biases))
    for step_tiles, bound, unbound in seen:
        assert step_tiles is tiles and bound == unbound


@pytest.mark.parametrize("method,delta", [
    ("inpo", DeltaStrategy("inversion", n=3)),
    ("inpo", DeltaStrategy("fixed_point", max_iters=4)),
    ("dpo", DeltaStrategy("gaussian")),
    ("sft", DeltaStrategy("gaussian")),
])
def test_align_names_the_nonfinite_pair(s, tiny_records, method, delta):
    pairs = tiny_records[:4]
    p0 = pairs[0]
    pairs[0] = PreferencePair(p0.condition, np.array([np.nan, 0.0]), p0.loser, 1.0, 0.0, 0)
    base = init_denoiser(ARCH, 7)
    with pytest.raises(TrainingError, match=r"^step 0: .*\(pair 0, t=\d+\)$") as info:
        align(base, base, pair_table(pairs), s, small_cfg(method=method, delta=delta, steps=3))
    assert info.value.step == 0


def test_align_methods_run(s, tiny_pairs):
    base = init_denoiser(ARCH, 7)
    for method, delta in (
        ("inpo", DeltaStrategy("inversion", n=3)),
        ("inpo", DeltaStrategy("fixed_point", max_iters=4)),
        ("sft", DeltaStrategy("gaussian")),
    ):
        out = align(base, base, tiny_pairs, s, small_cfg(method=method, delta=delta, steps=3))
        assert out.vec.tobytes() != base.vec.tobytes()


def test_align_skips_ties(s):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2)
    only_ties = pair_table([PreferencePair(0, x, x.copy(), 0.5, 0.5, 0, tie=True)])
    base = init_denoiser(ARCH, 7)
    with pytest.raises(InvalidArgument):
        align(base, base, only_ties, s, small_cfg())


def test_warmup_schedule_logged(s, tiny_pairs, tmp_path):
    base = init_denoiser(ARCH, 7)
    log = tmp_path / "log.csv"
    align(base, base, tiny_pairs, s, small_cfg(steps=8, warmup_steps=5, lr=2e-3), log_path=log)
    with open(log) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for k, row in enumerate(rows):
        lr = float(row["lr"])
        assert lr == pytest.approx(warmup_lr(2e-3, k, 5), rel=1e-15)
    assert float(rows[4]["lr"]) == pytest.approx(2e-3, rel=1e-15)


@pytest.mark.parametrize("kw", [dict(delta=DeltaStrategy("inversion", n=3), accum_steps=2),
                                dict(method="sft", accum_steps=3), dict(method="dpo")],
                         ids=["inpo-inversion", "sft", "dpo"])
def test_a_steps_log_row_does_not_depend_on_the_run_length(s, tiny_pairs, tmp_path, kw):
    # a step's stream and the state it trains from are the same in a short
    # run and a long one, past a _STREAM_BATCH boundary too
    short, long = 66, 140
    assert trainer_mod._STREAM_BATCH < short < 2 * trainer_mod._STREAM_BATCH < long
    base = init_denoiser(ARCH, 7)
    rows = {}
    for steps in (short, long):
        log = tmp_path / f"log{steps}.csv"
        align(base, base, tiny_pairs, s, small_cfg(steps=steps, **kw), log_path=log)
        with open(log) as fh:
            rows[steps] = [{k: v for k, v in r.items() if k != "wall_ms"}
                           for r in csv.DictReader(fh)]
    assert len(rows[long]) == long
    assert rows[short] == rows[long][:short]


def test_back_to_back_calls_leave_no_state(s, tiny_pairs, tiny_data):
    # each call binds its own workspace, so a call in between, of another
    # method and batch size, changes nothing in the next one
    base = init_denoiser(ARCH, 7)
    ref = init_denoiser(ARCH, 8)
    cfg = small_cfg(delta=DeltaStrategy("inversion", n=3), steps=4, accum_steps=2)
    first = align(base, ref, tiny_pairs, s, cfg)
    first_base = pretrain_base(tiny_data, ARCH, s, steps=4, lr=1e-3, seed=5, batch=16)
    align(base, ref, tiny_pairs, s, small_cfg(method="sft", steps=3, batch_pairs=5))
    align(base, ref, tiny_pairs, s, small_cfg(method="dpo", steps=3, batch_pairs=11))
    pretrain_base(tiny_data, ARCH, s, steps=3, lr=1e-3, seed=6, batch=9)
    assert align(base, ref, tiny_pairs, s, cfg).vec.tobytes() == first.vec.tobytes()
    again = pretrain_base(tiny_data, ARCH, s, steps=4, lr=1e-3, seed=5, batch=16)
    assert again.vec.tobytes() == first_base.vec.tobytes()


def test_align_validates_every_pair_condition_up_front(s, tiny_records):
    # the pair set's conditions are resolved once, so one no step would draw
    # still fails before the first step
    bad = PreferencePair(4, np.zeros(2), np.ones(2), 1.0, 0.0, 0)
    base = init_denoiser(ARCH, 7)
    for method in ALIGN_METHODS:
        with pytest.raises(InvalidArgument, match=r"condition id out of range \[-1, 4\)"):
            align(base, base, pair_table([*tiny_records, bad]), s,
                  small_cfg(method=method, steps=0))


def test_loss_trend_and_progress(s, tiny_pairs, tmp_path):
    # winners sit in a tight cluster, losers offset; the preference loss must
    # fall below its end-of-warmup level by the end of training
    base = pretrain_base(
        (np.concatenate([tiny_pairs.winner, tiny_pairs.loser]), np.tile(tiny_pairs.condition, 2)),
        ARCH, s, steps=200, lr=1e-3, seed=2, batch=32,
    )
    log = tmp_path / "trend.csv"
    cfg = small_cfg(steps=120, warmup_steps=10, beta=100.0, lr=5e-4,
                    delta=DeltaStrategy("inversion", n=3), method="inpo")
    align(base, base, tiny_pairs, s, cfg, log_path=log)
    with open(log) as fh:
        rows = list(csv.DictReader(fh))
    losses = np.array([float(r["loss"]) for r in rows])
    tail = losses[-20:].mean()
    at_warmup = losses[10:30].mean()
    assert tail < at_warmup
    assert np.all(np.isfinite(losses))


def _list_state(arrays):
    return SimpleNamespace(m=[np.zeros_like(a) for a in arrays],
                           v=[np.zeros_like(a) for a in arrays], t=0)


def test_adam_step_matches_per_array_oracle_bytes():
    p = init_denoiser(ARCH, 3)
    arrays = [a.copy() for a in p.flat()]
    oracle = _list_state(arrays)
    state = AdamState.zeros_like(p.vec)
    work = (np.empty_like(p.vec), np.empty_like(p.vec))
    rng = np.random.default_rng(4)
    for k in range(30):
        scale = 10.0 ** rng.uniform(-6, 2)
        grads = [scale * rng.standard_normal(a.shape) for a in arrays]
        if k == 7:
            grads = [np.zeros_like(a) for a in arrays]
        lr = warmup_lr(1e-2, k, 10)
        oracle_adam_step(arrays, grads, oracle, lr)
        adam_step(p.vec, np.concatenate(grads, axis=None), state, lr, work)
        assert state.t == oracle.t
        assert p.vec.tobytes() == np.concatenate(arrays, axis=None).tobytes()
        assert state.m.tobytes() == np.concatenate(oracle.m, axis=None).tobytes()
        assert state.v.tobytes() == np.concatenate(oracle.v, axis=None).tobytes()


def _oracle_align(base, ref, pairs, s, cfg):
    """align's loop through the public, unbound loss heads: every window
    draws what _align_window draws, in the same order, and the heads
    validate the drawn conditions and allocate their own buffers; gradients
    are per-array lists and Adam is the per-array oracle."""
    usable = [p for p in pairs if not p.tie]
    winners = np.stack([p.winner for p in usable])
    losers = np.stack([p.loser for p in usable])
    conds = np.asarray([p.condition for p in usable])
    B = cfg.batch_pairs
    delta = DeltaStrategy("gaussian") if cfg.method == "dpo" else cfg.delta
    params = base.copy()
    arrays = params.flat()
    state = _list_state(arrays)
    for step in range(cfg.steps):
        rng = trainer_mod._step_rng(cfg.seed, trainer_mod._ALIGN_DOMAIN, step)
        gsum = None
        for _ in range(cfg.accum_steps):
            idx = rng.integers(0, len(winners), size=B)
            t = rng.integers(cfg.t_min, s.T + 1, size=B)
            xw, cc = winners[idx], conds[idx]
            if cfg.method == "sft":
                eps = rng.standard_normal(xw.shape)
                x_t = forward_diffuse(s, xw, t, eps)
                rows = _cond_rows(cc, base.arch.num_conditions)

                def loss_fn(tape):
                    return sft_terms(tape, s, x_t, t, cc, rows, eps)
            else:
                x_t, tau = make_targets(params, s, np.vstack([xw, losers[idx]]),
                                        np.concatenate([t, t]), np.concatenate([cc, cc]),
                                        delta, rng)

                def loss_fn(tape):
                    return pair_loss_terms(tape, ref, s, x_t[:B], tau[:B], x_t[B:], tau[B:],
                                           t, cc, cfg.beta)["mean_total"]
            grads = value_and_grad(params, loss_fn)[1].flat()
            gsum = grads if gsum is None else [a + b for a, b in zip(gsum, grads)]
        grads = [g / cfg.accum_steps for g in gsum]
        oracle_adam_step(arrays, grads, state, warmup_lr(cfg.lr, step, cfg.warmup_steps))
    return params


_INVERSION = DeltaStrategy("inversion", n=3)
_FIXED_POINT = DeltaStrategy("fixed_point", max_iters=4)
# one batch of step streams and five steps into the next
_PAST_ONE_BATCH = trainer_mod._STREAM_BATCH + 5


@pytest.mark.parametrize("method,delta,accum,steps", [
    ("inpo", _INVERSION, 3, 6), ("dpo", _INVERSION, 3, 6), ("sft", _INVERSION, 3, 6),
    ("inpo", _INVERSION, 1, 6), ("inpo", _FIXED_POINT, 1, 6), ("inpo", _FIXED_POINT, 3, 6),
    ("dpo", _INVERSION, 1, 6), ("sft", _INVERSION, 1, 6),
    *((m, _INVERSION, a, _PAST_ONE_BATCH) for m in ("inpo", "dpo", "sft") for a in (1, 3)),
], ids=["inpo", "dpo", "sft", "inpo-accum1", "fixed_point-accum1", "fixed_point",
        "dpo-accum1", "sft-accum1",
        *(f"{m}-accum{a}-past-one-batch" for m in ("inpo", "dpo", "sft") for a in (1, 3))])
def test_align_accumulation_matches_per_array_oracle_bytes(s, tiny_records, tiny_pairs, method,
                                                           delta, accum, steps):
    # align's bound step (pair set resolved once, one workspace, one step-sum
    # vector, streams built a batch ahead) against the unbound public path,
    # byte for byte
    base = init_denoiser(ARCH, 7)
    ref = init_denoiser(ARCH, 8)
    cfg = small_cfg(method=method, steps=steps, accum_steps=accum, warmup_steps=4, lr=3e-3,
                    delta=delta)
    out = align(base, ref, tiny_pairs, s, cfg)
    assert out.vec.tobytes() == _oracle_align(base, ref, tiny_records, s, cfg).vec.tobytes()
    assert out.vec.tobytes() != base.vec.tobytes()


def _oracle_fit(params, X, cond, s, steps, lr, seed, domain, batch, cond_drop):
    """_fit_denoiser's loop through the public, unbound tape head: every
    step draws what _fit_denoiser draws, in the same order, from
    SeedSequence([seed, domain, step]); a dropped condition becomes the null
    id before its row is resolved; sft_terms allocates its own buffers,
    gradients are per-array lists and Adam is the per-array oracle."""
    arch = params.arch
    arrays = params.flat()
    state = _list_state(arrays)
    for step in range(steps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, domain, step]))
        idx = rng.integers(0, len(X), size=batch)
        t = rng.integers(1, s.T + 1, size=batch)
        eps = rng.standard_normal((batch, arch.input_dim))
        drop = rng.random(batch) < cond_drop
        c = np.where(drop, NULL_CONDITION, cond[idx])
        rows = _cond_rows(c, arch.num_conditions)
        x_t = forward_diffuse(s, X[idx], t, eps)
        grads = value_and_grad(params, lambda tape: sft_terms(tape, s, x_t, t, c, rows, eps))[1]
        oracle_adam_step(arrays, grads.flat(), state, lr)
    return params


@pytest.mark.parametrize("cond_drop, steps", [
    pytest.param(0.0, 8, id="0.0"), pytest.param(0.3, 8, id="0.3"),
    pytest.param(0.3, _PAST_ONE_BATCH, id="0.3-past-one-batch"),
])
def test_pretrain_matches_per_array_oracle_bytes(s, tiny_data, cond_drop, steps):
    X, cond = tiny_data
    out = pretrain_base(tiny_data, ARCH, s, steps=steps, lr=3e-3, seed=5, batch=24,
                        cond_drop=cond_drop)
    want = _oracle_fit(init_denoiser(ARCH, 5), X, cond, s, steps, 3e-3, 5,
                       trainer_mod._PRETRAIN_DOMAIN, 24, cond_drop)
    assert out.vec.tobytes() == want.vec.tobytes()
    assert out.vec.tobytes() != init_denoiser(ARCH, 5).vec.tobytes()


def test_sft_ref_init_matches_per_array_oracle_bytes(s, tiny_records, tiny_pairs):
    # a tie is skipped, so the oracle sees only the other pairs' winners
    tie = PreferencePair(1, np.ones(2), np.ones(2), 0.5, 0.5, 0, tie=True)
    pairs = pair_table([tie, *tiny_records])
    base = init_denoiser(ARCH, 2)
    out = sft_ref_init(base, pairs, s, steps=8, lr=3e-3, seed=4, batch=16)
    X, cond = tiny_pairs.winner, tiny_pairs.condition
    want = _oracle_fit(base.copy(), X, cond, s, 8, 3e-3, 4, trainer_mod._SFT_REF_DOMAIN, 16, 0.0)
    assert out.vec.tobytes() == want.vec.tobytes()
    assert out.vec.tobytes() != base.vec.tobytes()


def test_streams_are_built_a_batch_ahead_of_their_steps(monkeypatch):
    # every stream of a batch is built before the batch's first window, and
    # each window gets a fresh stream of its own step
    events = []
    real = trainer_mod._step_rng

    def spy(seed, domain, step):
        events.append(("build", step))
        return real(seed, domain, step)

    params = init_denoiser(ARCH, 0)
    grad = SimpleNamespace(vec=np.zeros_like(params.vec))

    def window(rng, aux):
        events.append(("window", rng.bit_generator.state))
        return 0.0, grad

    monkeypatch.setattr(trainer_mod, "_step_rng", spy)
    n = trainer_mod._STREAM_BATCH
    steps = 2 * n + 5
    trainer_mod._train(params, AdamState.zeros_like(params.vec), window, seed=9,
                       domain=trainer_mod._ALIGN_DOMAIN, steps=steps, lr=1e-3)
    assert sorted(e[1] for e in events if e[0] == "build") == list(range(steps))
    at = [i for i, e in enumerate(events) if e[0] == "window"]
    assert len(at) == steps
    for k, step in enumerate(range(steps)):
        assert events.index(("build", step)) < at[k]
        want = real(9, trainer_mod._ALIGN_DOMAIN, step).bit_generator.state
        assert events[at[k]][1] == want, step
        if k + 1 < len(at) and (k + 1) % n:
            assert at[k + 1] == at[k] + 1, f"a stream was built between steps {step} and {step + 1}"


def test_train_holds_one_batch_of_streams_at_a_time():
    # a generator holds about 1 KB, so building all 1,000 steps' streams up
    # front would peak near 1 MB
    params = init_denoiser(ARCH, 0)
    grad = SimpleNamespace(vec=np.zeros_like(params.vec))
    adam = AdamState.zeros_like(params.vec)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        trainer_mod._train(params, adam, lambda rng, aux: (0.0, grad), seed=1,
                           domain=trainer_mod._PRETRAIN_DOMAIN, steps=1000, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 5, 2**63 - 1,
                                  2**64 + 7])
def test_step_rng_is_the_stream_of_the_seed_list(seed):
    for domain in (trainer_mod._PRETRAIN_DOMAIN, trainer_mod._ALIGN_DOMAIN, 0):
        for step in (0, 1, 499, 2**32 - 1, 2**32, 2**33):
            want = np.random.default_rng(np.random.SeedSequence([seed, domain, step]))
            got = trainer_mod._step_rng(seed, domain, step)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
    # numpy ints are taken as the ints they hold
    got = trainer_mod._step_rng(np.int64(min(seed, 2**63 - 1)), 202, np.int64(3))
    want = np.random.default_rng(np.random.SeedSequence([min(seed, 2**63 - 1), 202, 3]))
    assert got.bit_generator.state == want.bit_generator.state


def test_step_rng_rejects_a_negative_int_as_numpy_does():
    for ints in ((-1, 202, 0), (1, 202, -3)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(list(ints))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            trainer_mod._step_rng(*ints)


def test_align_names_the_pair_behind_a_nonfinite_loss(s, tiny_pairs):
    # beta = 1e308 overflows the loss arguments to +-inf: the loss is
    # non-finite while every input, target and term is finite, so the pair
    # is named from the loss argument the pair head hands out
    base = init_denoiser(ARCH, 7)
    with pytest.raises(TrainingError,
                       match=r"^step 0: loss is non-finite: .*\(pair \d+, t=\d+\)$"), \
            np.errstate(over="ignore"):
        align(base, init_denoiser(ARCH, 8), tiny_pairs, s, small_cfg(beta=1e308, steps=2))


def _nan_winner_after_two_ties(tiny_records):
    """Two ties, then a pair whose winner is NaN at input index 2, then
    finite pairs: the NaN pair is row 0 of the non-tie rows."""
    x = np.zeros(2)
    ties = [PreferencePair(0, x, x.copy(), 0.5, 0.5, 0, tie=True) for _ in range(2)]
    p = tiny_records[0]
    bad = PreferencePair(p.condition, np.array([np.nan, 0.0]), p.loser, 1.0, 0.0, 0)
    return pair_table([*ties, bad, *tiny_records[1:4]])


@pytest.mark.parametrize("method,delta", [
    ("dpo", DeltaStrategy("gaussian")),
    ("inpo", DeltaStrategy("inversion", n=3)),
    ("sft", DeltaStrategy("gaussian")),
])
def test_align_names_the_input_index_of_the_pair_after_ties(s, tiny_records, method, delta):
    # the failing pair is named by its index in the input, ties included
    base = init_denoiser(ARCH, 7)
    with pytest.raises(TrainingError, match=r"^step 0: .*\(pair 2, t=\d+\)$"):
        align(base, base, _nan_winner_after_two_ties(tiny_records), s,
              small_cfg(method=method, delta=delta, steps=3))


def test_pretrain_names_no_pair_for_a_nonfinite_row(s, tiny_data):
    X, cond = tiny_data
    X = X[:4].copy()
    X[1] = np.nan
    with pytest.raises(TrainingError) as info:
        pretrain_base((X, cond[:4]), ARCH, s, steps=3, lr=1e-3, seed=5, batch=16)
    assert str(info.value) == "step 0: loss is non-finite: nan"
    assert info.value.step == 0


def test_sft_ref_init_names_the_input_pair_of_a_nonfinite_winner(s, tiny_records):
    base = init_denoiser(ARCH, 2)
    with pytest.raises(TrainingError,
                       match=r"^step 0: loss is non-finite: nan \(pair 2, t=\d+\)$") as info:
        sft_ref_init(base, _nan_winner_after_two_ties(tiny_records), s, steps=3, lr=1e-3,
                     seed=1, batch=16)
    assert info.value.step == 0


def test_samples_of_another_dim_are_rejected(s, tiny_data, tiny_records):
    # the noise is drawn at the model's input dim, so forward_diffuse
    # rejects samples of any other dim before the network runs
    X, cond = tiny_data
    base = init_denoiser(ARCH, 7)
    wide = pair_table([PreferencePair(p.condition, np.append(p.winner, 0.0),
                                      np.append(p.loser, 0.0), 1.0, 0.0, 0)
                       for p in tiny_records])
    for run in (lambda: pretrain_base((X[:, :1], cond), ARCH, s, steps=2, lr=1e-3, seed=5,
                                      batch=8),
                lambda: sft_ref_init(base, wide, s, steps=2, lr=1e-3, seed=1, batch=8),
                lambda: align(base, base, wide, s, small_cfg(method="sft", steps=2))):
        with pytest.raises(InvalidArgument, match=r"x0 shape \(8, [13]\) != eps shape \(8, 2\)"):
            run()


def _window_steps_are_the_cores(s, pairs, cfg):
    """Three steps of ``cfg``'s window against the head's core in a fresh
    workspace built without T, on a replay of each step's draws; the pair
    window's targets against make_targets under ``cfg.delta``, which a dpo
    ``cfg`` must set to gaussian, on the same replay."""
    B = cfg.batch_pairs
    params, ref = init_denoiser(ARCH, 7), init_denoiser(ARCH, 8)
    table, pair_ids, data = trainer_mod._non_ties(pairs, ARCH)
    if cfg.method == "sft":
        window = trainer_mod._denoising_window(params, s, data, B, cfg.t_min)
    else:
        window = trainer_mod._pair_window(params, ref, s, data, table.loser[pair_ids], cfg)
    for step in range(3):
        aux = {}
        value, grad = window(trainer_mod._step_rng(cfg.seed, trainer_mod._ALIGN_DOMAIN, step), aux)
        grad = grad.vec.copy()
        replay = trainer_mod._step_rng(cfg.seed, trainer_mod._ALIGN_DOMAIN, step)
        idx = replay.integers(0, len(data.x), size=B)
        t = replay.integers(cfg.t_min, s.T + 1, size=B)
        assert idx.tobytes() == aux["idx"].tobytes() and t.tobytes() == aux["t"].tobytes()
        if cfg.method == "sft":
            eps = replay.standard_normal((B, 2))
            x_t = forward_diffuse(s, data.x[idx], t, eps)
            assert x_t.tobytes() == aux["arrays"][1].tobytes()
            want = _sft_step(params, s, x_t, t, data.rows[idx], eps, StepWorkspace(ARCH, B))
        else:
            idx2, t2 = np.concatenate([idx, idx]), np.concatenate([t, t])
            x0 = np.vstack([data.x[idx], table.loser[pair_ids][idx]])
            x_t, tau = make_targets(params, s, x0, t2, data.cond[idx2], cfg.delta, replay)
            assert x_t.tobytes() == aux["arrays"][1].tobytes()
            assert tau.tobytes() == aux["arrays"][2].tobytes()
            want = _pair_step(params, ref, s, x_t, tau, t2, data.rows[idx2], cfg.beta,
                              StepWorkspace(ARCH, 2 * B))
        assert value == want[0]
        assert grad.tobytes() == want[1].vec.tobytes()
        params.vec[:] -= 1e-2 * grad  # the next window binds moved parameters


@pytest.mark.parametrize("method,delta", [("dpo", DeltaStrategy("gaussian")),
                                          ("inpo", DeltaStrategy("inversion", n=3)),
                                          ("sft", DeltaStrategy("gaussian"))])
def test_window_step_is_the_public_head_on_its_draws(s, tiny_pairs, method, delta):
    # one arithmetic path: a bound window's value and gradient are the bytes
    # of the head's core called on the arrays the window drew, whose
    # workspace embeds its timesteps checked, not from the window's table
    _window_steps_are_the_cores(s, tiny_pairs, small_cfg(method=method, delta=delta))


def test_a_window_past_the_embedding_table_embeds_its_timesteps_directly(tiny_pairs):
    # at T = 70,000 the window's workspace keeps no table, and every drawn
    # timestep lies past the table's range, so each step must embed them
    # as time_embedding's checked path does
    assert 70_000 > denoiser_mod._TABLE_MAX_T
    big = make_schedule("cosine", 70_000)
    assert StepWorkspace(ARCH, 2, big.T).table is None
    cfg = small_cfg(method="dpo", t_min=denoiser_mod._TABLE_MAX_T + 1)
    _window_steps_are_the_cores(big, tiny_pairs, cfg)


@pytest.mark.parametrize("kw", [dict(lr=-1.0), dict(cond_drop=2.0), dict(steps=-3),
                                dict(batch=0), dict(lr=float("nan")), dict(cond_drop=-0.1)])
def test_pretrain_rejects_bad_step_arguments(s, tiny_data, kw):
    args = dict(steps=2, lr=1e-3, seed=5, batch=8, cond_drop=0.1) | kw
    with pytest.raises(InvalidArgument, match="required"):
        pretrain_base(tiny_data, ARCH, s, **args)


@pytest.mark.parametrize("kw", [dict(lr=-1.0), dict(steps=-3), dict(batch=0)])
def test_sft_ref_init_rejects_bad_step_arguments(s, tiny_pairs, kw):
    args = dict(steps=2, lr=1e-3, seed=1, batch=8) | kw
    with pytest.raises(InvalidArgument, match="required"):
        sft_ref_init(init_denoiser(ARCH, 2), tiny_pairs, s, **args)


_BAD_WEIGHTS = {
    "beta=nan": lambda s: AlignConfig(beta=np.nan),
    "beta=inf": lambda s: AlignConfig(beta=np.inf),
    "guidance_w_inv=inf": lambda s: DeltaStrategy("inversion", guidance_w_inv=np.inf),
    "tol=nan": lambda s: DeltaStrategy("fixed_point", tol=np.nan),
    "sampler guidance_w=nan": lambda s: SamplerConfig(5, np.nan),
    "inverter guidance_w=inf": lambda s: Inverter(init_denoiser(ARCH, 0), s, 3, 2, np.inf),
    "direction=nan,0": lambda s: RewardSpec("linear", direction=np.array([np.nan, 0.0])),
    "direction 2-D": lambda s: RewardSpec("linear", direction=np.ones((1, 2))),
}


@pytest.mark.parametrize("make", _BAD_WEIGHTS.values(), ids=_BAD_WEIGHTS.keys())
def test_a_non_finite_weight_is_rejected_where_it_enters(s, make):
    with pytest.raises(InvalidArgument):
        make(s)


@pytest.mark.parametrize("method", ["dpo", "sft"])
def test_align_rejects_t_min_past_T_before_the_first_step(s, tiny_pairs, method):
    base = init_denoiser(ARCH, 7)
    with pytest.raises(InvalidArgument, match=f"t_min={s.T + 1} exceeds the schedule's T={s.T}"):
        align(base, base, tiny_pairs, s, small_cfg(method=method, t_min=s.T + 1))
    out = align(base, base, tiny_pairs, s, small_cfg(method=method, t_min=s.T, steps=2))
    assert out.vec.tobytes() != base.vec.tobytes()


def _largest_line_allocation(fn) -> int:
    """The most memory, in bytes, that any one line of the inpo package,
    with everything it calls outside the package, holds above what was held
    when the line began, while ``fn()`` runs: no block it allocates is
    larger."""
    root = os.path.dirname(inpo.__file__)
    worst = start = 0

    def mark(frame=None, event=None, arg=None):
        nonlocal worst, start
        current, peak = tracemalloc.get_traced_memory()
        worst = max(worst, peak - start)
        tracemalloc.reset_peak()
        start = current
        return mark

    def on_call(frame, event, arg):
        return mark() if frame.f_code.co_filename.startswith(root) else None

    outer = sys.gettrace()
    tracemalloc.start()
    try:
        sys.settrace(on_call)
        mark()
        fn()
    finally:
        sys.settrace(outer)
        mark()
        tracemalloc.stop()
    return worst


def test_bound_steps_allocate_no_block_of_100_kb():
    # B = 512 at the README architecture: once warm, an Inverter call of 2B
    # rows, a dpo step (its window and Adam) and a pretrain step write into
    # buffers bound before them and allocate no block of 100 KB or more
    arch, s1000 = DenoiserArch(2, (64, 64), 8, 16), make_schedule("cosine", 1000)
    rng = np.random.default_rng(0)
    B, n = 512, 1024
    params = init_denoiser(arch, 0)
    pairs = pair_table([PreferencePair(int(c), rng.standard_normal(2), rng.standard_normal(2),
                                       1.0, 0.0, 0) for c in rng.integers(0, 8, B)])
    table, pair_ids, data = trainer_mod._non_ties(pairs, arch)
    dpo = trainer_mod._pair_window(params, params, s1000, data, table.loser[pair_ids],
                                   AlignConfig(method="dpo", batch_pairs=B))
    pretrain = trainer_mod._denoising_window(params, s1000, data, B, 1, 0.1)
    inverter = Inverter(params, s1000, 10, n)
    x0, t, c = rng.standard_normal((n, 2)), rng.integers(1, 1001, n), rng.integers(0, 8, n)
    state = AdamState.zeros_like(params.vec)
    work = (np.empty_like(params.vec), np.empty_like(params.vec))

    def step(window):
        def run():
            grad = window(np.random.default_rng(1), {})[1]
            adam_step(params.vec, grad.vec, state, 1e-3, work)
        return run

    for name, fn in (("inverter", lambda: inverter(x0, t, c)), ("dpo", step(dpo)),
                     ("pretrain", step(pretrain))):
        fn()
        assert _largest_line_allocation(fn) < 100 * 1024, name


@pytest.mark.parametrize("w", [0.0, 1.0, 2.5])
def test_warm_noise_predictor_call_allocates_no_block_of_32_kb(w):
    # 1024 rows at the README architecture: the bias rows are tiled at bind,
    # so no layer's bias add buffers a broadcast (numpy's 8192-element,
    # 64 KB buffer), and the largest block is the (1024, 2) output, 16 KB
    arch, n = DenoiserArch(2, (64, 64), 8, 16), 1024
    rng = np.random.default_rng(0)
    eps = NoisePredictor(init_denoiser(arch, 0), w, n).bind(rng.integers(0, 8, n),
                                                            [[500], [400]])
    x = rng.standard_normal((n, 2))
    eps(x, 0)
    assert _largest_line_allocation(lambda: eps(x, 1)) < 32 * 1024
