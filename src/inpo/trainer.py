"""Training loops: pretraining, reference initialization, and alignment.

Every step draws its randomness from a stream derived from (seed, domain,
step index), so a run is a pure function of (config, seed), and a step's
draws and state do not depend on how many steps the run has.

pretrain_base, sft_ref_init and align run one loop, _train. It builds the
steps' streams in batches of _STREAM_BATCH steps of the call, each batch in
one pass ahead of its steps, which costs less than building each between
two steps' arithmetic. Per step it runs accum_steps windows on the step's
stream and checks each window's gradient for finiteness once; with one
window its gradient goes to Adam as it is, with more they are summed into
one step-sum vector and averaged. Adam starts from zero moments in every
call and steps in place on the whole parameter vector (DenoiserParams.vec)
at the warmup learning rate. A step's log row keeps its values; align
formats the rows once, when it writes train_log.csv. A window comes from
one of two builders, each bound once per training call to its samples
(_Samples: their conditions validated and resolved to embedding rows, which
a window gathers by index):

    denoising  the plain denoising objective, for pretrain_base,
               sft_ref_init and align's sft method: rows, timesteps in
               [t_min, T], noise, and condition drops only when the drop
               probability is positive,
    pair       the pair loss for inpo, whose latents and targets come from
               the configured delta strategy (inversion by default) under
               the current trained parameters, and dpo, which runs as inpo
               with the gaussian strategy.

A builder binds what its steps share: a StepWorkspace built for the
schedule's T, a buffer for the gathered samples and the noise, and for the
pair window the stacked timesteps, embedding rows and condition ids. It
checks its inputs once: the reference's type and architecture, and for
align t_min <= T; the workspace and the inverter are its own. Drawn
indices and timesteps are in range by construction, so a step is its
stream's draws followed by the unchecked noising step (schedule._noise)
and the heads' closed-form cores (preference._sft_step, _pair_step and
_targets), so each loss has one copy. The pair window gathers
its winners, then its losers, into one (2B, dim) buffer and makes their
targets in one stacked call; an inversion align binds one Inverter of 2B
rows per call, so inversion costs one network forward per grid step for
the whole window. No step runs the tape (denoiser.value_and_grad), which
is the reference the tests hold the heads to.

pretrain_base and sft_ref_init check their step arguments as AlignConfig
checks align's, before any work.

align and sft_ref_init take a pair set as a PairTable, and anything else
raises InvalidArgument; they keep its non-tie rows. align takes its frozen
reference as an argument and never builds one: inpo.cli passes the base,
or for align.ref_init=sft_winners sft_ref_init's fit of it to the winners.
A non-finite value raises TrainingError naming the step and, for a pair
set, the input index of the first drawn pair whose inputs, targets or loss
argument are non-finite. align averages gradients over batch_pairs *
accum_steps pairs per step.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import PairTable, _table
from .denoiser import (
    DenoiserParams,
    StepWorkspace,
    _cond_rows,
    init_denoiser,
    value_and_grad,  # noqa: F401  (perfbench's hook tests reach it through this module)
)
from .errors import InvalidArgument, TrainingError
from .preference import DeltaStrategy, _check_ref, _pair_step, _sft_step, _targets
from .sampler import Inverter
from .schedule import NoiseSchedule, _noise

ALIGN_METHODS = ("inpo", "dpo", "sft")

# dpo draws its latents from the forward process: inpo with gaussian deltas.
_DPO_DELTA = DeltaStrategy("gaussian")

_PRETRAIN_DOMAIN = 101
_ALIGN_DOMAIN = 202
_SFT_REF_DOMAIN = 303


@dataclass(frozen=True)
class AlignConfig:
    method: str = "inpo"
    beta: float = 2000.0
    delta: DeltaStrategy = field(default_factory=lambda: DeltaStrategy("inversion"))
    steps: int = 500
    batch_pairs: int = 64
    accum_steps: int = 1
    lr: float = 1e-3
    warmup_steps: int = 50
    seed: int = 0
    t_min: int = 1

    def __post_init__(self):
        if self.method not in ALIGN_METHODS:
            raise InvalidArgument(f"unknown align method {self.method!r}")
        if self.steps < 0 or self.batch_pairs < 1 or self.accum_steps < 1:
            raise InvalidArgument("steps >= 0, batch_pairs >= 1, accum_steps >= 1 required")
        if not 0 < self.lr < np.inf or self.warmup_steps < 0 or self.t_min < 1:
            raise InvalidArgument("finite lr > 0, warmup_steps >= 0, t_min >= 1 required")
        if not 0 <= self.beta < np.inf:
            raise InvalidArgument(f"beta must be finite and >= 0, got {self.beta}")


@dataclass
class AdamState:
    """Adam's first and second moments, vectors laid out like the parameter
    vector, and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros_like(vec: np.ndarray) -> "AdamState":
        return AdamState(m=np.zeros_like(vec), v=np.zeros_like(vec))


def adam_step(vec, grad, state: AdamState, lr: float, work, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update of the parameter vector ``vec`` in place.

    ``work`` is a pair of scratch vectors of vec's size, overwritten. Each
    element is computed as m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), one whole-vector ufunc per
    operation.
    """
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    a, b = work
    m *= b1
    np.multiply(grad, 1.0 - b1, out=a)
    m += a
    v *= b2
    np.multiply(grad, 1.0 - b2, out=a)
    a *= grad
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    vec -= a


def warmup_lr(lr: float, step: int, warmup_steps: int) -> float:
    if step < warmup_steps:
        return lr * (step + 1) / warmup_steps
    return lr


# Steps whose streams _train builds in one pass, ahead of those steps: about
# 1 KB of generator state each, and only one batch is held at a time.
_STREAM_BATCH = 64


def _step_rng(seed: int, domain: int, step: int) -> np.random.Generator:
    """The stream of SeedSequence([seed, domain, step]); numpy rejects a
    negative int with ValueError."""
    return np.random.default_rng([int(seed), domain, int(step)])


class _Samples(NamedTuple):
    """A training call's samples, (n, dim), and their condition ids,
    validated and resolved to embedding rows once; a window gathers all
    three by drawn index."""

    x: np.ndarray
    cond: np.ndarray
    rows: np.ndarray


def _train(params: DenoiserParams, window, *, seed: int, domain: int, steps: int, lr: float,
           warmup_steps: int = 0, accum_steps: int = 1, log: list | None = None,
           pair_ids=None) -> None:
    """Steps 0..steps-1 of a training run, updating ``params`` in place
    with Adam from zero moments.

    Step k draws from _step_rng(seed, domain, k) and runs ``accum_steps``
    windows on that one stream. The streams are built _STREAM_BATCH steps
    at a time, in one pass before the first step of each batch, which counts
    the build in its wall time; a batch never reaches past the last step,
    and only one is held at a time. ``window(rng, aux)`` draws one window,
    runs its head and returns the loss and the gradient, a buffer it
    overwrites on its next call; it records its drawn indices and arrays in
    ``aux`` as it goes. Each window's gradient is checked for finiteness
    once and, with more than one window, summed into one vector and
    averaged; Adam steps on it at the warmup learning rate. A failure
    raises TrainingError naming the step and, when ``pair_ids`` maps drawn
    indices to input pairs, the first drawn pair with a non-finite input,
    target or loss argument. ``log``, if given, receives one row per step,
    unformatted: step, lr, mean loss, mean sigmoid argument (0 for the
    denoising head) and wall ms.
    """
    adam = AdamState.zeros_like(params.vec)
    gsum = np.empty_like(params.vec) if accum_steps > 1 else None
    work = (np.empty_like(params.vec), np.empty_like(params.vec))
    finite = np.empty(params.vec.shape, dtype=bool)
    streams = []
    for step in range(steps):
        tick = time.perf_counter()
        if not streams:
            # the next batch's streams, last step first, so each step pops its own
            last = min(steps, step + _STREAM_BATCH) - 1
            streams = [_step_rng(seed, domain, k) for k in range(last, step - 1, -1)]
        rng = streams.pop()
        loss_sum = arg_sum = 0.0
        for k in range(accum_steps):
            aux = {}
            try:
                val, grad = window(rng, aux)
            except ArithmeticError as e:
                raise TrainingError(f"{e}{_bad_pair(aux, pair_ids)}", step) from e
            if not np.logical_and.reduce(np.isfinite(grad.vec, out=finite)):
                raise TrainingError("non-finite gradient", step)
            if k:
                gsum += grad.vec
            elif gsum is not None:
                np.copyto(gsum, grad.vec)
            loss_sum += val
            arg = aux.get("sigmoid_arg")
            # the sum over the pairs divided by their count has the bits of the mean
            arg_sum += float(np.add.reduce(arg)) / len(arg) if arg is not None else 0.0
        if gsum is not None:
            gsum /= accum_steps
        lr_t = warmup_lr(lr, step, warmup_steps)
        # one window's gradient goes to Adam as it is, a buffer of the window's
        adam_step(params.vec, grad.vec if gsum is None else gsum, adam, lr_t, work)
        if log is not None:
            log.append((step, lr_t, loss_sum / accum_steps, arg_sum / accum_steps,
                        (time.perf_counter() - tick) * 1e3))


def _bad_pair(aux, pair_ids) -> str:
    """Name the first drawn pair whose inputs, targets or loss argument are
    non-finite, as " (pair i, t=...)" with i its input index, or return ""
    if there is none or ``pair_ids`` is None.

    Row r of a drawn array of B or 2B rows belongs to drawn pair r % B.
    """
    if pair_ids is None:
        return ""
    idx, t = aux["idx"], aux["t"]
    B = len(idx)
    bad = np.zeros(B, dtype=bool)
    for arr in aux["arrays"]:
        bad[np.flatnonzero(~np.isfinite(arr).all(axis=1)) % B] = True
    arg = aux.get("sigmoid_arg")
    if arg is not None:
        bad |= ~np.isfinite(arg)
    if not bad.any():
        return ""
    i = int(np.argmax(bad))
    return f" (pair {int(pair_ids[idx[i]])}, t={int(t[i])})"


def _denoising_window(params, schedule: NoiseSchedule, data: _Samples, batch: int,
                      t_min: int, cond_drop: float = 0.0):
    """The denoising objective's window on ``data``: it draws rows, then
    timesteps in [t_min, T], then noise, and, only when ``cond_drop`` > 0,
    condition drops last; a dropped condition takes the null embedding row.
    The draws are in range by construction, so a step runs
    preference._sft_step unchecked.
    """
    arch = params.arch
    null_row, shape = arch.num_conditions, (batch, arch.input_dim)
    if data.x.shape[1:] != shape[1:]:
        raise InvalidArgument(f"x0 shape {(batch, *data.x.shape[1:])} != eps shape {shape}")
    ws = StepWorkspace(arch, batch, schedule.T)
    x0, eps = np.empty(shape), np.empty(shape)
    rows = np.empty(batch, dtype=data.rows.dtype)

    def window(rng, aux):
        idx = rng.integers(0, len(data.x), size=batch)
        t = rng.integers(t_min, schedule.T + 1, size=batch)
        data.x.take(idx, axis=0, out=x0, mode="clip")
        aux.update(idx=idx, t=t, arrays=[x0])
        rng.standard_normal(out=eps)
        data.rows.take(idx, out=rows, mode="clip")
        if cond_drop > 0:
            rows[rng.random(batch) < cond_drop] = null_row
        x_t = _noise(schedule, x0, t, eps)
        aux["arrays"].append(x_t)
        return _sft_step(params, schedule, x_t, t, rows, eps, ws)

    return window


def _pair_window(params, ref, schedule: NoiseSchedule, data: _Samples, losers, cfg: AlignConfig):
    """The pair loss's window for inpo and dpo: B drawn pairs' winners, then
    their losers, are gathered into one (2B, dim) buffer; the timesteps,
    embedding rows and condition ids are doubled once for the stacked
    batch. Its latents and targets come from one preference._targets call,
    winners first; dpo is inpo with the gaussian strategy, and inversion
    runs in one Inverter of 2B rows bound here, which every window rebinds
    to its draws and to the parameters as Adam left them. The reference is
    checked once here, and its biases are copied into the row tiles of the
    step workspace's reference forward once here, so ``ref`` must not
    change during the call (align trains a copy of ``base``). The draws are
    in range by construction, so a step runs preference._pair_step
    unchecked.
    """
    _check_ref(params, ref)
    B = cfg.batch_pairs
    shape = (2 * B, params.arch.input_dim)
    ws = StepWorkspace(params.arch, 2 * B, schedule.T)
    ws.bound_ref.bind(ws.temb, ref.biases)
    x0, noise = np.empty(shape), np.empty(shape)
    idx2, t2 = np.empty(2 * B, dtype=np.int64), np.empty(2 * B, dtype=np.int64)
    rows2, c2 = np.empty(2 * B, dtype=data.rows.dtype), np.empty(2 * B, dtype=data.cond.dtype)
    delta = _DPO_DELTA if cfg.method == "dpo" else cfg.delta
    inverter = None
    if delta.kind == "inversion":
        inverter = Inverter(params, schedule, delta.n, 2 * B, delta.guidance_w_inv)

    def window(rng, aux):
        idx = rng.integers(0, len(data.x), size=B)
        t = rng.integers(cfg.t_min, schedule.T + 1, size=B)
        data.x.take(idx, axis=0, out=x0[:B], mode="clip")
        losers.take(idx, axis=0, out=x0[B:], mode="clip")
        aux.update(idx=idx, t=t, arrays=[x0])
        np.concatenate([idx, idx], out=idx2)
        np.concatenate([t, t], out=t2)
        data.cond.take(idx2, out=c2, mode="clip")
        x_t, tau = _targets(params, schedule, x0, t2, c2, delta, rng, inverter, noise)
        aux["arrays"] += [x_t, tau]
        data.rows.take(idx2, out=rows2, mode="clip")
        return _pair_step(params, ref, schedule, x_t, tau, t2, rows2, cfg.beta, ws, aux)

    return window


def _non_ties(pairs: PairTable, arch):
    """The table ``pairs``, the input indices of its non-tie rows, and
    those rows' winners as _Samples."""
    table = _table(pairs)
    usable = ~table.tie
    if not usable.any():
        raise InvalidArgument("no usable (non-tie) pairs")
    cond = table.condition[usable]
    samples = _Samples(table.winner[usable], cond, _cond_rows(cond, arch.num_conditions))
    return table, np.flatnonzero(usable), samples


def pretrain_base(dataset, arch, schedule: NoiseSchedule, steps: int, lr: float, seed: int,
                  batch: int = 128, cond_drop: float = 0.1) -> DenoiserParams:
    """Train a denoiser from scratch on (samples, condition) data.

    The condition is dropped with probability ``cond_drop`` per example so the
    null-condition branch learns an unconditional prediction.
    """
    _check_fit_args(steps, batch, lr, cond_drop)
    X, cond = dataset
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise InvalidArgument("dataset must be nonempty")
    cond = np.asarray(cond)
    data = _Samples(X, cond, _cond_rows(cond, arch.num_conditions))
    params = init_denoiser(arch, seed)
    _train(params, _denoising_window(params, schedule, data, batch, 1, cond_drop),
           seed=seed, domain=_PRETRAIN_DOMAIN, steps=steps, lr=lr)
    return params


def _check_fit_args(steps: int, batch: int, lr: float, cond_drop: float = 0.0) -> None:
    """pretrain_base's and sft_ref_init's step arguments, as AlignConfig
    checks align's."""
    if steps < 0 or batch < 1 or not 0 < lr < np.inf or not 0 <= cond_drop <= 1:
        raise InvalidArgument("steps >= 0, batch >= 1, finite lr > 0, 0 <= cond_drop <= 1 "
                              "required")


# align.ref_init's choices: align against the base itself, or against
# sft_ref_init's fit of it to the winners (inpo.cli picks the reference)
REF_INITS = ("base", "sft_winners")


def sft_ref_init(base: DenoiserParams, pairs: PairTable, schedule: NoiseSchedule, steps: int,
                 lr: float, seed: int, batch: int = 64) -> DenoiserParams:
    """Continue denoising training on the winners of the table ``pairs``
    (ties skipped)."""
    _check_fit_args(steps, batch, lr)
    _, pair_ids, data = _non_ties(pairs, base.arch)
    params = base.copy()
    _train(params, _denoising_window(params, schedule, data, batch, 1), seed=seed,
           domain=_SFT_REF_DOMAIN, steps=steps, lr=lr, pair_ids=pair_ids)
    return params


def align(base: DenoiserParams, ref: DenoiserParams, pairs: PairTable, schedule: NoiseSchedule,
          cfg: AlignConfig, log_path=None) -> DenoiserParams:
    """Run the alignment loop on the table ``pairs`` and return the final
    parameters.

    ``ref`` is the frozen reference the pair loss compares against, taken
    as given (``base`` itself, or for instance sft_ref_init's fit of it to
    the winners): it is only ever read, and the sft method reads none.
    When ``log_path`` is given a CSV with columns step, lr, loss,
    sigmoid_arg_mean, wall_ms is written.

    Every pair's condition, and t_min against the schedule's T, is
    validated once, before the first step.
    """
    if cfg.t_min > schedule.T:
        raise InvalidArgument(f"t_min={cfg.t_min} exceeds the schedule's T={schedule.T}")
    table, pair_ids, data = _non_ties(pairs, base.arch)
    params = base.copy()
    if cfg.method == "sft":
        window = _denoising_window(params, schedule, data, cfg.batch_pairs, cfg.t_min)
    else:
        window = _pair_window(params, ref, schedule, data, table.loser[pair_ids], cfg)
    log = [] if log_path is not None else None
    _train(params, window, seed=cfg.seed, domain=_ALIGN_DOMAIN, steps=cfg.steps, lr=cfg.lr,
           warmup_steps=cfg.warmup_steps, accum_steps=cfg.accum_steps, log=log,
           pair_ids=pair_ids)
    if log is not None:
        with open(log_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "lr", "loss", "sigmoid_arg_mean", "wall_ms"])
            w.writerows([step, repr(lr_t), repr(loss), repr(arg), f"{ms:.3f}"]
                        for step, lr_t, loss, arg, ms in log)
    return params
