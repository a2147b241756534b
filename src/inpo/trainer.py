"""Training loops: pretraining, reference initialization, and alignment.

Every step draws its randomness from a stream derived from (seed, domain,
step index), so a run is a pure function of (config, seed) and resuming from
a checkpoint reproduces the uninterrupted trajectory bit for bit.

The alignment loop accepts three methods sharing one optimizer path:

    inpo  latents/targets built per pair by the configured delta strategy
          (inversion by default) using the current trained parameters,
    dpo   latents from the forward process, targets equal to the drawn
          noise: it runs as inpo with the gaussian strategy,
    sft   the plain denoising objective on winners only.

inpo and dpo build the targets of a window's winners and losers in one
stacked make_targets call, so inversion costs one network forward per grid
step for the whole window. A non-finite value in a step raises TrainingError
naming the step and the first drawn pair whose inputs, targets or loss
argument are non-finite.

Per optimizer step, gradients are averaged over batch_pairs * accum_steps
pair evaluations, each at an independently drawn timestep in {t_min..T}.

align and sft_ref_init take a pair set as a PairTable, or a sequence of
PreferencePair that PairTable.of stacks once, and keep its non-tie rows by
a boolean mask. Each training call (align, and pretrain_base and
sft_ref_init through _fit_denoiser) binds once what its steps share: the
pair set's or dataset's conditions, validated and resolved to embedding
rows that a step gathers by index; one StepWorkspace, in which every step's
forwards and backward run; the step-sum vector; and Adam's scratch pair.
align also keeps one (2B, dim) buffer into which a window gathers its
winners, then its losers. An inpo align with the inversion strategy also
builds one Inverter of 2B rows, which every window's make_targets rebinds to
its timesteps and conditions and to the parameters as Adam left them.

A step's loss and gradient come from the heads' closed-form functions,
preference.pair_value_and_grad on the stacked batch and
preference.sft_value_and_grad for the denoising objective: one trained
forward (and one reference forward) into the workspace, the output gradient,
and one network backward into the workspace's gradient vector. No step runs
the tape (denoiser.value_and_grad); it is the reference the tests hold these
functions to.

The optimizer runs on whole parameter vectors (DenoiserParams.vec). Each
window's gradient lands in the workspace's vector and is checked for
finiteness once; the first window's is copied into the step sum and later
ones are added to it in place. Adam's moments are vectors of the same
layout, and adam_step updates the parameters in place.
"""
from __future__ import annotations

import csv
import hashlib
import json
import struct
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .data import PairTable
from .denoiser import (
    DenoiserParams,
    StepWorkspace,
    _cond_rows,
    _Reader,
    init_denoiser,
    params_from_bytes,
    params_to_bytes,
    value_and_grad,  # noqa: F401  (perfbench's hook tests reach it through this module)
)
from .errors import ConfigError, InvalidArgument, TrainingError, VersionError
from .preference import DeltaStrategy, make_targets, pair_value_and_grad, sft_value_and_grad
from .sampler import Inverter
from .schedule import NoiseSchedule, forward_diffuse

ALIGN_METHODS = ("inpo", "dpo", "sft")
REF_INITS = ("base", "sft_winners")
CKPT_MAGIC = b"INPOCKPT"
CKPT_VERSION = 1

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
    ref_init: str = "base"
    t_min: int = 1

    def __post_init__(self):
        if self.method not in ALIGN_METHODS:
            raise InvalidArgument(f"unknown align method {self.method!r}")
        if self.ref_init not in REF_INITS:
            raise InvalidArgument(f"unknown ref_init {self.ref_init!r}")
        if self.steps < 0 or self.batch_pairs < 1 or self.accum_steps < 1:
            raise InvalidArgument("steps >= 0, batch_pairs >= 1, accum_steps >= 1 required")
        if self.lr <= 0 or self.warmup_steps < 0 or self.t_min < 1:
            raise InvalidArgument("lr > 0, warmup_steps >= 0, t_min >= 1 required")
        if self.beta < 0:
            raise InvalidArgument("beta must be >= 0")


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

    def copy(self) -> "AdamState":
        return AdamState(m=self.m.copy(), v=self.v.copy(), t=self.t)


@dataclass
class Checkpoint:
    params: DenoiserParams
    adam: AdamState
    step: int
    fingerprint: bytes
    schedule_kind: str
    T: int


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


_WORD = 0xFFFFFFFF


def _step_rng(seed: int, domain: int, step: int) -> np.random.Generator:
    """The stream of SeedSequence([seed, domain, step]).

    numpy turns that list into the little-endian 32-bit words of each int,
    at least one word per int, concatenated; the sequence is built from
    that word array directly. A negative int takes the list path, so numpy
    still rejects it.
    """
    ints = (int(seed), domain, int(step))
    if min(ints) < 0:
        return np.random.default_rng(np.random.SeedSequence(list(ints)))
    words = []
    for v in ints:
        words.append(v & _WORD)
        while v > _WORD:
            v >>= 32
            words.append(v & _WORD)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def _finite_grad(grad: DenoiserParams, step: int) -> np.ndarray:
    """A head's gradient vector, rejected if any entry is non-finite."""
    if not np.isfinite(grad.vec).all():
        raise TrainingError("non-finite gradient", step)
    return grad.vec


def _fit_denoiser(params: DenoiserParams, X, cond, schedule: NoiseSchedule, steps: int,
                  lr: float, seed: int, domain: int, batch: int, cond_drop: float):
    """Denoising training of ``params`` in place on (samples, condition) data.

    Each step draws rows, timesteps, noise and condition drops, in that
    order, from its own stream; a dropped condition becomes the null one.
    The conditions are validated and resolved to embedding rows once, and a
    step gathers its rows from them.
    """
    arch = params.arch
    cond_rows = _cond_rows(cond, arch.num_conditions)
    null_row = arch.num_conditions
    ws = StepWorkspace(arch, batch)
    adam = AdamState.zeros_like(params.vec)
    work = (np.empty_like(params.vec), np.empty_like(params.vec))
    for step in range(steps):
        rng = _step_rng(seed, domain, step)
        idx = rng.integers(0, len(X), size=batch)
        t = rng.integers(1, schedule.T + 1, size=batch)
        eps = rng.standard_normal((batch, arch.input_dim))
        drop = rng.random(batch) < cond_drop
        rows = np.where(drop, null_row, cond_rows[idx])
        x_t = forward_diffuse(schedule, X[idx], t, eps)
        try:
            _, grad = sft_value_and_grad(params, schedule, x_t, t, rows, eps, ws)
        except ArithmeticError as e:
            raise TrainingError(str(e), step) from e
        adam_step(params.vec, _finite_grad(grad, step), adam, lr, work)
    return params


def pretrain_base(dataset, arch, schedule: NoiseSchedule, steps: int, lr: float, seed: int,
                  batch: int = 128, cond_drop: float = 0.1) -> DenoiserParams:
    """Train a denoiser from scratch on (samples, condition) data.

    The condition is dropped with probability ``cond_drop`` per example so the
    null-condition branch learns an unconditional prediction.
    """
    X, cond = dataset
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise InvalidArgument("dataset must be nonempty")
    return _fit_denoiser(init_denoiser(arch, seed), X, np.asarray(cond), schedule, steps, lr,
                         seed, _PRETRAIN_DOMAIN, batch, cond_drop)


def sft_ref_init(base: DenoiserParams, pairs, schedule: NoiseSchedule, steps: int,
                 lr: float, seed: int, batch: int = 64) -> DenoiserParams:
    """Continue denoising training on winner samples only (ties skipped).

    ``pairs`` is a PairTable or a sequence of PreferencePair."""
    table = PairTable.of(pairs)
    usable = ~table.tie
    if not usable.any():
        raise InvalidArgument("pairs must contain at least one non-tie")
    return _fit_denoiser(base.copy(), table.winner[usable], table.condition[usable], schedule,
                         steps, lr, seed, _SFT_REF_DOMAIN, batch, cond_drop=0.0)


def config_fingerprint(cfg: AlignConfig) -> bytes:
    canon = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(canon).digest()


class _PairSet(NamedTuple):
    """An align call's non-tie pairs as arrays, with every pair's condition
    validated and resolved to embedding rows once."""

    winners: np.ndarray
    losers: np.ndarray
    conds: np.ndarray
    rows: np.ndarray


def _align_window(params, ref, schedule, pairs: _PairSet, cfg, rng, aux, ws, inverter, x0):
    """Draw one accumulation window and return its loss and gradient.

    The window's winners, then for inpo and dpo its losers, are gathered
    into ``x0``, (B or 2B, dim); the timesteps and embedding rows are
    doubled once for the stacked batch. Its latents and targets come from
    one make_targets call, winners first; dpo is inpo with the gaussian
    strategy, and inversion runs in ``inverter``. The head's closed-form
    function runs the forwards and the backward in ``ws``, whose gradient
    it returns.
    ``aux`` receives the draws as they are made, so a failure part way
    through can still name the pair.
    """
    B = cfg.batch_pairs
    idx = rng.integers(0, len(pairs.winners), size=B)
    t = rng.integers(cfg.t_min, schedule.T + 1, size=B)
    np.take(pairs.winners, idx, axis=0, out=x0[:B])
    aux.update(idx=idx, t=t, arrays=[x0])

    if cfg.method == "sft":
        eps = rng.standard_normal(x0.shape)
        x_t = forward_diffuse(schedule, x0, t, eps)
        aux["arrays"].append(x_t)
        return sft_value_and_grad(params, schedule, x_t, t, pairs.rows[idx], eps, ws)

    np.take(pairs.losers, idx, axis=0, out=x0[B:])
    idx2 = np.concatenate([idx, idx])
    t2 = np.concatenate([t, t])
    delta = _DPO_DELTA if cfg.method == "dpo" else cfg.delta
    x_t, tau = make_targets(params, schedule, x0, t2, pairs.conds[idx2], delta, rng,
                            inverter=inverter)
    aux["arrays"] += [x_t, tau]
    return pair_value_and_grad(params, ref, schedule, x_t, tau, t2, pairs.rows[idx2],
                               cfg.beta, ws, aux=aux)


def align(base: DenoiserParams, ref: DenoiserParams, pairs, schedule: NoiseSchedule,
          cfg: AlignConfig, log_path=None, resume: Checkpoint | None = None,
          checkpoint_at: int | None = None, on_checkpoint=None) -> DenoiserParams:
    """Run the alignment loop on ``pairs``, a PairTable or a sequence of
    PreferencePair, and return the final parameters.

    ``ref`` is frozen: it is only ever read. When ``log_path`` is given a CSV
    with columns step, lr, loss, sigmoid_arg_mean, wall_ms is written. When
    ``checkpoint_at`` is reached, ``on_checkpoint`` receives a Checkpoint that
    ``resume`` accepts to reproduce the rest of the run exactly.

    Every pair's condition is validated once, before the first step. Each
    step's forwards and backward run in one StepWorkspace, and its windows'
    gradients are summed in one vector; both are allocated once per call.
    """
    table = PairTable.of(pairs)
    usable = ~table.tie
    if not usable.any():
        raise InvalidArgument("no usable (non-tie) pairs")
    conds = table.condition[usable]
    pair_set = _PairSet(table.winner[usable], table.loser[usable], conds,
                        _cond_rows(conds, base.arch.num_conditions))

    fp = config_fingerprint(cfg)
    if resume is not None:
        if resume.fingerprint != fp:
            raise ConfigError("checkpoint fingerprint does not match this config")
        params = resume.params.copy()
        adam = resume.adam.copy()
        start = resume.step
    else:
        params = base.copy()
        adam = AdamState.zeros_like(params.vec)
        start = 0
    work = (np.empty_like(params.vec), np.empty_like(params.vec))
    gsum = np.empty_like(params.vec)
    rows_per_window = cfg.batch_pairs * (1 if cfg.method == "sft" else 2)
    ws = StepWorkspace(params.arch, rows_per_window)
    x0 = np.empty((rows_per_window, params.arch.input_dim))
    inverter = None
    if cfg.method == "inpo" and cfg.delta.kind == "inversion":
        inverter = Inverter(params, schedule, cfg.delta.n, rows_per_window,
                            cfg.delta.guidance_w_inv)

    rows_log = []
    for step in range(start, cfg.steps):
        tick = time.perf_counter()
        rng = _step_rng(cfg.seed, _ALIGN_DOMAIN, step)
        loss_sum = 0.0
        arg_sum = 0.0
        for k in range(cfg.accum_steps):
            aux = {}
            try:
                val, grad = _align_window(params, ref, schedule, pair_set, cfg, rng, aux, ws,
                                          inverter, x0)
            except ArithmeticError as e:
                raise TrainingError(f"{e}{_bad_pair(aux)}", step) from e
            g = _finite_grad(grad, step)
            if k:
                gsum += g
            else:
                np.copyto(gsum, g)
            loss_sum += val
            arg = aux.get("sigmoid_arg")
            arg_sum += float(arg.mean()) if arg is not None else 0.0
        if cfg.accum_steps > 1:
            gsum /= cfg.accum_steps
        lr_t = warmup_lr(cfg.lr, step, cfg.warmup_steps)
        adam_step(params.vec, gsum, adam, lr_t, work)
        wall_ms = (time.perf_counter() - tick) * 1e3
        rows_log.append(
            (step, lr_t, loss_sum / cfg.accum_steps, arg_sum / cfg.accum_steps, wall_ms)
        )
        if checkpoint_at is not None and step + 1 == checkpoint_at and on_checkpoint:
            on_checkpoint(
                Checkpoint(
                    params=params.copy(),
                    adam=adam.copy(),
                    step=step + 1,
                    fingerprint=fp,
                    schedule_kind=schedule.kind,
                    T=schedule.T,
                )
            )
    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "lr", "loss", "sigmoid_arg_mean", "wall_ms"])
            for row in rows_log:
                w.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3]), f"{row[4]:.3f}"])
    return params


def _bad_pair(aux) -> str:
    """Name the first drawn pair whose inputs, targets or loss argument are
    non-finite, as " (pair i, t=...)", or return "" if there is none.

    Row r of a drawn array of B or 2B rows belongs to drawn pair r % B.
    """
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
    return f" (pair {int(idx[i])}, t={int(t[i])})"


# ----------------------------------------------------------- checkpoint file


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    blob = params_to_bytes(ckpt.params, ckpt.schedule_kind, ckpt.T)
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(ckpt.fingerprint)
        fh.write(struct.pack("<Q", ckpt.step))
        fh.write(struct.pack("<Q", ckpt.adam.t))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for vec in (ckpt.adam.m, ckpt.adam.v):
            fh.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "checkpoint file")
    if r.take(len(CKPT_MAGIC)) != CKPT_MAGIC:
        raise VersionError("not a trainer checkpoint")
    version = r.u32()
    if version != CKPT_VERSION:
        raise VersionError(f"unsupported checkpoint version {version}")
    fingerprint = r.take(32)
    step = r.u64()
    adam_t = r.u64()
    params, kind, T = params_from_bytes(r.take(r.u64()))
    m = r.f8(params.vec.shape)
    v = r.f8(params.vec.shape)
    r.end()
    return Checkpoint(
        params=params,
        adam=AdamState(m=m, v=v, t=adam_t),
        step=step,
        fingerprint=fingerprint,
        schedule_kind=kind,
        T=T,
    )
