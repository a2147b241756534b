"""Synthetic datasets, programmatic rewards, and preference-pair handling.

Datasets are standardized with fixed analytic constants (mean zero, unit
per-coordinate scale for the mixture as a whole) so tests can compare
empirical statistics against closed forms. Rewards are deterministic scalar
functions standing in for a human or learned evaluator; higher is preferred.

A pair set is a PairTable, columns from make_preference_pairs through the
pair file to align; it is also a sequence of PreferencePair, and
PairTable.of stacks such a sequence into columns. Pair files are
line-delimited JSON: a header object followed by one record per pair.
Floats are serialized at full round-trip precision. save_pairs encodes each
record with json from the columns' Python values and refuses pairs the
loader would reject; load_pairs decodes each line with json and checks the
fields column by column, naming the first bad line.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .denoiser import NULL_CONDITION, _integer_ids
from .errors import InvalidArgument, PairParseError, VersionError
from .sampler import SamplerConfig, ddim_sample

DATASET_KINDS = ("eight_gaussians", "two_moons", "ring")
REWARD_KINDS = ("mode_distance", "ring_radius", "linear")
PAIR_SCHEMA_VERSION = 1

_EG_RADIUS = 2.0
_EG_STD = 0.25
_RING_R0, _RING_R1 = 0.8, 1.2
_MOON_STD = 0.1


@dataclass(frozen=True)
class PreferencePair:
    condition: int
    winner: np.ndarray
    loser: np.ndarray
    reward_w: float
    reward_l: float
    seed: int
    source: str = "model_sampled"
    tie: bool = False


@dataclass(frozen=True, eq=False)
class PairTable(Sequence):
    """A pair set as columns: one row per pair.

    ``condition`` (n,) int64, ``winner`` and ``loser`` (n, dim) float64,
    ``reward_w`` and ``reward_l`` (n,) float64, ``seed`` (n,) int64 and
    ``tie`` (n,) bool, with one ``source`` for every pair. It is a sequence
    of PreferencePair: an int index gives a pair whose winner and loser are
    row views, a slice gives a PairTable. Tables are equal when their
    sources and columns are.
    """

    condition: np.ndarray
    winner: np.ndarray
    loser: np.ndarray
    reward_w: np.ndarray
    reward_l: np.ndarray
    seed: np.ndarray
    tie: np.ndarray
    source: str = "model_sampled"

    def __post_init__(self):
        n = len(self.condition)
        for name, dtype, ndim in _COLUMNS:
            col = getattr(self, name)
            if (not isinstance(col, np.ndarray) or col.dtype != dtype or col.ndim != ndim
                    or len(col) != n):
                raise InvalidArgument(f"column {name} must be {ndim}-D {np.dtype(dtype)} "
                                      f"with {n} rows")
        if self.loser.shape != self.winner.shape:
            raise InvalidArgument(f"winners {self.winner.shape} and losers "
                                  f"{self.loser.shape} differ in shape")

    @classmethod
    def of(cls, pairs) -> "PairTable":
        """``pairs`` as a table: a PairTable unchanged, a sequence of
        PreferencePair stacked into columns. Conditions must be integers,
        winners and losers vectors of one dim, seeds must fit in int64 and
        the pairs must share one source; samples and rewards are not
        checked for finiteness."""
        if isinstance(pairs, PairTable):
            return pairs
        pairs = list(pairs)
        if not pairs:
            return cls(np.empty(0, np.int64), np.empty((0, 0)), np.empty((0, 0)),
                       np.empty(0), np.empty(0), np.empty(0, np.int64), np.empty(0, bool))
        condition = _integer_ids([p.condition for p in pairs]).astype(np.int64)
        try:
            winner = np.stack([p.winner for p in pairs], dtype=np.float64)
            loser = np.stack([p.loser for p in pairs], dtype=np.float64)
        except ValueError as e:
            raise InvalidArgument(f"pair samples differ in shape: {e}") from None
        sources = {p.source for p in pairs}
        if len(sources) != 1:
            raise InvalidArgument(f"pairs mix sources {sorted(sources)}")
        return cls(
            condition=condition,
            winner=winner,
            loser=loser,
            reward_w=np.array([p.reward_w for p in pairs], dtype=np.float64),
            reward_l=np.array([p.reward_l for p in pairs], dtype=np.float64),
            seed=_seed_column([p.seed for p in pairs]),
            tie=np.array([p.tie for p in pairs], dtype=bool),
            source=sources.pop(),
        )

    @property
    def dim(self) -> int:
        return self.winner.shape[1]

    def __len__(self) -> int:
        return len(self.condition)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PairTable(*(getattr(self, name)[i] for name, _, _ in _COLUMNS), self.source)
        return PreferencePair(int(self.condition[i]), self.winner[i], self.loser[i],
                              float(self.reward_w[i]), float(self.reward_l[i]),
                              int(self.seed[i]), self.source, bool(self.tie[i]))

    def __iter__(self):
        return map(PreferencePair, self.condition.tolist(), self.winner, self.loser,
                   self.reward_w.tolist(), self.reward_l.tolist(), self.seed.tolist(),
                   repeat(self.source), self.tie.tolist())

    def __eq__(self, other):
        if not isinstance(other, PairTable):
            return NotImplemented
        return self.source == other.source and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _, _ in _COLUMNS)


# (name, dtype, ndim) of every PairTable column, in field order
_COLUMNS = (
    ("condition", np.int64, 1),
    ("winner", np.float64, 2),
    ("loser", np.float64, 2),
    ("reward_w", np.float64, 1),
    ("reward_l", np.float64, 1),
    ("seed", np.int64, 1),
    ("tie", np.bool_, 1),
)


def _seed_column(seeds: list) -> np.ndarray:
    try:
        return np.array(seeds, dtype=np.int64)
    except OverflowError:
        raise InvalidArgument("seeds must fit in int64") from None


@dataclass(frozen=True)
class RewardSpec:
    kind: str
    targets: np.ndarray | None = None  # mode_distance: (K, dim) points per condition
    radius: float | None = None  # ring_radius
    direction: np.ndarray | None = None  # linear

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise InvalidArgument(f"unknown reward kind {self.kind!r}")
        if self.kind == "mode_distance" and self.targets is None:
            raise InvalidArgument("mode_distance needs per-condition targets")
        if self.kind == "ring_radius" and (self.radius is None or not np.isfinite(self.radius)):
            raise InvalidArgument("ring_radius needs a finite radius")
        if self.kind == "linear" and self.direction is None:
            raise InvalidArgument("linear needs a direction vector")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.targets is not None:
            out["targets"] = np.asarray(self.targets).tolist()
        if self.radius is not None:
            out["radius"] = float(self.radius)
        if self.direction is not None:
            out["direction"] = np.asarray(self.direction).tolist()
        return out

    @staticmethod
    def from_dict(d: dict) -> "RewardSpec":
        return RewardSpec(
            kind=d["kind"],
            targets=np.asarray(d["targets"], dtype=np.float64) if "targets" in d else None,
            radius=d.get("radius"),
            direction=np.asarray(d["direction"], dtype=np.float64) if "direction" in d else None,
        )


def _eg_centers() -> tuple[np.ndarray, float]:
    ang = 2 * np.pi * np.arange(8) / 8
    centers = _EG_RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # per-coordinate second moment of the mixture: R^2/2 + std^2
    scale = np.sqrt(_EG_RADIUS**2 / 2 + _EG_STD**2)
    return centers, scale


def _moon_means() -> tuple[np.ndarray, np.ndarray, float]:
    # moon 0: (cos a, sin a), moon 1: (1 - cos a, 0.5 - sin a), a ~ U[0, pi]
    m0 = np.array([0.0, 2 / np.pi])
    m1 = np.array([1.0, 0.5 - 2 / np.pi])
    mean = (m0 + m1) / 2
    var_x = 1.0 - 0.25 + _MOON_STD**2
    e_y2 = 0.5 * (0.5 + (0.5 - 2 * (2 / np.pi) * 0.5 + 0.25))
    var_y = e_y2 - mean[1] ** 2 + _MOON_STD**2
    scale = np.sqrt((var_x + var_y) / 2)
    return mean, np.stack([m0, m1]), scale


def gen_toy_dataset(kind: str, n: int, seed: int):
    """Deterministic 2-D dataset; returns (samples (n, 2), condition ids (n,)).

    Conditions are mode/cluster labels assigned round-robin.
    """
    if kind not in DATASET_KINDS:
        raise InvalidArgument(f"unknown dataset kind {kind!r}")
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    if kind == "eight_gaussians":
        centers, scale = _eg_centers()
        cond = np.arange(n, dtype=np.int64) % 8
        x = centers[cond] + _EG_STD * rng.standard_normal((n, 2))
        return x / scale, cond
    if kind == "two_moons":
        mean, _, scale = _moon_means()
        cond = np.arange(n, dtype=np.int64) % 2
        a = np.pi * rng.random(n)
        base = np.where(
            (cond == 0)[:, None],
            np.stack([np.cos(a), np.sin(a)], axis=1),
            np.stack([1 - np.cos(a), 0.5 - np.sin(a)], axis=1),
        )
        x = base + _MOON_STD * rng.standard_normal((n, 2))
        return (x - mean) / scale, cond
    # ring: uniform radius in an annulus, angle within the condition's sector
    cond = np.arange(n, dtype=np.int64) % 8
    u = rng.random(n)
    r = _RING_R0 + (_RING_R1 - _RING_R0) * rng.random(n)
    ang = (cond + u) * (2 * np.pi / 8)
    scale = np.sqrt((_RING_R0**2 + _RING_R0 * _RING_R1 + _RING_R1**2) / 3 / 2)
    x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return x / scale, cond


def default_reward_spec(data_kind: str) -> RewardSpec:
    """Per-condition target points matching the dataset's analytic centers."""
    if data_kind == "eight_gaussians":
        centers, scale = _eg_centers()
        return RewardSpec(kind="mode_distance", targets=centers / scale)
    if data_kind == "two_moons":
        mean, moon_means, scale = _moon_means()
        return RewardSpec(kind="mode_distance", targets=(moon_means - mean) / scale)
    if data_kind == "ring":
        scale = np.sqrt((_RING_R0**2 + _RING_R0 * _RING_R1 + _RING_R1**2) / 3 / 2)
        mid_r = (_RING_R0 + _RING_R1) / 2 / scale
        ang = (np.arange(8) + 0.5) * (2 * np.pi / 8)
        targets = mid_r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return RewardSpec(kind="mode_distance", targets=targets)
    raise InvalidArgument(f"unknown dataset kind {data_kind!r}")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked (1, dim) @ (dim, 1) products: each row's value is bit-identical
    # to the 1-D a[i] @ b[i] (norm(axis=1) and einsum differ in the last bit)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def score(spec: RewardSpec, x0, c):
    """Deterministic preference score; higher is preferred.

    ``x0`` is one sample, scored to a float, or (n, dim) rows with one
    integer condition or one per row, scored to an (n,) array. A row's score
    does not depend on the rows scored with it.
    """
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise InvalidArgument(f"samples must be one vector or (n, dim) rows, got {x.shape}")
    rows = np.atleast_2d(x)
    c = _integer_ids(c)
    if c.shape not in ((), rows.shape[:1]):
        raise InvalidArgument(f"{c.shape} conditions for {rows.shape[0]} samples")
    c = np.broadcast_to(c, rows.shape[:1])
    if spec.kind == "mode_distance":
        targets = np.asarray(spec.targets, dtype=np.float64)
        bad = (c < 0) | (c >= len(targets))
        if bad.any():
            raise InvalidArgument(f"condition {c[bad][0]} has no reward target")
        d = rows - targets[c]
        out = -np.sqrt(_row_dots(d, d))
    elif spec.kind == "ring_radius":
        out = -np.abs(np.sqrt(_row_dots(rows, rows)) - spec.radius)
    else:
        direction = np.asarray(spec.direction, dtype=np.float64)
        out = (rows[:, None, :] @ direction[:, None])[:, 0, 0]
    return float(out[0]) if x.ndim == 1 else out


def make_preference_pairs(
    model,
    s,
    spec: RewardSpec,
    conditions,
    pairs_per_condition: int,
    sampler_cfg: SamplerConfig,
    seed: int,
) -> PairTable:
    """Sample two generations per (condition, slot) and label them by score.

    Per-condition RNG streams derive from the master seed, so the latents do
    not depend on evaluation order across conditions. Every condition's
    latents are sampled in one ddim_sample call with per-row conditions and
    scored in one score call. Rows are independent in exact arithmetic, but
    BLAS computes a matrix product in blocks of rows, so a pair has the bytes
    of sampling its condition alone only when each condition's rows fill
    whole blocks (2 * pairs_per_condition a multiple of 4 on OpenBLAS's
    Haswell kernels, as at the default 64); otherwise tail rows may differ in
    the last bit. Either way a run is a pure function of its inputs.

    Consecutive samples (2k, 2k+1) form pair k; the higher-scored one is the
    winner, the first on a tie.
    """
    if pairs_per_condition < 1:
        raise InvalidArgument("pairs_per_condition must be >= 1")
    conditions = list(conditions)
    if not conditions:
        return PairTable.of([])
    dim = model.arch.input_dim
    per = 2 * pairs_per_condition
    streams = np.random.SeedSequence([int(seed), 0x9A12]).spawn(len(conditions))
    z = np.concatenate([np.random.default_rng(stream).standard_normal((per, dim))
                        for stream in streams])
    conditions = np.asarray(conditions)
    cond = np.repeat(conditions, per)
    x = ddim_sample(model, s, z, sampler_cfg, cond)
    r = score(spec, x, cond)
    xa, xb, ra, rb = x[0::2], x[1::2], r[0::2], r[1::2]
    swap = rb > ra
    reward_w, reward_l = np.where(swap, rb, ra), np.where(swap, ra, rb)
    return PairTable(
        condition=np.repeat(conditions.astype(np.int64), pairs_per_condition),
        winner=np.where(swap[:, None], xb, xa),
        loser=np.where(swap[:, None], xa, xb),
        reward_w=reward_w,
        reward_l=reward_l,
        seed=_seed_column([int(seed)]).repeat(len(swap)),
        tie=reward_w == reward_l,
        source="model_sampled",
    )


def save_pairs(pairs, path, reward_spec: RewardSpec | None = None) -> None:
    """Write a pair file: the header line, then one JSON record per pair.

    Pairs that the loader would reject (non-finite samples or rewards, mixed
    dims, non-integer conditions) raise InvalidArgument before the file is
    opened.
    """
    t = PairTable.of(pairs)
    if not len(t):
        raise InvalidArgument("pairs must be nonempty")
    finite = (np.isfinite(t.winner).all(axis=1) & np.isfinite(t.loser).all(axis=1)
              & np.isfinite(t.reward_w) & np.isfinite(t.reward_l))
    if not finite.all():
        raise InvalidArgument(f"pair {int(np.argmin(finite))} has a non-finite sample or reward")
    header = {
        "schema_version": PAIR_SCHEMA_VERSION,
        "reward_spec": reward_spec.to_dict() if reward_spec is not None else None,
        "dim": t.dim,
    }
    lines = [json.dumps(header)]
    lines += [
        json.dumps({"c": c, "w": w, "l": l, "rw": rw, "rl": rl, "seed": seed, "tie": tie})
        for c, w, l, rw, rl, seed, tie in zip(
            t.condition.tolist(), t.winner.tolist(), t.loser.tolist(), t.reward_w.tolist(),
            t.reward_l.tolist(), t.seed.tolist(), t.tie.tolist())
    ]
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def load_pairs(path, num_conditions: int | None = None,
               input_dim: int | None = None) -> PairTable:
    """Read a pair file into a PairTable; loaded pairs are marked external.

    A record whose samples or rewards are not finite numbers, whose winner
    and loser are not vectors of the header's dim (of the first record's,
    if the header declares none), whose condition is not an integer, or
    with ``num_conditions`` given not in [-1, num_conditions), or whose
    condition or seed does not fit in int64, raises PairParseError naming
    its line; so does, at line 1, a header dim that is not a positive
    integer. With ``input_dim`` given, pairs of another dim, declared in the
    header or not, are rejected too.

    Each line is decoded on its own. The fields are then read and checked
    column by column, in the order a record's fields are read: a check that
    fails at some record leaves only the records before it to the later
    checks, so the error raised is the first bad line's first fault.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise PairParseError("empty pair file", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise PairParseError(f"bad header: {e.msg}", 1) from e
    if not isinstance(header, dict):
        raise PairParseError(f"header is not a JSON object: {lines[0][:40]!r}", 1)
    if header.get("schema_version") != PAIR_SCHEMA_VERSION:
        raise VersionError(
            f"unsupported pair schema version {header.get('schema_version')!r}"
        )
    if "dim" in header and (type(header["dim"]) is not int or header["dim"] < 1):
        raise PairParseError(f"header dim {header['dim']!r} is not a positive integer", 1)
    dim = header.get("dim", input_dim)
    if input_dim is not None and dim != input_dim:
        raise PairParseError(f"pairs have dim {dim!r} but the model's input_dim is {input_dim}", 1)

    body = [line for line in lines[1:] if line.strip()]
    ff = _FirstFault(len(body))
    recs = ff.map(json.loads, body)
    values = ff.map(_sample_values, recs)  # per record: w..., l..., rw, rl
    ff.finite(values)
    w_raw = [rec["w"] for rec in recs[:ff.n]]
    l_raw = [rec["l"] for rec in recs[:ff.n]]
    if {*map(type, w_raw), *map(type, l_raw)} - {list}:
        # "" and {} pass the finiteness check with no values; np.asarray rejects them
        for i, (w, l) in enumerate(zip(w_raw, l_raw)):
            try:
                np.asarray(w, dtype=np.float64), np.asarray(l, dtype=np.float64)
            except _RECORD_ERRORS as e:
                ff.at(i, str(e))
                break
    c_raw = ff.map(itemgetter("c"), recs)
    conds = ff.map(int, c_raw)
    seeds = ff.map(int, ff.map(itemgetter("seed"), recs))
    ties = list(map(bool, ff.map(itemgetter("tie"), recs)))
    n = ff.n
    if dim is None and n:
        dim = len(w_raw[0])
    w_len, l_len = list(map(len, w_raw[:n])), list(map(len, l_raw[:n]))
    ff.where([a != dim or b != dim for a, b in zip(w_len, l_len)],
             lambda i: f"dim mismatch: expected {dim}, got {w_len[i]} and {l_len[i]}")
    ff.where([type(c) is not int for c in c_raw[:ff.n]],
             lambda i: f"condition {c_raw[i]!r} is not an integer")
    if num_conditions is not None:
        ff.where([not NULL_CONDITION <= c < num_conditions for c in c_raw[:ff.n]],
                 lambda i: f"condition {c_raw[i]} out of range [-1, {num_conditions})")
    ff.where([not (_INT64_MIN <= c <= _INT64_MAX and _INT64_MIN <= s <= _INT64_MAX)
              for c, s in zip(conds, seeds)],
             lambda i: _int64_fault(conds[i], seeds[i]))
    if ff.fault is not None:
        i, message = ff.fault
        line_nos = [k for k, line in enumerate(lines[1:], start=2) if line.strip()]
        raise PairParseError(message, line_nos[i])
    d = w_len[0] if n else 0
    cols = np.fromiter(chain.from_iterable(values), np.float64, n * (2 * d + 2))
    cols = cols.reshape(n, 2 * d + 2)
    return PairTable(
        condition=np.array(conds, dtype=np.int64),
        winner=cols[:, :d].copy(),
        loser=cols[:, d:2 * d].copy(),
        reward_w=cols[:, 2 * d].copy(),
        reward_l=cols[:, 2 * d + 1].copy(),
        seed=np.array(seeds, dtype=np.int64),
        tie=np.array(ties, dtype=bool),
        source="external",
    )


# A pair record's fields, read as load_pairs reads them; a failing read names
# the record's line.
_RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _sample_values(rec) -> list:
    return [*rec["w"], *rec["l"], rec["rw"], rec["rl"]]


def _int64_fault(c: int, seed: int) -> str:
    if not _INT64_MIN <= c <= _INT64_MAX:
        return f"condition {c} does not fit in int64"
    return f"seed {seed} does not fit in int64"


class _FirstFault:
    """The first bad record of a pair file, found one column check at a time.

    Checks run in the order a record's fields are read, each over the
    records still in play, the first ``n``. A check failing at record i
    leaves only the i records before it in play, so every later check sees
    records that passed all earlier ones, and the fault kept at the end is
    the first bad record's first.
    """

    def __init__(self, n: int):
        self.n, self.fault = n, None

    def at(self, i: int, message: str) -> None:
        """A fault at record i, one of the records in play."""
        self.n, self.fault = i, (i, message)

    def map(self, fn, items) -> list:
        """fn over the records in play, up to the first one it raises for."""
        out = []
        try:
            out.extend(map(fn, items[: self.n]))
        except _RECORD_ERRORS as e:
            self.at(len(out), str(e))
        return out

    def where(self, bad: list, message) -> None:
        """A fault, ``message(i)``, at the first record in play where ``bad`` holds."""
        if True in bad[: self.n]:
            i = bad.index(True)
            self.at(i, message(i))

    def finite(self, values: list) -> None:
        """math.isfinite over the records' values in reading order: a record
        faults at its first non-finite value, or with the error of its first
        value that is not a real number."""
        flags, error = [], None
        try:
            flags.extend(map(math.isfinite, chain.from_iterable(values[: self.n])))
        except (TypeError, OverflowError) as e:
            error = str(e)
        k = flags.index(False) if False in flags else len(flags)
        if k < len(flags) or error is not None:
            ends = np.cumsum(list(map(len, values[: self.n])))
            i = int(np.searchsorted(ends, k, side="right"))
            self.at(i, "non-finite sample or reward" if k < len(flags) else error)


def load_pairs_header(path) -> dict:
    with open(path) as fh:
        first = fh.readline()
    try:
        return json.loads(first)
    except json.JSONDecodeError as e:
        raise PairParseError(f"bad header: {e.msg}", 1) from e
