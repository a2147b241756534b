"""Synthetic datasets, programmatic rewards, and preference-pair handling.

Datasets are standardized with fixed analytic constants (mean zero, unit
per-coordinate scale for the mixture as a whole) so tests can compare
empirical statistics against closed forms. Rewards are deterministic scalar
functions standing in for a human or learned evaluator; higher is preferred.

A pair set is a PairTable, columns from make_preference_pairs through the
pair file to align; save_pairs, align and sft_ref_init take nothing else.
Pair files are line-delimited JSON: a header object followed by one record
per pair. Floats are serialized at full round-trip precision. save_pairs
encodes each record with json from the columns' Python values and refuses
pairs the loader would reject; load_pairs decodes and checks one record at
a time, raising at the first bad line, and builds the columns once at the
end.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .denoiser import NULL_CONDITION, _integer_ids
from .errors import InvalidArgument, PairParseError, VersionError
from .sampler import SamplerConfig, ddim_sample

# dataset kind -> its number of conditions (the mode or cluster labels)
CONDITION_COUNTS = {"eight_gaussians": 8, "two_moons": 2, "ring": 8}
DATASET_KINDS = tuple(CONDITION_COUNTS)
REWARD_KINDS = ("mode_distance", "ring_radius", "linear")
PAIR_SCHEMA_VERSION = 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

_EG_RADIUS = 2.0
_EG_STD = 0.25
_RING_R0, _RING_R1 = 0.8, 1.2
# per-coordinate second moment of the annulus with uniform radius: E[r^2] / 2
_RING_SCALE = math.sqrt((_RING_R0**2 + _RING_R0 * _RING_R1 + _RING_R1**2) / 3 / 2)
_MOON_STD = 0.1


@dataclass(frozen=True, eq=False)
class PairTable:
    """A pair set as columns: one row per pair.

    ``condition`` (n,) int64, ``winner`` and ``loser`` (n, dim) float64,
    ``reward_w`` and ``reward_l`` (n,) float64, ``seed`` (n,) int64 and
    ``tie`` (n,) bool. Tables are equal when their columns are.
    """

    condition: np.ndarray
    winner: np.ndarray
    loser: np.ndarray
    reward_w: np.ndarray
    reward_l: np.ndarray
    seed: np.ndarray
    tie: np.ndarray

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

    @property
    def dim(self) -> int:
        return self.winner.shape[1]

    def __len__(self) -> int:
        return len(self.condition)

    def __eq__(self, other):
        if not isinstance(other, PairTable):
            return NotImplemented
        return all(
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


def _table(pairs) -> PairTable:
    """``pairs`` if it is a PairTable; anything else raises InvalidArgument."""
    if not isinstance(pairs, PairTable):
        raise InvalidArgument(f"pairs must be a PairTable, got {type(pairs).__name__}")
    return pairs


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
        if self.kind == "linear" and (self.direction is None or np.ndim(self.direction) != 1
                                      or not np.isfinite(self.direction).all()):
            raise InvalidArgument("linear needs a finite 1-D direction vector")

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

    Conditions are mode/cluster labels assigned round-robin, one per
    CONDITION_COUNTS[kind].
    """
    if kind not in DATASET_KINDS:
        raise InvalidArgument(f"unknown dataset kind {kind!r}")
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    k = CONDITION_COUNTS[kind]
    cond = np.arange(n, dtype=np.int64) % k
    if kind == "eight_gaussians":
        centers, scale = _eg_centers()
        x = centers[cond] + _EG_STD * rng.standard_normal((n, 2))
        return x / scale, cond
    if kind == "two_moons":
        mean, _, scale = _moon_means()
        a = np.pi * rng.random(n)
        base = np.where(
            (cond == 0)[:, None],
            np.stack([np.cos(a), np.sin(a)], axis=1),
            np.stack([1 - np.cos(a), 0.5 - np.sin(a)], axis=1),
        )
        x = base + _MOON_STD * rng.standard_normal((n, 2))
        return (x - mean) / scale, cond
    # ring: uniform radius in an annulus, angle within the condition's sector
    u = rng.random(n)
    r = _RING_R0 + (_RING_R1 - _RING_R0) * rng.random(n)
    ang = (cond + u) * (2 * np.pi / k)
    x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return x / _RING_SCALE, cond


def default_reward_spec(data_kind: str) -> RewardSpec:
    """Per-condition target points matching the dataset's analytic centers."""
    if data_kind == "eight_gaussians":
        centers, scale = _eg_centers()
        return RewardSpec(kind="mode_distance", targets=centers / scale)
    if data_kind == "two_moons":
        mean, moon_means, scale = _moon_means()
        return RewardSpec(kind="mode_distance", targets=(moon_means - mean) / scale)
    if data_kind == "ring":
        mid_r = (_RING_R0 + _RING_R1) / 2 / _RING_SCALE
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
    does not depend on the rows scored with it. Samples of another width
    than the reward's targets or direction raise InvalidArgument.
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
        if targets.shape[1:] != rows.shape[1:]:
            raise InvalidArgument(f"samples of width {rows.shape[1]} for reward targets of "
                                  f"shape {targets.shape}")
        bad = (c < 0) | (c >= len(targets))
        if bad.any():
            raise InvalidArgument(f"condition {c[bad][0]} has no reward target")
        d = rows - targets[c]
        out = -np.sqrt(_row_dots(d, d))
    elif spec.kind == "ring_radius":
        out = -np.abs(np.sqrt(_row_dots(rows, rows)) - spec.radius)
    else:
        direction = np.asarray(spec.direction, dtype=np.float64)
        if len(direction) != rows.shape[1]:
            raise InvalidArgument(f"samples of width {rows.shape[1]} for a reward direction "
                                  f"of {len(direction)} entries")
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
    winner, the first on a tie. No conditions raise InvalidArgument, as
    pairs_per_condition < 1 does: save_pairs and align reject an empty table.
    """
    if pairs_per_condition < 1:
        raise InvalidArgument("pairs_per_condition must be >= 1")
    if not _INT64_MIN <= int(seed) <= _INT64_MAX:
        raise InvalidArgument("seed must fit in int64")
    conditions = list(conditions)
    if not conditions:
        raise InvalidArgument("conditions must be nonempty")
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
        seed=np.full(len(swap), int(seed), dtype=np.int64),
        tie=reward_w == reward_l,
    )


def save_pairs(pairs: PairTable, path, reward_spec: RewardSpec | None = None) -> None:
    """Write a pair file: the header line, then one JSON record per pair,
    formatted by one template from the columns with the bytes json.dumps
    would write.

    ``pairs`` must be a PairTable. Pairs that the loader would reject (an
    empty set, non-finite samples or rewards) raise InvalidArgument before
    the file is opened.
    """
    t = _table(pairs)
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
    # json.dumps's bytes for a record: floats and ints print as their repr
    vec = "[" + ", ".join(["%r"] * t.dim) + "]"
    record = ('{"c": %d, "w": ' + vec + ', "l": ' + vec
              + ', "rw": %r, "rl": %r, "seed": %d, "tie": %s}')
    columns = [t.condition.tolist(), *t.winner.T.tolist(), *t.loser.T.tolist(),
               t.reward_w.tolist(), t.reward_l.tolist(), t.seed.tolist(),
               np.where(t.tie, "true", "false").tolist()]
    lines = [json.dumps(header)]
    lines += [record % fields for fields in zip(*columns)]
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def load_pairs(path, num_conditions: int | None = None,
               input_dim: int | None = None) -> PairTable:
    """Read a pair file into a PairTable; loaded pairs are marked external.

    A record whose samples or rewards are not finite JSON numbers (a
    boolean is not one), whose winner and loser are not vectors of the
    header's dim (of the first record's, if the header declares none), whose
    condition or seed is not a JSON integer, or with ``num_conditions``
    given a condition not in [-1, num_conditions), whose condition or seed
    does not fit in int64, or whose tie is not a JSON boolean, raises
    PairParseError naming its line; so does, at line 1, a header dim that is
    not a positive integer. A header whose schema_version is not the integer
    1 raises VersionError. With ``input_dim`` given, pairs of another dim,
    declared in the header or not, are rejected too.

    One loop runs over the non-blank lines: each is decoded on its own and
    its fields are read and checked in a fixed order (samples and rewards
    finite numbers, every field present, then dims, the condition's type,
    range and int64 fit, the seed's type and int64 fit, and the tie's type),
    so the error raised is the first bad line's first fault. A good record
    keeps only Python values; the columns are built from all of them at the
    end.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    dim = _pair_header(lines).get("dim", input_dim)
    if input_dim is not None and dim != input_dim:
        raise PairParseError(f"pairs have dim {dim!r} but the model's input_dim is {input_dim}", 1)

    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            values = [*rec["w"], *rec["l"], rec["rw"], rec["rl"]]
            # json decodes a number to an int or a float, true and false to bools
            if not {*map(type, values)} <= {int, float} or not all(map(math.isfinite, values)):
                raise ValueError("a sample or reward is not a finite number")
            w, l = rec["w"], rec["l"]
            if type(w) is not list or type(l) is not list:
                # "" and {} pass the finiteness check with no values; np.asarray rejects them
                np.asarray(w, dtype=np.float64), np.asarray(l, dtype=np.float64)
            c, seed, tie = rec["c"], rec["seed"], rec["tie"]
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise PairParseError(str(e), line_no) from e
        if dim is None:
            dim = len(w)
        if len(w) != dim or len(l) != dim:
            raise PairParseError(f"dim mismatch: expected {dim}, got {len(w)} and {len(l)}",
                                 line_no)
        if type(c) is not int:
            raise PairParseError(f"condition {c!r} is not an integer", line_no)
        if num_conditions is not None and not NULL_CONDITION <= c < num_conditions:
            raise PairParseError(f"condition {c} out of range [-1, {num_conditions})", line_no)
        if not _INT64_MIN <= c <= _INT64_MAX:
            raise PairParseError(f"condition {c} does not fit in int64", line_no)
        if type(seed) is not int:
            raise PairParseError(f"seed {seed!r} is not an integer", line_no)
        if not _INT64_MIN <= seed <= _INT64_MAX:
            raise PairParseError(f"seed {seed} does not fit in int64", line_no)
        if type(tie) is not bool:
            raise PairParseError(f"tie {tie!r} is not a boolean", line_no)
        rows.append((c, seed, tie, values))
    n = len(rows)
    d = dim if n else 0
    conds, seeds, ties, values = zip(*rows) if n else [()] * 4
    # per record: w..., l..., rw, rl
    cols = np.array(values, dtype=np.float64).reshape(n, 2 * d + 2)
    return PairTable(
        condition=np.array(conds, dtype=np.int64),
        winner=cols[:, :d].copy(),
        loser=cols[:, d:2 * d].copy(),
        reward_w=cols[:, 2 * d].copy(),
        reward_l=cols[:, 2 * d + 1].copy(),
        seed=np.array(seeds, dtype=np.int64),
        tie=np.array(ties, dtype=bool),
    )


def _pair_header(lines: list[str]) -> dict:
    """The header of a pair file split into ``lines``, checked: an empty
    file or a first line that is not a JSON object raises PairParseError,
    as does a dim that is not a positive integer; a schema_version that is
    not the integer 1 raises VersionError."""
    if not lines:
        raise PairParseError("empty pair file", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise PairParseError(f"bad header: {e.msg}", 1) from e
    if not isinstance(header, dict):
        raise PairParseError(f"header is not a JSON object: {lines[0][:40]!r}", 1)
    version = header.get("schema_version")
    if type(version) is not int or version != PAIR_SCHEMA_VERSION:
        raise VersionError(f"unsupported pair schema version {version!r}")
    if "dim" in header and (type(header["dim"]) is not int or header["dim"] < 1):
        raise PairParseError(f"header dim {header['dim']!r} is not a positive integer", 1)
    return header


def load_pairs_header(path) -> dict:
    """The header of the pair file at ``path``, checked as load_pairs
    checks it."""
    with open(path) as fh:
        return _pair_header(fh.readline().splitlines())
