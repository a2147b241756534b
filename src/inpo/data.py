"""Synthetic datasets, programmatic rewards, and preference-pair handling.

Datasets are standardized with fixed analytic constants (mean zero, unit
per-coordinate scale for the mixture as a whole) so tests can compare
empirical statistics against closed forms. Rewards are deterministic scalar
functions standing in for a human or learned evaluator; higher is preferred.

Pair files are line-delimited JSON: a header object followed by one record
per pair. Floats are serialized at full round-trip precision.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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
) -> list[PreferencePair]:
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
    """
    if pairs_per_condition < 1:
        raise InvalidArgument("pairs_per_condition must be >= 1")
    conditions = list(conditions)
    if not conditions:
        return []
    dim = model.arch.input_dim
    per = 2 * pairs_per_condition
    streams = np.random.SeedSequence([int(seed), 0x9A12]).spawn(len(conditions))
    z = np.concatenate([np.random.default_rng(stream).standard_normal((per, dim))
                        for stream in streams])
    cond = np.repeat(np.asarray(conditions), per)
    x = ddim_sample(model, s, z, sampler_cfg, cond)
    r = score(spec, x, cond).tolist()
    pairs: list[PreferencePair] = []
    for j, c in enumerate(conditions):
        for k in range(j * per, (j + 1) * per, 2):
            xa, xb = x[k], x[k + 1]
            ra, rb = r[k], r[k + 1]
            if rb > ra:
                xa, xb, ra, rb = xb, xa, rb, ra
            pairs.append(
                PreferencePair(
                    condition=int(c),
                    winner=xa,
                    loser=xb,
                    reward_w=ra,
                    reward_l=rb,
                    seed=int(seed),
                    source="model_sampled",
                    tie=ra == rb,
                )
            )
    return pairs


def relabel_pairs(pairs: list[PreferencePair], spec: RewardSpec) -> list[PreferencePair]:
    """Recompute both rewards under a new evaluator, swapping winner and loser
    where the preference order flips. Ties keep insertion order and are
    flagged; relabeled pairs are marked external."""
    if not pairs:
        raise InvalidArgument("pairs must be nonempty")
    cond = [p.condition for p in pairs]
    rws = score(spec, np.array([p.winner for p in pairs]), cond).tolist()
    rls = score(spec, np.array([p.loser for p in pairs]), cond).tolist()
    out = []
    for p, rw, rl in zip(pairs, rws, rls):
        if rl > rw:
            out.append(
                replace(p, winner=p.loser, loser=p.winner, reward_w=rl, reward_l=rw,
                        tie=False, source="external")
            )
        else:
            out.append(replace(p, reward_w=rw, reward_l=rl, tie=rw == rl, source="external"))
    return out


def save_pairs(pairs: list[PreferencePair], path, reward_spec: RewardSpec | None = None) -> None:
    if not pairs:
        raise InvalidArgument("pairs must be nonempty")
    dim = len(np.asarray(pairs[0].winner))
    header = {
        "schema_version": PAIR_SCHEMA_VERSION,
        "reward_spec": reward_spec.to_dict() if reward_spec is not None else None,
        "dim": dim,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for p in pairs:
            rec = {
                "c": int(p.condition),
                "w": np.asarray(p.winner, dtype=np.float64).tolist(),
                "l": np.asarray(p.loser, dtype=np.float64).tolist(),
                "rw": float(p.reward_w),
                "rl": float(p.reward_l),
                "seed": int(p.seed),
                "tie": bool(p.tie),
            }
            fh.write(json.dumps(rec) + "\n")


def load_pairs(path, num_conditions: int | None = None,
               input_dim: int | None = None) -> list[PreferencePair]:
    """Read a pair file; loaded pairs are marked external.

    A record whose samples or rewards are not finite numbers, whose winner
    and loser are not vectors of the header's dim, or whose condition is not
    an integer, or with ``num_conditions`` given not in [-1, num_conditions),
    raises PairParseError naming its line. With ``input_dim`` given, pairs of
    another dim, declared in the header or not, are rejected too.
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
    dim = header.get("dim", input_dim)
    if input_dim is not None and dim != input_dim:
        raise PairParseError(f"pairs have dim {dim!r} but the model's input_dim is {input_dim}", 1)
    pairs = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not all(map(math.isfinite, [*rec["w"], *rec["l"], rec["rw"], rec["rl"]])):
                raise ValueError("non-finite sample or reward")
            winner = np.asarray(rec["w"], dtype=np.float64)
            loser = np.asarray(rec["l"], dtype=np.float64)
            pair = PreferencePair(
                condition=int(rec["c"]),
                winner=winner,
                loser=loser,
                reward_w=float(rec["rw"]),
                reward_l=float(rec["rl"]),
                seed=int(rec["seed"]),
                source="external",
                tie=bool(rec["tie"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise PairParseError(str(e), i) from e
        if len(loser) != len(winner) or (dim is not None and len(winner) != dim):
            raise PairParseError(f"dim mismatch: expected {dim}, got {len(winner)} and "
                                 f"{len(loser)}", i)
        if type(rec["c"]) is not int:
            raise PairParseError(f"condition {rec['c']!r} is not an integer", i)
        if num_conditions is not None and not NULL_CONDITION <= rec["c"] < num_conditions:
            raise PairParseError(f"condition {rec['c']} out of range [-1, {num_conditions})", i)
        pairs.append(pair)
    return pairs


def load_pairs_header(path) -> dict:
    with open(path) as fh:
        first = fh.readline()
    try:
        return json.loads(first)
    except json.JSONDecodeError as e:
        raise PairParseError(f"bad header: {e.msg}", 1) from e
