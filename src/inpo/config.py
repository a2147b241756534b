"""Flat key=value configuration with a typed key registry.

Files hold one ``key = value`` per line ('#' starts a comment). Overrides
from the command line are applied after the file. Unknown keys are rejected
with the offending key path.

Each registry entry is (parser, default, bound). A key with a fixed set of
values takes its choices from the module that checks them (``DATASET_KINDS``
from ``inpo.data``, ``DELTA_KINDS`` from ``inpo.preference``, ...) in its
parser. A numeric key's bound names one of ``BOUNDS``, or ``all <bound>`` for
a list key's every element, after ``non-empty and`` for a list that must hold
one, and is exactly what the code that reads the key accepts; ``load_config``
rejects a value outside it, naming the key, once the file and the overrides
are applied, so the command line exits before any subcommand runs, whether
or not that subcommand reads the key. What a bound cannot say without the
loaded model (a time against the model's T, a reward against its
conditions) ``inpo.cli`` checks once per command, after loading the model
and before any sampling or training. The dataclasses and library
functions keep their own checks for callers that never load a config.
"""
from __future__ import annotations

import math

import numpy as np

from .data import DATASET_KINDS, REWARD_KINDS, RewardSpec, default_reward_spec
from .errors import ConfigError
from .preference import DELTA_KINDS
from .schedule import LOSS_WEIGHT_KINDS, SCHEDULE_KINDS
from .trainer import ALIGN_METHODS, REF_INITS


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_intlist(v: str) -> tuple[int, ...]:
    return tuple(int(x) for x in v.split(",") if x.strip())


def _parse_floatlist(v: str) -> tuple[float, ...]:
    return tuple(float(x) for x in v.split(",") if x.strip())


def _choice(*options):
    def parse(v: str) -> str:
        if v not in options:
            raise ValueError(f"must be one of {options}, got {v!r}")
        return v

    return parse


# the prefix of a list key's bound that rejects an empty list
NON_EMPTY = "non-empty and "
# bound -> whether a value is within it
BOUNDS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "even and >= 2": lambda v: v >= 2 and v % 2 == 0,
    "> 0": lambda v: v > 0,
    "> 0 and finite": lambda v: 0 < v < math.inf,
    ">= 0 and finite": lambda v: 0 <= v < math.inf,
    "finite": math.isfinite,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def within(bound: str, value) -> bool:
    """Whether ``value`` lies within ``bound``: every element of a list
    value for an ``all <bound>``, and at least one after ``non-empty and``."""
    if bound.startswith(NON_EMPTY):
        return len(value) > 0 and within(bound.removeprefix(NON_EMPTY), value)
    if bound.startswith("all "):
        return all(map(BOUNDS[bound[4:]], value))
    return BOUNDS[bound](value)


def show(value) -> str:
    """A value as the command line writes it: a list's elements joined by commas."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# key -> (parser, default, bound or None)
REGISTRY: dict[str, tuple] = {
    "schedule.kind": (_choice(*SCHEDULE_KINDS), "cosine", None),
    "schedule.T": (int, 1000, ">= 2"),
    "schedule.loss_weight": (_choice(*LOSS_WEIGHT_KINDS), "constant", None),
    "model.hidden": (_parse_intlist, (64, 64), "all >= 1"),
    "model.time_embed_dim": (int, 16, "even and >= 2"),
    "data.kind": (_choice(*DATASET_KINDS), "eight_gaussians", None),
    "data.n": (int, 8000, ">= 1"),
    "pretrain.steps": (int, 4000, ">= 0"),
    "pretrain.lr": (float, 1e-3, "> 0 and finite"),
    "pretrain.batch": (int, 128, ">= 1"),
    "pretrain.cond_drop": (float, 0.1, "in [0, 1]"),
    "reward.kind": (_choice(*REWARD_KINDS), "mode_distance", None),
    "reward.radius": (float, 1.0, "finite"),
    "reward.direction": (_parse_floatlist, (1.0, 0.0), "all finite"),
    "prefs.model": (str, "", None),
    "prefs.pairs_per_condition": (int, 64, ">= 1"),
    "sample.n_steps": (int, 40, ">= 1"),
    "sample.guidance_w": (float, 1.0, "finite"),
    "sample.t_start": (int, 0, ">= 0"),  # 0 = auto: round(0.95 T), clear of the high-sigma tail
    "invert.guidance_w": (float, 0.0, "finite"),
    "align.method": (_choice(*ALIGN_METHODS), "inpo", None),
    "align.beta": (float, 2000.0, ">= 0 and finite"),
    "align.delta": (_choice(*DELTA_KINDS), "inversion", None),
    "align.delta.n": (int, 10, ">= 1"),
    "align.delta.w_inv": (float, 0.0, "finite"),
    "align.delta.max_iters": (int, 50, ">= 1"),
    "align.delta.tol": (float, 1e-8, "> 0"),
    "align.delta.damping": (float, 1.0, "in (0, 1]"),
    "align.steps": (int, 500, ">= 0"),
    "align.batch_pairs": (int, 64, ">= 1"),
    "align.accum_steps": (int, 1, ">= 1"),
    "align.lr": (float, 1e-3, "> 0 and finite"),
    "align.warmup_steps": (int, 50, ">= 0"),
    "align.t_min": (int, 1, ">= 1"),
    "align.ref_init": (_choice(*REF_INITS), "base", None),
    "align.ref_sft_steps": (int, 500, ">= 0"),
    "align.ref_sft_lr": (float, 1e-3, "> 0 and finite"),
    "align.base": (str, "", None),
    "align.pairs": (str, "", None),
    "eval.model_a": (str, "", None),
    "eval.model_b": (str, "", None),
    "eval.n_trials": (int, 512, ">= 1"),
    "eval.roundtrip": (_parse_bool, False, None),
    "eval.t_target": (int, 800, ">= 1"),
    "eval.ns": (_parse_intlist, (5, 10, 25, 50), "non-empty and all >= 1"),
    "eval.samples": (int, 64, ">= 1"),
    "demo.model": (str, "", None),
    "demo.t_target": (int, 800, ">= 1"),
    "demo.ns": (_parse_intlist, (5, 10, 25, 50), "non-empty and all >= 1"),
    "demo.samples": (int, 16, ">= 1"),
    "ablate.base": (str, "", None),
    "ablate.pairs": (str, "", None),
    "ablate.betas": (_parse_floatlist, (2e3, 3e3, 4e3, 5e3), "non-empty and all >= 0 and finite"),
    "ablate.ns": (_parse_intlist, (3, 5, 10, 30), "non-empty and all >= 1"),
    "ablate.w_invs": (_parse_floatlist, (0.0, 1.0, 5.0, 7.5), "non-empty and all finite"),
    "ablate.t_mins": (_parse_intlist, (1,), "non-empty and all >= 1"),
    "ablate.steps": (int, 50, ">= 0"),
    "ablate.trials": (int, 128, ">= 1"),
}


def _set(values: dict, key: str, raw: str):
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        values[key] = REGISTRY[key][0](raw.strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key!r}: {e}") from e


def load_config(path: str | None = None, overrides=()) -> dict:
    """Every registered key's value: the defaults, then the file (if any),
    then the overrides, in that order; a value outside its key's bound
    raises ConfigError naming the key."""
    values = {k: d for k, (_, d, _) in REGISTRY.items()}
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        for i, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{i}: expected key=value, got {stripped!r}")
            key, raw = stripped.split("=", 1)
            _set(values, key.strip(), raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        _set(values, key.strip(), raw)
    for key, (_, _, bound) in REGISTRY.items():
        if bound and not within(bound, values[key]):
            raise ConfigError(f"{key}={show(values[key])} must be {bound}")
    return values


def reward_spec_from(cfg: dict) -> RewardSpec:
    kind = cfg["reward.kind"]
    if kind == "mode_distance":
        return default_reward_spec(cfg["data.kind"])
    if kind == "ring_radius":
        return RewardSpec("ring_radius", radius=cfg["reward.radius"])
    return RewardSpec("linear", direction=np.asarray(cfg["reward.direction"]))
