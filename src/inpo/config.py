"""Flat key=value configuration with a typed key registry.

Files hold one ``key = value`` per line ('#' starts a comment). Overrides
from the command line are applied after the file. Unknown keys are rejected
with the offending key path. A key with a fixed set of values takes its
choices from the module that checks them (``DATASET_KINDS`` from
``inpo.data``, ``DELTA_KINDS`` from ``inpo.preference``, ...).
"""
from __future__ import annotations

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


# key -> (parser, default)
REGISTRY: dict[str, tuple] = {
    "schedule.kind": (_choice(*SCHEDULE_KINDS), "cosine"),
    "schedule.T": (int, 1000),
    "schedule.loss_weight": (_choice(*LOSS_WEIGHT_KINDS), "constant"),
    "model.hidden": (_parse_intlist, (64, 64)),
    "model.time_embed_dim": (int, 16),
    "data.kind": (_choice(*DATASET_KINDS), "eight_gaussians"),
    "data.n": (int, 8000),
    "pretrain.steps": (int, 4000),
    "pretrain.lr": (float, 1e-3),
    "pretrain.batch": (int, 128),
    "pretrain.cond_drop": (float, 0.1),
    "reward.kind": (_choice(*REWARD_KINDS), "mode_distance"),
    "reward.radius": (float, 1.0),
    "reward.direction": (_parse_floatlist, (1.0, 0.0)),
    "prefs.model": (str, ""),
    "prefs.pairs_per_condition": (int, 64),
    "sample.n_steps": (int, 40),
    "sample.guidance_w": (float, 1.0),
    "sample.t_start": (int, 0),  # 0 = auto: round(0.95 T), clear of the high-sigma tail
    "invert.n_steps": (int, 10),
    "invert.guidance_w": (float, 0.0),
    "align.method": (_choice(*ALIGN_METHODS), "inpo"),
    "align.beta": (float, 2000.0),
    "align.delta": (_choice(*DELTA_KINDS), "inversion"),
    "align.delta.n": (int, 10),
    "align.delta.w_inv": (float, 0.0),
    "align.delta.max_iters": (int, 50),
    "align.delta.tol": (float, 1e-8),
    "align.delta.damping": (float, 1.0),
    "align.steps": (int, 500),
    "align.batch_pairs": (int, 64),
    "align.accum_steps": (int, 1),
    "align.lr": (float, 1e-3),
    "align.warmup_steps": (int, 50),
    "align.t_min": (int, 1),
    "align.ref_init": (_choice(*REF_INITS), "base"),
    "align.ref_sft_steps": (int, 500),
    "align.ref_sft_lr": (float, 1e-3),
    "align.base": (str, ""),
    "align.pairs": (str, ""),
    "eval.model_a": (str, ""),
    "eval.model_b": (str, ""),
    "eval.n_trials": (int, 512),
    "eval.roundtrip": (_parse_bool, False),
    "eval.timing": (_parse_bool, False),
    "eval.t_target": (int, 800),
    "eval.ns": (_parse_intlist, (5, 10, 25, 50)),
    "eval.samples": (int, 64),
    "demo.model": (str, ""),
    "demo.t_target": (int, 800),
    "demo.ns": (_parse_intlist, (5, 10, 25, 50)),
    "demo.samples": (int, 16),
    "ablate.base": (str, ""),
    "ablate.pairs": (str, ""),
    "ablate.betas": (_parse_floatlist, (2000.0, 3000.0, 4000.0, 5000.0)),
    "ablate.ns": (_parse_intlist, (3, 5, 10, 30)),
    "ablate.w_invs": (_parse_floatlist, (0.0, 1.0, 5.0, 7.5)),
    "ablate.t_mins": (_parse_intlist, (1,)),
    "ablate.steps": (int, 50),
    "ablate.trials": (int, 128),
}


def _set(values: dict, key: str, raw: str):
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = REGISTRY[key]
    try:
        values[key] = parser(raw.strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key!r}: {e}") from e


def load_config(path: str | None = None, overrides=()) -> dict:
    """Every registered key's value: the defaults, then the file (if any),
    then the overrides, in that order."""
    values = {k: d for k, (_, d) in REGISTRY.items()}
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
    return values


def reward_spec_from(cfg: dict) -> RewardSpec:
    kind = cfg["reward.kind"]
    if kind == "mode_distance":
        return default_reward_spec(cfg["data.kind"])
    if kind == "ring_radius":
        return RewardSpec("ring_radius", radius=cfg["reward.radius"])
    return RewardSpec("linear", direction=np.asarray(cfg["reward.direction"]))
