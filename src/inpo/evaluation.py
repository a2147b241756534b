"""Quantitative evaluation: win rates, inversion round trips and report
emission.

Win rates feed both compared models the same initial latent per trial, which
keeps the comparison semantics while cutting variance; ties count one half so
identical models score exactly 0.5.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .data import RewardSpec, score
from .denoiser import NULL_CONDITION, _as_rows
from .errors import InvalidArgument
from .sampler import Inverter, SamplerConfig, _sample_on, ddim_sample
from .schedule import NoiseSchedule


@dataclass
class EvalReport:
    win_rate: float = 0.5
    n_trials: int = 0
    mean_reward_a: float = 0.0
    mean_reward_b: float = 0.0
    median_reward_a: float = 0.0
    median_reward_b: float = 0.0
    roundtrip_errors: dict = field(default_factory=dict)  # n -> mean error
    roundtrip_std: dict = field(default_factory=dict)  # n -> std error of mean
    wall_times: dict = field(default_factory=dict)  # config id -> seconds, timing.csv only
    seeds: dict = field(default_factory=dict)
    trials: list = field(default_factory=list)  # (trial, condition, r_a, r_b, outcome)


def win_rate(model_a, model_b, s: NoiseSchedule, spec: RewardSpec, conditions,
             n_trials: int, sampler_cfg: SamplerConfig, seed: int) -> EvalReport:
    """Fraction of shared-latent trials in which A's generation scores higher.

    Per trial one condition and one initial latent are drawn; both models
    sample deterministically from that latent, all trials in one sampler call
    per model. Ties count 0.5.
    """
    if n_trials < 1:
        raise InvalidArgument("n_trials must be >= 1")
    conditions = np.asarray(list(conditions))
    dim = model_a.arch.input_dim
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xE7A1]))
    cond_idx = rng.integers(0, len(conditions), size=n_trials)
    cond = conditions[cond_idx]
    latents = rng.standard_normal((n_trials, dim))

    xa = ddim_sample(model_a, s, latents, sampler_cfg, cond)
    xb = ddim_sample(model_b, s, latents, sampler_cfg, cond)

    ra = score(spec, xa, cond)
    rb = score(spec, xb, cond)
    outcome = np.where(ra > rb, 1.0, np.where(ra < rb, 0.0, 0.5))
    return EvalReport(
        win_rate=float(outcome.mean()),
        n_trials=n_trials,
        mean_reward_a=float(ra.mean()),
        mean_reward_b=float(rb.mean()),
        median_reward_a=float(np.median(ra)),
        median_reward_b=float(np.median(rb)),
        seeds={"seed": int(seed)},
        trials=list(zip(range(n_trials), cond.tolist(), ra.tolist(), rb.tolist(),
                        outcome.tolist())),
    )


def roundtrip_errors(model, s: NoiseSchedule, samples, t_target: int, n: int,
                     conditions=None, guidance_w: float = 0.0) -> np.ndarray:
    """Per-sample ||sample_back(invert(x0)) - x0|| at one inversion step
    count, sampling back down the inversion's own grid."""
    if np.ndim(t_target) != 0:
        raise InvalidArgument(f"t_target must be one timestep, got shape {np.shape(t_target)}")
    samples = _as_rows(samples)
    c = NULL_CONDITION if conditions is None else conditions
    inverter = Inverter(model, s, n, len(samples), guidance_w)
    x_t = inverter(samples, t_target, c).x_t
    back = _sample_on(model, s, x_t, inverter.grid[::-1, 0], guidance_w, c)
    return np.linalg.norm(back - samples, axis=1)


def inversion_roundtrip(model, s: NoiseSchedule, samples, t_target: int, n_grid,
                        conditions=None, guidance_w: float = 0.0) -> dict[int, float]:
    """Mean round-trip error for each inversion step count in ``n_grid``."""
    samples = _as_rows(samples)
    if samples.shape[0] == 0:
        raise InvalidArgument("samples must be nonempty")
    return {
        int(n): float(roundtrip_errors(model, s, samples, t_target, int(n),
                                       conditions, guidance_w).mean())
        for n in n_grid
    }


def emit_report(report: EvalReport, dir_path) -> None:
    """Write report.json plus flat CSVs (win_rate.csv, roundtrip.csv, timing.csv).

    The wall times go to timing.csv alone, so report.json is a pure function
    of the run's inputs."""
    os.makedirs(dir_path, exist_ok=True)
    payload = {
        "win_rate": report.win_rate,
        "n_trials": report.n_trials,
        "mean_reward_a": report.mean_reward_a,
        "mean_reward_b": report.mean_reward_b,
        "median_reward_a": report.median_reward_a,
        "median_reward_b": report.median_reward_b,
        "roundtrip_errors": {str(k): v for k, v in report.roundtrip_errors.items()},
        "roundtrip_std": {str(k): v for k, v in report.roundtrip_std.items()},
        "seeds": report.seeds,
    }
    with open(os.path.join(dir_path, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # csv.writer's bytes: no field needs quoting; the rewards print as their repr
    with open(os.path.join(dir_path, "win_rate.csv"), "w", newline="") as fh:
        fh.write("trial,condition,reward_a,reward_b,outcome\r\n")
        fh.write("".join(["%d,%d,%r,%r,%s\r\n" % row for row in report.trials]))
    with open(os.path.join(dir_path, "roundtrip.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "mean_err", "std_err"])
        for n in sorted(report.roundtrip_errors):
            w.writerow([n, repr(report.roundtrip_errors[n]),
                        repr(report.roundtrip_std.get(n, 0.0))])
    with open(os.path.join(dir_path, "timing.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["config_id", "seconds"])
        for k in sorted(report.wall_times):
            w.writerow([k, repr(report.wall_times[k])])
