"""Command line front end.

Subcommands chain into the usual workflow:

    inpo pretrain    --out runs/demo
    inpo make-prefs  --out runs/demo --set prefs.model=runs/demo/base.params
    inpo align       --out runs/demo --set align.base=... --set align.pairs=...
    inpo eval        --out runs/demo --set eval.model_a=... --set eval.model_b=...
    inpo invert-demo --out runs/demo --set demo.model=...
    inpo ablate      --out runs/demo --set ablate.base=... --set ablate.pairs=...

Exit codes: 0 success, 2 config error, 3 numeric/training error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import logging
import os
import sys
import time

import numpy as np

from .config import load_config, reward_spec_from
from .data import (CONDITION_COUNTS, _row_dots, gen_toy_dataset, load_pairs,
                   make_preference_pairs, save_pairs)
from .denoiser import DenoiserArch, load_params, save_params
from .errors import ConfigError, InpoError, NumericError, PairParseError, VersionError
from .evaluation import emit_report, roundtrip_errors, win_rate
from .preference import DeltaStrategy
from .sampler import SamplerConfig, ddim_invert
from .schedule import make_schedule
from .trainer import AlignConfig, align, pretrain_base, sft_ref_init

log = logging.getLogger("inpo")


def _setup_logging():
    level = os.environ.get("INPO_LOG_LEVEL", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"INPO_LOG_LEVEL must be one of {tuple(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def _require(cfg: dict, key: str) -> str:
    val = cfg[key]
    if not val:
        raise ConfigError(f"config key {key!r} is required for this subcommand")
    return val


def _arch_from(cfg: dict, num_conditions: int) -> DenoiserArch:
    return DenoiserArch(
        input_dim=2,
        hidden_dims=tuple(cfg["model.hidden"]),
        num_conditions=num_conditions,
        time_embed_dim=cfg["model.time_embed_dim"],
    )


def _load_model(path: str, loss_weight: str = "constant"):
    """The model at ``path`` and its schedule: the kind and T from its
    header, the loss weight as given (a training command's configured one)."""
    params, kind, T = load_params(path)
    return params, make_schedule(kind, T, loss_weight)


def _reward_for(cfg: dict, params):
    """The configured reward, which must score the model's conditions and
    samples."""
    spec = reward_spec_from(cfg)
    k, dim = params.arch.num_conditions, params.arch.input_dim
    if spec.targets is not None and len(spec.targets) != k:
        raise ConfigError(f"reward has {len(spec.targets)} targets but the model has "
                          f"{k} conditions; set data.kind to the model's data")
    if spec.direction is not None and len(spec.direction) != dim:
        raise ConfigError(f"reward.direction has {len(spec.direction)} entries but the model's "
                          f"samples have {dim}")
    return spec


def _sampler_cfg(cfg: dict, schedule) -> SamplerConfig:
    t_start = cfg["sample.t_start"]
    if t_start == 0:
        t_start = max(1, round(0.95 * schedule.T))
    return SamplerConfig(
        num_steps=cfg["sample.n_steps"], guidance_w=cfg["sample.guidance_w"], t_start=t_start
    )


def _inversion_grid(cfg: dict, schedule, prefix: str) -> tuple[int, tuple[int, ...]]:
    """``<prefix>.t_target`` and the inversion step counts ``<prefix>.ns``
    (invert.n_steps if empty), checked with ``<prefix>.samples`` and
    invert.guidance_w before any sampling runs, so that a bad value fails
    without a partial artifact."""
    t_key, ns_key, samples_key = f"{prefix}.t_target", f"{prefix}.ns", f"{prefix}.samples"
    t_target = cfg[t_key]
    if not 1 <= t_target <= schedule.T:
        raise ConfigError(f"{t_key}={t_target} is outside [1, T={schedule.T}]")
    ns = cfg[ns_key]
    if not ns:
        ns_key, ns = "invert.n_steps", (cfg["invert.n_steps"],)
    for n in ns:
        if n < 1:
            raise ConfigError(f"{ns_key} has the step count {n}; each must be >= 1")
    if cfg[samples_key] < 1:
        raise ConfigError(f"{samples_key}={cfg[samples_key]} must be >= 1")
    if not np.isfinite(cfg["invert.guidance_w"]):
        raise ConfigError(f"invert.guidance_w={cfg['invert.guidance_w']} must be finite")
    return t_target, ns


def _delta_from(cfg: dict) -> DeltaStrategy:
    return DeltaStrategy(
        kind=cfg["align.delta"],
        n=cfg["align.delta.n"],
        guidance_w_inv=cfg["align.delta.w_inv"],
        max_iters=cfg["align.delta.max_iters"],
        tol=cfg["align.delta.tol"],
        damping=cfg["align.delta.damping"],
    )


def _align_config(cfg: dict, seed: int, **fields) -> AlignConfig:
    """An AlignConfig with the optimizer keys align and ablate share
    (align.batch_pairs, align.accum_steps, align.lr, align.warmup_steps),
    the run's seed, and ``fields``, whose beta must be finite."""
    if not np.isfinite(fields["beta"]):
        raise ConfigError(f"beta={fields['beta']} must be finite")
    return AlignConfig(
        batch_pairs=cfg["align.batch_pairs"], accum_steps=cfg["align.accum_steps"],
        lr=cfg["align.lr"], warmup_steps=cfg["align.warmup_steps"], seed=seed, **fields,
    )


def cmd_pretrain(cfg: dict, out: str, seed: int) -> None:
    kind = cfg["data.kind"]
    dataset = gen_toy_dataset(kind, cfg["data.n"], seed)
    schedule = make_schedule(cfg["schedule.kind"], cfg["schedule.T"], cfg["schedule.loss_weight"])
    arch = _arch_from(cfg, CONDITION_COUNTS[kind])
    params = pretrain_base(
        dataset, arch, schedule,
        steps=cfg["pretrain.steps"], lr=cfg["pretrain.lr"], seed=seed,
        batch=cfg["pretrain.batch"], cond_drop=cfg["pretrain.cond_drop"],
    )
    path = os.path.join(out, "base.params")
    save_params(path, params, schedule.kind, schedule.T)
    log.info("wrote %s", path)


def cmd_make_prefs(cfg: dict, out: str, seed: int) -> None:
    params, schedule = _load_model(_require(cfg, "prefs.model"))
    spec = _reward_for(cfg, params)
    sampler_cfg = _sampler_cfg(cfg, schedule)
    pairs = make_preference_pairs(
        params, schedule, spec,
        conditions=list(range(params.arch.num_conditions)),
        pairs_per_condition=cfg["prefs.pairs_per_condition"],
        sampler_cfg=sampler_cfg, seed=seed,
    )
    path = os.path.join(out, "pairs.jsonl")
    save_pairs(pairs, path, spec)
    log.info("wrote %s (%d pairs)", path, len(pairs))


def cmd_align(cfg: dict, out: str, seed: int) -> None:
    base, schedule = _load_model(_require(cfg, "align.base"), cfg["schedule.loss_weight"])
    pairs = load_pairs(_require(cfg, "align.pairs"), base.arch.num_conditions,
                       base.arch.input_dim)
    acfg = _align_config(
        cfg, seed, method=cfg["align.method"], beta=cfg["align.beta"], delta=_delta_from(cfg),
        steps=cfg["align.steps"], ref_init=cfg["align.ref_init"], t_min=cfg["align.t_min"],
    )
    # before an SFT reference is trained, not after
    acfg.check_schedule(schedule)
    # the sft method's denoising window reads no reference
    if acfg.ref_init == "sft_winners" and acfg.method != "sft":
        ref = sft_ref_init(base, pairs, schedule, steps=cfg["align.ref_sft_steps"],
                           lr=cfg["align.ref_sft_lr"], seed=seed)
    else:
        ref = base
    log_path = os.path.join(out, "train_log.csv")
    params = align(base, ref, pairs, schedule, acfg, log_path=log_path)
    path = os.path.join(out, "aligned.params")
    save_params(path, params, schedule.kind, schedule.T)
    log.info("wrote %s and %s", path, log_path)


def _std_err(values: np.ndarray) -> float:
    """Standard error of the mean; 0.0 for a single value."""
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def cmd_eval(cfg: dict, out: str, seed: int) -> None:
    path_a, path_b = _require(cfg, "eval.model_a"), _require(cfg, "eval.model_b")
    model_a, schedule = _load_model(path_a)
    model_b, schedule_b = _load_model(path_b)
    # both models are sampled on model_a's grid and conditions
    a, b = f"eval.model_a={path_a}", f"eval.model_b={path_b}"
    if (schedule_b.kind, schedule_b.T) != (schedule.kind, schedule.T):
        raise ConfigError(f"{b} has schedule {schedule_b.kind} with T={schedule_b.T} but "
                          f"{a} has {schedule.kind} with T={schedule.T}")
    if model_b.arch.num_conditions != model_a.arch.num_conditions:
        raise ConfigError(f"{b} has {model_b.arch.num_conditions} conditions but "
                          f"{a} has {model_a.arch.num_conditions}")
    spec = _reward_for(cfg, model_a)
    sampler_cfg = _sampler_cfg(cfg, schedule)
    if cfg["eval.n_trials"] < 1:
        raise ConfigError(f"eval.n_trials={cfg['eval.n_trials']} must be >= 1")
    if cfg["eval.roundtrip"]:
        t_target, ns = _inversion_grid(cfg, schedule, "eval")
    timing = cfg["eval.timing"]
    tick = time.perf_counter()
    report = win_rate(
        model_a, model_b, schedule, spec,
        conditions=range(model_a.arch.num_conditions),
        n_trials=cfg["eval.n_trials"], sampler_cfg=sampler_cfg, seed=seed,
    )
    if timing:
        report.wall_times["win_rate"] = time.perf_counter() - tick
    if cfg["eval.roundtrip"]:
        X, cond = gen_toy_dataset(cfg["data.kind"], cfg["eval.samples"], seed)
        for n in ns:
            tick = time.perf_counter()
            errs = roundtrip_errors(model_a, schedule, X, t_target, n,
                                    cond, cfg["invert.guidance_w"])
            report.roundtrip_errors[n] = float(errs.mean())
            report.roundtrip_std[n] = _std_err(errs)
            if timing:
                report.wall_times[f"roundtrip_n{n}"] = time.perf_counter() - tick
    emit_report(report, out)
    log.info("wrote report to %s (win_rate=%.4f)", out, report.win_rate)


def cmd_invert_demo(cfg: dict, out: str, seed: int) -> None:
    params, schedule = _load_model(_require(cfg, "demo.model"))
    t_target, ns = _inversion_grid(cfg, schedule, "demo")
    X, cond = gen_toy_dataset(cfg["data.kind"], cfg["demo.samples"], seed)
    # each row's norm, with the bits of np.linalg.norm on that row alone
    norm_x0 = np.sqrt(_row_dots(X, X)).tolist()
    rows = []
    for n in ns:
        res = ddim_invert(params, schedule, X, t_target, n, cond, cfg["invert.guidance_w"])
        norms = (np.sqrt(_row_dots(a, a)).tolist() for a in (res.x0_t, res.delta_t, res.tau_t))
        rows += [[i, n, t_target, *map(repr, r)] for i, r in enumerate(zip(norm_x0, *norms))]
    path = os.path.join(out, "invert_demo.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "n", "t_target", "norm_x0", "norm_x0_t", "norm_delta_t", "norm_tau_t"])
        w.writerows(rows)
    log.info("wrote %s", path)


def cmd_ablate(cfg: dict, out: str, seed: int) -> None:
    base, schedule = _load_model(_require(cfg, "ablate.base"), cfg["schedule.loss_weight"])
    pairs = load_pairs(_require(cfg, "ablate.pairs"), base.arch.num_conditions,
                       base.arch.input_dim)
    spec = _reward_for(cfg, base)
    sampler_cfg = _sampler_cfg(cfg, schedule)
    cells = [
        (beta, n, w_inv, t_min, _align_config(
            cfg, seed, method="inpo", beta=float(beta),
            delta=DeltaStrategy("inversion", n=int(n), guidance_w_inv=float(w_inv)),
            steps=cfg["ablate.steps"], t_min=int(t_min),
        ))
        for beta, n, w_inv, t_min in itertools.product(
            cfg["ablate.betas"], cfg["ablate.ns"], cfg["ablate.w_invs"], cfg["ablate.t_mins"])
    ]
    # every cell, and the trial count, is checked before the first trains, so
    # a bad one leaves no table
    for *_, acfg in cells:
        acfg.check_schedule(schedule)
    if cfg["ablate.trials"] < 1:
        raise ConfigError(f"ablate.trials={cfg['ablate.trials']} must be >= 1")
    path = os.path.join(out, "ablate.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "n", "w_inv", "t_min", "win_rate", "seconds"])
        for beta, n, w_inv, t_min, acfg in cells:
            tick = time.perf_counter()
            tuned = align(base, base, pairs, schedule, acfg)
            rep = win_rate(
                tuned, base, schedule, spec, conditions=range(base.arch.num_conditions),
                n_trials=cfg["ablate.trials"], sampler_cfg=sampler_cfg, seed=seed,
            )
            secs = time.perf_counter() - tick
            w.writerow([beta, n, w_inv, t_min, repr(rep.win_rate), f"{secs:.3f}"])
            log.info("ablate beta=%s n=%s w_inv=%s t_min=%s -> %.4f",
                     beta, n, w_inv, t_min, rep.win_rate)
    log.info("wrote %s", path)


COMMANDS = {
    "pretrain": cmd_pretrain,
    "make-prefs": cmd_make_prefs,
    "align": cmd_align,
    "eval": cmd_eval,
    "invert-demo": cmd_invert_demo,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="inpo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        _setup_logging()
        cfg = load_config(args.config, args.overrides)
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.subcommand](cfg, args.out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (OSError, PairParseError, VersionError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4
    except InpoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
