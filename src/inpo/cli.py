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

from .config import Config, load_config, reward_spec_from
from .data import gen_toy_dataset, load_pairs, make_preference_pairs, save_pairs
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


def _require(cfg: Config, key: str) -> str:
    val = cfg[key]
    if not val:
        raise ConfigError(f"config key {key!r} is required for this subcommand")
    return val


def _arch_from(cfg: Config, num_conditions: int) -> DenoiserArch:
    return DenoiserArch(
        input_dim=2,
        hidden_dims=tuple(cfg["model.hidden"]),
        num_conditions=num_conditions,
        time_embed_dim=cfg["model.time_embed_dim"],
    )


def _condition_count(kind: str) -> int:
    return {"eight_gaussians": 8, "two_moons": 2, "ring": 8}[kind]


def _load_model(path: str, loss_weight: str = "constant"):
    """The model at ``path`` and its schedule: the kind and T from its
    header, the loss weight as given (a training command's configured one)."""
    params, kind, T = load_params(path)
    return params, make_schedule(kind, T, loss_weight)


def _reward_for(cfg: Config, params):
    """The configured reward, which must score the model's conditions."""
    spec = reward_spec_from(cfg)
    k = params.arch.num_conditions
    if spec.targets is not None and len(spec.targets) != k:
        raise ConfigError(f"reward has {len(spec.targets)} targets but the model has "
                          f"{k} conditions; set data.kind to the model's data")
    return spec


def _sampler_cfg(cfg: Config, schedule) -> SamplerConfig:
    t_start = cfg["sample.t_start"]
    if t_start == 0:
        t_start = max(1, round(0.95 * schedule.T))
    return SamplerConfig(
        num_steps=cfg["sample.n_steps"], guidance_w=cfg["sample.guidance_w"], t_start=t_start
    )


def _delta_from(cfg: Config) -> DeltaStrategy:
    return DeltaStrategy(
        kind=cfg["align.delta"],
        n=cfg["align.delta.n"],
        guidance_w_inv=cfg["align.delta.w_inv"],
        max_iters=cfg["align.delta.max_iters"],
        tol=cfg["align.delta.tol"],
        damping=cfg["align.delta.damping"],
    )


def cmd_pretrain(cfg: Config, out: str, seed: int) -> None:
    kind = cfg["data.kind"]
    dataset = gen_toy_dataset(kind, cfg["data.n"], seed)
    schedule = make_schedule(cfg["schedule.kind"], cfg["schedule.T"], cfg["schedule.loss_weight"])
    arch = _arch_from(cfg, _condition_count(kind))
    params = pretrain_base(
        dataset, arch, schedule,
        steps=cfg["pretrain.steps"], lr=cfg["pretrain.lr"], seed=seed,
        batch=cfg["pretrain.batch"], cond_drop=cfg["pretrain.cond_drop"],
    )
    path = os.path.join(out, "base.params")
    save_params(path, params, schedule.kind, schedule.T)
    log.info("wrote %s", path)


def cmd_make_prefs(cfg: Config, out: str, seed: int) -> None:
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


def cmd_align(cfg: Config, out: str, seed: int) -> None:
    base, schedule = _load_model(_require(cfg, "align.base"), cfg["schedule.loss_weight"])
    pairs = load_pairs(_require(cfg, "align.pairs"), base.arch.num_conditions,
                       base.arch.input_dim)
    acfg = AlignConfig(
        method=cfg["align.method"], beta=cfg["align.beta"], delta=_delta_from(cfg),
        steps=cfg["align.steps"], batch_pairs=cfg["align.batch_pairs"],
        accum_steps=cfg["align.accum_steps"], lr=cfg["align.lr"],
        warmup_steps=cfg["align.warmup_steps"], seed=seed,
        ref_init=cfg["align.ref_init"], t_min=cfg["align.t_min"],
    )
    # before an SFT reference is trained, not after
    acfg.check_schedule(schedule)
    if acfg.ref_init == "sft_winners":
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


def cmd_eval(cfg: Config, out: str, seed: int) -> None:
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
        ns = cfg["eval.ns"] or (cfg["invert.n_steps"],)
        for n in ns:
            tick = time.perf_counter()
            errs = roundtrip_errors(model_a, schedule, X, cfg["eval.t_target"], int(n),
                                    cond, cfg["invert.guidance_w"])
            report.roundtrip_errors[int(n)] = float(errs.mean())
            report.roundtrip_std[int(n)] = _std_err(errs)
            if timing:
                report.wall_times[f"roundtrip_n{n}"] = time.perf_counter() - tick
    emit_report(report, out)
    log.info("wrote report to %s (win_rate=%.4f)", out, report.win_rate)


def cmd_invert_demo(cfg: Config, out: str, seed: int) -> None:
    params, schedule = _load_model(_require(cfg, "demo.model"))
    X, cond = gen_toy_dataset(cfg["data.kind"], cfg["demo.samples"], seed)
    t_target = cfg["demo.t_target"]
    path = os.path.join(out, "invert_demo.csv")
    demo_ns = cfg["demo.ns"] or (cfg["invert.n_steps"],)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "n", "t_target", "norm_x0", "norm_x0_t", "norm_delta_t", "norm_tau_t"])
        for n in demo_ns:
            res = ddim_invert(params, schedule, X, t_target, int(n), cond, cfg["invert.guidance_w"])
            for i in range(len(X)):
                w.writerow([
                    i, n, t_target,
                    repr(float(np.linalg.norm(X[i]))),
                    repr(float(np.linalg.norm(res.x0_t[i]))),
                    repr(float(np.linalg.norm(res.delta_t[i]))),
                    repr(float(np.linalg.norm(res.tau_t[i]))),
                ])
    log.info("wrote %s", path)


def cmd_ablate(cfg: Config, out: str, seed: int) -> None:
    base, schedule = _load_model(_require(cfg, "ablate.base"), cfg["schedule.loss_weight"])
    pairs = load_pairs(_require(cfg, "ablate.pairs"), base.arch.num_conditions,
                       base.arch.input_dim)
    spec = _reward_for(cfg, base)
    sampler_cfg = _sampler_cfg(cfg, schedule)
    cells = [
        (beta, n, w_inv, t_min, AlignConfig(
            method="inpo", beta=float(beta),
            delta=DeltaStrategy("inversion", n=int(n), guidance_w_inv=float(w_inv)),
            steps=cfg["ablate.steps"], batch_pairs=cfg["align.batch_pairs"],
            accum_steps=cfg["align.accum_steps"], lr=cfg["align.lr"],
            warmup_steps=cfg["align.warmup_steps"], seed=seed, t_min=int(t_min),
        ))
        for beta, n, w_inv, t_min in itertools.product(
            cfg["ablate.betas"], cfg["ablate.ns"], cfg["ablate.w_invs"], cfg["ablate.t_mins"])
    ]
    # every cell is checked before the first trains, so a bad one leaves no table
    for *_, acfg in cells:
        acfg.check_schedule(schedule)
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
