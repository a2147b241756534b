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
import itertools
import logging
import os
import sys
import time

import numpy as np

from .config import load_config, reward_spec_from, show
from .data import (CONDITION_COUNTS, _row_dots, gen_toy_dataset, load_pairs, load_pairs_header,
                   make_preference_pairs, save_pairs)
from .denoiser import DenoiserArch, _csv_rows, _write_file, load_params, save_params
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
    if spec.targets is not None and spec.targets.shape[1] != dim:
        raise ConfigError(f"reward targets have {spec.targets.shape[1]} entries but the model's "
                          f"samples have {dim}; set data.kind to the model's data")
    if spec.direction is not None and len(spec.direction) != dim:
        raise ConfigError(f"reward.direction has {len(spec.direction)} entries but the model's "
                          f"samples have {dim}")
    return spec


def _data_for(cfg: dict, params, n: int, seed: int):
    """``n`` samples of data.kind and their conditions, which must fit the
    model's conditions and samples."""
    kind = cfg["data.kind"]
    X, cond = gen_toy_dataset(kind, n, seed)
    k, dim = params.arch.num_conditions, params.arch.input_dim
    if CONDITION_COUNTS[kind] != k:
        raise ConfigError(f"data.kind={kind} has {CONDITION_COUNTS[kind]} conditions but the "
                          f"model has {k}; set data.kind to the model's data")
    if X.shape[1] != dim:
        raise ConfigError(f"data.kind={kind} samples have {X.shape[1]} entries but the "
                          f"model's samples have {dim}; set data.kind to the model's data")
    return X, cond


def _check_times(cfg: dict, schedule, *keys: str) -> None:
    """Each key's time, or every time of a list key, against the model's T;
    the registry has checked the lower bounds."""
    for key in keys:
        value = cfg[key]
        if any(t > schedule.T for t in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{key}={show(value)} must be <= the model's T={schedule.T}")


def _sampler_cfg(cfg: dict, schedule) -> SamplerConfig:
    """The sampler settings, resolved against the model's schedule."""
    _check_times(cfg, schedule, "sample.t_start")
    t_start = cfg["sample.t_start"] or max(1, round(0.95 * schedule.T))
    sampler_cfg = SamplerConfig(cfg["sample.n_steps"], cfg["sample.guidance_w"], t_start)
    return sampler_cfg.resolve(schedule)


def _delta_from(cfg: dict) -> DeltaStrategy:
    return DeltaStrategy(
        kind=cfg["align.delta"],
        n=cfg["align.delta.n"],
        guidance_w_inv=cfg["align.delta.w_inv"],
    )


def _align_config(cfg: dict, seed: int) -> AlignConfig:
    """The AlignConfig of every align.* key the trainer reads, and the run's seed."""
    return AlignConfig(
        method=cfg["align.method"], beta=cfg["align.beta"], delta=_delta_from(cfg),
        steps=cfg["align.steps"], batch_pairs=cfg["align.batch_pairs"],
        accum_steps=cfg["align.accum_steps"], lr=cfg["align.lr"],
        warmup_steps=cfg["align.warmup_steps"], seed=seed, t_min=cfg["align.t_min"],
    )


def _reference(cfg: dict, base, pairs, schedule, seed: int):
    """The frozen reference align trains against: ``base``, or for
    align.ref_init=sft_winners an SFT of it on the winners; the sft
    method's denoising window reads no reference, so it trains none."""
    if cfg["align.ref_init"] == "sft_winners" and cfg["align.method"] != "sft":
        return sft_ref_init(base, pairs, schedule, steps=cfg["align.ref_sft_steps"],
                            lr=cfg["align.ref_sft_lr"], seed=seed)
    return base


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
    # before an SFT reference is trained, not after
    _check_times(cfg, schedule, "align.t_min")
    pairs = load_pairs(_require(cfg, "align.pairs"), base.arch.num_conditions,
                       base.arch.input_dim)
    acfg = _align_config(cfg, seed)
    ref = _reference(cfg, base, pairs, schedule, seed)
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
    if model_b.arch.input_dim != model_a.arch.input_dim:
        raise ConfigError(f"{b} has input_dim {model_b.arch.input_dim} but "
                          f"{a} has {model_a.arch.input_dim}")
    spec = _reward_for(cfg, model_a)
    sampler_cfg = _sampler_cfg(cfg, schedule)
    if cfg["eval.roundtrip"]:
        _check_times(cfg, schedule, "eval.t_target")
        X, cond = _data_for(cfg, model_a, cfg["eval.samples"], seed)
    tick = time.perf_counter()
    report = win_rate(
        model_a, model_b, schedule, spec,
        conditions=range(model_a.arch.num_conditions),
        n_trials=cfg["eval.n_trials"], sampler_cfg=sampler_cfg, seed=seed,
    )
    report.wall_times["win_rate"] = time.perf_counter() - tick
    if cfg["eval.roundtrip"]:
        for n in cfg["eval.ns"]:
            tick = time.perf_counter()
            errs = roundtrip_errors(model_a, schedule, X, cfg["eval.t_target"], n,
                                    cond, cfg["invert.guidance_w"])
            report.roundtrip_errors[n] = float(errs.mean())
            report.roundtrip_std[n] = _std_err(errs)
            report.wall_times[f"roundtrip_n{n}"] = time.perf_counter() - tick
    emit_report(report, out)
    log.info("wrote report to %s (win_rate=%.4f)", out, report.win_rate)


def cmd_invert_demo(cfg: dict, out: str, seed: int) -> None:
    params, schedule = _load_model(_require(cfg, "demo.model"))
    _check_times(cfg, schedule, "demo.t_target")
    t_target = cfg["demo.t_target"]
    X, cond = _data_for(cfg, params, cfg["demo.samples"], seed)
    # each row's norm, with the bits of np.linalg.norm on that row alone
    norm_x0 = np.sqrt(_row_dots(X, X)).tolist()
    rows = []
    for n in cfg["demo.ns"]:
        res = ddim_invert(params, schedule, X, t_target, n, cond, cfg["invert.guidance_w"])
        norms = (np.sqrt(_row_dots(a, a)).tolist() for a in (res.x0_t, res.delta_t, res.tau_t))
        rows += [(i, n, t_target, *r) for i, r in enumerate(zip(norm_x0, *norms))]
    path = os.path.join(out, "invert_demo.csv")
    _write_file(path, _csv_rows([("sample", "n", "t_target", "norm_x0", "norm_x0_t",
                                  "norm_delta_t", "norm_tau_t"), *rows]))
    log.info("wrote %s", path)


# each ablate axis and the align key its cells set
_AXES = {"ablate.betas": "align.beta", "ablate.ns": "align.delta.n",
         "ablate.w_invs": "align.delta.w_inv", "ablate.t_mins": "align.t_min"}


def _check_axes(cfg: dict) -> None:
    """Reject an axis of more than one value whose align key the configured
    run does not read, since its cells would all train one model: only
    inpo's inversion reads align.delta.n and .w_inv, and sft reads no beta."""
    method, delta = cfg["align.method"], cfg["align.delta"]
    unread = set() if (method, delta) == ("inpo", "inversion") else {"ablate.ns", "ablate.w_invs"}
    unread |= {"ablate.betas"} if method == "sft" else set()
    for axis in sorted(unread):
        if len(cfg[axis]) > 1:
            raise ConfigError(f"{axis}={show(cfg[axis])} varies {_AXES[axis]}, which "
                              f"align.method={method} with align.delta={delta} does not read")


def cmd_ablate(cfg: dict, out: str, seed: int) -> None:
    _check_axes(cfg)  # before the model loads, so before any cell or SFT reference
    base, schedule = _load_model(_require(cfg, "ablate.base"), cfg["schedule.loss_weight"])
    # before the first cell trains, so a bad t_min leaves no table
    _check_times(cfg, schedule, "ablate.t_mins")
    pairs_path = _require(cfg, "ablate.pairs")
    pairs = load_pairs(pairs_path, base.arch.num_conditions, base.arch.input_dim)
    spec = _reward_for(cfg, base)
    # the cells are scored by the reward the pairs were ranked by, if their header records one
    made = load_pairs_header(pairs_path).get("reward_spec")
    if made is not None and made != spec.to_dict():
        raise ConfigError(f"ablate.pairs={pairs_path} was ranked by another reward than "
                          f"reward.kind={cfg['reward.kind']} with data.kind={cfg['data.kind']}; "
                          f"set the reward.* and data.kind keys the pairs were made with")
    sampler_cfg = _sampler_cfg(cfg, schedule)
    # each cell is align's config with the four axis keys set, trained for ablate.steps
    cells = [(values, _align_config({**cfg, **dict(zip(_AXES.values(), values)),
                                     "align.steps": cfg["ablate.steps"]}, seed))
             for values in itertools.product(*(cfg[axis] for axis in _AXES))]
    ref = _reference(cfg, base, pairs, schedule, seed)
    # the table is written once the sweep ends, so a failing cell leaves none
    rows = [("beta", "n", "w_inv", "t_min", "win_rate", "seconds")]
    for values, acfg in cells:
        tick = time.perf_counter()
        tuned = align(base, ref, pairs, schedule, acfg)
        rep = win_rate(
            tuned, base, schedule, spec, conditions=range(base.arch.num_conditions),
            n_trials=cfg["ablate.trials"], sampler_cfg=sampler_cfg, seed=seed,
        )
        rows.append((*values, rep.win_rate, f"{time.perf_counter() - tick:.3f}"))
        log.info("ablate beta=%s n=%s w_inv=%s t_min=%s -> %.4f", *values, rep.win_rate)
    path = os.path.join(out, "ablate.csv")
    _write_file(path, _csv_rows(rows))
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
        if not 0 <= args.seed < 2**63:  # the pair file's seed column is int64
            bound = ">= 0" if args.seed < 0 else "< 2**63"
            raise ConfigError(f"--seed must be {bound}, got {args.seed}")
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
