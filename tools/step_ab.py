"""Paired in-process A/B of the per-step CPU time of align, sampling and
eval's inversion round trip between this tree's inpo package and another
tree's.

One process with one BLAS thread loads both packages under two names
(every import inside the package is relative, so each tree's modules stay
its own). From fixed seeds it builds one base and one pair set per tree and
checks that the two trees' bytes agree. Then, per repetition, it runs each
method once under each tree, alternating which tree goes first, and checks
that the two outputs agree byte for byte. The methods are one ``align``
call each of inpo with inversion (n=10), dpo and sft; one ``ddim_sample``
call at make-prefs size (1,024 rows, 40 steps from t = 950, guidance 1);
and one ``evaluation.roundtrip_errors`` call as eval makes it (64 samples,
t = 800, n = 10, so 10 inversion and 10 sampling steps). Per method it
prints each tree's median CPU ms per step (the call's process time, set-up
included, over its align or sampler steps) and the paired ratio
this/other: its median, its interquartile range and the number of
repetitions in which this tree was faster.

It is evidence for a change inside a layer, not a gate; the end-to-end
bounds stay with perfbench. A run of the tree against itself (an A/A run)
shows the spread to expect from the harness alone.

    python tools/step_ab.py --against OTHER_TREE/src --batch 64

Usage: python tools/step_ab.py --against OTHER_SRC [--batch B] [--reps R] [--tiny]
(--tiny shrinks the pretraining, the pair set, each align call's steps and
the sampled rows so that the tool's own test runs in seconds; its ratios
mean little)
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
from pathlib import Path

PAIR_COLUMNS = ("condition", "winner", "loser", "reward_w", "reward_l", "seed", "tie")
THIS_SRC = Path(__file__).resolve().parents[1] / "src"
# pretraining steps, pairs per condition, align steps per call, rows per
# ddim_sample call and samples per round trip
FULL, TINY = (300, 64, 40, 1024, 64), (5, 2, 2, 16, 8)
SAMPLE_STEPS, ROUNDTRIP_T, ROUNDTRIP_N = 40, 800, 10


def load(src: Path, name: str):
    """The inpo package under ``src``, imported as the top-level ``name``."""
    init = src / "inpo" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def inputs(inpo, pretrain_steps: int, pairs_per_condition: int):
    """The README's schedule and architecture, a base pretrained from seed
    11 on eight_gaussians and its pair set from seed 23."""
    sched = inpo.make_schedule("cosine", 1000)
    data = inpo.gen_toy_dataset("eight_gaussians", 2000, seed=7)
    base = inpo.pretrain_base(data, inpo.DenoiserArch(2, (64, 64), 8, 16), sched,
                              steps=pretrain_steps, lr=1e-3, seed=11)
    gen = inpo.SamplerConfig(num_steps=40, guidance_w=1.0, t_start=950)
    pairs = inpo.make_preference_pairs(base, sched, inpo.default_reward_spec("eight_gaussians"),
                                       range(8), pairs_per_condition, gen, seed=23)
    return sched, base, pairs


def methods(inpo, run, batch: int, align_steps: int, sample_rows: int,
            roundtrip_samples: int) -> dict:
    """Each method under the package ``inpo``, on the tree's ``run``: a call
    returning its output array, and the align or sampler steps it runs."""
    import numpy as np  # main has set the BLAS thread count by now

    sched, base, pairs = run
    common = dict(beta=2000.0, steps=align_steps, batch_pairs=batch, seed=31)
    aligns = {
        "inversion_n10": inpo.AlignConfig(
            method="inpo", delta=inpo.DeltaStrategy("inversion", n=10), **common),
        "dpo": inpo.AlignConfig(method="dpo", **common),
        "sft": inpo.AlignConfig(method="sft", **common),
    }
    calls = {name: (lambda cfg=cfg: inpo.align(base, base, pairs, sched, cfg).vec, align_steps)
             for name, cfg in aligns.items()}
    # make-prefs' standard normal latents, one block of rows per condition
    z = np.random.default_rng(41).standard_normal((sample_rows, 2))
    cond = np.repeat(np.arange(8), sample_rows // 8)
    gen = inpo.SamplerConfig(num_steps=SAMPLE_STEPS, guidance_w=1.0, t_start=950)
    calls["ddim_sample"] = (lambda: inpo.sampler.ddim_sample(base, sched, z, gen, cond),
                            SAMPLE_STEPS)
    x, c = inpo.gen_toy_dataset("eight_gaussians", roundtrip_samples, seed=43)
    calls[f"roundtrip_n{ROUNDTRIP_N}"] = (
        lambda: inpo.evaluation.roundtrip_errors(base, sched, x, ROUNDTRIP_T, ROUNDTRIP_N, c),
        2 * ROUNDTRIP_N)
    return calls


def timed(call):
    """The call's output bytes and its CPU seconds."""
    tick = time.process_time()
    out = call()
    return out.tobytes(), time.process_time() - tick


def check_same(a: bytes, b: bytes, what: str) -> None:
    if a != b:
        raise SystemExit(f"the two trees' {what} differ")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path, metavar="OTHER_SRC",
                        help="directory holding the other side's inpo package")
    parser.add_argument("--batch", type=int, default=64, help="align.batch_pairs")
    parser.add_argument("--reps", type=int, default=15, help="paired repetitions per method")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the tool's own test")
    args = parser.parse_args(argv)
    if not (args.against / "inpo" / "__init__.py").is_file():
        parser.error(f"no inpo package under {args.against}")
    pretrain_steps, pairs_per_condition, steps, sample_rows, roundtrip_samples = (
        TINY if args.tiny else FULL)
    # one BLAS thread: numpy reads these when it loads its BLAS library,
    # which the first tree's import does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    trees = [load(THIS_SRC, "inpo_this"), load(args.against, "inpo_other")]
    runs = [inputs(inpo, pretrain_steps, pairs_per_condition) for inpo in trees]
    (_, base_a, pairs_a), (_, base_b, pairs_b) = runs
    check_same(base_a.vec.tobytes(), base_b.vec.tobytes(), "bases")
    for c in PAIR_COLUMNS:
        check_same(getattr(pairs_a, c).tobytes(), getattr(pairs_b, c).tobytes(), f"pairs' {c}")
    calls = [methods(inpo, run, args.batch, steps, sample_rows, roundtrip_samples)
             for inpo, run in zip(trees, runs)]
    cpu = {method: ([], []) for method in calls[0]}
    for rep in range(-1, args.reps):  # rep -1 warms both trees up, untimed
        for method, times in cpu.items():
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            got = {side: timed(calls[side][method][0]) for side in order}
            check_same(got[0][0], got[1][0], f"{method} outputs")
            if rep >= 0:
                for side in (0, 1):
                    times[side].append(got[side][1])
    print(f"# batch {args.batch}, {steps} steps x {args.reps} reps, one BLAS thread; "
          f"sampling {sample_rows} rows, round trips of {roundtrip_samples} samples; "
          f"ratio = {THIS_SRC} / {args.against}")
    print(f"{'method':14s} {'this_ms':>8s} {'other_ms':>8s} {'ratio':>6s} "
          f"{'q1':>6s} {'q3':>6s}  this_faster")
    for method, (this, other) in cpu.items():
        this, other = np.array(this), np.array(other)
        q1, med, q3 = np.percentile(this / other, [25, 50, 75])
        per_step = 1e3 / calls[0][method][1]
        print(f"{method:14s} {np.median(this) * per_step:8.3f} {np.median(other) * per_step:8.3f} "
              f"{med:6.3f} {q1:6.3f} {q3:6.3f}  {int((this < other).sum())}/{args.reps}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
