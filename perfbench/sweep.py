"""Run the benchmark over several seeds, every workload, into one result set.

    python3 perfbench/sweep.py --results .bench_work/sets/parent --seeds 1-10
    python3 perfbench/sweep.py --results .bench_work/sets/parent --seeds 1-2 --trace 1

Every run measures for run_seconds from BENCHMARK.json, so two sets always
run for the same length. Runs are sequential, one process tree at a time, so
they do not compete for the machine's cores. Summarise or compare the sets
with compare.py.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--results", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    failed = 0
    for seed in _seeds(args.seeds):
        for workload in metrics.WORKLOADS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(metrics.RUN_SECONDS),
                   "--trace", str(args.trace), "--results", args.results]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[:200]}", flush=True)
            if proc.returncode != 0:
                failed += 1
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
