"""Benchmark of the inpo CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload align_inversion --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is taken from ``src/`` there.
Set-up runs SETUP_REPEATS times, each in a fresh process; the last of those
processes goes on to the timed rounds. Every process runs single-threaded
with BLAS threads pinned to 1 in its environment.

With ``--trace 0`` the result line carries the end-to-end metrics that every
workload measures; with ``--trace 1`` it carries the per-layer metrics. The
full result, with every end-to-end metric of the workload, the per-phase
self-time table and the machine fingerprint, goes to a JSON file under
``--results``; compare.py compares two directories of such files.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
from spans import WAITING_NOTE
from worker import THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
# The whole run, all processes included, may take --seconds of rounds plus
# this much for start-up, the set-ups and the round that overruns --seconds.
SETUP_MARGIN_S = 145.0


def _loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["INPO_LOG_LEVEL"] = "error"
    return env


def _run_worker(args, work: str, raw: str, deadline: float, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its raw measurements."""
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--raw", raw]
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(work, "worker.log")
    with open(log_path, "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=_child_env(),
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded the time limit; log in {log_path}")
    if rc != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited with code {rc}; log in {log_path}")
    with open(raw) as fh:
        return json.load(fh)


def run(args) -> dict:
    deadline = time.monotonic() + args.seconds + SETUP_MARGIN_S
    load_start = _loadavg()
    base = os.path.join(ROOT, ".bench_work", args.workload)
    setups = [_run_worker(args, os.path.join(base, f"setup{k}"),
                          os.path.join(base, f"setup{k}.json"), deadline, setup_only=True)
              for k in range(SETUP_REPEATS - 1)]
    raw = _run_worker(args, os.path.join(base, "run"), os.path.join(base, "run.json"),
                      deadline, setup_only=False)
    setups.append(raw)

    # every process's own checks, plus one per later set-up: same artifacts as the first
    attempted = sum(s["checks"]["attempted"] for s in setups) + len(setups) - 1
    failures = [f for s in setups for f in s["checks"]["failures"]]
    failures += [f"set-up {k} artifacts differ from set-up 0"
                 for k, s in enumerate(setups[1:], start=1)
                 if s["setup_hashes"] != setups[0]["setup_hashes"]]

    e2e, samples = metrics.e2e_metrics(args.workload, setups, raw["rounds"],
                                       raw["final_yard_cpu_s"], raw["peak_rss_mb"],
                                       attempted, len(failures))
    yards = [r["yard_cpu_s"] for r in raw["rounds"]] + [raw["final_yard_cpu_s"]]
    fp = dict(raw["fingerprint"], seed=args.seed, loadavg_start=load_start,
              loadavg_end=_loadavg(), yardstick_cpu_s_median=statistics.median(yards))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fp,
        "rounds": len(raw["rounds"]),
        "traced_rounds": sum(r["traced"] for r in raw["rounds"]),
        "round_run_s": [[r["traced"], r["run_s"]] for r in raw["rounds"]],
        "round_cpu_s": [[r["traced"], r["cpu_s"]] for r in raw["rounds"]],
        "round_ref_s": [[r["traced"], s] for r, s in
                        zip(raw["rounds"], metrics.rounds_at_reference(raw["rounds"],
                                                                       raw["final_yard_cpu_s"]))],
        "round_yard_cpu_s": yards,
        "setup_cpu_s": [s["setup_cpu_s"] for s in setups],
        "setup_yard_cpu_s": [s["setup_yard_cpu_s"] for s in setups],
        "phase_wall_s": metrics.phase_medians(raw["rounds"], "wall_s"),
        "phase_step_ms_p50": metrics.phase_medians(raw["rounds"], "steps_ms"),
        "wrappers_in_untraced_rounds": sorted({w for r in raw["rounds"]
                                               for c in r["calls"].values()
                                               for w in c["wrappers"]}),
        "e2e": e2e, "samples": samples,
        "layers": raw.get("layers"), "phases": raw.get("phases"),
        "waiting": WAITING_NOTE,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "artifacts": {"setup": raw["setup_hashes"], "round": raw["rounds"][0]["hashes"]},
    }


def result_line(result: dict) -> dict:
    if result["trace"]:
        values = {name: (result["layers"][name], unit)
                  for name, unit in metrics.PER_LAYER_UNITS.items()}
    else:
        units = {m.name: m.unit for m in metrics.E2E}
        values = {name: (result["e2e"][name], units[name])
                  for name in metrics.RESULT_LINE_E2E}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_work", "results"),
                    help="directory the full result JSON is written to")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "inpo", "__init__.py")):
        print(f"no inpo package under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    os.makedirs(args.results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path = os.path.join(args.results, name)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for metric, value in result["e2e"].items():
        print(f"{args.workload} {metric} = {value!r}")
    print(f"samples: {result['samples']}; rounds: {result['rounds']} "
          f"({result['traced_rounds']} traced)")
    if args.trace:
        print(f"waiting: {WAITING_NOTE}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"result: {path}")
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
