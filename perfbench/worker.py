"""One workload process: set up, then run timed rounds of CLI calls.

Started by run.py with BLAS threads pinned to 1 in its environment. It calls
``inpo.cli.main`` in-process, checks every output, and writes its raw
measurements as JSON to ``--raw``. With ``--setup-only`` it stops after
set-up, so run.py can time set-up several times.

Every CLI call is timed twice: wall time, and the CPU time of this process
(user plus system, all threads; BLAS runs one). Set-up CPU time counts from
process start, interpreter start-up and imports included. The yardstick
kernel runs after start-up, after each set-up call, before each round and
after the last one, outside every timed interval.

In a traced run, even rounds run with span wrappers installed and odd rounds
without; per-layer numbers come from the traced rounds and the ratio of the
two kinds of round gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads
import yardstick
from metrics import WORKLOADS, layer_metrics
from spans import Tracer, installed_wrappers

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WALL_COLUMNS = {"train_log.csv": "wall_ms"}  # excluded from artifact hashes


class Checks:
    """Output checks; each one counts as attempted, each failure as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ------------------------------------------------------------ artifacts


def _drop_column(data: bytes, column: str) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    buf = io.StringIO()
    csv.writer(buf).writerows([[row[i] for i in keep] for row in rows])
    return buf.getvalue().encode()


def artifact_hashes(directory: str) -> dict[str, str]:
    """sha256 of every numeric artifact in a directory, wall-time columns excluded."""
    out = {}
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name == "timing.csv" or not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if name in WALL_COLUMNS:
            data = _drop_column(data, WALL_COLUMNS[name])
        elif name == "report.json":
            report = json.loads(data)
            report.pop("wall_times", None)
            data = json.dumps(report, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def check_pairs(checks: Checks, path: str, where: str) -> None:
    """pairs.jsonl reloads, holds every pair, and each winner scores >= its loser."""
    from inpo.data import PAIR_SCHEMA_VERSION

    with open(path) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    checks.check(header.get("schema_version") == PAIR_SCHEMA_VERSION and header.get("dim") == 2,
                 f"{where}: pairs header {header}")
    checks.check(len(records) == workloads.PAIRS,
                 f"{where}: {len(records)} pairs, expected {workloads.PAIRS}")
    finite = all(math.isfinite(v) for r in records for v in (*r["w"], *r["l"], r["rw"], r["rl"]))
    checks.check(finite, f"{where}: non-finite value in pairs")
    bad = [i for i, r in enumerate(records) if not r["rw"] >= r["rl"]]
    checks.check(not bad, f"{where}: winner reward below loser reward in pairs {bad[:5]}")


def check_align(checks: Checks, out_dir: str, steps: int, where: str) -> list[float]:
    """Every logged loss is finite; returns the per-step wall_ms column."""
    with open(os.path.join(out_dir, "train_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    checks.check(len(rows) == steps, f"{where}: {len(rows)} logged steps, expected {steps}")
    losses = [float(r["loss"]) for r in rows]
    checks.check(all(math.isfinite(v) for v in losses), f"{where}: non-finite logged loss")
    return [float(r["wall_ms"]) for r in rows]


def check_report(checks: Checks, out_dir: str, where: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    err = {int(k): v for k, v in report["roundtrip_errors"].items()}
    checks.check(report["win_rate"] > 0.5, f"{where}: win_rate {report['win_rate']} <= 0.5")
    checks.check(err[50] <= err[5], f"{where}: round-trip error rises from n=5 to n=50: {err}")
    return {"win_rate": report["win_rate"], "roundtrip_err": err}


# ------------------------------------------------------------ fingerprint


def _blas_runtime_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads_runtime": _blas_runtime_threads(),
    }


# ------------------------------------------------------------ running


class Runner:
    def __init__(self, work: str, config_path: str, checks: Checks, spawned_at: float):
        import inpo.cli

        self.main = inpo.cli.main
        self.spawned_at = spawned_at
        self.work = work
        self.config_path = config_path
        self.checks = checks

    def call(self, call: workloads.Call, tracer: Tracer | None, root_info=None,
             round_no: int = 0) -> tuple[float, float, bool]:
        """Run one CLI call; returns its wall and CPU time in seconds and whether
        it exited 0."""
        argv = call.argv(self.work, self.config_path)
        root = len(tracer.spans) if tracer else None
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            if tracer:
                rc = tracer.span("cli", self.main, argv)
            else:
                rc = self.main(argv)
        except Exception:  # a crash is one failed call; the run goes on and reports it
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if tracer:
            root_info[root] = (round_no, call.label)
        return wall, cpu, self.checks.check(rc == 0, f"{call.label}: exit code {rc}")


def run_setup(runner: Runner, workload: str, seed: int) -> dict:
    """Build the inputs; returns their artifact hashes and the set-up's timing.

    ``setup_cpu_s`` holds the CPU seconds of start-up (interpreter and
    imports) and then of each CLI call; ``setup_yard_cpu_s`` the yardstick
    run after start-up and after each call. ``setup_wall_s`` is from process
    start, yardsticks left out.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = [usage.ru_utime + usage.ru_stime]
    yards = []
    yard_wall = 0.0
    ok = True
    for call in [None, *workloads.setup_calls(workload, seed)]:
        if call is not None:
            _, call_cpu, ok = runner.call(call, None)
            cpu.append(call_cpu)
        t0 = time.monotonic()
        yards.append(yardstick.measure())
        yard_wall += time.monotonic() - t0
        if not ok:
            break
        if call is not None and call.cmd == "align":
            check_align(runner.checks, os.path.join(runner.work, call.out), call.steps, "setup")
    wall = time.monotonic() - runner.spawned_at - yard_wall
    if ok:
        check_pairs(runner.checks, os.path.join(runner.work, "setup", "pairs.jsonl"), "setup")
    return {"setup_hashes": artifact_hashes(os.path.join(runner.work, "setup")),
            "setup_cpu_s": cpu, "setup_yard_cpu_s": yards, "setup_wall_s": wall}


def run_round(runner: Runner, workload: str, seed: int, tracer, root_info, round_no) -> dict:
    checks = runner.checks
    calls = {}
    report = None
    for call in workloads.round_calls(workload, seed):
        wrappers = [] if tracer else installed_wrappers()
        wall, cpu, ok = runner.call(call, tracer, root_info, round_no)
        out_dir = os.path.join(runner.work, call.out)
        entry = {"wall_s": wall, "cpu_s": cpu, "steps": call.steps, "rows": call.rows,
                 "cmd": call.cmd, "wrappers": wrappers}
        if ok and call.cmd == "align":
            entry["steps_ms"] = check_align(checks, out_dir, call.steps, call.label)
        elif ok and call.cmd == "make-prefs":
            check_pairs(checks, os.path.join(out_dir, "pairs.jsonl"), call.label)
        elif ok and call.cmd == "eval":
            report = check_report(checks, out_dir, call.label)
        calls[call.label] = entry
    hashes = {label: artifact_hashes(os.path.join(runner.work, "round", label))
              for label in calls}
    if workload == "align_noising":
        dpo = hashes["align.dpo"].get("aligned.params")
        checks.check(dpo is not None and dpo == hashes["align.gaussian"].get("aligned.params"),
                     "dpo and inpo+gaussian aligned.params differ")
    return {"traced": tracer is not None, "run_s": sum(c["wall_s"] for c in calls.values()),
            "cpu_s": sum(c["cpu_s"] for c in calls.values()),
            "calls": calls, "report": report, "hashes": hashes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="work directory for artifacts")
    ap.add_argument("--raw", required=True, help="where to write the raw measurements")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.work, exist_ok=True)
    config_path = os.path.join(args.work, "bench.cfg")
    with open(config_path, "w") as fh:
        fh.write(workloads.FIXED_CONFIG)
    checks = Checks()
    runner = Runner(args.work, config_path, checks, args.spawned_at)
    raw = run_setup(runner, args.workload, args.seed)

    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        root_info: dict = {}
        rounds = []
        start = time.monotonic()
        while True:
            yard = yardstick.measure()
            traced = tracer is not None and len(rounds) % 2 == 0
            if traced:
                tracer.install()
            t0 = time.monotonic()
            try:
                rounds.append(run_round(runner, args.workload, args.seed,
                                        tracer if traced else None, root_info, len(rounds)))
            finally:
                if traced:
                    tracer.uninstall()
            last = time.monotonic() - t0
            rounds[-1]["yard_cpu_s"] = yard
            if (len(rounds) >= workloads.MIN_ROUNDS
                    and time.monotonic() - start + last > args.seconds):
                break
        raw["final_yard_cpu_s"] = yardstick.measure()
        first = rounds[0]["hashes"]
        for k, rnd in enumerate(rounds[1:], start=1):
            checks.check(rnd["hashes"] == first, f"round {k} artifacts differ from round 0")
        raw["rounds"] = rounds
        if tracer:
            traced_s = [r["run_s"] for r in rounds if r["traced"]]
            plain_s = [r["run_s"] for r in rounds if not r["traced"]]
            steps = {c.label: c.steps for c in workloads.round_calls(args.workload, args.seed)
                     if c.cmd == "align"}
            layers, phases = layer_metrics(
                tracer.spans, root_info, args.workload, steps,
                statistics.fmean(traced_s) / statistics.fmean(plain_s))
            raw["layers"], raw["phases"] = layers, phases
            tracer.write(os.path.join(args.work, "spans.csv.gz"))
    raw["checks"] = {"attempted": checks.attempted, "failures": checks.failures}
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["fingerprint"] = fingerprint()
    with open(args.raw, "w") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
