"""Summarise one result set, or compare two, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT_DIR            # medians, quartiles, spreads
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR # ... plus a verdict per row

A result set is a directory of the JSON files run.py writes. End-to-end
metrics are read from untraced runs, per-layer metrics from traced runs.
Output is Markdown tables.

Verdict for a timed metric, with spread = (q3 - q1) / median of one side's
runs and the bound in metrics.E2E (BENCHMARK.json's for the result-line metrics):
  improved    the change wins at least 9 in 10 runs paired by seed (ties count
              for neither) and the medians differ by more than the parent's
              q3 - q1, in the better direction;
  unresolved  either side's spread exceeds the bound, unless every run of the
              change reads better than every run of the parent;
  worse       the change's median is worse than the parent's by more than the bound;
  unchanged   otherwise.
Exact metrics (counts, and values that are deterministic per seed) are
compared for equality seed by seed: equal or differs.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from statistics import median

import metrics
from metrics import quartiles

def load(directory: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def series(results, trace: int, section: str) -> dict:
    """(metric, workload) -> {seed: value}, from runs with the given trace flag."""
    out: dict = {}
    for r in results:
        if r["trace"] != trace or not r.get(section):
            continue
        for name, value in r[section].items():
            out.setdefault((name, r["workload"]), {})[r["seed"]] = value
    return out


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _better(a, b, lower: bool) -> bool:
    return b < a if lower else b > a


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict for a timed metric; ``a`` and ``b`` map seed -> value."""
    lower = better == "lower"
    av, bv = list(a.values()), list(b.values())
    q1a, ma, q3a = quartiles(av)
    _, mb, _ = quartiles(bv)
    common = sorted(set(a) & set(b))
    pairs = [(a[s], b[s]) for s in common] if common else list(zip(av, bv))
    wins = sum(_better(x, y, lower) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3a - q1a and _better(ma, mb, lower):
        return "improved"
    all_better = all(_better(x, y, lower) for x in av for y in bv)
    if max(spread(av), spread(bv)) > bound and not all_better:
        return "unresolved"
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    return "worse" if worse_by > bound else "unchanged"


def exact_verdict(a: dict, b: dict) -> str:
    common = set(a) & set(b)
    if common:
        return "equal" if all(a[s] == b[s] for s in common) else "differs"
    return "equal" if sorted(a.values()) == sorted(b.values()) else "differs"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _quart(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"


def e2e_table(a_res, b_res=None) -> list[str]:
    a = series(a_res, 0, "e2e")
    b = series(b_res, 0, "e2e") if b_res is not None else None
    head = "| metric | workload | unit | bound | runs | parent median [q1, q3] | spread |"
    rule = "|---|---|---|---|---|---|---|"
    if b is not None:
        head += " change median [q1, q3] | spread | change | verdict |"
        rule += "---|---|---|---|"
    lines = [head, rule]
    for m in metrics.E2E:
        for w in m.workloads:
            if (m.name, w) not in a:
                continue
            av = a[(m.name, w)]
            row = (f"| {m.name} | {w} | {m.unit} | {'exact' if m.exact else m.bound} | "
                   f"{len(av)} | {_quart(list(av.values()))} | "
                   f"{spread(list(av.values())):.3f} |")
            if b is not None and (m.name, w) in b:
                bv = b[(m.name, w)]
                ma, mb = median(av.values()), median(bv.values())
                change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
                v = exact_verdict(av, bv) if m.exact else verdict(av, bv, m.better, m.bound)
                row += (f" {_quart(list(bv.values()))} | {spread(list(bv.values())):.3f} | "
                        f"{change} | {v} |")
            lines.append(row)
    return lines


def layer_table(a_res, b_res=None) -> list[str]:
    a = series(a_res, 1, "layers")
    b = series(b_res, 1, "layers") if b_res is not None else None
    workloads = [w for w in metrics.WORKLOADS if any(k[1] == w for k in a)]
    if not workloads:
        return ["(no traced runs)"]
    head = "| metric | unit | " + " | ".join(workloads) + " |"
    lines = [head, "|---|---|" + "---|" * len(workloads)]
    for name in metrics.PER_LAYER_NAMES:
        cells = []
        for w in workloads:
            av = a.get((name, w))
            if av is None:
                cells.append("")
                continue
            cell = _fmt(median(av.values()))
            if b is not None and (name, w) in b:
                bv = b[(name, w)]
                cell += f" → {_fmt(median(bv.values()))}"
                if metrics.layer_exact(name):
                    cell += f" ({exact_verdict(av, bv)})"
            cells.append(cell)
        lines.append(f"| {name} | {metrics.PER_LAYER_UNITS[name]} | " + " | ".join(cells) + " |")
    return lines


def phase_tables(results) -> list[str]:
    """Per phase (CLI call): wall time and step time from untraced runs, then
    each span's share of the phase from traced runs, largest first."""
    lines = ["| workload | phase | wall s | step ms p50 |", "|---|---|---|---|"]
    plain = [r for r in results if r["trace"] == 0]
    for w in metrics.WORKLOADS:
        runs = [r for r in plain if r["workload"] == w]
        for label in (runs[0]["phase_wall_s"] if runs else {}):
            wall = median([r["phase_wall_s"][label] for r in runs])
            steps = [r["phase_step_ms_p50"][label] for r in runs
                     if label in r["phase_step_ms_p50"]]
            lines.append(f"| {w} | {label} | {_fmt(wall)} | "
                         f"{_fmt(median(steps)) if steps else ''} |")
    traced = [r for r in results if r["trace"] == 1 and r.get("phases")]
    for w in metrics.WORKLOADS:
        runs = [r for r in traced if r["workload"] == w]
        if not runs:
            continue
        for label in runs[0]["phases"]:
            total = median([r["phases"][label]["cli"]["total_s"] for r in runs])
            lines += ["", f"{w} / {label}: {_fmt(total)} s per traced round "
                      f"(median of {len(runs)} runs)", "",
                      "| span | self s | share | total s |", "|---|---|---|---|"]
            names = runs[0]["phases"][label]
            rows = sorted(((median([r["phases"][label][n]["self_s"] for r in runs]),
                            median([r["phases"][label][n]["total_s"] for r in runs]), n)
                           for n in names), reverse=True)
            for self_s, total_s, n in rows:
                if self_s >= 0.005 * total:
                    lines.append(f"| {n} | {_fmt(self_s)} | {self_s / total:.1%} | "
                                 f"{_fmt(total_s)} |")
    return lines


def artifact_lines(a_res, b_res) -> list[str]:
    def keyed(results):
        return {(r["workload"], r["seed"]): r["artifacts"] for r in results}

    a, b = keyed(a_res), keyed(b_res)
    common = sorted(set(a) & set(b))
    same = [k for k in common if a[k] == b[k]]
    lines = [f"artifacts identical for {len(same)} of {len(common)} (workload, seed) pairs "
             "run in both sets"]
    lines += [f"  differs: {w} seed {s}" for w, s in common if a[(w, s)] != b[(w, s)]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="directory of result JSON files")
    ap.add_argument("change", nargs="?", help="second directory to compare against the first")
    args = ap.parse_args(argv)
    a = load(args.parent)
    b = load(args.change) if args.change else None
    if not a or (b is not None and not b):
        print("no result files found", file=sys.stderr)
        return 2
    out = ["## End-to-end (untraced runs)", ""] + e2e_table(a, b)
    out += ["", "## Per layer (traced runs; median over runs of the per-round value)", ""]
    out += layer_table(a, b)
    if b is not None:
        out += [""] + artifact_lines(a, b)
    else:
        out += ["", "## Per phase", ""] + phase_tables(a)
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
