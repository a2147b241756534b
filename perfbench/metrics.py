"""Metric definitions and the arithmetic that turns measurements into them.

End-to-end metrics come from untraced rounds. Per-layer metrics come from
traced rounds and are given per round: counts are the mean over traced
rounds (every round repeats the same work, so they are exact), times are the
median over traced rounds.
"""
from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass

import workloads
import yardstick
from spans import roots, self_times, under

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
RUN_SECONDS = BENCHMARK["run_seconds"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # share of the parent's median by which it may worsen
    workloads: tuple[str, ...] = WORKLOADS
    exact: bool = False  # deterministic per seed: compared for equality


# The result line carries the end-to-end metrics of BENCHMARK.json, with its
# bounds: they are measured on every workload and never zero. The metrics
# below them are measured only on some workloads, or are exact per seed, so
# they go only to the result files; compare.py compares them with the bounds
# given here: the largest spread any baseline set showed, rounded up to a
# multiple of 0.05 (baseline/BASELINE.md).
RESULT_LINE_E2E = tuple(m["name"] for m in BENCHMARK["end_to_end"])
E2E = tuple(Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]) + (
    Metric("run_s", "s", "lower", 0.30),
    Metric("setup_wall_s", "s", "lower", 0.45),
    Metric("align_step_ms.p50", "ms", "lower", 0.45, ("align_inversion", "align_noising")),
    Metric("align_step_ms.p95", "ms", "lower", 0.35, ("align_inversion", "align_noising")),
    Metric("align_pairs_per_s", "1/s", "higher", 0.35, ("align_inversion", "align_noising")),
    Metric("pretrain_samples_per_s", "1/s", "higher", 0.25, ("align_noising",)),
    Metric("sample_rows_per_s", "1/s", "higher", 0.25, ("sample_eval",)),
    Metric("eval_s.p50", "s", "lower", 0.30, ("sample_eval",)),
    Metric("win_rate", "fraction", "higher", 0.0, ("align_inversion", "sample_eval"), exact=True),
    Metric("roundtrip_err.n10", "1", "lower", 0.0, ("sample_eval",), exact=True),
    Metric("failed_frac", "fraction", "lower", 0.0, exact=True),
)

# Per-layer metrics: "<span name>.<field>" with field calls, rows, bytes or
# self_s, plus the derived per-step, per-eval and ratio entries below.
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
PER_LAYER_NAMES = tuple(PER_LAYER_UNITS)
# The align phase whose forwards each derived per-step count divides, by workload.
STEP_PHASES = {
    "denoiser.eps_forward.calls_per_align_step": workloads.STEP_PHASE,
    "denoiser.eps_forward.calls_per_align_step.fixed_point": {
        "align_inversion": "align.fixed_point"},
    "denoiser.eps_forward.calls_per_align_step.sft": {"align_noising": "align.sft"},
}


def layer_exact(name: str) -> bool:
    return name != "trace.overhead_ratio" and not name.endswith("self_s")


# --------------------------------------------------------------- statistics


def tail_percentile(values, q: float = 95.0, min_beyond: int = 10) -> float:
    """Nearest-rank q-th percentile, refused unless ``min_beyond`` samples lie
    above it, so the tail is read from enough samples to mean something."""
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    if len(xs) - rank < min_beyond:
        raise ValueError(f"p{q:g} of {len(xs)} samples has {len(xs) - rank} beyond it; "
                         f"need {min_beyond}")
    return xs[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ------------------------------------------------------------ layer metrics


def _round_aggregates(spans, selfs, root_of, root_round, n_rounds):
    """Per traced round: span name -> [calls, rows, extra, self_s]."""
    per_round = [dict() for _ in range(n_rounds)]
    for i, (name, start, end, parent, rows, extra) in enumerate(spans):
        agg = per_round[root_round[root_of[i]]].setdefault(name, [0, 0, 0, 0.0])
        agg[0] += 1
        agg[1] += rows
        agg[2] += extra or 0
        agg[3] += selfs[i]
    return per_round


def layer_metrics(spans, root_info, workload, phase_steps, overhead_ratio) -> tuple[dict, dict]:
    """Per-layer metrics, and per phase the self and total time of each span
    name per traced round, from traced spans.

    ``root_info`` maps the index of each root span to (traced round number,
    phase label); ``phase_steps`` maps an align phase label to its steps.
    """
    traced_rounds = sorted({r for r, _ in root_info.values()})
    slot = {r: k for k, r in enumerate(traced_rounds)}
    root_of = roots(spans)
    root_round = {i: slot[r] for i, (r, _) in root_info.items()}
    selfs = self_times(spans)
    per_round = _round_aggregates(spans, selfs, root_of, root_round, len(traced_rounds))
    in_win_rate = under(spans, "evaluation.win_rate")

    derived = [dict() for _ in traced_rounds]
    for i, (name, *_rest) in enumerate(spans):
        k = root_round[root_of[i]]
        label = root_info[root_of[i]][1]
        if name in ("denoiser.eps_forward", "denoiser.eps_forward.taped"):
            derived[k][label] = derived[k].get(label, 0) + 1
        if name == "sampler.ddim_sample" and in_win_rate[i]:
            derived[k]["win_rate_samples"] = derived[k].get("win_rate_samples", 0) + 1

    def per_round_value(k, metric):
        aggs = per_round[k]
        if metric in STEP_PHASES:
            label = STEP_PHASES[metric].get(workload)
            steps = phase_steps.get(label)
            return derived[k].get(label, 0) / steps if steps else 0
        if metric == "sampler.ddim_sample.calls_per_eval":
            evals = aggs.get("evaluation.win_rate", [0])[0]
            return derived[k].get("win_rate_samples", 0) / evals if evals else 0
        if metric == "preference.solve_delta_fixed_point.converged_frac":
            agg = aggs.get("preference.solve_delta_fixed_point", [0, 0, 0, 0.0])
            return agg[2] / agg[1] if agg[1] else 0.0
        span, field = metric.rsplit(".", 1)
        agg = aggs.get(span, [0, 0, 0, 0.0])
        return {"calls": agg[0], "rows": agg[1], "bytes": agg[2], "self_s": agg[3]}[field]

    out = {}
    for metric in PER_LAYER_NAMES:
        if metric == "trace.overhead_ratio":
            out[metric] = overhead_ratio
            continue
        vals = [per_round_value(k, metric) for k in range(len(traced_rounds))]
        out[metric] = statistics.median(vals) if metric.endswith("self_s") \
            else statistics.fmean(vals)

    phases: dict = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        label = root_info[root_of[i]][1]
        row = phases.setdefault(label, {}).setdefault(name, {"self_s": 0.0, "total_s": 0.0})
        row["self_s"] += selfs[i] / len(traced_rounds)
        row["total_s"] += (end - start) / len(traced_rounds)
    return out, phases


# ---------------------------------------------------------- end-to-end metrics


def _rate(calls, per_call) -> float:
    return sum(per_call(c) for c in calls) / sum(c["wall_s"] for c in calls)


def at_reference(cpu_s: float, yard_before: float, yard_after: float) -> float:
    """CPU seconds scaled to the reference speed, by the yardstick runs just
    before and after the interval they were measured in."""
    return cpu_s * yardstick.REFERENCE_CPU_S / ((yard_before + yard_after) / 2)


def setup_at_reference(setup: dict) -> float:
    """One set-up at the reference speed: start-up is scaled by the yardstick
    run right after it, each call by the yardsticks around it."""
    cpu, yards = setup["setup_cpu_s"], setup["setup_yard_cpu_s"]
    return at_reference(cpu[0], yards[0], yards[0]) + sum(
        at_reference(c, before, after) for c, before, after in zip(cpu[1:], yards, yards[1:]))


def rounds_at_reference(rounds, final_yard: float) -> list[float]:
    """Every round at the reference speed; a yardstick ran before each round
    and ``final_yard`` after the last."""
    yards = [r["yard_cpu_s"] for r in rounds] + [final_yard]
    return [at_reference(r["cpu_s"], before, after)
            for r, before, after in zip(rounds, yards, yards[1:])]


def e2e_metrics(workload, setups, rounds, final_yard, peak_rss_mb, attempted, failed):
    """End-to-end metrics of one run and the number of samples behind each.

    Times come from untraced rounds only; win_rate and the round-trip error
    are deterministic per seed and read from the first round.

    The result line's times are CPU seconds of the single-threaded worker at
    the reference speed (yardstick.py): ``setup_s`` the median of the
    set-ups, ``run_ref_s`` the median round. On a shared virtual machine
    both the wall and the CPU time of a round moved by up to 1.7x with the
    neighbours' load; scaled by the yardstick they varied by a tenth of
    that from run to run (baseline/BASELINE.md). ``run_s`` and
    ``setup_wall_s`` keep the wall times (mean round, median set-up) for
    compare.py.
    """
    plain = [r for r in rounds if not r["traced"]]
    calls = [c for r in plain for c in r["calls"].values()]
    ref_s = [s for r, s in zip(rounds, rounds_at_reference(rounds, final_yard))
             if not r["traced"]]
    out = {"setup_s": statistics.median(setup_at_reference(s) for s in setups),
           "run_ref_s": statistics.median(ref_s),
           "peak_rss_mb": peak_rss_mb,
           "run_s": statistics.fmean(r["run_s"] for r in plain),
           "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups)}
    samples = {"setup_s": len(setups), "run_ref_s": len(plain), "run_s": len(plain)}
    if workload in workloads.STEP_PHASE:
        label = workloads.STEP_PHASE[workload]
        steps_ms = [x for r in plain for x in r["calls"][label]["steps_ms"]]
        out["align_step_ms.p50"] = statistics.median(steps_ms)
        out["align_step_ms.p95"] = tail_percentile(steps_ms)
        samples["align_step_ms"] = len(steps_ms)
        out["align_pairs_per_s"] = _rate([c for c in calls if c["cmd"] == "align"],
                                         lambda c: c["steps"] * workloads.BATCH_PAIRS)
    if workload == "align_noising":
        out["pretrain_samples_per_s"] = _rate([c for c in calls if c["cmd"] == "pretrain"],
                                              lambda c: c["steps"] * workloads.PRETRAIN_BATCH)
    if workload == "sample_eval":
        out["sample_rows_per_s"] = _rate([c for c in calls if c["cmd"] in ("make-prefs", "eval")],
                                         lambda c: c["rows"])
        evals = [c["wall_s"] for c in calls if c["cmd"] == "eval"]
        out["eval_s.p50"] = statistics.median(evals)
        samples["eval_s"] = len(evals)
        out["roundtrip_err.n10"] = rounds[0]["report"]["roundtrip_err"]["10"]
    if workload in ("align_inversion", "sample_eval"):
        out["win_rate"] = rounds[0]["report"]["win_rate"]
    out["failed_frac"] = failed / attempted
    return out, samples


def phase_medians(rounds, field: str) -> dict:
    """Per CLI call label, the median of ``field`` over untraced rounds: the
    call's wall time, or its per-step times pooled."""
    pooled: dict = {}
    for r in rounds:
        if r["traced"]:
            continue
        for label, call in r["calls"].items():
            if field in call:
                val = call[field]
                pooled.setdefault(label, []).extend(val if isinstance(val, list) else [val])
    return {label: statistics.median(vals) for label, vals in pooled.items()}
