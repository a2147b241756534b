"""Metric arithmetic."""
import pytest

import metrics
import workloads
import yardstick

REF = yardstick.REFERENCE_CPU_S


def test_tail_percentile_needs_ten_samples_beyond_it():
    xs = list(range(1, 201))
    assert metrics.tail_percentile(xs) == 190  # 191..200 lie beyond it
    with pytest.raises(ValueError, match="need 10"):
        metrics.tail_percentile(xs[:199])
    assert metrics.tail_percentile(list(range(1, 21)), q=50) == 10


def test_quartiles_match_statistics_module():
    assert metrics.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert metrics.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _round(r, label, n_forwards, taped=0):
    """Spans of one traced round: a cli root, one align with plain and taped
    forwards. Parents are indices relative to the round's first span."""
    base = float(r * 100)
    spans = [("cli", base, base + 10.0, -1, 0, None),
             ("trainer.align", base + 1.0, base + 9.0, 0, 0, None)]
    for k in range(n_forwards + taped):
        name = "denoiser.eps_forward" if k < n_forwards else "denoiser.eps_forward.taped"
        spans.append((name, base + 2.0 + k * 0.1, base + 2.05 + k * 0.1, 1, 4, None))
    return spans, label


def _trace(rounds):
    spans, root_info = [], {}
    for r, (round_spans, label) in enumerate(rounds):
        root = len(spans)
        root_info[root] = (2 * r, label)  # traced rounds are the even ones
        for name, start, end, parent, rows, extra in round_spans:
            if parent >= 0:
                parent += root
            spans.append((name, start, end, parent, rows, extra))
    return spans, root_info


def test_layer_metrics_are_per_round_and_exact_for_counts():
    spans, root_info = _trace([_round(0, "align.dpo", 20, taped=20),
                               _round(1, "align.dpo", 20, taped=20)])
    layers, phases = metrics.layer_metrics(spans, root_info, "align_noising",
                                           {"align.dpo": 10}, 1.25)
    assert layers["denoiser.eps_forward.calls"] == 20
    assert layers["denoiser.eps_forward.rows"] == 80
    assert layers["denoiser.eps_forward.taped.calls"] == 20
    assert layers["denoiser.eps_forward.calls_per_align_step"] == 4.0
    assert layers["denoiser.eps_forward.calls_per_align_step.sft"] == 0
    assert layers["trace.overhead_ratio"] == 1.25
    assert layers["denoiser.eps_forward.self_s"] == pytest.approx(20 * 0.05)
    assert layers["trainer.align.self_s"] == pytest.approx(8.0 - 40 * 0.05)
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert set(layers) == set(metrics.PER_LAYER_NAMES)
    assert phases["align.dpo"]["cli"]["self_s"] == pytest.approx(2.0)
    assert phases["align.dpo"]["cli"]["total_s"] == pytest.approx(10.0)


def _fake_rounds(workload):
    calls = {}
    for c in workloads.round_calls(workload, 1):
        entry = {"wall_s": 0.5, "steps": c.steps, "rows": c.rows, "cmd": c.cmd, "wrappers": []}
        if c.label == workloads.STEP_PHASE.get(workload):
            entry["steps_ms"] = [1.0] * c.steps
        calls[c.label] = entry
    report = {"win_rate": 0.9, "roundtrip_err": {"5": 0.4, "10": 0.2, "25": 0.1, "50": 0.05}}
    return [{"traced": False, "run_s": 2.0, "cpu_s": 1.6, "yard_cpu_s": 2 * REF,
             "calls": calls, "report": report}] * 4


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_each_workload_measures_its_listed_end_to_end_metrics(workload):
    # set-up k: start-up 0.5 s and one call 1.5 s of CPU at k times the
    # reference speed; the machine slows from 1x to 3x over the rounds
    setups = [{"setup_cpu_s": [0.5 * k, 1.5 * k], "setup_yard_cpu_s": [k * REF, k * REF],
               "setup_wall_s": 1.0 + k} for k in (1, 2, 3)]
    rounds = [dict(r, cpu_s=1.6 * k, yard_cpu_s=k * REF)
              for r, k in zip(_fake_rounds(workload), (1, 2, 3, 3))]
    out, samples = metrics.e2e_metrics(workload, setups, rounds, 3 * REF, 50.0, 10, 0)
    assert set(out) == {m.name for m in metrics.E2E if workload in m.workloads}
    assert out["setup_s"] == pytest.approx(2.0) and samples["setup_s"] == 3
    assert out["setup_wall_s"] == 3.0
    # a round is scaled by the mean of the yardsticks before and after it
    assert metrics.rounds_at_reference(rounds, 3 * REF) == pytest.approx(
        [1.6 / 1.5, 3.2 / 2.5, 1.6, 1.6])
    assert out["run_ref_s"] == pytest.approx((3.2 / 2.5 + 1.6) / 2) and out["run_s"] == 2.0
    assert all(out[name] > 0 for name in metrics.RESULT_LINE_E2E)

