"""Verdicts of the compare command."""
import compare

PARENT = {s: 10.0 + 0.1 * (s % 3) for s in range(1, 11)}  # spread ~1%


def test_faster_in_every_pair_is_improved():
    change = {s: v * 0.8 for s, v in PARENT.items()}
    assert compare.verdict(PARENT, change, "lower", 0.1) == "improved"
    assert compare.verdict(change, PARENT, "higher", 0.1) == "improved"


def test_small_drift_within_the_bound_is_unchanged():
    change = {s: v * 1.05 for s, v in PARENT.items()}
    assert compare.verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_slower_beyond_the_bound_is_worse():
    change = {s: v * 1.2 for s, v in PARENT.items()}
    assert compare.verdict(PARENT, change, "lower", 0.1) == "worse"
    assert compare.verdict(PARENT, change, "higher", 0.1) == "improved"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = {s: 10.0 * (1 + 0.4 * (s % 2)) for s in range(1, 11)}
    assert compare.verdict(PARENT, noisy, "lower", 0.1) == "unresolved"
    better = {s: 5.0 * (1 + 0.4 * (s % 2)) for s in range(1, 11)}
    assert compare.verdict(PARENT, better, "lower", 0.1) == "improved"
    slightly = {s: 9.9 - 0.9 * (s % 2) for s in range(1, 11)}  # wide, every run below 9.9
    assert compare.verdict(PARENT, slightly, "lower", 0.05) in ("improved", "unchanged")


def test_exact_metrics_compare_seed_by_seed():
    assert compare.exact_verdict({1: 22.0, 2: 22.0}, {1: 22.0, 2: 22.0}) == "equal"
    assert compare.exact_verdict({1: 22.0, 2: 22.0}, {1: 12.0, 2: 12.0}) == "differs"
    assert compare.exact_verdict({1: 0.9}, {2: 0.9}) == "equal"
