"""The verdict rule of tools/bench_pairs.py on made-up paired runs."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _verdict(parent, change, better="lower", bound=0.24):
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return bench_pairs.verdict(bench_pairs.summarise(parent), bench_pairs.summarise(change),
                               wins, sign, bound)


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


@pytest.mark.parametrize("parent, change, better, expected", [
    # 10/10 wins, medians 0.20 apart against a parent spread of 0.02.
    (PARENT, [v - 0.2 for v in PARENT], "lower", "gain"),
    (PARENT, [v + 0.2 for v in PARENT], "higher", "gain"),
    # 8/10 wins fall short of 9/10.
    (PARENT, [v - 0.2 for v in PARENT[:8]] + [1.5, 1.5], "lower", "within bound"),
    # 10/10 wins, but a gap of 0.005 inside the parent's spread of 0.02.
    (PARENT, [v - 0.005 for v in PARENT], "lower", "within bound"),
    # 30% worse, beyond the 24% bound.
    (PARENT, [1.3 * v for v in PARENT], "lower", "regression"),
    (PARENT, [0.7 * v for v in PARENT], "higher", "regression"),
    # Both sides spread over half their median, no median shift.
    ([0.5, 1.5] * 5, [1.5, 0.5] * 5, "lower", "unresolved"),
])
def test_verdict_follows_the_pair_rule(parent, change, better, expected):
    assert _verdict(parent, change, better) == expected


def test_wide_spread_is_resolved_only_when_every_change_run_is_better():
    parent = [2.0, 3.0] * 5  # quartile spread 1.0, wider than the allowed 0.6
    # Every change run is better, but the gap of 0.575 is inside the spread.
    assert _verdict(parent, [1.9, 1.95] * 5) == "within bound"
    # 10/10 wins again, but one change run is worse than a parent run.
    assert _verdict(parent, [1.5, 2.9] * 5) == "unresolved"
