"""The A/B summary of tools/bench_ab.py (medians, quartiles, wins)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [
    {"name": "edges_per_s", "unit": "edges/s", "better": "higher", "bound": 0.25},
    {"name": "visible_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _run(edges, p50, failed=0, correct=True):
    return {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {
            "edges_per_s": {"value": edges, "unit": "edges/s"},
            "visible_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def test_summary_counts_wins_in_each_metrics_direction():
    pairs = [
        {"base": _run(100, 50), "change": _run(130, 40)},
        {"base": _run(110, 45), "change": _run(105, 47)},
        {"base": _run(90, 55), "change": _run(120, 44)},
        {"base": _run(100, 50), "change": _run(125, 50, failed=10, correct=False)},
    ]
    summary = bench_ab.summarize(pairs, METRICS)
    assert summary["pairs"] == 4
    assert summary["metrics"]["edges_per_s"]["wins"] == 3
    # A tie is not a win.
    assert summary["metrics"]["visible_p50_ms"]["wins"] == 2
    base = summary["metrics"]["edges_per_s"]["base"]
    assert base["median"] == 100
    assert base["q1"] == pytest.approx(97.5) and base["q3"] == pytest.approx(102.5)
    assert summary["change"] == {"correct_runs": 3, "failed": 10, "attempted": 40}
    assert summary["base"] == {"correct_runs": 4, "failed": 0, "attempted": 40}


def test_report_prints_every_metric_and_side(capsys):
    pairs = [{"base": _run(100, 50), "change": _run(120, 40)}]
    summary = bench_ab.summarize(pairs, METRICS)
    summary.update(base_rev="HEAD", workload="pr-lj", seeds=[1, 1])
    bench_ab.report(summary)
    out = capsys.readouterr().out
    assert "edges_per_s" in out and "visible_p50_ms" in out
    assert "base: 1/1 runs correct" in out and "change: 1/1 runs correct" in out


def test_single_pair_quartiles_collapse_to_the_value():
    summary = bench_ab.summarize(
        [{"base": _run(100, 50), "change": _run(120, 40)}], METRICS
    )
    assert summary["metrics"]["edges_per_s"]["change"] == {
        "median": 120, "q1": 120, "q3": 120,
    }
