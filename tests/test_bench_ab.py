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
    # A failed run that printed no check indicts the program.
    assert summary["change"] == {
        "correct_runs": 3, "failed": 10, "attempted": 40,
        "failed_runs": {"host": 0, "program": 1}, "failed_checks": [],
    }
    assert summary["base"] == {
        "correct_runs": 4, "failed": 0, "attempted": 40,
        "failed_runs": {"host": 0, "program": 0}, "failed_checks": [],
    }


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


def _pairs(base_p50, change_p50, edges=(100, 100)):
    """One pair per (base, change) visible_p50_ms value."""
    return [
        {"base": _run(edges[0], b), "change": _run(edges[1], c)}
        for b, c in zip(base_p50, change_p50)
    ]


def _verdicts(pairs):
    summary = bench_ab.summarize(pairs, METRICS)
    return {name: entry["verdict"] for name, entry in summary["metrics"].items()}


def test_gain_needs_nine_tenths_of_the_pairs_and_the_base_spread():
    base = [15.0, 14.0, 14.5, 15.5, 16.0, 14.2, 15.1, 14.8, 15.3, 14.9]
    assert _verdicts(_pairs(base, [9.5] * 10))["visible_p50_ms"] == "gain"
    # 8/10 wins is not a gain, however large the difference.
    eight = [9.5] * 8 + [20.0, 20.0]
    assert _verdicts(_pairs(base, eight))["visible_p50_ms"] == "within its bound"
    # 10/10 wins by less than the base's q3 - q1 is not a gain either.
    close = [b - 0.01 for b in base]
    assert _verdicts(_pairs(base, close))["visible_p50_ms"] == "within its bound"


def test_worse_than_its_bound():
    verdicts = _verdicts(_pairs([10.0] * 4, [13.0] * 4, edges=(100, 70)))
    assert verdicts == {
        "edges_per_s": "worse than its bound",
        "visible_p50_ms": "worse than its bound",
    }


def test_wide_base_spread_is_unresolved_unless_the_change_wins_every_run():
    base = [10.0, 20.0] * 5  # q3 - q1 = 10: wider than 25% of 15
    assert _verdicts(_pairs(base, [16.0, 14.0] * 5))[
        "visible_p50_ms"] == "unresolved"
    # Every change run beats every base run, yet the median gap (5.3) does
    # not pass the spread: not a gain, but not unresolved either.
    assert _verdicts(_pairs(base, [9.9, 9.5] * 5))[
        "visible_p50_ms"] == "within its bound"
    assert _verdicts(_pairs(base, [2.0, 3.0] * 5))[
        "visible_p50_ms"] == "gain"


def test_metrics_without_a_bound_get_only_the_gain_test():
    layer = [{"name": "edges_per_s", "unit": "edges/s", "better": "higher"}]
    pairs = _pairs([10.0] * 10, [10.0] * 10, edges=(100, 50))
    summary = bench_ab.summarize(pairs, layer)
    assert summary["metrics"]["edges_per_s"]["verdict"] == "no gain"
    pairs = _pairs([10.0] * 10, [10.0] * 10, edges=(100, 150))
    summary = bench_ab.summarize(pairs, layer)
    assert summary["metrics"]["edges_per_s"]["verdict"] == "gain"


@pytest.mark.parametrize("count", [1, 9])
def test_a_gain_needs_ten_pairs_but_a_regression_shows_at_any_count(count):
    base = [15.0, 14.0, 14.5, 15.5, 16.0, 14.2, 15.1, 14.8, 15.3][:count]
    verdicts = _verdicts(_pairs(base, [9.5] * count, edges=(100, 70)))
    assert verdicts == {
        "edges_per_s": "worse than its bound",
        "visible_p50_ms": "too few pairs",
    }
    layer = [{"name": "edges_per_s", "unit": "edges/s", "better": "higher"}]
    summary = bench_ab.summarize(_pairs(base, base, edges=(100, 150)), layer)
    assert summary["metrics"]["edges_per_s"]["verdict"] == "too few pairs"


def test_trace_runs_traced_and_compares_the_per_layer_metrics(monkeypatch, capsys):
    spec = bench_ab.json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(tree, workload, seed, seconds, trace, pycache):
        calls.append(trace)
        return {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {m["name"]: {"value": 1.0} for m in spec["per_layer"]},
        }

    monkeypatch.setattr(bench_ab, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "run_once", fake_run)
    assert bench_ab.main(["--base", "HEAD", "--workload", "serve-fb",
                          "--pairs", "2", "--trace", "1"]) == 0
    assert calls == [1, 1, 1, 1]
    summary = bench_ab.json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["trace"] == 1
    assert list(summary["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert {e["verdict"] for e in summary["metrics"].values()} == {"no gain"}


def _stdout(run, *before):
    """perfbench's stdout: diagnostic lines, then the run's JSON line."""
    return "\n".join(["machine probe: 0.1000 s (diagnostic only)", *before,
                      bench_ab.json.dumps(run)]) + "\n"


def test_parse_run_keeps_failed_checks_and_server_cpu():
    plain = bench_ab.parse_run(_stdout(_run(100, 50), "edges_per_s: 100 edges/s"))
    assert plain["checks_failed"] == [] and plain["server_cpu_s"] is None
    assert plain["metrics"]["edges_per_s"]["value"] == 100
    traced = bench_ab.parse_run(_stdout(
        _run(100, 50, failed=4, correct=False),
        "CHECK FAILED: 4 edges never became visible",
        "CHECK FAILED: lag_edges 12 != 0 at the end",
        "  unattributed      6.70 ms (send lateness, admission, cut, watermark polling)",
        "server CPU s: untraced 7.712, traced 8.950",
    ))
    assert traced["checks_failed"] == [
        "4 edges never became visible", "lag_edges 12 != 0 at the end",
    ]
    assert traced["server_cpu_s"] == 7.712
    assert traced["correct"] is False and traced["failed"] == 4


def test_failed_checks_print_under_their_pair_and_reach_the_summary(
    monkeypatch, capsys,
):
    spec = bench_ab.json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text())

    def fake_run(tree, workload, seed, seconds, trace, pycache):
        correct = not (tree == bench_ab.ROOT and seed == 8)
        lines = [] if correct else ["CHECK FAILED: 32 degree answers wrong"]
        run = {
            "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
        }
        return {**bench_ab.parse_run(_stdout(run, *lines)), "seed": seed}

    monkeypatch.setattr(bench_ab, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "run_once", fake_run)
    assert bench_ab.main(["--base", "HEAD", "--workload", "serve-fb",
                          "--pairs", "2", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    at = lines.index("  CHECK FAILED: 32 degree answers wrong [program]")
    assert lines[at - 1].startswith("pair 2/2 seed 8 change: correct=False")
    assert "  seed 8: CHECK FAILED: 32 degree answers wrong [program]" in lines
    summary = bench_ab.json.loads(lines[-1])
    assert summary["change"]["failed_checks"] == [
        {"seed": 8, "check": "32 degree answers wrong"},
    ]
    assert summary["base"]["failed_checks"] == []
    assert "server_cpu_s" not in summary  # untraced runs do not print it


def test_host_lateness_and_program_checks_are_told_apart(monkeypatch, capsys):
    """A run that failed only the generator's lateness check failed on the
    host; one that failed any other check failed in the program."""
    spec = bench_ab.json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text())
    late = "generator fell behind: 3 sends over 50 ms late"
    checks = {
        ("base", 1): [late],
        ("change", 2): [late, "32 degree answers wrong"],
        ("change", 3): [late],
        ("change", 4): ["4 submissions never became visible"],
    }

    def fake_run(tree, workload, seed, seconds, trace, pycache):
        side = "change" if tree == bench_ab.ROOT else "base"
        lines = checks.get((side, seed), [])
        run = {
            "correct": not lines, "attempted": 10, "failed": len(lines),
            "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
        }
        return {**bench_ab.parse_run(
            _stdout(run, *(f"CHECK FAILED: {line}" for line in lines))
        ), "seed": seed}

    monkeypatch.setattr(bench_ab, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "run_once", fake_run)
    assert bench_ab.main(["--base", "HEAD", "--workload", "serve-fb",
                          "--pairs", "4", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = bench_ab.json.loads(lines[-1])
    assert summary["base"]["failed_runs"] == {"host": 1, "program": 0}
    assert summary["change"]["failed_runs"] == {"host": 1, "program": 2}
    assert f"  seed 1: CHECK FAILED: {late} [host]" in lines
    assert f"  seed 2: CHECK FAILED: {late} [host]" in lines
    assert "  seed 2: CHECK FAILED: 32 degree answers wrong [program]" in lines
    assert any(line.startswith("base: 3/4 runs correct") and
               line.endswith("failed runs: 1 host, 0 program") for line in lines)
    assert any(line.startswith("change: 1/4 runs correct") and
               line.endswith("failed runs: 1 host, 2 program") for line in lines)


def test_server_cpu_is_a_row_without_a_verdict(capsys):
    def run(cpu):
        return {**_run(100, 50), "server_cpu_s": cpu}

    pairs = [{"base": run(b), "change": run(c)}
             for b, c in [(9.4, 7.7), (10.5, 8.4), (10.0, 8.0)]]
    summary = bench_ab.summarize(pairs, METRICS)
    cpu = summary["server_cpu_s"]
    assert cpu["base"] == {"median": 10.0, "q1": 9.7, "q3": 10.25}
    assert cpu["change"]["median"] == 8.0
    assert cpu["verdict"].startswith("no verdict: the closed-loop query client")
    assert "server_cpu_s" not in summary["metrics"]  # no gain test, no bound
    bench_ab.report(summary)
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("server_cpu_s"))
    assert "no verdict" in row and " - " in row
    # A side without the line (an untraced or offline run) drops the row.
    pairs[0]["base"]["server_cpu_s"] = None
    assert "server_cpu_s" not in bench_ab.summarize(pairs, METRICS)


def test_each_side_runs_with_its_own_fresh_bytecode_cache(monkeypatch, capsys):
    """The working tree's ``__pycache__`` must not shorten its ``setup_s``:
    each side compiles into its own cache, new under the temporary
    directory, and an inherited no-bytecode setting is dropped."""
    spec = bench_ab.json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text())
    run = {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
    }
    envs = []

    def fake_subprocess_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        # Fresh: nothing compiled into it before this side's first run.
        fresh = not any(e["PYTHONPYCACHEPREFIX"] == str(prefix) for e in envs)
        assert not fresh or not prefix.exists()
        envs.append({**env, "cwd": Path(cwd)})
        return bench_ab.subprocess.CompletedProcess(
            cmd, 0, stdout=_stdout(run), stderr=""
        )

    monkeypatch.setattr(bench_ab, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab.subprocess, "run", fake_subprocess_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/somewhere/shared")
    assert bench_ab.main(["--base", "HEAD", "--workload", "pr-lj",
                          "--pairs", "2"]) == 0
    capsys.readouterr()
    assert len(envs) == 4
    assert not any("PYTHONDONTWRITEBYTECODE" in env for env in envs)
    prefix = {}
    for env in envs:
        side = "change" if env["cwd"] == bench_ab.ROOT else "base"
        prefix.setdefault(side, set()).add(env["PYTHONPYCACHEPREFIX"])
    assert all(len(p) == 1 for p in prefix.values())  # one cache per side
    base, change = (Path(prefix[side].pop()) for side in ("base", "change"))
    assert base != change
    # Both live in the temporary directory, beside the exported base.
    tmp = next(e["cwd"] for e in envs if e["cwd"] != bench_ab.ROOT).parent
    assert base.parent == tmp and change.parent == tmp
    assert not change.is_relative_to(bench_ab.ROOT)
