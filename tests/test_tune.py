"""Auto-tuning: search spaces, optimizers, objectives, and the driver."""

import dataclasses
import json
import math
import random

import pytest

from repro.errors import TuneError
from repro.pipeline.config import RunConfig
from repro.tune import (
    BUILTIN_SPACES,
    Dimension,
    SearchSpace,
    TuneDriver,
    get_objective,
    load_space,
    make_optimizer,
)

BASE = RunConfig(dataset="fb", batch_size=500, num_batches=2)

DEMO = BUILTIN_SPACES["demo"]

#: DEMO plus a categorical dimension (no built-in space has one).
MODES = SearchSpace("modes", DEMO.dimensions + (
    Dimension("mode", "mode", "categorical", choices=("abr", "abr_usc")),
))


# -- search space ------------------------------------------------------------


def test_space_json_round_trip():
    for space in (*BUILTIN_SPACES.values(), MODES):
        assert SearchSpace.from_json(space.to_json()) == space


def test_dimension_bounds_validation():
    with pytest.raises(TuneError, match="low < high"):
        Dimension("x", "batch_size", "integer", low=10, high=10)
    with pytest.raises(TuneError, match="kind"):
        Dimension("x", "batch_size", "boolean", low=1, high=2)
    with pytest.raises(TuneError, match="low > 0"):
        Dimension("x", "pr_tolerance", "continuous", low=0.0, high=1.0, log=True)
    with pytest.raises(TuneError, match="choices"):
        Dimension("x", "mode", "categorical")
    with pytest.raises(TuneError, match="pow2"):
        Dimension("x", "pr_tolerance", "continuous", low=1, high=2,
                  transform="pow2")


def test_space_rejects_bad_field_paths():
    with pytest.raises(TuneError, match="not a RunConfig field"):
        SearchSpace("s", (Dimension("x", "warp", "integer", low=1, high=2),))
    with pytest.raises(TuneError, match="not a field of ABRConfig"):
        SearchSpace("s", (Dimension("x", "abr.warp", "integer", low=1, high=2),))
    with pytest.raises(TuneError, match="not a nested config"):
        SearchSpace("s", (Dimension("x", "dataset.name", "integer",
                                    low=1, high=2),))


def test_apply_sets_top_level_and_nested_fields():
    config = MODES.apply(BASE, {
        "abr_threshold": 300.0, "abr_n": 5,
        "batch_size": 1000, "mode": "abr",
    })
    assert config.batch_size == 1000
    assert config.mode == "abr"
    # Nested ABRConfig is instantiated from defaults (BASE carries None)
    # with only the assigned fields moved.
    assert config.abr.threshold == 300.0
    assert config.abr.n == 5
    assert config.abr.lam == 256  # untouched default


def test_apply_partial_assignment_keeps_base_values():
    config = MODES.apply(BASE, {"abr_n": 7})
    assert config.batch_size == BASE.batch_size
    assert config.mode == BASE.mode
    assert config.abr.n == 7


def test_apply_rejects_unknown_and_out_of_bounds():
    with pytest.raises(TuneError, match="unknown dimensions"):
        DEMO.apply(BASE, {"warp_factor": 1})
    with pytest.raises(TuneError, match="outside"):
        DEMO.apply(BASE, {"batch_size": 10})
    with pytest.raises(TuneError, match="not one of"):
        MODES.apply(BASE, {"mode": "btree"})


def test_pow2_transform_maps_bits_to_cost():
    full = BUILTIN_SPACES["full"]
    config = full.apply(BASE, {"usc_hash_bits": 3})
    assert config.costs.usc_hash_insert == 8.0


def test_sample_stays_in_bounds():
    rng = random.Random(0)
    for _ in range(50):
        assignment = BUILTIN_SPACES["full"].sample(rng)
        # apply() re-validates every value against its dimension's domain.
        BUILTIN_SPACES["full"].apply(BASE, assignment)


def test_grid_assignments_cover_budget():
    grid = MODES.grid_assignments(10)
    assert len(grid) >= 10
    assert len({json.dumps(a, sort_keys=True) for a in grid}) == len(grid)


def test_load_space_builtin_file_and_unknown(tmp_path):
    assert load_space("demo") is DEMO
    path = tmp_path / "space.json"
    path.write_text(DEMO.to_json())
    assert load_space(str(path)) == DEMO
    with pytest.raises(TuneError, match="unknown search space"):
        load_space("nope")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TuneError, match="not valid JSON"):
        load_space(str(bad))


# -- optimizers --------------------------------------------------------------


def test_unknown_optimizer_rejected():
    with pytest.raises(TuneError, match="unknown optimizer"):
        make_optimizer("annealing", DEMO)


def test_random_search_deterministic_per_trial():
    a = make_optimizer("random", DEMO, seed=5)
    b = make_optimizer("random", DEMO, seed=5)
    b.tell(1, a.ask(1), 1.0)  # history must not change proposals
    for trial_id in (1, 2, 3):
        assert a.ask(trial_id) == b.ask(trial_id)
    assert make_optimizer("random", DEMO, seed=6).ask(1) != a.ask(1)


def test_grid_search_exhausts():
    opt = make_optimizer("grid", DEMO, trials=5)
    seen = [opt.ask(i) for i in range(1, 5)]
    assert all(a is not None for a in seen)
    assert len({json.dumps(a, sort_keys=True) for a in seen}) == 4
    total = len(opt._assignments)
    assert opt.ask(total + 1) is None  # walked off the grid


def test_tpe_proposes_in_bounds_after_history():
    opt = make_optimizer("tpe", MODES, seed=1)
    rng = random.Random(2)
    for trial_id in range(1, 9):
        assignment = MODES.sample(rng)
        score = -abs(assignment["abr_n"] - 10)  # peak at abr_n == 10
        opt.tell(trial_id, assignment, score)
    opt.tell(0, {}, 0.5)  # the baseline's empty assignment must not crash it
    proposal = opt.ask(9)
    MODES.apply(BASE, proposal)  # validates every value
    again = make_optimizer("tpe", MODES, seed=1)
    for trial_id, assignment, score in opt.history:
        again.tell(trial_id, assignment, score)
    assert again.ask(9) == proposal  # deterministic given (seed, history)


# -- objectives --------------------------------------------------------------


def test_unknown_objective_rejected():
    with pytest.raises(TuneError, match="unknown objective"):
        get_objective("latency_p99")


def test_objectives_score_a_real_run():
    from repro.pipeline.executor import run_matrix

    config = dataclasses.replace(BASE, telemetry="basic")
    [result] = run_matrix([config])
    throughput = get_objective("ingest_throughput").score(result, config)
    assert throughput > 0
    per_edge = get_objective("update_time").score(result, config)
    assert per_edge < 0  # negated cost
    speedup = get_objective("ro_speedup").score(result, config)
    assert speedup > 0
    edges = result.telemetry.counter("update.edges")
    assert throughput == pytest.approx(edges / result.total_time)
    # The engine records every software strategy's counterfactual makespan.
    assert result.telemetry.counter("update.alt.baseline") > 0
    assert result.telemetry.counter("update.alt.reorder") > 0


def test_ro_speedup_requires_telemetry():
    from repro.pipeline.executor import run_matrix

    [result] = run_matrix([BASE])  # telemetry off -> no snapshot
    with pytest.raises(TuneError, match="instrumented"):
        get_objective("ro_speedup").score(result, BASE)


# -- driver ------------------------------------------------------------------


def _driver(tmp_path, **overrides):
    kwargs = dict(
        out_dir=tmp_path / "search",
        trials=4,
        seed=3,
        jobs=1,
    )
    kwargs.update(overrides)
    return TuneDriver(DEMO, BASE, **kwargs)


def test_driver_baseline_guarantee_and_outputs(tmp_path):
    result = _driver(tmp_path).run()
    assert len(result.trials) == 4
    assert [t.trial_id for t in result.trials] == [0, 1, 2, 3]
    baseline = result.trials[0]
    assert baseline.assignment == {}
    assert result.best.score >= baseline.score  # incumbent always present
    # best_config.json round-trips into the winning RunConfig.
    payload = json.loads((tmp_path / "search" / "best_config.json").read_text())
    assert RunConfig.from_dict(payload["config"]) == result.best_config
    trajectory = (tmp_path / "search" / "trajectory.csv").read_text()
    assert trajectory.count("\n") == 5  # header + one row per trial
    assert result.telemetry.counter("tune.trials") == 4


def test_driver_deterministic_across_job_counts(tmp_path):
    serial = _driver(tmp_path / "a").run()
    parallel = _driver(tmp_path / "b", jobs=2).run()
    assert [t.score for t in serial.trials] == [t.score for t in parallel.trials]
    assert [t.assignment for t in serial.trials] == [
        t.assignment for t in parallel.trials
    ]


def test_driver_resumes_from_journal(tmp_path):
    first = _driver(tmp_path, trials=2).run()
    resumed = _driver(tmp_path, trials=4).run()
    assert resumed.resumed == 2
    assert resumed.trials[:2] == first.trials
    fresh = _driver(tmp_path / "fresh", trials=4).run()
    # A resumed search lands exactly where the uninterrupted one does.
    assert [t.score for t in resumed.trials] == [t.score for t in fresh.trials]


def test_driver_rejects_mismatched_journal(tmp_path):
    _driver(tmp_path, trials=2).run()
    with pytest.raises(TuneError, match="different search"):
        _driver(tmp_path, seed=4).run()


def test_driver_rejects_corrupt_journal_body(tmp_path):
    driver = _driver(tmp_path, trials=2)
    driver.run()
    lines = driver.journal_path.read_text().splitlines()
    lines[1] = '{"type": "trial", "trial_id":'  # torn *non-tail* line
    driver.journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TuneError, match="corrupt tune journal"):
        _driver(tmp_path, trials=2).run()


def test_driver_tolerates_torn_journal_tail(tmp_path):
    driver = _driver(tmp_path, trials=2)
    driver.run()
    with open(driver.journal_path, "a") as handle:
        handle.write('{"type": "trial", "trial_id": 99, "sco')
    result = _driver(tmp_path).run()  # torn tail ignored, search continues
    assert len(result.trials) == 4


def test_driver_records_failed_trials(tmp_path, monkeypatch):
    import repro.tune.driver as driver_mod
    from repro.pipeline.executor import CellResult

    real = driver_mod.run_matrix

    def fail_trial_two(configs, **kwargs):
        results = real(configs, **kwargs)
        return [
            CellResult.failed(r.spec, "RuntimeError: injected trial crash")
            if config.abr is not None and config.abr.n == 13
            else r
            for config, r in zip(configs, results)
        ]

    monkeypatch.setattr(driver_mod, "run_matrix", fail_trial_two)
    result = _driver(tmp_path).run()
    failed = [t for t in result.trials if not t.ok]
    assert len(failed) == 1
    assert "injected trial crash" in failed[0].error
    assert failed[0].score is None
    assert result.best.ok  # search completed around the crash
    assert result.telemetry.counter("tune.trials.failed") == 1


def test_driver_edge_budget_and_instrumentation(tmp_path):
    driver = _driver(tmp_path)
    config = driver._trial_config({"batch_size": 1000})
    assert config.num_batches == 1  # 500 * 2 edges repacked into 1000s
    assert config.telemetry == "basic"  # bumped for objective counters
    same = driver._trial_config({"abr_n": 4})
    assert same.num_batches == BASE.num_batches


def test_driver_requires_bounded_workload(tmp_path):
    unbounded = dataclasses.replace(BASE, num_batches=None)
    with pytest.raises(TuneError, match="bounded workload"):
        TuneDriver(DEMO, unbounded, out_dir=tmp_path)


def test_driver_trial_checkpoints_are_namespaced(tmp_path):
    result = _driver(tmp_path, checkpoint_every=1).run()
    root = tmp_path / "search" / "checkpoints"
    trial_dirs = sorted(p.name for p in root.iterdir())
    assert trial_dirs == [f"trial-{i:06d}" for i in range(4)]
    assert all(any(d.glob("ckpt-*.ckpt")) for d in root.iterdir())
    # Checkpointing must not perturb the modeled results.
    plain = _driver(tmp_path / "plain").run()
    assert [t.score for t in result.trials] == [t.score for t in plain.trials]


def test_trajectory_chart_renders_failures_and_best():
    from repro.analysis.visualize import trajectory_chart

    chart = trajectory_chart([1.0, None, 3.0, 2.0], title="t")
    lines = chart.splitlines()
    assert lines[0] == "t"
    assert lines[1].endswith("*")  # first score is the first best
    assert "x (failed)" in lines[2]
    assert lines[3].endswith("*")  # new best
    assert not lines[4].endswith("*")


def test_trajectory_chart_rejects_empty():
    from repro.analysis.visualize import trajectory_chart
    from repro.errors import AnalysisError

    with pytest.raises(AnalysisError):
        trajectory_chart([])
    with pytest.raises(AnalysisError):
        trajectory_chart([None, None])
