"""Telemetry subsystem: core primitives, aggregation, exporters, reports."""

import json
import math
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.pipeline.config import RunConfig
from repro.pipeline.executor import merged_telemetry, run_matrix
from repro.telemetry.core import (
    NULL_TELEMETRY,
    Decision,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    as_telemetry,
    make_telemetry,
    merge_snapshots,
)
from repro.telemetry.export import to_prometheus, write_prometheus_textfile


# -- primitives ---------------------------------------------------------------

def test_counters_accumulate():
    tel = Telemetry("basic")
    tel.count("a")
    tel.count("a", 2.5)
    tel.count("b", 4)
    snap = tel.snapshot()
    assert snap.counter("a") == 3.5
    assert snap.counter("b") == 4
    assert snap.counter("missing") == 0.0


def test_gauges_keep_last_value():
    tel = Telemetry("basic")
    tel.gauge("g", 0.25)
    tel.gauge("g", 0.75)
    assert tel.snapshot().gauges["g"] == 0.75


def test_histogram_buckets_are_power_of_two():
    tel = Telemetry("full")
    for value in (0.5, 1, 2, 3, 1000):
        tel.observe("h", value)
    hist = tel.snapshot().histograms["h"]
    assert hist.count == 5
    assert hist.total == pytest.approx(1006.5)
    assert hist.min == 0.5 and hist.max == 1000
    # 0.5 and 1 -> bucket 0; 2 -> 1; 3 -> 2; 1000 -> ceil(log2(1000)) = 10.
    assert dict(hist.buckets) == {0: 2, 1: 1, 2: 1, 10: 1}
    assert hist.mean == pytest.approx(1006.5 / 5)


def test_span_timing_and_nesting():
    tel = Telemetry("full")
    with tel.span("outer"):
        with tel.span("inner"):
            pass
        with tel.span("inner"):
            pass
    spans = tel.snapshot().spans
    assert spans["outer"].count == 1
    assert spans["inner"].count == 2
    assert spans["outer"].total >= spans["inner"].total >= 0.0
    assert spans["inner"].min <= spans["inner"].max
    assert tel._max_span_depth == 2


def test_basic_level_skips_clock_reads():
    tel = Telemetry("basic")
    with tel.span("never"):
        tel.observe("also_never", 42)
    snap = tel.snapshot()
    assert snap.spans == {}
    assert snap.histograms == {}
    assert snap.level == "basic"


def test_decision_ledger_records_inputs():
    tel = Telemetry("basic")
    tel.decision("abr", choice="reorder", batch_id=3, cad=12.5, threshold=10.0)
    (d,) = tel.snapshot().decisions
    assert d.kind == "abr" and d.choice == "reorder" and d.batch_id == 3
    assert d.input("cad") == 12.5
    assert d.input("threshold") == 10.0
    assert d.input("nope", "fallback") == "fallback"


def test_decision_ledger_caps():
    from repro.telemetry import core

    tel = Telemetry("basic")
    original = core.MAX_DECISIONS
    core.MAX_DECISIONS = 5
    try:
        for i in range(8):
            tel.decision("abr", choice="x", batch_id=i)
    finally:
        core.MAX_DECISIONS = original
    snap = tel.snapshot()
    assert len(snap.decisions) == 5
    assert snap.counter("ledger.dropped") == 3


# -- null backend -------------------------------------------------------------

def test_null_backend_is_inert_and_shared():
    assert as_telemetry(None) is NULL_TELEMETRY
    assert make_telemetry(None) is NULL_TELEMETRY
    assert make_telemetry("off") is NULL_TELEMETRY
    assert not NULL_TELEMETRY.enabled
    NULL_TELEMETRY.count("x", 5)
    NULL_TELEMETRY.gauge("g", 1)
    NULL_TELEMETRY.observe("h", 1)
    NULL_TELEMETRY.decision("abr", choice="x")
    with NULL_TELEMETRY.span("s"):
        pass
    snap = NULL_TELEMETRY.snapshot()
    assert snap.counters == {} and snap.decisions == ()
    # The no-op span context manager is a shared singleton — hot paths
    # entering disabled spans allocate nothing.
    assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
    assert NullTelemetry.__slots__ == ()


def test_make_telemetry_rejects_unknown_level():
    with pytest.raises(ConfigurationError):
        make_telemetry("verbose")
    with pytest.raises(ConfigurationError):
        Telemetry("off")  # the null backend owns "off"


# -- snapshots: merge + serialization ----------------------------------------

def _sample_snapshot(scale: float = 1.0) -> TelemetrySnapshot:
    tel = Telemetry("full")
    tel.count("edges", 100 * scale)
    tel.gauge("fraction", 0.5 * scale)
    tel.observe("sizes", 8 * scale)
    with tel.span("stage.update"):
        pass
    tel.decision("abr", choice="reorder", batch_id=int(scale), cad=scale)
    return tel.snapshot()


def test_merge_sums_counters_pools_spans_concatenates_ledgers():
    a, b = _sample_snapshot(1.0), _sample_snapshot(2.0)
    merged = merge_snapshots([a, b])
    assert merged.counter("edges") == 300
    assert merged.gauges["fraction"] == 1.0  # last-merged wins
    assert merged.spans["stage.update"].count == 2
    hist = merged.histograms["sizes"]
    assert hist.count == 2 and hist.total == pytest.approx(24.0)
    assert [d.batch_id for d in merged.decisions] == [1, 2]
    # Merge is deterministic in input order, not commutative for gauges.
    again = merge_snapshots([a, b])
    assert again == merged


def test_snapshot_dict_round_trip():
    snap = _sample_snapshot()
    restored = TelemetrySnapshot.from_dict(
        json.loads(json.dumps(snap.to_dict()))
    )
    assert restored == snap


def test_snapshot_pickles():
    snap = _sample_snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap


def test_decision_dict_round_trip():
    d = Decision(kind="oca", choice="defer", batch_id=None,
                 inputs=(("overlap", 0.4), ("threshold", 0.3)))
    assert Decision.from_dict(d.to_dict()) == d


# -- executor aggregation -----------------------------------------------------

def test_worker_aggregation_is_deterministic():
    # "basic" level records no wall-clock, so the merged aggregate must be
    # *identical* regardless of worker count.
    configs = [
        RunConfig(dataset=name, batch_size=500, algorithm="none",
                  mode="abr", num_batches=3, telemetry="basic")
        for name in ("fb", "wiki")
    ]
    serial = merged_telemetry(run_matrix(configs, jobs=1))
    parallel = merged_telemetry(run_matrix(configs, jobs=2))
    assert serial is not None
    assert serial.counter("pipeline.batches") == 6
    assert serial.counter("update.batches") == 6
    assert [d.kind for d in serial.decisions].count("strategy") == 6
    assert parallel == serial


def test_uninstrumented_cells_have_no_snapshot():
    configs = [RunConfig(dataset="fb", batch_size=500, algorithm="none",
                         mode="baseline", num_batches=2)]
    results = run_matrix(configs)
    assert results[0].telemetry is None
    assert merged_telemetry(results) is None


# -- pipeline instrumentation -------------------------------------------------

def test_pipeline_records_stages_counters_and_ledger(flat_profile):
    from repro.pipeline.runner import StreamingPipeline
    from repro.update.engine import UpdatePolicy

    tel = Telemetry("full")
    pipeline = StreamingPipeline(
        flat_profile, 200, "pr_static", UpdatePolicy.ABR_USC, telemetry=tel
    )
    pipeline.run(4)
    snap = tel.snapshot()
    for name in ("stage.generate", "stage.update", "stage.observe",
                 "stage.compute", "stage.record"):
        assert snap.spans[name].count == 4, name
    assert snap.counter("pipeline.batches") == 4
    assert snap.counter("update.batches") == 4
    assert snap.counter("update.edges") == 800
    # Attached to the empty graph, the snapshotter splices every round.
    assert snap.counter("snapshot.delta_patches") == 4
    assert snap.counter("snapshot.full_rebuilds") == 0
    assert snap.histograms["pipeline.batch_edges"].count == 4
    assert len(snap.decisions_of("strategy")) == 4
    assert snap.decisions_of("abr")  # at least the first active batch
    abr = snap.decisions_of("abr")[0]
    assert abr.input("cad") is not None
    assert abr.input("threshold") is not None


def test_oca_decisions_reach_ledger(skewed_profile):
    from repro.compute.oca import OCAConfig
    from repro.pipeline.runner import StreamingPipeline
    from repro.update.engine import UpdatePolicy

    tel = Telemetry("basic")
    StreamingPipeline(
        skewed_profile, 500, "none", UpdatePolicy.BASELINE,
        use_oca=True, oca_config=OCAConfig(overlap_threshold=0.01, n=2),
        telemetry=tel,
    ).run(4)
    snap = tel.snapshot()
    assert snap.counter("oca.measurements") >= 1
    assert snap.counter("pipeline.deferred_batches") >= 1
    oca = snap.decisions_of("oca")
    assert oca and all(d.input("threshold") == 0.01 for d in oca)
    assert {d.choice for d in oca} <= {"aggregate", "pass"}


def test_hau_telemetry_counters():
    from repro.exec_model.machine import SIMULATED_MACHINE
    from repro.datasets.profiles import get_dataset
    from repro.pipeline.runner import StreamingPipeline
    from repro.hau.simulator import HAUSimulator
    from repro.update.engine import UpdatePolicy

    tel = Telemetry("full")
    StreamingPipeline(
        get_dataset("fb"), 500, "none", UpdatePolicy.ALWAYS_HAU,
        machine=SIMULATED_MACHINE, hau=HAUSimulator(), telemetry=tel,
    ).run(3)
    snap = tel.snapshot()
    assert snap.counter("hau.batches") == 3
    assert snap.counter("hau.tasks") > 0
    assert snap.counter("hau.noc_task_hops") > 0
    assert 0.0 <= snap.gauges["hau.local_fraction"] <= 1.0
    assert snap.histograms["hau.core_tasks"].count > 0


# -- exporters ----------------------------------------------------------------

def test_prometheus_exposition_format():
    snap = _sample_snapshot()
    text = to_prometheus(snap, labels={"dataset": "fb"})
    assert 'repro_edges_total{dataset="fb"} 100' in text
    assert 'repro_fraction{dataset="fb"} 0.5' in text
    # Histograms expose cumulative le buckets plus +Inf.
    assert 'le="+Inf"' in text
    assert "repro_sizes_count" in text or 'repro_sizes_bucket' in text
    assert text.endswith("\n")


def test_prometheus_textfile_is_atomic(tmp_path):
    target = tmp_path / "metrics" / "repro.prom"
    target.parent.mkdir()
    write_prometheus_textfile(_sample_snapshot(), target)
    content = target.read_text()
    assert "repro_edges_total" in content
    assert not list(target.parent.glob("*.tmp"))


# -- histogram quantiles ------------------------------------------------------

def test_histogram_quantiles_from_buckets():
    tel = Telemetry("full")
    for value in range(1, 101):  # 1..100
        tel.observe("h", value)
    hist = tel.snapshot().histograms["h"]
    # Bucketed quantiles are approximate: within the right power-of-two
    # bucket, clamped to observed [min, max].
    assert hist.quantile(0.0) == hist.min == 1
    assert hist.quantile(1.0) == hist.max == 100
    assert 32 <= hist.quantile(0.5) <= 64
    assert 64 <= hist.quantile(0.95) <= 100
    assert hist.quantile(0.5) <= hist.quantile(0.95) <= hist.quantile(0.99)
    p = hist.percentiles()
    assert set(p) == {"p50", "p95", "p99"}
    assert p["p50"] == hist.quantile(0.5)


def test_histogram_quantile_degenerate_cases():
    tel = Telemetry("full")
    tel.observe("single", 7.0)
    hist = tel.snapshot().histograms["single"]
    assert hist.quantile(0.5) == 7.0
    assert hist.percentiles() == {"p50": 7.0, "p95": 7.0, "p99": 7.0}


def test_render_summary_includes_percentiles_and_drop_warning():
    from repro.telemetry import core
    from repro.telemetry.export import render_summary

    tel = Telemetry("full")
    for value in (1, 2, 4, 8):
        tel.observe("sizes", value)
    original = core.MAX_DECISIONS
    core.MAX_DECISIONS = 2
    try:
        for i in range(5):
            tel.decision("abr", choice="x", batch_id=i)
    finally:
        core.MAX_DECISIONS = original
    text = render_summary(tel.snapshot())
    assert "p50~" in text and "p95~" in text and "p99~" in text
    assert "WARNING" in text and "3" in text


# -- math sanity --------------------------------------------------------------

def test_bucket_function_edges():
    from repro.telemetry.core import _bucket

    assert _bucket(0) == 0
    assert _bucket(1) == 0
    assert _bucket(2) == 1
    assert _bucket(1024) == 10
    assert _bucket(1025) == 11
    assert _bucket(2 ** 20) == 20
    assert _bucket(0.001) == 0
    assert _bucket(math.pi) == 2
