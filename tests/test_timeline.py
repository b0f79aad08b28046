"""Flight-recorder timeline: ring bounds, merging, Chrome export, trace
round-trips, and the per-cell timelines matrix executor workers return.

Snapshots with a ``shard`` id and a ``clock_offset`` stay covered: traces
written by older multi-process runs carry them and must still export.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.pipeline.config import RunConfig
from repro.pipeline.tracing import TraceWriter, read_trace_document
from repro.telemetry.core import NULL_TELEMETRY, Telemetry, make_telemetry
from repro.telemetry.timeline import (
    DEFAULT_TIMELINE_CAPACITY,
    TimelineRecorder,
    TimelineSnapshot,
    merge_timeline_snapshots,
    to_chrome_trace,
    write_chrome_trace,
)


# -- recorder primitives -------------------------------------------------------

def test_recorder_records_spans_and_instants():
    rec = TimelineRecorder(run_id="r1", process="coordinator")
    rec.span("stage.update", 10.0, 0.5, batch_id=3)
    rec.instant("checkpoint", batch_id=3, ts=10.6)
    snap = rec.snapshot()
    assert snap.run_id == "r1" and snap.process == "coordinator"
    assert snap.recorded == 2 and snap.dropped == 0
    assert snap.events == (
        ("X", "stage.update", 10.0, 0.5, 3),
        ("i", "checkpoint", 10.6, 0.0, 3),
    )
    assert snap.pid > 0
    assert snap.captured_at > 0.0


def test_ring_buffer_evicts_oldest_and_counts_drops():
    rec = TimelineRecorder(capacity=4)
    for i in range(7):
        rec.span("s", float(i), 0.1, batch_id=i)
    assert len(rec) == 4
    assert rec.recorded == 7
    assert rec.dropped == 3
    snap = rec.snapshot()
    # Flight-recorder semantics: the *end* of the run is retained.
    assert [ev[4] for ev in snap.events] == [3, 4, 5, 6]
    assert snap.recorded == 7 and snap.dropped == 3


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_TIMELINE_CAP", "2")
    assert TimelineRecorder().capacity == 2
    monkeypatch.setenv("REPRO_TIMELINE_CAP", "not-a-number")
    assert TimelineRecorder().capacity == DEFAULT_TIMELINE_CAPACITY
    monkeypatch.delenv("REPRO_TIMELINE_CAP")
    assert TimelineRecorder().capacity == DEFAULT_TIMELINE_CAPACITY
    # An explicit capacity wins over the environment.
    monkeypatch.setenv("REPRO_TIMELINE_CAP", "2")
    assert TimelineRecorder(capacity=9).capacity == 9


def test_snapshot_is_nondestructive():
    rec = TimelineRecorder()
    rec.span("a", 1.0, 0.1)
    first = rec.snapshot()
    rec.span("b", 2.0, 0.1)
    second = rec.snapshot()
    assert len(first.events) == 1
    assert len(second.events) == 2


def test_configure_assigns_identity_lazily():
    rec = TimelineRecorder()
    rec.configure(run_id="run-7", process="shard-2", shard=2)
    snap = rec.snapshot()
    assert (snap.run_id, snap.process, snap.shard) == ("run-7", "shard-2", 2)


# -- snapshot serialization ----------------------------------------------------

def _sample_snapshot(**overrides) -> TimelineSnapshot:
    fields = dict(
        run_id="r", process="coordinator", shard=None, pid=42,
        clock_offset=0.25, captured_at=99.0, recorded=2, dropped=0,
        events=(("X", "stage.update", 1.0, 0.5, 0), ("i", "mark", 2.0, 0.0, None)),
    )
    fields.update(overrides)
    return TimelineSnapshot(**fields)


def test_snapshot_dict_round_trip_through_json():
    snap = _sample_snapshot()
    restored = TimelineSnapshot.from_dict(json.loads(json.dumps(snap.to_dict())))
    assert restored == snap


def test_snapshot_pickles():
    snap = _sample_snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap


def test_shifted_accumulates_offset_and_aligns_spans():
    snap = _sample_snapshot(clock_offset=0.25).shifted(0.75)
    assert snap.clock_offset == 1.0
    ((start, end, batch_id),) = snap.spans_named("stage.update")
    assert (start, end, batch_id) == (2.0, 2.5, 0)
    assert snap.spans_named("missing") == []


# -- merging -------------------------------------------------------------------

def test_merge_coalesces_same_process_and_orders_coordinator_first():
    coord_a = _sample_snapshot(captured_at=10.0)
    coord_b = _sample_snapshot(
        captured_at=20.0, clock_offset=0.5, recorded=3,
        events=coord_a.events + (("X", "stage.update", 3.0, 0.5, 1),),
    )
    worker = _sample_snapshot(
        process="shard-0", shard=0, pid=43,
        events=(("X", "shard.apply", 1.1, 0.2, 0),),
    )
    merged = merge_timeline_snapshots([worker, coord_a, coord_b, None])
    assert len(merged) == 2
    assert merged[0].process == "coordinator"
    assert merged[1].process == "shard-0"
    # Duplicate events deduped, latest capture's offset kept, time order.
    assert len(merged[0].events) == 3
    assert merged[0].clock_offset == 0.5
    assert [ev[2] for ev in merged[0].events] == sorted(
        ev[2] for ev in merged[0].events
    )


# -- Chrome trace export -------------------------------------------------------

def test_chrome_trace_shape_tracks_and_units(tmp_path):
    coord = _sample_snapshot(clock_offset=0.0)
    worker = _sample_snapshot(
        process="shard-1", shard=1, pid=43, clock_offset=0.5,
        events=(("X", "shard.apply", 1.0, 0.25, 0),),
    )
    doc = to_chrome_trace([coord, worker])
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["run_ids"] == ["r"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["name"] for m in meta} == {
        "process_name", "thread_name", "thread_sort_index"
    }
    # Coordinator on tid 0, shard 1 on tid 2; distinct tracks.
    assert {(e["pid"], e["tid"]) for e in events if e["ph"] == "X"} == {
        (42, 0), (43, 2)
    }
    spans = [e for e in events if e["ph"] == "X"]
    # Earliest aligned event anchors the origin: coordinator span at ts=1.0
    # with offset 0 -> origin 1.0; worker span 1.0 + 0.5 -> 0.5s later.
    coord_span = next(e for e in spans if e["tid"] == 0)
    worker_span = next(e for e in spans if e["tid"] == 2)
    assert coord_span["ts"] == pytest.approx(0.0)
    assert coord_span["dur"] == pytest.approx(0.5e6)
    assert worker_span["ts"] == pytest.approx(0.5e6)
    assert coord_span["args"] == {"batch": 0}
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["s"] == "t" and "dur" not in instant

    out = tmp_path / "trace.json"
    written = write_chrome_trace(out, [coord, worker])
    assert json.loads(out.read_text()) == written
    assert not list(tmp_path.glob("*.tmp"))


# -- Telemetry integration -----------------------------------------------------

def test_full_level_carries_recorder_and_spans_feed_it():
    tel = Telemetry("full")
    assert tel.timeline is not None
    tel.set_batch(5)
    with tel.span("stage.update"):
        pass
    tel.decision("abr", choice="reorder", batch_id=7)
    snap = tel.timeline_snapshot()
    kinds = [(ev[0], ev[1], ev[4]) for ev in snap.events]
    assert ("X", "stage.update", 5) in kinds
    assert ("i", "decision.abr:reorder", 7) in kinds


def test_basic_and_null_levels_have_no_recorder():
    assert Telemetry("basic").timeline is None
    assert Telemetry("basic").timeline_snapshot() is None
    assert NULL_TELEMETRY.timeline is None
    assert NULL_TELEMETRY.timeline_snapshot() is None
    NULL_TELEMETRY.set_batch(3)  # must be a no-op, not an AttributeError


# -- trace schema v2 round trip ------------------------------------------------

def test_trace_file_round_trips_timeline_lines(tmp_path, flat_profile):
    from repro.pipeline.runner import StreamingPipeline
    from repro.update.engine import UpdatePolicy

    path = tmp_path / "run.jsonl"
    trace = TraceWriter(path)
    tel = Telemetry("full")
    pipeline = StreamingPipeline(
        flat_profile, 200, "none", UpdatePolicy.BASELINE,
        telemetry=tel, trace=trace,
    )
    pipeline.run(3)
    trace.close()

    doc = read_trace_document(path)
    assert len(doc.events) == 3
    assert len(doc.timelines) == 1
    (snap,) = doc.timelines
    assert snap.run_id == pipeline.run_id
    assert snap.process == "coordinator"
    assert any(ev[1] == "pipeline.batch" for ev in snap.events)
    # The timeline payload survives a JSON round trip bit-exactly.
    assert TimelineSnapshot.from_dict(snap.to_dict()) == snap


def test_trace_reader_tolerates_unknown_and_timeline_lines(tmp_path):
    path = tmp_path / "mixed.jsonl"
    trace = TraceWriter(path)
    trace.write_timeline(_sample_snapshot())
    trace.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "someday", "schema_version": 9}) + "\n")
    doc = read_trace_document(path)
    assert len(doc.timelines) == 1
    assert doc.timelines[0] == _sample_snapshot()


# -- recorder stays off the metrics path ---------------------------------------

def test_metrics_identical_with_and_without_recorder(flat_profile):
    from repro.pipeline.runner import StreamingPipeline
    from repro.update.engine import UpdatePolicy

    def run(level):
        pipeline = StreamingPipeline(
            flat_profile, 200, "pr_static", UpdatePolicy.ABR_USC,
            telemetry=make_telemetry(level),
        )
        metrics = pipeline.run(4)
        return [
            (b.batch_id, b.update_time, b.compute_time, b.strategy)
            for b in metrics.batches
        ]

    assert run("off") == run("full")


# -- executor propagation ------------------------------------------------------

def test_executor_cells_carry_timelines():
    from repro.pipeline.executor import merged_timelines, run_matrix

    configs = [
        RunConfig(dataset=name, batch_size=500, algorithm="none",
                  mode="abr", num_batches=2, telemetry="full")
        for name in ("fb", "wiki")
    ]
    results = run_matrix(configs, jobs=2)
    assert all(result.ok for result in results)
    assert all(result.timelines for result in results)
    merged = merged_timelines(results)
    assert len(merged) == 2
    assert all(isinstance(s, TimelineSnapshot) for s in merged)
    # Executor workers time on the machine-wide monotonic clock; batch
    # spans of both cells must be present and non-empty.
    for snap in merged:
        assert snap.spans_named("pipeline.batch")


def test_executor_timelines_do_not_affect_result_equality():
    from repro.pipeline.executor import CellResult

    spec = RunConfig(dataset="fb", batch_size=500, algorithm="none",
                     mode="abr", num_batches=1)
    base = dict(spec=spec, num_batches=1, update_time=1.0,
                compute_time=2.0, strategies=(("baseline", 1),))
    a = CellResult(**base, timelines=())
    b = CellResult(**base, timelines=(_sample_snapshot(),))
    assert a == b


# -- traces recorded by the retired sharded runtime ----------------------------
#
# ``tests/golden/trace_sharded_{inproc,tcp}.jsonl`` were recorded by two-shard
# runs before the sharded runtime was removed, so they cannot be regenerated:
#
#     repro run fb --batch-size 500 --num-batches 4 --algorithm none \
#         --mode abr --shards 2 --shard-transport <inproc|tcp> \
#         --telemetry full --trace tests/golden/trace_sharded_<transport>.jsonl
#
# Each holds a coordinator timeline and one per shard worker, with the
# worker clock offsets measured at harvest (``tcp`` workers are separate
# processes).  Such traces must keep loading and re-exporting.

_SHARDED_TRACES = {
    transport: Path(__file__).resolve().parent / "golden"
    / f"trace_sharded_{transport}.jsonl"
    for transport in ("inproc", "tcp")
}


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_sharded_run_produces_clock_aligned_overlapping_timelines(transport):
    snaps = read_trace_document(_SHARDED_TRACES[transport]).timelines
    assert len(snaps) == 3
    assert len({s.run_id for s in snaps}) == 1
    coordinator = next(s for s in snaps if s.process == "coordinator")
    workers = [s for s in snaps if s.process.startswith("shard-")]
    assert sorted(w.shard for w in workers) == [0, 1]
    assert all(w.clock_offset != 0.0 for w in workers)

    updates = {
        batch_id: (start, end)
        for start, end, batch_id in coordinator.spans_named("stage.update")
    }
    assert len(updates) == 4
    checked = 0
    for worker in workers:
        applies = worker.spans_named("shard.apply")
        assert len(applies) == 4
        # Spans come back on the coordinator's clock: the raw worker
        # timestamps plus the offset measured at harvest.
        raw = [ev[2] for ev in worker.events if ev[1] == "shard.apply"]
        assert [start for start, _, _ in applies] == [
            ts + worker.clock_offset for ts in raw
        ]
        for start, end, batch_id in applies:
            coord_start, coord_end = updates[batch_id]
            # Read back with their recorded offsets, worker spans land
            # inside (overlap) the coordinator's update stage of the same
            # batch.
            overlap = min(end, coord_end) - max(start, coord_start)
            assert overlap >= 0.0, (worker.process, batch_id)
            checked += 1
    assert checked == 8

    # The Chrome export applies the same offsets.
    doc = to_chrome_trace(snaps)
    origin = min(ev[2] + s.clock_offset for s in snaps for ev in s.events)
    exported = [
        e["ts"] for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"] == "shard.apply"
    ]
    aligned = [
        (start - origin) * 1e6
        for worker in workers
        for start, _, _ in worker.spans_named("shard.apply")
    ]
    assert sorted(exported) == pytest.approx(sorted(aligned))


def test_sharded_timelines_survive_close_and_export(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.json"
    trace = _SHARDED_TRACES["tcp"]
    assert main(["report", str(trace), "--timeline", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "from 3 process(es)" in printed
    assert "fb @ 500 [none, abr]" in printed
    doc = json.loads(out.read_text())
    tracks = {(e["pid"], e["tid"]) for e in doc["traceEvents"] if e["ph"] == "X"}
    assert len(tracks) == 3
