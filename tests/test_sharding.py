"""Sharded single-run execution: the bit-identical invariant and lifecycle.

A run at any ``num_shards`` must produce algorithm results, adjacency state
and ``RunMetrics`` bit-identical to ``num_shards=1`` — across every
registered algorithm, every batch transport, every multiprocessing start
method, and through a kill-and-resume cycle.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pickle

import numpy as np
import pytest

from conftest import make_batch
from repro.compute.registry import ALGORITHMS
from repro.errors import ConfigurationError, GraphError
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.snapshot import take_snapshot
from repro.pipeline.checkpoint import latest_checkpoint
from repro.pipeline.config import RunConfig
from repro.pipeline.executor import CellExecutionError, mp_context
from repro.pipeline.sharding import ShardedGraph, ShardedPipeline, shard_owner

N_VERTICES = 32


def _serialize(metrics) -> list[dict]:
    """Per-batch metrics as plain data; JSON round-tripped so float
    comparison is repr-exact on both sides."""
    return json.loads(
        json.dumps([dataclasses.asdict(b) for b in metrics.batches])
    )


def _config(algorithm="pr", num_shards=1, **overrides) -> RunConfig:
    base = dict(
        dataset="fb", batch_size=500, algorithm=algorithm, mode="abr_usc",
        num_batches=3, num_shards=num_shards,
    )
    base.update(overrides)
    return RunConfig(**base)


def _run_cell(config: RunConfig):
    """Run one config; return (serialized metrics, final CSR snapshot)."""
    pipeline = config.build_pipeline()
    try:
        metrics = pipeline.run(config.num_batches)
        snapshot = take_snapshot(pipeline.graph)
    finally:
        close = getattr(pipeline, "close", None)
        if close is not None:
            close()
    return _serialize(metrics), snapshot


def _assert_snapshots_identical(a, b):
    assert a.num_vertices == b.num_vertices
    for field in ("out_offsets", "out_targets", "out_weights"):
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field


# -- graph-level parity --------------------------------------------------------


def _mixed_batches():
    """Insertions, in-batch repeats, deletions, self-loops, re-inserts."""
    return [
        make_batch(
            [0, 1, 2, 3, 1, 0, 5, 5], [1, 2, 3, 0, 2, 1, 5, 6],
            [1.0, 2.0, 3.0, 4.0, 9.0, 5.0, 6.0, 7.0], batch_id=0,
        ),
        make_batch(
            [1, 2, 0, 7, 0, 1], [2, 3, 1, 8, 9, 2],
            [8.0, 3.5, 1.5, 2.5, 4.5, 8.0], batch_id=1,
            is_delete=[False, True, False, False, False, True],
        ),
        make_batch(
            [2, 3, 5, 0, 2], [3, 0, 6, 9, 3],
            [6.5, 1.0, 2.0, 3.0, 7.5], batch_id=2,
            is_delete=[False, False, True, True, False],
        ),
    ]


def _apply_all(graph, batches):
    return [graph.apply_batch(batch) for batch in batches]


def _assert_stats_identical(a, b):
    assert a.batch_id == b.batch_id
    assert a.batch_size == b.batch_size
    assert a.deleted_edges == b.deleted_edges
    for direction in ("out", "inn"):
        left, right = getattr(a, direction), getattr(b, direction)
        for field in ("vertices", "batch_degree", "length_before", "new_edges"):
            assert np.array_equal(
                getattr(left, field), getattr(right, field)
            ), (direction, field)


def _assert_graphs_identical(serial: AdjacencyListGraph, sharded: ShardedGraph):
    assert sharded.num_edges == serial.num_edges
    assert sharded.batches_applied == serial.batches_applied
    assert sharded.touched_count() == serial.touched_count()
    assert sharded.vertices_with_edges() == serial.vertices_with_edges()
    serial_out, serial_in = serial.adjacency_views()
    shard_out, shard_in = sharded.adjacency_views()
    # Outer iteration order and inner dict order must both match: CC's
    # rebuild and the CSR snapshots depend on them.
    assert list(shard_out) == list(serial_out)
    assert list(shard_in) == list(serial_in)
    for v in serial_out:
        assert list(shard_out[v].items()) == list(serial_out[v].items())
    for v in serial_in:
        assert list(shard_in[v].items()) == list(serial_in[v].items())
    _assert_snapshots_identical(take_snapshot(sharded), take_snapshot(serial))


@pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5])
def test_graph_parity_with_deletions(num_shards):
    serial = AdjacencyListGraph(N_VERTICES)
    sharded = ShardedGraph(N_VERTICES, num_shards)
    try:
        serial_stats = _apply_all(serial, _mixed_batches())
        sharded_stats = _apply_all(sharded, _mixed_batches())
        for a, b in zip(sharded_stats, serial_stats):
            _assert_stats_identical(a, b)
        _assert_graphs_identical(serial, sharded)
    finally:
        sharded.close()


def test_interleaved_reads_keep_cache_coherent():
    """Reading between batches (the compute stages do) must never observe
    stale adjacency: apply replies refresh the mirrored dicts."""
    serial = AdjacencyListGraph(N_VERTICES)
    sharded = ShardedGraph(N_VERTICES, 2)
    try:
        for batch in _mixed_batches():
            serial.apply_batch(batch)
            sharded.apply_batch(batch)
            for v in serial.vertices_with_edges():
                assert sharded.out_neighbors(v) == serial.out_neighbors(v)
                assert sharded.in_neighbors(v) == serial.in_neighbors(v)
        assert sharded.has_edge(0, 1) == serial.has_edge(0, 1)
        assert sharded.edge_weight(0, 1) == serial.edge_weight(0, 1)
        assert sharded.has_edge(30, 31) is False
        assert sharded.out_neighbors(31) == {}
    finally:
        sharded.close()


def test_tracked_graph_parity_with_deletions():
    """track_deltas() must flip the workers onto the tracked apply path —
    its per-vertex dict insertion order (composite-sort dedup) differs from
    the untracked fast path's, and the static-recompute algorithms attach a
    DeltaSnapshotter that tracks the serial graph."""
    serial = AdjacencyListGraph(N_VERTICES)
    serial.track_deltas(True)
    sharded = ShardedGraph(N_VERTICES, 2)
    sharded.track_deltas(True)
    try:
        for a, b in zip(
            _apply_all(sharded, _mixed_batches()),
            _apply_all(serial, _mixed_batches()),
        ):
            _assert_stats_identical(a, b)
        assert sharded.consume_delta() is None
        _assert_graphs_identical(serial, sharded)
        restored = pickle.loads(pickle.dumps(sharded))
        try:
            extra = make_batch([1, 1, 1], [9, 3, 7], [1.0, 2.0, 3.0], batch_id=3)
            serial.apply_batch(extra)
            restored.apply_batch(extra)
            assert restored.out_neighbors(1) == serial.out_neighbors(1)
            assert list(restored.out_neighbors(1)) == list(serial.out_neighbors(1))
        finally:
            restored.close()
    finally:
        sharded.close()


def test_owner_mapping_is_vertex_mod_shards():
    vertices = np.arange(17, dtype=np.int64)
    assert np.array_equal(shard_owner(vertices, 4), vertices % 4)


def test_notify_external_mutation_rejected():
    sharded = ShardedGraph(N_VERTICES, 2)
    try:
        with pytest.raises(GraphError):
            sharded.notify_external_mutation()
    finally:
        sharded.close()


# -- transports and start methods ---------------------------------------------


def test_inline_transport_parity(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_SHM", "0")
    serial = AdjacencyListGraph(N_VERTICES)
    sharded = ShardedGraph(N_VERTICES, 2)
    try:
        for a, b in zip(
            _apply_all(sharded, _mixed_batches()),
            _apply_all(serial, _mixed_batches()),
        ):
            _assert_stats_identical(a, b)
        _assert_graphs_identical(serial, sharded)
    finally:
        sharded.close()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_start_method_parity(monkeypatch, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} unavailable on this platform")
    monkeypatch.setenv("REPRO_MP_START", method)
    assert mp_context().get_start_method() == method
    serial = AdjacencyListGraph(N_VERTICES)
    sharded = ShardedGraph(N_VERTICES, 2)
    try:
        for a, b in zip(
            _apply_all(sharded, _mixed_batches()),
            _apply_all(serial, _mixed_batches()),
        ):
            _assert_stats_identical(a, b)
        _assert_graphs_identical(serial, sharded)
    finally:
        sharded.close()


def test_mp_start_override_validated(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "sideways")
    with pytest.raises(ConfigurationError):
        mp_context()


# -- pipeline parity across every registered algorithm ------------------------


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_sharded_pipeline_parity_all_algorithms(algorithm):
    serial_metrics, serial_snapshot = _run_cell(_config(algorithm, 1))
    sharded_metrics, sharded_snapshot = _run_cell(_config(algorithm, 2))
    assert sharded_metrics == serial_metrics
    _assert_snapshots_identical(sharded_snapshot, serial_snapshot)


def test_sharded_pipeline_parity_four_shards():
    """The acceptance shard count: --shards 4 vs --shards 1."""
    serial_metrics, serial_snapshot = _run_cell(_config("pr", 1))
    sharded_metrics, sharded_snapshot = _run_cell(_config("pr", 4))
    assert sharded_metrics == serial_metrics
    _assert_snapshots_identical(sharded_snapshot, serial_snapshot)


def test_sharded_pipeline_parity_with_oca_and_telemetry():
    overrides = dict(use_oca=True, telemetry="basic", num_batches=4)
    serial_metrics, _ = _run_cell(_config("pr", 1, **overrides))
    sharded_metrics, _ = _run_cell(_config("pr", 3, **overrides))
    assert sharded_metrics == serial_metrics


def test_sharded_pipeline_builds_via_config():
    pipeline = _config("none", 2).build_pipeline()
    try:
        assert isinstance(pipeline, ShardedPipeline)
        assert isinstance(pipeline.graph, ShardedGraph)
        assert pipeline.num_shards == 2
    finally:
        pipeline.close()
    serial = _config("none", 1).build_pipeline()
    assert not isinstance(serial, ShardedPipeline)


def test_sharded_pipeline_context_manager():
    with _config("none", 2).build_pipeline() as pipeline:
        pipeline.run(2)
        graph = pipeline.graph
        assert graph._conns is not None
    assert graph._conns is None


def test_shard_telemetry_merges_worker_counters():
    with _config("none", 2, telemetry="basic", num_batches=3).build_pipeline() as p:
        p.run(3)
        snapshot = p.shard_telemetry()
    assert snapshot.counter("shard.coordinator_batches") == 3
    assert snapshot.counter("shard.batches") == 6  # 3 batches x 2 workers
    assert snapshot.counter("shard.out_edges") == snapshot.counter("shard.in_edges")
    # Shard instrumentation stays out of the pipeline's own stream.
    assert "shard.batches" not in p.telemetry.snapshot().counters


# -- checkpoint / resume -------------------------------------------------------


def test_sharded_graph_pickle_round_trip():
    original = ShardedGraph(N_VERTICES, 2)
    restored = None
    try:
        batches = _mixed_batches()
        for batch in batches[:2]:
            original.apply_batch(batch)
        restored = pickle.loads(pickle.dumps(original))
        original.apply_batch(batches[2])
        restored.apply_batch(batches[2])
        serial = AdjacencyListGraph(N_VERTICES)
        _apply_all(serial, batches)
        _assert_graphs_identical(serial, restored)
        _assert_graphs_identical(serial, original)
    finally:
        original.close()
        if restored is not None:
            restored.close()


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize("policy", ["mod", "greedy"])
def test_kill_and_resume_matches_uninterrupted(tmp_path, transport, policy):
    config = _config(
        "pr", 2, num_batches=6, shard_transport=transport, shard_policy=policy
    )
    uninterrupted, _ = _run_cell(config)

    pipeline = config.build_pipeline()
    for index in range(4):
        pipeline.step(final=False)
        if (index + 1) % 2 == 0:
            pipeline.save_checkpoint(tmp_path)
    # Hard-kill the shard workers mid-run: the next batch must fail loudly
    # (partition state is gone), not silently continue.
    for proc in pipeline.graph._procs:
        proc.kill()
    with pytest.raises(CellExecutionError):
        pipeline.step(final=False)
    pipeline.close()

    found = latest_checkpoint(tmp_path)
    assert found is not None
    checkpoint, _path = found
    resumed = config.build_pipeline()
    try:
        metrics = resumed.run(config.num_batches, resume_from=checkpoint)
    finally:
        resumed.close()
    assert _serialize(metrics) == uninterrupted


def test_resume_rejects_different_shard_count(tmp_path):
    from repro.errors import CheckpointError

    config = _config("none", 2, num_batches=4)
    pipeline = config.build_pipeline()
    pipeline.step(final=False)
    pipeline.save_checkpoint(tmp_path)
    pipeline.close()
    checkpoint, _path = latest_checkpoint(tmp_path)
    other = _config("none", 1, num_batches=4)
    with pytest.raises(CheckpointError):
        other.build_pipeline().run(4, resume_from=checkpoint)


def test_resume_rejects_different_placement(tmp_path):
    """The checkpoint carries the owner map; a resume whose fresh pipeline
    materialized a different placement must be rejected, not silently run
    under the checkpointed one."""
    from repro.errors import CheckpointError

    config = _config("none", 2, num_batches=4, shard_policy="mod")
    pipeline = config.build_pipeline()
    pipeline.step(final=False)
    pipeline.save_checkpoint(tmp_path)
    pipeline.close()
    checkpoint, _path = latest_checkpoint(tmp_path)
    other = _config("none", 2, num_batches=4, shard_policy="hash")
    resumed = other.build_pipeline()
    try:
        with pytest.raises(CheckpointError):
            resumed.run(4, resume_from=checkpoint)
    finally:
        resumed.close()
    # The header carries the placement identity for offline inspection.
    assert checkpoint.summary["shards"]["policy"] == "mod"
    assert checkpoint.summary["shards"]["num_shards"] == 2
    assert isinstance(checkpoint.summary["shards"]["owner_map_crc32"], int)


# -- validation and failure surfacing -----------------------------------------


def test_num_shards_validated_at_construction():
    with pytest.raises(ConfigurationError):
        ShardedGraph(N_VERTICES, 0)
    with pytest.raises(ConfigurationError):
        RunConfig(dataset="fb", batch_size=500, num_shards=0)


def test_num_shards_round_trips():
    config = _config("pr", 4)
    assert RunConfig.from_json(config.to_json()) == config
    assert pickle.loads(pickle.dumps(config)).num_shards == 4


def test_closed_graph_refuses_work():
    sharded = ShardedGraph(N_VERTICES, 2)
    sharded.apply_batch(_mixed_batches()[0])
    sharded.close()
    with pytest.raises(GraphError):
        sharded.apply_batch(_mixed_batches()[0])


def test_dead_worker_surfaces_as_cell_execution_error():
    sharded = ShardedGraph(N_VERTICES, 2)
    try:
        sharded.apply_batch(_mixed_batches()[0])
        for proc in sharded._procs:
            proc.kill()
        with pytest.raises(CellExecutionError):
            sharded.apply_batch(_mixed_batches()[1])
    finally:
        # close() tolerates already-dead workers and reaps them regardless.
        sharded.close()
        assert sharded._conns is None
        assert sharded._procs is None
