"""HybridAdjacencyGraph parity and behavior tests.

The hybrid format's contract is *bit-identical observability*: stats,
adjacency content, iteration order, deltas and pickled state must be
indistinguishable from :class:`~repro.graph.adjacency_list.AdjacencyListGraph`
no matter how vertices move between the array and hub degree classes.  The
property test drives random mixed insert/delete/reweight streams across the
promotion threshold in both directions, tracked and untracked, against two
oracles: ``graph/reference.py`` (content, untracked order) and the dict
graph (exact stats + exact inner/outer iteration order).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from repro.errors import ConfigurationError
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.formats import (
    ADJACENCY_FORMATS,
    make_adjacency_graph,
    resolve_adjacency_format,
)
from repro.graph.hybrid import HybridAdjacencyGraph
from repro.graph.reference import ReferenceAdjacencyListGraph
from repro.graph.snapshot import DeltaSnapshotter, take_snapshot
from repro.telemetry.core import Telemetry

# A universe wide enough that destination ids exercise every residue of
# the 64-bit dedup signature (values with v % 64 == 63 included).
N_VERTICES = 96
THRESHOLD = 3  # tiny, so streams cross promotion/demotion constantly


def _weight(u: int, v: int, salt: int) -> float:
    return float((u * 31 + v * 7 + salt * 13) % 9 + 1)


# One operation: (is_delete, src, dst, salt).  Self-loops are legal here —
# the graph layer does not filter them.
ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, N_VERTICES - 1),
        st.integers(0, N_VERTICES - 1),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=80,
)
streams = st.lists(ops, min_size=1, max_size=5)


def _batch_from_ops(batch_ops, batch_id):
    src = [o[1] for o in batch_ops]
    dst = [o[2] for o in batch_ops]
    weight = [_weight(o[1], o[2], o[3]) for o in batch_ops]
    deletes = [o[0] for o in batch_ops]
    return make_batch(src, dst, weight, batch_id=batch_id, is_delete=deletes)


def _content(graph):
    out_view, in_view = graph.adjacency_views()
    out = {v: dict(out_view[v].items()) for v in out_view}
    inn = {v: dict(in_view[v].items()) for v in in_view}
    return out, inn


def _orders(graph):
    out_view, in_view = graph.adjacency_views()
    return (
        list(iter(out_view)),
        list(iter(in_view)),
        {v: list(out_view[v].keys()) for v in out_view},
        {v: list(in_view[v].keys()) for v in in_view},
    )


def _assert_stats_equal(ours, oracle):
    for direction in ("out", "inn"):
        a = getattr(ours, direction)
        b = getattr(oracle, direction)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.batch_degree, b.batch_degree)
        assert np.array_equal(a.length_before, b.length_before)
        assert np.array_equal(a.new_edges, b.new_edges)
    assert ours.deleted_edges == oracle.deleted_edges


@pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked"])
@given(stream=streams)
@settings(max_examples=60, deadline=None)
def test_hybrid_matches_oracles(stream, tracked):
    hybrid = HybridAdjacencyGraph(N_VERTICES, promote_threshold=THRESHOLD)
    dict_graph = AdjacencyListGraph(N_VERTICES)
    reference = ReferenceAdjacencyListGraph(N_VERTICES)
    if tracked:
        hybrid.track_deltas(True)
        dict_graph.track_deltas(True)
        reference.track_deltas(True)
    for batch_id, batch_ops in enumerate(stream):
        batch = _batch_from_ops(batch_ops, batch_id)
        stats_h = hybrid.apply_batch(batch)
        stats_d = dict_graph.apply_batch(batch)
        stats_r = reference.apply_batch(batch)
        _assert_stats_equal(stats_h, stats_d)
        _assert_stats_equal(stats_h, stats_r)
        assert hybrid.num_edges == dict_graph.num_edges == reference.num_edges
        if tracked:
            delta_h = hybrid.consume_delta()
            delta_d = dict_graph.consume_delta()
            assert np.array_equal(delta_h.owners, delta_d.owners)
            assert np.array_equal(delta_h.targets, delta_d.targets)
            assert np.array_equal(delta_h.weights, delta_d.weights)
            assert delta_h.stale == delta_d.stale
    # Content parity vs both oracles (dict equality ignores order).
    out_h, in_h = _content(hybrid)
    out_d, in_d = _content(dict_graph)
    assert out_h == out_d
    assert in_h == in_d
    out_r = {
        v: dict(entry)
        for v, entry in reference.adjacency_views()[0].items()
    }
    assert out_h == out_r
    # Exact iteration-order parity vs the dict graph (PR/CSR float
    # accumulation order depends on it).
    assert _orders(hybrid) == _orders(dict_graph)
    assert (
        sorted(dict_graph.vertices_with_edges())
        == hybrid.vertices_with_edges()
    )
    assert dict_graph.touched_count() == hybrid.touched_count()


def _mixed_batches():
    rng = np.random.default_rng(5)
    batches = []
    existing: list[tuple[int, int]] = []
    for batch_id in range(6):
        src = rng.integers(0, N_VERTICES, size=70)
        dst = rng.integers(0, N_VERTICES, size=70)
        deletes = rng.random(70) < 0.3
        if existing:
            pick = rng.integers(0, len(existing), size=int(deletes.sum()))
            pairs = np.asarray(existing)[pick]
            src[deletes] = pairs[:, 0]
            dst[deletes] = pairs[:, 1]
        weight = rng.random(70)
        batches.append(
            make_batch(src, dst, weight, batch_id=batch_id, is_delete=deletes)
        )
        existing += list(zip(src[~deletes].tolist(), dst[~deletes].tolist()))
    return batches


def test_promotion_and_demotion_preserve_content():
    graph = HybridAdjacencyGraph(N_VERTICES, promote_threshold=4)
    hub = 7
    targets = list(range(10, 22))
    graph.apply_batch(
        make_batch([hub] * len(targets), targets, [1.0] * len(targets))
    )
    assert graph._outd.hub_mask[hub]  # promoted past the threshold
    assert graph.out_degree(hub) == len(targets)
    assert list(graph.out_neighbors(hub)) == targets
    # Delete below threshold // 2 (hysteresis) -> demotion back to arrays.
    drop = targets[: len(targets) - 1]
    graph.apply_batch(
        make_batch(
            [hub] * len(drop), drop, [1.0] * len(drop),
            batch_id=1, is_delete=[True] * len(drop),
        )
    )
    assert not graph._outd.hub_mask[hub]
    assert list(graph.out_neighbors(hub)) == targets[-1:]
    assert graph.edge_weight(hub, targets[-1]) == 1.0
    assert graph.has_edge(hub, targets[-1])
    assert not graph.has_edge(hub, drop[0])


def test_pickle_round_trip_and_continue():
    graph = HybridAdjacencyGraph(N_VERTICES, promote_threshold=THRESHOLD)
    graph.track_deltas(True)
    batches = _mixed_batches()
    for batch in batches[:4]:
        graph.apply_batch(batch)
    clone = pickle.loads(pickle.dumps(graph))
    assert _content(clone) == _content(graph)
    assert _orders(clone) == _orders(graph)
    for batch in batches[4:]:
        stats_a = graph.apply_batch(batch)
        stats_b = clone.apply_batch(batch)
        _assert_stats_equal(stats_a, stats_b)
    assert _content(clone) == _content(graph)
    assert clone.num_edges == graph.num_edges


def test_delta_snapshot_parity_with_dict_graph():
    hybrid = HybridAdjacencyGraph(N_VERTICES, promote_threshold=THRESHOLD)
    dict_graph = AdjacencyListGraph(N_VERTICES)
    snap_h = DeltaSnapshotter(hybrid)
    snap_d = DeltaSnapshotter(dict_graph)
    for batch in _mixed_batches():
        hybrid.apply_batch(batch)
        dict_graph.apply_batch(batch)
        csr_h = snap_h.snapshot()
        csr_d = snap_d.snapshot()
        full = take_snapshot(hybrid)
        for attr in ("out_offsets", "out_targets", "out_weights"):
            assert np.array_equal(getattr(csr_h, attr), getattr(csr_d, attr))
            assert np.array_equal(getattr(csr_h, attr), getattr(full, attr))


def test_external_mutation_reloads_and_poisons_journal():
    graph = HybridAdjacencyGraph(N_VERTICES, promote_threshold=THRESHOLD)
    graph.track_deltas(True)
    graph.apply_batch(make_batch([1, 1, 2], [2, 3, 3], [1.0, 2.0, 3.0]))
    graph.consume_delta()
    out_view, in_view = graph.adjacency_views()
    # Mutate through the views the way union-find rebuilds do, then notify.
    out_view.setdefault(5, {})[9] = 4.0
    in_view.setdefault(9, {})[5] = 4.0
    del out_view[1][2]
    del in_view[2][1]
    graph.notify_external_mutation()
    assert graph.consume_delta() is None  # journal poisoned once
    assert graph.out_neighbors(5) == {9: 4.0}
    assert graph.in_neighbors(9) == {5: 4.0}
    assert graph.out_neighbors(1) == {3: 2.0}
    assert graph.num_edges == 3
    # Tracking resumes cleanly after the poison consume.
    graph.apply_batch(make_batch([4], [6], [1.5], batch_id=1))
    delta = graph.consume_delta()
    assert delta is not None
    assert delta.owners.tolist() == [4]


def test_sum_search_cost_matches_dict_graph():
    hybrid = HybridAdjacencyGraph(N_VERTICES)
    dict_graph = AdjacencyListGraph(N_VERTICES)
    batch = make_batch([1, 1, 2, 3], [2, 3, 3, 1], [1.0, 2.0, 3.0, 4.0])
    stats_h = hybrid.apply_batch(batch).out
    stats_d = dict_graph.apply_batch(batch).out
    cost_h = hybrid.sum_search_cost(
        stats_h.batch_degree, stats_h.length_before, stats_h.new_edges, 2.5
    )
    cost_d = dict_graph.sum_search_cost(
        stats_d.batch_degree, stats_d.length_before, stats_d.new_edges, 2.5
    )
    assert np.array_equal(cost_h, cost_d)


def test_telemetry_counts_promotions_and_demotions():
    tel = Telemetry("full")
    graph = HybridAdjacencyGraph(
        N_VERTICES, promote_threshold=4, telemetry=tel
    )
    targets = list(range(20, 30))
    graph.apply_batch(
        make_batch([3] * len(targets), targets, [1.0] * len(targets))
    )
    graph.apply_batch(
        make_batch(
            [3] * 9, targets[:9], [1.0] * 9,
            batch_id=1, is_delete=[True] * 9,
        )
    )
    snapshot = tel.snapshot()
    assert snapshot.counters["adjacency.promotions"] >= 1
    assert snapshot.counters["adjacency.demotions"] >= 1
    choices = {(d.kind, d.choice) for d in snapshot.decisions}
    assert ("adjacency", "promote") in choices
    assert ("adjacency", "demote") in choices


def test_promote_threshold_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_ADJ_PROMOTE", "2")
    graph = HybridAdjacencyGraph(N_VERTICES)
    assert graph.promote_threshold == 2
    monkeypatch.delenv("REPRO_ADJ_PROMOTE")
    assert HybridAdjacencyGraph(N_VERTICES).promote_threshold > 2


def test_format_registry_and_env_resolution(monkeypatch):
    assert set(ADJACENCY_FORMATS) == {"dict", "hybrid"}
    assert resolve_adjacency_format("hybrid") == "hybrid"
    assert resolve_adjacency_format(None) == "dict"
    monkeypatch.setenv("REPRO_ADJ_FORMAT", "hybrid")
    assert resolve_adjacency_format(None) == "hybrid"
    assert resolve_adjacency_format("dict") == "dict"  # explicit wins
    monkeypatch.setenv("REPRO_ADJ_FORMAT", "bogus")
    with pytest.raises(ConfigurationError, match="adjacency format"):
        resolve_adjacency_format(None)
    with pytest.raises(ConfigurationError, match="adjacency format"):
        resolve_adjacency_format("nope")
    monkeypatch.delenv("REPRO_ADJ_FORMAT")
    assert isinstance(
        make_adjacency_graph("hybrid", 10), HybridAdjacencyGraph
    )
    assert isinstance(make_adjacency_graph("dict", 10), AdjacencyListGraph)


def test_run_config_rejects_unknown_adjacency():
    from repro.pipeline.config import RunConfig

    with pytest.raises(ConfigurationError, match="adjacency"):
        RunConfig(dataset="fb", batch_size=100, adjacency="bogus")
    config = RunConfig(dataset="fb", batch_size=100, adjacency="hybrid")
    assert RunConfig.from_json(config.to_json()) == config
