"""CSR snapshot correctness."""

import numpy as np

from conftest import make_batch
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.snapshot import take_snapshot


def test_snapshot_round_trips_adjacency(small_generator):
    graph = AdjacencyListGraph(500)
    for batch in small_generator.batches(1_000, 3):
        graph.apply_batch(batch)
    snap = take_snapshot(graph)
    assert snap.num_edges == graph.num_edges
    for v in graph.vertices_with_edges():
        targets, weights = snap.out_slice(v)
        assert dict(zip(targets.tolist(), weights.tolist())) == graph.out_neighbors(v)


def test_snapshot_degrees(tiny_graph):
    tiny_graph.apply_batch(make_batch([1, 1, 2], [2, 3, 3]))
    snap = take_snapshot(tiny_graph)
    assert snap.out_degrees()[1] == 2
    assert snap.out_degrees()[2] == 1
    assert snap.out_degrees().sum() == 3


def test_snapshot_empty_graph(tiny_graph):
    snap = take_snapshot(tiny_graph)
    assert snap.num_edges == 0
    assert snap.out_offsets[-1] == 0
    targets, weights = snap.out_slice(0)
    assert len(targets) == 0 and len(weights) == 0


def test_snapshot_is_immutable_copy(tiny_graph):
    tiny_graph.apply_batch(make_batch([1], [2]))
    snap = take_snapshot(tiny_graph)
    tiny_graph.apply_batch(make_batch([1], [3], batch_id=1))
    # The earlier snapshot still reflects the old state.
    targets, __ = snap.out_slice(1)
    assert targets.tolist() == [2]
