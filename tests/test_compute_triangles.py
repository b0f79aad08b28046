"""Triangle counting: static exactness and incremental maintenance."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from repro.compute.triangles import IncrementalTriangleCounter, StaticTriangleCount
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.snapshot import take_snapshot


def _nx_triangles(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u in graph.vertices_with_edges():
        for v in graph.out_neighbors(u):
            if u != v:
                g.add_edge(u, v)
    return sum(nx.triangles(g).values()) // 3


def test_static_single_triangle():
    graph = AdjacencyListGraph(4)
    graph.apply_batch(make_batch([0, 1, 2], [1, 2, 0]))
    count, counters = StaticTriangleCount().run(take_snapshot(graph))
    assert count == 1
    assert counters.touched_edges > 0


def test_static_matches_networkx(small_generator):
    graph = AdjacencyListGraph(500)
    for batch in small_generator.batches(800, 2):
        graph.apply_batch(batch)
    count, __ = StaticTriangleCount().run(take_snapshot(graph))
    assert count == _nx_triangles(graph)


def test_incremental_counts_new_triangles():
    graph = AdjacencyListGraph(4)
    tc = IncrementalTriangleCounter(graph)
    tc.ingest(make_batch([0, 1], [1, 2]))
    assert tc.count == 0
    tc.ingest(make_batch([2], [0], batch_id=1))
    assert tc.count == 1


def test_reverse_arc_does_not_double_count():
    graph = AdjacencyListGraph(3)
    tc = IncrementalTriangleCounter(graph)
    tc.ingest(make_batch([0, 1, 2, 1, 2, 0], [1, 2, 0, 0, 1, 2]))
    # Both arcs of every pair exist, still one undirected triangle.
    assert tc.count == 1


def test_intra_batch_triangle_counted_once():
    graph = AdjacencyListGraph(3)
    tc = IncrementalTriangleCounter(graph)
    tc.ingest(make_batch([0, 1, 2, 0], [1, 2, 0, 1]))  # duplicate 0->1 too
    assert tc.count == 1


def test_deletion_removes_triangles():
    graph = AdjacencyListGraph(4)
    tc = IncrementalTriangleCounter(graph)
    tc.ingest(make_batch([0, 1, 2, 0], [1, 2, 0, 3]))
    assert tc.count == 1
    tc.ingest(make_batch([1], [2], batch_id=1, is_delete=[True]))
    assert tc.count == 0
    assert not graph.has_edge(1, 2)


def test_incremental_matches_static_on_stream(small_generator):
    graph = AdjacencyListGraph(500)
    tc = IncrementalTriangleCounter(graph)
    for batch in small_generator.batches(400, 4):
        tc.ingest(batch)
        static, __ = StaticTriangleCount().run(take_snapshot(graph))
        assert tc.count == static == _nx_triangles(graph)


def test_incremental_with_random_deletions_matches_static():
    import numpy as np

    rng = np.random.default_rng(9)
    graph = AdjacencyListGraph(40)
    tc = IncrementalTriangleCounter(graph)
    for batch_id in range(5):
        size = 60
        src = rng.integers(0, 40, size)
        dst = (src + rng.integers(1, 39, size)) % 40
        is_delete = rng.random(size) < 0.3 if batch_id else None
        batch = make_batch(src.tolist(), dst.tolist(), batch_id=batch_id,
                           is_delete=is_delete)
        tc.ingest(batch)
        static, __ = StaticTriangleCount().run(take_snapshot(graph))
        assert tc.count == static


def test_graph_bookkeeping_maintained():
    graph = AdjacencyListGraph(8)
    tc = IncrementalTriangleCounter(graph)
    tc.ingest(make_batch([0, 1, 0], [1, 2, 1]))  # duplicate 0->1
    assert graph.num_edges == 2
    assert graph.batches_applied == 1
    assert graph.edge_weight(0, 1) == 1.0


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 7),
                st.integers(0, 2).map(lambda x: x == 0),  # ~1 in 3 deletes
            ),
            min_size=1, max_size=30,
        ),
        min_size=1, max_size=8,
    ),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_random_insert_delete_stream_matches_static(stream, keep_in_lists):
    """Random batches on 8 vertices — self-loops, both arcs of a pair,
    pairs repeated, deleted and re-inserted within and across batches:
    after every batch the count equals a static recount, and the graph
    equals one that applied the same batches directly."""
    import numpy as np

    graph = AdjacencyListGraph(8, keep_in_lists=keep_in_lists)
    plain = AdjacencyListGraph(8)
    tc = IncrementalTriangleCounter(graph)
    for batch_id, edges in enumerate(stream):
        src, dst, deletes = zip(*edges)
        batch = make_batch(src, dst, batch_id=batch_id, is_delete=deletes)
        tc.ingest(batch)
        plain.apply_batch(batch)
        static, __ = StaticTriangleCount().run(take_snapshot(graph))
        assert tc.count == static
        assert graph.adjacency_views()[0] == plain.adjacency_views()[0]
        assert np.array_equal(graph.in_degrees(), plain.in_degrees())
    assert graph.batches_applied == len(stream)
