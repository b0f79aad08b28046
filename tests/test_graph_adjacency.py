"""AdjacencyListGraph: functional batch ingestion semantics."""

import numpy as np
import pytest

from conftest import make_batch
from repro.errors import VertexOutOfRangeError
from repro.graph.adjacency_list import AdjacencyListGraph


def test_insert_single_edge_both_directions(tiny_graph):
    stats = tiny_graph.apply_batch(make_batch([1], [2], [5.0]))
    assert tiny_graph.out_neighbors(1) == {2: 5.0}
    assert tiny_graph.in_neighbors(2) == {1: 5.0}
    assert tiny_graph.num_edges == 1
    assert stats.out.num_vertices == 1
    assert stats.inn.num_vertices == 1


def test_duplicate_within_batch_refreshes_weight(tiny_graph):
    tiny_graph.apply_batch(make_batch([1, 1], [2, 2], [5.0, 7.0]))
    assert tiny_graph.edge_weight(1, 2) == 7.0  # last write wins
    assert tiny_graph.num_edges == 1


def test_duplicate_across_batches_refreshes_weight(tiny_graph):
    tiny_graph.apply_batch(make_batch([1], [2], [5.0], batch_id=0))
    stats = tiny_graph.apply_batch(make_batch([1], [2], [9.0], batch_id=1))
    assert tiny_graph.edge_weight(1, 2) == 9.0
    assert tiny_graph.num_edges == 1
    assert stats.out.new_edges.sum() == 0
    assert stats.out.duplicates.sum() == 1


def test_stats_length_before_and_new_edges(tiny_graph):
    tiny_graph.apply_batch(make_batch([1, 1], [2, 3]))
    stats = tiny_graph.apply_batch(make_batch([1, 1, 1], [3, 4, 5], batch_id=1))
    (v,) = [i for i, vv in enumerate(stats.out.vertices.tolist()) if vv == 1]
    assert stats.out.length_before[v] == 2
    assert stats.out.batch_degree[v] == 3
    assert stats.out.new_edges[v] == 2  # 3 already present
    assert stats.out.duplicates[v] == 1


def test_in_direction_stats_group_by_destination(tiny_graph):
    stats = tiny_graph.apply_batch(make_batch([1, 2, 3], [9, 9, 9]))
    assert stats.inn.vertices.tolist() == [9]
    assert stats.inn.batch_degree.tolist() == [3]
    assert tiny_graph.in_degree(9) == 3


def test_has_edge_and_edge_weight(tiny_graph):
    tiny_graph.apply_batch(make_batch([4], [5], [2.5]))
    assert tiny_graph.has_edge(4, 5)
    assert not tiny_graph.has_edge(5, 4)
    assert tiny_graph.edge_weight(4, 5) == 2.5
    assert tiny_graph.edge_weight(5, 4) is None


def test_deletion_removes_both_directions(tiny_graph):
    tiny_graph.apply_batch(make_batch([1, 2], [2, 3]))
    stats = tiny_graph.apply_batch(
        make_batch([1], [2], is_delete=[True], batch_id=1)
    )
    assert stats.deleted_edges == 1
    assert not tiny_graph.has_edge(1, 2)
    assert 1 not in tiny_graph.in_neighbors(2)
    assert tiny_graph.num_edges == 1


def test_deleting_missing_edge_is_noop(tiny_graph):
    stats = tiny_graph.apply_batch(make_batch([1], [2], is_delete=[True]))
    assert stats.deleted_edges == 0
    assert tiny_graph.num_edges == 0


def test_insert_then_delete_same_batch(tiny_graph):
    # Insertions apply before deletions (Section 4.4.3 ordering).
    stats = tiny_graph.apply_batch(
        make_batch([1, 1], [2, 2], is_delete=[False, True])
    )
    assert not tiny_graph.has_edge(1, 2)
    assert stats.deleted_edges == 1
    assert tiny_graph.num_edges == 0


def test_vertex_out_of_range_rejected(tiny_graph):
    with pytest.raises(VertexOutOfRangeError):
        tiny_graph.apply_batch(make_batch([1], [99]))
    with pytest.raises(VertexOutOfRangeError):
        tiny_graph.apply_batch(make_batch([-1], [2]))


def test_vertices_with_edges(tiny_graph):
    tiny_graph.apply_batch(make_batch([1, 3], [2, 4]))
    assert tiny_graph.vertices_with_edges() == [1, 2, 3, 4]


def test_batches_applied_counter(tiny_graph):
    tiny_graph.apply_batch(make_batch([1], [2], batch_id=0))
    tiny_graph.apply_batch(make_batch([2], [3], batch_id=1))
    assert tiny_graph.batches_applied == 2


def test_adjacency_views_expose_live_state(tiny_graph):
    tiny_graph.apply_batch(make_batch([1], [2]))
    out, inn = tiny_graph.adjacency_views()
    assert out[1] == {2: 1.0}
    assert inn[2] == {1: 1.0}


def test_sum_search_cost_linear_model(tiny_graph):
    k = np.array([3])
    length = np.array([10])
    new = np.array([2])
    cost = tiny_graph.sum_search_cost(k, length, new, per_element=2.0)
    # 3 searches over L=10 plus the (k-1)*new/2 growth ramp.
    assert cost[0] == pytest.approx(2.0 * (3 * 10 + 2 * 2 / 2))


def test_large_batch_matches_reference_dict_model(small_generator):
    """Cross-check batch application against a naive per-edge reference."""
    graph = AdjacencyListGraph(500)
    reference_out: dict[int, dict[int, float]] = {}
    for batch in small_generator.batches(2_000, 4):
        graph.apply_batch(batch)
        for u, v, w in zip(batch.src.tolist(), batch.dst.tolist(), batch.weight.tolist()):
            reference_out.setdefault(u, {})[v] = w
    for v, expected in reference_out.items():
        assert graph.out_neighbors(v) == expected
    assert graph.num_edges == sum(len(d) for d in reference_out.values())


def test_adjacency_views_are_copies(tiny_graph):
    tiny_graph.apply_batch(make_batch([1], [2]))
    out, inn = tiny_graph.adjacency_views()
    out[1][7] = 3.0
    inn.clear()
    assert tiny_graph.out_neighbors(1) == {2: 1.0}
    assert tiny_graph.in_neighbors(2) == {1: 1.0}


def _segment(graph, v):
    segments = graph.out_segments()
    a = segments.offsets[v]
    b = a + segments.lengths[v]
    return list(zip(segments.targets[a:b].tolist(), segments.weights[a:b].tolist()))


def test_out_segments_keep_each_vertex_in_arrival_order(tiny_graph):
    """New pairs go to the tail in first-arrival order, a repeat keeps its
    slot and takes the last weight, a delete closes its gap in order and a
    re-insert goes to the tail: the order of a per-vertex dict."""
    tiny_graph.apply_batch(make_batch([1, 1, 1, 1], [5, 3, 5, 4], [1.0, 2.0, 3.0, 4.0]))
    assert _segment(tiny_graph, 1) == [(5, 3.0), (3, 2.0), (4, 4.0)]
    tiny_graph.apply_batch(make_batch(
        [1, 1, 1], [3, 9, 5], [6.0, 1.0, 1.0], batch_id=1,
        is_delete=[False, False, True],
    ))
    assert _segment(tiny_graph, 1) == [(3, 6.0), (4, 4.0), (9, 1.0)]
    tiny_graph.apply_batch(make_batch([1], [5], [2.0], batch_id=2))
    assert _segment(tiny_graph, 1) == [(3, 6.0), (4, 4.0), (9, 1.0), (5, 2.0)]
    segments = tiny_graph.out_segments()
    assert segments.lengths.tolist() == tiny_graph.out_degrees().tolist()
    assert not any(array.flags.writeable for array in segments)


def test_a_full_segment_moves_to_the_pool_end():
    """A segment grows in place into its slack; one that outgrows its
    power-of-two capacity moves past every other segment, keeping its
    pairs in order."""
    graph = AdjacencyListGraph(8)
    graph.apply_batch(make_batch([0, 1, 1], [1, 2, 3]))
    pool = graph._out
    start = int(pool.start[1])
    assert pool.capacity[1] == 2
    graph.apply_batch(make_batch([1, 1, 1], [4, 5, 6], batch_id=1))
    assert pool.capacity[1] == 8
    assert pool.start[1] > max(start, pool.start[0])
    assert _segment(graph, 1) == [(t, 1.0) for t in (2, 3, 4, 5, 6)]
    assert _segment(graph, 0) == [(1, 1.0)]


def test_edge_weights_look_up_a_batch_of_pairs(small_generator):
    """One call reads the stored weight of every queried pair, NaN for an
    absent one, whether the pair is queried once or repeatedly: the same
    as the dict oracle's per-pair lookups."""
    from repro.graph.reference import ReferenceAdjacencyListGraph

    graph = AdjacencyListGraph(500)
    ref = ReferenceAdjacencyListGraph(500)
    rng = np.random.default_rng(3)
    for batch in small_generator.batches(2_000, 3):
        graph.apply_batch(batch)
        ref.apply_batch(batch)
    deletes = make_batch(batch.src[:300], batch.dst[:300], batch_id=3,
                         is_delete=[True] * 300)
    graph.apply_batch(deletes)
    ref.apply_batch(deletes)
    src = np.concatenate([batch.src, rng.integers(0, 500, 500), batch.src[:50]])
    dst = np.concatenate([batch.dst, rng.integers(0, 500, 500), batch.dst[:50]])
    got = graph.edge_weights(src, dst)
    want = [ref.edge_weight(u, v) for u, v in zip(src.tolist(), dst.tolist())]
    assert got.dtype == np.float64
    assert np.isnan(got).tolist() == [w is None for w in want]
    assert np.array_equal(got, ref.edge_weights(src, dst), equal_nan=True)
    assert got[~np.isnan(got)].tolist() == [w for w in want if w is not None]
    assert graph.edge_weights(src[:0], dst[:0]).tolist() == []
