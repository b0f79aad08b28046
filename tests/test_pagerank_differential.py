"""The vectorized incremental PageRank against the per-vertex loop it replaced.

``IncrementalPageRank`` must return ranks bit-identical to the loop kept in
``tests/pagerank_reference.py`` (``np.array_equal``) and equal
``ComputeCounters`` after every call — for any stream, any form of the
``affected`` argument, any convergence settings and either runtime
adjacency format.  Also pins the graph degree accessors the kernel reads
and the engine's checkpoint state.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from pagerank_reference import ReferenceIncrementalPageRank
from repro.compute.pagerank import IncrementalPageRank
from repro.datasets.profiles import get_dataset
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.hybrid import HybridAdjacencyGraph

N_VERTICES = 24
THRESHOLD = 3  # hybrid promotion threshold: streams cross it constantly


def _graph(fmt: str, num_vertices: int = N_VERTICES):
    if fmt == "hybrid":
        return HybridAdjacencyGraph(num_vertices, promote_threshold=THRESHOLD)
    return AdjacencyListGraph(num_vertices)


def _batch(ops, batch_id):
    """(is_delete, src, dst, weight) tuples -> Batch; self-loops and
    in-batch duplicates included as drawn."""
    return make_batch(
        [o[1] for o in ops], [o[2] for o in ops], [o[3] for o in ops],
        batch_id=batch_id, is_delete=[o[0] for o in ops],
    )


def _assert_same(engine, reference, got, want):
    assert got == want
    assert np.array_equal(engine.as_array(), reference.as_array())


# A small universe makes most frontier vertices each other's in-neighbours,
# so rounds have several dependency levels.  Deletes of absent edges are
# no-ops; later batches re-insert deleted edges at the end of their lists.
ops = st.lists(
    st.tuples(
        st.integers(0, 3).map(lambda x: x == 0),  # ~1 in 4 is a delete
        st.integers(0, N_VERTICES - 1),
        st.integers(0, N_VERTICES - 1),
        st.sampled_from([1.0, 2.0]),
    ),
    min_size=1,
    max_size=60,
)


@given(
    stream=st.lists(ops, min_size=1, max_size=6),
    fmt=st.sampled_from(["dict", "hybrid"]),
    affected_as=st.sampled_from(["array", "set", "oca"]),
    tolerance=st.sampled_from([0.0, 1e-7, 1e-3]),
    max_rounds=st.sampled_from([1, 2, 100]),
)
@settings(max_examples=120, deadline=None)
def test_matches_reference_loop(stream, fmt, affected_as, tolerance, max_rounds):
    graph = _graph(fmt)
    engine = IncrementalPageRank(graph, tolerance=tolerance, max_rounds=max_rounds)
    reference = ReferenceIncrementalPageRank(
        graph, tolerance=tolerance, max_rounds=max_rounds
    )
    pending = np.empty(0, dtype=np.int64)
    for batch_id, batch_ops in enumerate(stream):
        batch = _batch(batch_ops, batch_id)
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        if affected_as == "oca":
            # OCA defers every other round; the next one gets the union.
            pending = np.union1d(pending, affected)
            if batch_id % 2 == 0 and batch_id + 1 < len(stream):
                continue
            affected, pending = pending, np.empty(0, dtype=np.int64)
        elif affected_as == "set":
            affected = set(affected.tolist())
        got = engine.on_batch(affected)
        want = reference.on_batch(affected)
        _assert_same(engine, reference, got, want)


@pytest.mark.parametrize("fmt", ["dict", "hybrid"])
def test_path_graph_puts_every_vertex_in_its_own_level(fmt):
    """0 -> 1 -> ... -> n-1 with the frontier iterating in path order: each
    vertex reads its predecessor's new value, so every level holds one
    vertex — the deepest schedule a round can have."""
    n = 300
    graph = _graph(fmt, n)
    graph.apply_batch(make_batch(list(range(n - 1)), list(range(1, n))))
    assert list(set(range(n))) == list(range(n))  # small ints: path order
    engine = IncrementalPageRank(graph, tolerance=0.0)
    reference = ReferenceIncrementalPageRank(graph, tolerance=0.0)
    for __ in range(3):
        _assert_same(
            engine, reference, engine.on_batch(range(n)), reference.on_batch(range(n))
        )
    # A fresh vertex at the head shifts every downstream rank again.
    graph.apply_batch(make_batch([n - 1], [0], batch_id=1))
    _assert_same(
        engine, reference, engine.on_batch([n - 1, 0]), reference.on_batch([n - 1, 0])
    )


def test_lj_stream_matches_reference_loop():
    """One deterministic case at benchmark scale: lj, 20K-edge batches x3."""
    profile = get_dataset("lj")
    generator = profile.generator(seed=1)
    graph = AdjacencyListGraph(profile.num_vertices)
    engine = IncrementalPageRank(graph)
    reference = ReferenceIncrementalPageRank(graph)
    for i in range(3):
        batch = generator.generate_batch(i, 20_000)
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        _assert_same(
            engine, reference, engine.on_batch(affected), reference.on_batch(affected)
        )


def test_missed_affected_vertex_triggers_full_reread():
    """A caller that leaves a changed vertex out of ``affected`` breaks the
    contract; the in-degree check notices and re-reads every in-list, so
    the next call still sees the current graph."""
    graph = AdjacencyListGraph(8)
    engine = IncrementalPageRank(graph, tolerance=0.0)
    reference = ReferenceIncrementalPageRank(graph, tolerance=0.0)
    def call(affected):
        _assert_same(
            engine, reference, engine.on_batch(affected), reference.on_batch(affected)
        )

    graph.apply_batch(make_batch([0, 1], [1, 2]))
    call([0, 1, 2])
    graph.apply_batch(make_batch([3], [2], batch_id=1))  # 2's in-list grows
    call([3])
    call([2])


# -- degree accessors ----------------------------------------------------------


def _degree_batches():
    return [
        make_batch([0, 0, 1, 2, 2, 5, 5], [1, 2, 2, 0, 2, 6, 6]),  # self-loop, dup
        make_batch([0, 1, 2], [1, 2, 0], batch_id=1, is_delete=[True, False, True]),
        make_batch([0, 2, 5], [2, 2, 6], [4.0, 9.0, 3.0], batch_id=2),  # reweight
        make_batch([5, 0, 7], [6, 1, 7], batch_id=3, is_delete=[True, False, False]),
    ]


@pytest.mark.parametrize("fmt", ["dict", "hybrid"])
def test_degree_arrays_match_view_lengths(fmt):
    graph = _graph(fmt, 8)
    for batch in _degree_batches():
        graph.apply_batch(batch)
        out_adj, in_adj = graph.adjacency_views()
        want_out = [len(out_adj.get(v, {})) for v in range(8)]
        want_in = [len(in_adj.get(v, {})) for v in range(8)]
        assert graph.out_degrees().tolist() == want_out
        assert graph.in_degrees().tolist() == want_in
        assert not graph.out_degrees().flags.writeable
        assert not graph.in_degrees().flags.writeable


# -- checkpoint state ----------------------------------------------------------


def _warm_engine():
    graph = AdjacencyListGraph(16)
    engine = IncrementalPageRank(graph)
    reference = ReferenceIncrementalPageRank(graph)
    batch = make_batch([0, 1, 2, 3, 4, 4], [1, 2, 3, 0, 0, 4])
    graph.apply_batch(batch)
    _assert_same(
        engine, reference,
        engine.on_batch(batch.unique_vertices()),
        reference.on_batch(batch.unique_vertices()),
    )
    return graph, engine, reference


def _continue(engine, reference):
    """One more batch; a restored engine carries its own copy of the graph."""
    batch = make_batch([5, 3, 1], [3, 5, 5], batch_id=1)
    engine.graph.apply_batch(batch)
    reference.graph.apply_batch(batch)
    _assert_same(
        engine, reference,
        engine.on_batch(batch.unique_vertices()),
        reference.on_batch(batch.unique_vertices()),
    )


def test_pickle_carries_no_cache_arrays():
    graph, engine, reference = _warm_engine()
    assert engine._in_ptr is not None and engine._pos is not None
    state = engine.__getstate__()
    assert not {"_in_ptr", "_in_src", "_pos"} & state.keys()
    restored = pickle.loads(pickle.dumps(engine))
    assert restored._in_ptr is None and restored._in_src is None
    # The restored engine rebuilds the in-CSR from its own graph copy and
    # continues bit-identically.
    _continue(restored, reference)


def test_list_ranks_from_older_checkpoints_load_and_continue():
    """Checkpoints written before the vectorized kernel pickle the engine's
    ``__dict__`` with the ranks as a Python list and no cache fields."""
    graph, engine, reference = _warm_engine()
    legacy = IncrementalPageRank.__new__(IncrementalPageRank)
    legacy.__dict__.update(
        graph=graph, damping=engine.damping, tolerance=engine.tolerance,
        max_rounds=engine.max_rounds, _base=engine._base,
        values=engine.values.tolist(),
    )
    restored = pickle.loads(pickle.dumps(legacy))
    assert isinstance(restored.values, np.ndarray)
    assert np.array_equal(restored.as_array(), reference.as_array())
    _continue(restored, reference)


def test_as_array_is_a_fresh_copy():
    __, engine, __ = _warm_engine()
    ranks = engine.as_array()
    ranks[:] = -1.0
    assert (engine.as_array() > 0).all()
