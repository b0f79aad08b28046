"""Incremental PageRank against the per-vertex loop kept as its oracle.

``IncrementalPageRank`` must return ranks bit-identical to the loop kept in
``tests/pagerank_reference.py`` (``np.array_equal``) and equal
``ComputeCounters`` after every call — for any stream, any form of the
``affected`` argument, any convergence settings and any split of rounds
between its scalar and numpy paths.  Also
pins the graph degree accessors the kernel reads and the engine's
checkpoint state.
"""

import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from pagerank_reference import ReferenceIncrementalPageRank
from repro.compute import pagerank
from repro.compute.pagerank import IncrementalPageRank
from repro.datasets.profiles import get_dataset
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.config import RunConfig
from repro.telemetry.core import Telemetry

N_VERTICES = 24
#: SCALAR_FRONTIER_MAX values: every round numpy, a split of this file's
#: small universes, the shipped default, and every round scalar.
ALL_NUMPY = 0
ALL_SCALAR = 1 << 62
FRONTIER_SPLITS = [ALL_NUMPY, 8, pagerank.SCALAR_FRONTIER_MAX, ALL_SCALAR]


def _frontier_max(value):
    """Patch the dispatch threshold (usable inside a hypothesis test)."""
    return mock.patch.object(pagerank, "SCALAR_FRONTIER_MAX", value)


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
    affected_as=st.sampled_from(["array", "set", "oca"]),
    tolerance=st.sampled_from([0.0, 1e-7, 1e-3]),
    max_rounds=st.sampled_from([1, 2, 100]),
    frontier_max=st.sampled_from(FRONTIER_SPLITS),
)
@settings(max_examples=160, deadline=None)
def test_matches_reference_loop(
    stream, affected_as, tolerance, max_rounds, frontier_max
):
    with _frontier_max(frontier_max):
        _stream_matches_reference(stream, affected_as, tolerance, max_rounds)


def _stream_matches_reference(stream, affected_as, tolerance, max_rounds):
    graph = AdjacencyListGraph(N_VERTICES)
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


@_frontier_max(ALL_NUMPY)
def test_path_graph_puts_every_vertex_in_its_own_level():
    """0 -> 1 -> ... -> n-1 with the frontier iterating in path order: each
    vertex reads its predecessor's new value, so every numpy round's levels
    hold one vertex each — the deepest schedule a round can have."""
    n = 300
    graph = AdjacencyListGraph(n)
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


def _counter(telemetry, name):
    return telemetry.snapshot().counter(name)


def _oracle_pair(num_vertices, **kwargs):
    """A graph, an engine counting into basic telemetry, and the oracle."""
    graph = AdjacencyListGraph(num_vertices)
    telemetry = Telemetry("basic")
    engine = IncrementalPageRank(graph, telemetry=telemetry, **kwargs)
    reference = ReferenceIncrementalPageRank(graph, **kwargs)

    def call(affected, frontier_max):
        with _frontier_max(frontier_max):
            _assert_same(
                engine, reference,
                engine.on_batch(affected), reference.on_batch(affected),
            )

    return graph, telemetry, call


def test_missed_affected_vertex_triggers_full_reread():
    """A caller that leaves a changed vertex out of ``affected`` breaks the
    contract; the in-degree check notices and re-reads every in-list, so
    the next call still sees the current graph."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    graph.apply_batch(make_batch([0, 1], [1, 2]))
    call([0, 1, 2], ALL_NUMPY)
    graph.apply_batch(make_batch([3], [2], batch_id=1))  # 2's in-list grows
    call([3], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_rereads") == 1
    call([2], ALL_NUMPY)


def test_missed_vertex_is_caught_after_scalar_only_calls():
    """Scalar rounds read the graph, not the in-CSR, so a missed change
    goes unnoticed until the next numpy round's sync, which re-reads
    everything."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    graph.apply_batch(make_batch([0, 1], [1, 2]))
    call([0, 1, 2], ALL_NUMPY)
    graph.apply_batch(make_batch([3], [2], batch_id=1))  # 2's in-list grows
    call([3], ALL_SCALAR)
    graph.apply_batch(make_batch([4], [5], batch_id=2))
    call([4, 5], ALL_SCALAR)
    assert _counter(telemetry, "pagerank.csr_rereads") == 0
    call([4], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_rereads") == 1


def test_sync_covers_every_call_since_the_last_numpy_round():
    """In-list changes made under scalar-only calls reach the in-CSR at the
    next numpy round, even for vertices that call does not pass.  Vertex
    2's in-list changes content and order but never length, so the
    in-degree check cannot catch a sync that skips it."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    graph.apply_batch(make_batch([0, 1, 2, 3], [2, 2, 3, 0]))
    call([0, 1, 2, 3], ALL_NUMPY)  # builds the in-CSR: in(2) = [0, 1]
    graph.apply_batch(
        make_batch([0, 4], [2, 2], batch_id=1, is_delete=[True, False])
    )
    call([0, 2, 4], ALL_SCALAR)  # in(2) = [1, 4]
    graph.apply_batch(
        make_batch([1], [2], batch_id=2, is_delete=[True])
    )
    graph.apply_batch(make_batch([1], [2], batch_id=3))
    call([1, 2], ALL_SCALAR)  # in(2) = [4, 1]
    assert _counter(telemetry, "pagerank.csr_syncs") == 1
    # 5 -> 4 pushes to 4, and 4 pushes to 2 in round 2.
    graph.apply_batch(make_batch([5], [4], batch_id=4))
    call([4, 5], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_syncs") == 2
    assert _counter(telemetry, "pagerank.csr_rereads") == 0


def test_fb_stream_runs_both_paths_at_the_default_threshold():
    """fb at serve's micro-batch size, on a graph warmed by a larger batch:
    the large rounds run numpy, the 60-edge calls run scalar, and the last
    large batch syncs everything those calls changed."""
    profile = get_dataset("fb")
    generator = profile.generator(seed=3)
    graph = AdjacencyListGraph(profile.num_vertices)
    telemetry = Telemetry("basic")
    engine = IncrementalPageRank(graph, telemetry=telemetry)
    reference = ReferenceIncrementalPageRank(graph)
    for i, size in enumerate([3000] + [60] * 100 + [1000]):
        batch = generator.generate_batch(i, size)
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        _assert_same(
            engine, reference, engine.on_batch(affected), reference.on_batch(affected)
        )
    counters = telemetry.snapshot().counters
    assert counters["pagerank.scalar_rounds"] > 100
    assert counters["pagerank.vector_rounds"] > 0
    assert counters["pagerank.csr_syncs"] == 2
    assert counters["pagerank.csr_rereads"] == 0


# -- degree accessors ----------------------------------------------------------


def _degree_batches():
    return [
        make_batch([0, 0, 1, 2, 2, 5, 5], [1, 2, 2, 0, 2, 6, 6]),  # self-loop, dup
        make_batch([0, 1, 2], [1, 2, 0], batch_id=1, is_delete=[True, False, True]),
        make_batch([0, 2, 5], [2, 2, 6], [4.0, 9.0, 3.0], batch_id=2),  # reweight
        make_batch([5, 0, 7], [6, 1, 7], batch_id=3, is_delete=[True, False, False]),
    ]


def test_degree_arrays_match_view_lengths():
    graph = AdjacencyListGraph(8)
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


def _continue(engine, reference, src=(5, 3, 1), dst=(3, 5, 5), batch_id=1):
    """One more batch, checked against the oracle."""
    batch = make_batch(list(src), list(dst), batch_id=batch_id)
    reference.graph.apply_batch(batch)
    if engine.graph is not reference.graph:  # a restored engine's own copy
        engine.graph.apply_batch(batch)
    _assert_same(
        engine, reference,
        engine.on_batch(batch.unique_vertices()),
        reference.on_batch(batch.unique_vertices()),
    )


def test_pickle_carries_no_cache_arrays():
    with _frontier_max(ALL_NUMPY):
        graph, engine, reference = _warm_engine()
    # A scalar-only call leaves a change pending in the in-CSR.
    with _frontier_max(ALL_SCALAR):
        _continue(engine, reference)
    assert engine._in_ptr is not None and engine._pos is not None
    assert engine._pending.any()
    state = engine.__getstate__()
    assert not {"_in_ptr", "_in_src", "_pos", "_pending"} & state.keys()
    restored = pickle.loads(pickle.dumps(engine))
    assert restored._in_ptr is None and restored._in_src is None
    assert restored._pending is None
    # The restored engine reads its own graph copy: scalar rounds directly,
    # numpy rounds through an in-CSR rebuilt at the first of them.
    with _frontier_max(ALL_SCALAR):
        _continue(restored, reference, [6, 5], [1, 6], batch_id=2)
    assert restored._in_ptr is None
    with _frontier_max(ALL_NUMPY):
        _continue(restored, reference, [7, 1], [5, 7], batch_id=3)


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
    assert not restored.telemetry.enabled
    assert np.array_equal(restored.as_array(), reference.as_array())
    _continue(restored, reference)


def test_resumed_pipeline_counts_rounds_into_its_own_telemetry():
    """The engine pickles its telemetry inside the pipeline checkpoint, as
    the same object the pipeline holds, so a resumed run keeps counting
    into the backend it reports."""
    config = RunConfig(
        dataset="fb", batch_size=500, num_batches=4, telemetry="basic"
    )
    pipeline = config.build_pipeline()
    pipeline.run(2)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    resumed = config.build_pipeline()
    resumed.run(4, resume_from=checkpoint)
    assert resumed.compute.engine.telemetry is resumed.telemetry

    def rounds(p):
        counters = p.telemetry.snapshot().counters
        return counters["pagerank.scalar_rounds"] + counters["pagerank.vector_rounds"]

    assert rounds(resumed) > rounds(pipeline) > 0


def test_as_array_is_a_fresh_copy():
    __, engine, __ = _warm_engine()
    ranks = engine.as_array()
    ranks[:] = -1.0
    assert (engine.as_array() > 0).all()
