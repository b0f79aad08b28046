"""Incremental PageRank against the per-vertex loops kept as its oracles.

``IncrementalPageRank`` must return ranks bit-identical to the canonical
loop kept in ``tests/pagerank_reference.py`` (``np.array_equal``) and equal
``ComputeCounters`` after every call — for any stream (deletes included),
any form of the ``affected`` argument, OCA-covered batch lists, restored
engines, any convergence settings, any split of rounds between its scalar
and numpy paths and any in-CSR merge, fold and scan thresholds.  The
exact-order loop it replaced stays a bounded oracle on the profile streams.
Also pins the graph degree accessors the kernel reads and the engine's
checkpoint state.
"""

import contextlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from pagerank_reference import (
    CanonicalIncrementalPageRank,
    ReferenceIncrementalPageRank,
)
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
NEVER = 1 << 62
#: (MERGE_MIN_PAIRS, FOLD_MAX_PENDING, _SCAN_PER_PUSHED_EDGE): the shipped
#: values; every batch merging; the larger drawn batches merging and the
#: smaller editing lists; lists folded at every call; lists folded only
#: before numpy rounds, next frontiers read from the out-dicts; and next
#: frontiers always scanned from the in-CSR.
IN_CSR_SETTINGS = [
    (pagerank.MERGE_MIN_PAIRS, pagerank.FOLD_MAX_PENDING,
     pagerank._SCAN_PER_PUSHED_EDGE),
    (0, NEVER, pagerank._SCAN_PER_PUSHED_EDGE),
    (30, pagerank.FOLD_MAX_PENDING, pagerank._SCAN_PER_PUSHED_EDGE),
    (NEVER, 0, pagerank._SCAN_PER_PUSHED_EDGE),
    (NEVER, NEVER, 0),
    (pagerank.MERGE_MIN_PAIRS, pagerank.FOLD_MAX_PENDING, NEVER),
]
#: The exact-order loop's bound, fixed before it was first measured: the
#: largest rank difference and the relative L1 distance to the kernel.
EXACT_ORDER_MAX_DIFF = 10 * 1e-7
EXACT_ORDER_REL_L1 = 2e-3


def _frontier_max(value):
    """Patch the dispatch threshold (usable inside a hypothesis test)."""
    return mock.patch.object(pagerank, "SCALAR_FRONTIER_MAX", value)


@contextlib.contextmanager
def _in_csr(merge_min, fold_max, scan_ratio):
    with mock.patch.object(pagerank, "MERGE_MIN_PAIRS", merge_min), \
            mock.patch.object(pagerank, "FOLD_MAX_PENDING", fold_max), \
            mock.patch.object(pagerank, "_SCAN_PER_PUSHED_EDGE", scan_ratio):
        yield


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
# no-ops, and an edge inserted and deleted in one batch ends up absent.
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
    affected_as=st.sampled_from(["array", "set", "oca", "restored"]),
    tolerance=st.sampled_from([0.0, 1e-7, 1e-3]),
    max_rounds=st.sampled_from([1, 2, 100]),
    frontier_max=st.sampled_from(FRONTIER_SPLITS),
    in_csr=st.sampled_from(IN_CSR_SETTINGS),
    tracked=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_matches_reference_loop(
    stream, affected_as, tolerance, max_rounds, frontier_max, in_csr, tracked
):
    with _frontier_max(frontier_max), _in_csr(*in_csr):
        _stream_matches_reference(
            stream, affected_as, tolerance, max_rounds, tracked
        )


def _stream_matches_reference(stream, affected_as, tolerance, max_rounds, tracked):
    """``oca`` defers every other round, so the next one covers two
    batches; ``restored`` round-trips graph, engine and oracle through one
    pickle (as a pipeline checkpoint does) before every other call;
    ``tracked`` changes the out-dicts' insertion order, which the ranks must
    not follow."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=False)
    graph.track_deltas(tracked)
    engine = IncrementalPageRank(graph, tolerance=tolerance, max_rounds=max_rounds)
    reference = CanonicalIncrementalPageRank(
        graph, tolerance=tolerance, max_rounds=max_rounds
    )
    pending, covered = np.empty(0, dtype=np.int64), []
    for batch_id, batch_ops in enumerate(stream):
        batch = _batch(batch_ops, batch_id)
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        if affected_as == "oca":
            pending = np.union1d(pending, affected)
            covered.append(batch)
            if batch_id % 2 == 0 and batch_id + 1 < len(stream):
                continue
            affected, pending = pending, np.empty(0, dtype=np.int64)
        else:
            covered = [batch]
        if affected_as == "set":
            affected = set(affected.tolist())
        if affected_as == "restored" and batch_id % 2:
            graph, engine, reference = pickle.loads(
                pickle.dumps((graph, engine, reference))
            )
        got = engine.on_batch(affected, covered)
        want = reference.on_batch(affected, covered)
        _assert_same(engine, reference, got, want)
        covered = []


@_frontier_max(ALL_NUMPY)
def test_path_graph_puts_every_vertex_in_its_own_level():
    """0 -> 1 -> ... -> n-1, visited in ascending order: each vertex reads
    its predecessor's new value, so every numpy round's levels hold one
    vertex each — the deepest schedule a round can have."""
    n = 300
    graph = AdjacencyListGraph(n, keep_in_lists=False)
    engine = IncrementalPageRank(graph, tolerance=0.0)
    reference = CanonicalIncrementalPageRank(graph, tolerance=0.0)
    batch = make_batch(list(range(n - 1)), list(range(1, n)))
    graph.apply_batch(batch)
    for covered in ([batch], [], []):
        _assert_same(
            engine, reference,
            engine.on_batch(range(n), covered), reference.on_batch(range(n)),
        )
    # A fresh vertex at the head shifts every downstream rank again.
    batch = make_batch([n - 1], [0], batch_id=1)
    graph.apply_batch(batch)
    _assert_same(
        engine, reference,
        engine.on_batch([n - 1, 0], [batch]), reference.on_batch([n - 1, 0]),
    )


def _profile_stream(name, seed, size, count):
    generator = get_dataset(name).generator(seed=seed)
    return [generator.generate_batch(i, size) for i in range(count)]


def test_lj_stream_matches_reference_loop():
    """One deterministic case at benchmark scale: lj, 20K-edge batches x3."""
    graph = AdjacencyListGraph(get_dataset("lj").num_vertices, keep_in_lists=False)
    engine = IncrementalPageRank(graph)
    reference = CanonicalIncrementalPageRank(graph)
    for batch in _profile_stream("lj", 1, 20_000, 3):
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        _assert_same(
            engine, reference,
            engine.on_batch(affected, [batch]), reference.on_batch(affected),
        )


@pytest.mark.parametrize("name, seed, size, count", [
    ("fb", 7, 500, 4), ("wiki", 7, 1_000, 3), ("lj", 1, 20_000, 3),
])
def test_exact_order_loop_is_a_bounded_oracle(name, seed, size, count):
    """The loop the kernel followed before the canonical order (set and
    dict iteration order) moves ranks only within a bound fixed beforehand,
    at the default settings.  Truncated runs (``max_rounds`` 1 or 2) get no
    bound: there the visiting order decides the values."""
    graph = AdjacencyListGraph(get_dataset(name).num_vertices)
    engine = IncrementalPageRank(graph)
    exact = ReferenceIncrementalPageRank(graph)
    for batch in _profile_stream(name, seed, size, count):
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        engine.on_batch(affected, [batch])
        exact.on_batch(affected)
    got, want = engine.as_array(), exact.as_array()
    assert np.abs(got - want).max() <= EXACT_ORDER_MAX_DIFF
    assert np.abs(got - want).sum() / np.abs(want).sum() <= EXACT_ORDER_REL_L1


def test_pr_ranks_do_not_follow_out_dict_order():
    """A tracked graph inserts new out-edges sorted by target, an untracked
    one in arrival order; ``pr`` reads no order of the graph's, so both give
    equal RunMetrics and bit-identical ranks."""
    config = RunConfig(dataset="wiki", batch_size=1_000, num_batches=3)
    tracked = AdjacencyListGraph(get_dataset("wiki").num_vertices, keep_in_lists=False)
    tracked.track_deltas(True)
    pipelines = [config.build_pipeline(), config.build_pipeline(graph=tracked)]
    metrics = [p.run(3) for p in pipelines]
    assert metrics[0] == metrics[1]
    ranks = [p.compute.engine.as_array() for p in pipelines]
    assert np.array_equal(*ranks)


def _counter(telemetry, name):
    return telemetry.snapshot().counter(name)


def _oracle_pair(num_vertices, **kwargs):
    """A graph, an engine counting into basic telemetry, and a call that
    checks one engine call against the canonical loop."""
    graph = AdjacencyListGraph(num_vertices, keep_in_lists=False)
    telemetry = Telemetry("basic")
    engine = IncrementalPageRank(graph, telemetry=telemetry, **kwargs)
    reference = CanonicalIncrementalPageRank(graph, **kwargs)

    def call(affected, covered, frontier_max):
        with _frontier_max(frontier_max):
            _assert_same(
                engine, reference,
                engine.on_batch(affected, covered), reference.on_batch(affected),
            )

    return graph, telemetry, call


def _apply(graph, src, dst, batch_id, is_delete=None):
    batch = make_batch(src, dst, batch_id=batch_id, is_delete=is_delete)
    graph.apply_batch(batch)
    return batch


def test_missed_batch_triggers_a_rebuild():
    """A caller that applies a batch but leaves it out of ``batches`` breaks
    the contract; the edge-count guard notices and rebuilds the in-CSR from
    the out-adjacency, so the call still sees the current graph."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    call([0, 1, 2], [_apply(graph, [0, 1], [1, 2], 0)], ALL_NUMPY)
    _apply(graph, [3], [2], 1)  # 2's in-list grows, unannounced
    call([3, 2], [], ALL_SCALAR)
    assert _counter(telemetry, "pagerank.csr_rebuilds") == 1
    call([2], [], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_rebuilds") == 1


def test_missed_batch_that_keeps_the_edge_count_is_caught_at_the_next_fold():
    """A missed batch that deletes one edge and inserts another leaves the
    edge count alone.  Calls that do not reach the vertices it changed see
    nothing; the in-degree check of the next fold catches it and rebuilds
    before the numpy round reads the CSR."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    call([0, 1, 2, 3], [_apply(graph, [0, 1, 3], [1, 2, 2], 0)], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_folds") == 1
    _apply(graph, [3, 4], [2, 5], 1, is_delete=[True, False])  # unannounced
    call([6, 7], [_apply(graph, [6], [7], 2)], ALL_SCALAR)
    assert _counter(telemetry, "pagerank.csr_rebuilds") == 0
    call([2, 5], [], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_folds") == 2
    assert _counter(telemetry, "pagerank.csr_rebuilds") == 1


def test_sync_covers_every_call_since_the_last_numpy_round():
    """Edits made by small batches under scalar-only calls reach the in-CSR
    at the next numpy round's fold, even for vertices that call does not
    pass.  Vertex 2's sources change content but never length, so the
    in-degree check cannot catch a fold that skips it."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    call([0, 1, 2, 3], [_apply(graph, [0, 1, 2, 3], [2, 2, 3, 0], 0)], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_folds") == 1  # in(2) = [0, 1]
    first = _apply(graph, [0, 4], [2, 2], 1, is_delete=[True, False])
    call([0, 2, 4], [first], ALL_SCALAR)  # in(2) = [1, 4]
    covered = [
        _apply(graph, [1], [2], 2, is_delete=[True]),
        _apply(graph, [5], [2], 3),
    ]
    call([1, 2, 5], covered, ALL_SCALAR)  # in(2) = [4, 5]
    assert _counter(telemetry, "pagerank.csr_folds") == 1
    # 6 -> 4 pushes to 4, and 4 pushes to 2 in round 2.
    call([4, 6], [_apply(graph, [6], [4], 4)], ALL_NUMPY)
    assert _counter(telemetry, "pagerank.csr_folds") == 2
    assert _counter(telemetry, "pagerank.csr_rebuilds") == 0


def test_round_covering_a_merge_then_list_edits_needs_no_rebuild():
    """An OCA round may cover a batch large enough to merge followed by a
    small one: the small one's list edits are folded into the merged CSR
    before the guard compares its in-lengths with the graph's."""
    graph, telemetry, call = _oracle_pair(8, tolerance=0.0)
    with _in_csr(3, pagerank.FOLD_MAX_PENDING, pagerank._SCAN_PER_PUSHED_EDGE):
        large = _apply(graph, [0, 1, 2, 3], [1, 2, 3, 4], 0)
        small = _apply(graph, [4], [5], 1)
        call([0, 1, 2, 3, 4, 5], [large, small], ALL_SCALAR)
    assert _counter(telemetry, "pagerank.csr_merges") == 1
    assert _counter(telemetry, "pagerank.csr_folds") == 1
    assert _counter(telemetry, "pagerank.csr_rebuilds") == 0


def test_fb_stream_runs_both_paths_at_the_default_threshold():
    """fb at serve's micro-batch size, on a graph warmed by a larger batch:
    the large batches merge and their rounds run numpy, the 60-edge calls
    edit lists and run scalar, and the lists fold in bounded groups."""
    graph = AdjacencyListGraph(get_dataset("fb").num_vertices, keep_in_lists=False)
    telemetry = Telemetry("basic")
    engine = IncrementalPageRank(graph, telemetry=telemetry)
    reference = CanonicalIncrementalPageRank(graph)
    generator = get_dataset("fb").generator(seed=3)
    for i, size in enumerate([3000] + [60] * 100 + [1000]):
        batch = generator.generate_batch(i, size)
        graph.apply_batch(batch)
        affected = batch.unique_vertices()
        _assert_same(
            engine, reference,
            engine.on_batch(affected, [batch]), reference.on_batch(affected),
        )
    counters = telemetry.snapshot().counters
    assert counters["pagerank.scalar_rounds"] > 100
    assert counters["pagerank.vector_rounds"] > 0
    assert counters["pagerank.csr_merges"] == 2
    assert counters["pagerank.csr_folds"] > 0
    assert counters["pagerank.csr_rebuilds"] == 0


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
    graph = AdjacencyListGraph(16, keep_in_lists=False)
    engine = IncrementalPageRank(graph)
    reference = CanonicalIncrementalPageRank(graph)
    batch = make_batch([0, 1, 2, 3, 4, 4], [1, 2, 3, 0, 0, 4])
    graph.apply_batch(batch)
    _assert_same(
        engine, reference,
        engine.on_batch(batch.unique_vertices(), [batch]),
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
        engine.on_batch(batch.unique_vertices(), [batch]),
        reference.on_batch(batch.unique_vertices()),
    )


def test_pickle_carries_no_cache_arrays():
    with _frontier_max(ALL_NUMPY):
        graph, engine, reference = _warm_engine()
    # A scalar-only call leaves a change pending in a source list.
    with _frontier_max(ALL_SCALAR):
        _continue(engine, reference)
    assert engine._ptr is not None and engine._pos is not None
    assert engine._dirty
    state = engine.__getstate__()
    assert not set(IncrementalPageRank._CACHES) & state.keys()
    restored = pickle.loads(pickle.dumps(engine))
    assert restored._ptr is None and restored._src is None
    assert restored._lists is None and restored._dirty is None
    # The restored engine reads its own graph copy, which already holds
    # the covered batch: its first call rebuilds the in-CSR from it.
    with _frontier_max(ALL_SCALAR):
        _continue(restored, reference, [6, 5], [1, 6], batch_id=2)
    assert restored._ptr is not None
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
    assert resumed.telemetry.snapshot().counters["pagerank.csr_rebuilds"] == 1


def test_as_array_is_a_fresh_copy():
    __, engine, __ = _warm_engine()
    ranks = engine.as_array()
    ranks[:] = -1.0
    assert (engine.as_array() > 0).all()
