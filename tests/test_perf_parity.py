"""Parity tests for the wall-clock perf layer.

The optimized substrate paths (vectorized ingest, delta CSR snapshots, the
parallel workload executor, the on-disk stream cache) must be *invisible*
semantically: every test here pins an optimized path against its reference
implementation and requires bit-identical results — same dtypes, same
values, same ordering.
"""

import functools
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from repro.datasets.profiles import get_dataset
from repro.datasets.stream import Batch
from repro.datasets.stream_cache import cached_batches, cache_stats, clear_cache
from repro.errors import ConfigurationError
from repro.graph import adjacency_list
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.base import GraphDelta
from repro.graph.reference import ReferenceAdjacencyListGraph
from repro.graph.snapshot import CSRSnapshot, DeltaSnapshotter, take_snapshot
from repro.pipeline.config import RunConfig
from repro.pipeline.executor import CellSpec, mp_context, run_matrix
from test_pipeline_parity import capture_parity

N_VERTICES = 24

# A batch: edges with weight-salt (so repeats can change the stored weight)
# and a deletion flag.  Self-loops stay in: the graph accepts them.
batch_strategy = st.lists(
    st.tuples(
        st.integers(0, N_VERTICES - 1),  # src
        st.integers(0, N_VERTICES - 1),  # dst
        st.integers(0, 2),               # weight salt
        st.booleans(),                   # is_delete
    ),
    min_size=1,
    max_size=40,
)
sequence_strategy = st.lists(batch_strategy, min_size=1, max_size=6)


def _small_universe_sequence(universe):
    """Streams like ``sequence_strategy`` on vertices ``[0, universe)``."""
    edge = st.tuples(
        st.integers(0, universe - 1), st.integers(0, universe - 1),
        st.integers(0, 2), st.booleans(),
    )
    return st.lists(st.lists(edge, min_size=1, max_size=40), min_size=1, max_size=6)


#: Streams on all of N_VERTICES, or on 4 of them, where nearly every batch
#: re-weights, deletes and re-inserts pairs the previous ones stored.
snapshot_sequence_strategy = st.one_of(
    sequence_strategy, _small_universe_sequence(4)
)


def _to_batch(edge_list, batch_id):
    src = [e[0] for e in edge_list]
    dst = [e[1] for e in edge_list]
    weight = [float((u * 31 + v * 7 + salt) % 9 + 1) for u, v, salt, __ in edge_list]
    deletes = [d for __, __, __, d in edge_list]
    return make_batch(src, dst, weight, batch_id=batch_id, is_delete=deletes)


def _assert_snapshots_identical(a: CSRSnapshot, b: CSRSnapshot):
    assert a.num_vertices == b.num_vertices
    for field in ("out_offsets", "out_targets", "out_weights"):
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field


# -- delta snapshots vs full rebuilds -----------------------------------------


@given(snapshot_sequence_strategy, st.booleans())
@settings(max_examples=50, deadline=None)
def test_delta_snapshot_matches_full_rebuild(sequence, keep_in_lists):
    """Patched snapshots are bit-identical to full rebuilds after every batch
    of a randomized insert/delete/duplicate-heavy stream, on graphs with
    and without in-lists.  The snapshotter attaches to an empty graph, so
    every snapshot, the first included, is a splice."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    snapper = DeltaSnapshotter(graph)
    for batch_id, edge_list in enumerate(sequence):
        graph.apply_batch(_to_batch(edge_list, batch_id))
        _assert_snapshots_identical(snapper.snapshot(), take_snapshot(graph))
    assert (snapper.full_rebuilds, snapper.delta_patches) == (0, len(sequence))


@given(snapshot_sequence_strategy, st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_delta_snapshot_with_skipped_batches(sequence, keep_in_lists, data):
    """Journals accumulated over several batches patch correctly too: the
    snapshots fall after drawn batches, so one window spans up to six."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    snapper = DeltaSnapshotter(graph)
    taken = data.draw(st.lists(
        st.booleans(), min_size=len(sequence), max_size=len(sequence)
    ))
    for batch_id, edge_list in enumerate(sequence):
        graph.apply_batch(_to_batch(edge_list, batch_id))
        if taken[batch_id]:
            _assert_snapshots_identical(snapper.snapshot(), take_snapshot(graph))
    _assert_snapshots_identical(snapper.snapshot(), take_snapshot(graph))
    assert snapper.full_rebuilds == 0


#: Per case, four batches of (src, dst, weight, is_delete) edges.
SPLICE_CASES = {
    "appended-and-deleted-in-one-batch": [
        [(1, 2, 1.0, False), (1, 3, 1.0, False)],
        [(1, 4, 2.0, False), (1, 4, 1.0, True), (1, 2, 1.0, True)],
        [(1, 5, 1.0, False)],
        [(1, 4, 3.0, False), (1, 5, 1.0, True)],
    ],
    "deleted-then-re-inserted-later": [
        [(1, 2, 1.0, False), (1, 3, 1.0, False), (1, 5, 1.0, False)],
        [(1, 2, 1.0, True), (0, 1, 1.0, False)],
        [(1, 6, 1.0, False)],
        [(1, 2, 5.0, False), (1, 3, 1.0, True)],
    ],
    "appended-then-re-weighted": [
        [(1, 3, 1.0, False)],
        [(1, 2, 1.0, False), (1, 4, 1.0, False)],
        [(1, 2, 3.0, False), (1, 4, 1.0, False)],
        [(1, 2, 2.0, False), (1, 3, 4.0, False)],
    ],
    "re-weighted-then-deleted": [
        [(1, 2, 1.0, False), (1, 3, 1.0, False)],
        [(1, 2, 4.0, False)],
        [(1, 2, 1.0, True), (1, 3, 2.0, False)],
        [(1, 2, 7.0, False), (1, 3, 1.0, True)],
    ],
}


@pytest.mark.parametrize("window", [1, 2, 3, 4])
@pytest.mark.parametrize("case", SPLICE_CASES)
@pytest.mark.parametrize("keep_in_lists", [True, False])
def test_splice_follows_a_pairs_edits_within_and_across_windows(
    case, window, keep_in_lists,
):
    """A pair's edits resolve alike whether one window holds them or they
    span several batches: snapshots after every ``window`` batches equal
    full rebuilds."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    snapper = DeltaSnapshotter(graph)
    for batch_id, edges in enumerate(SPLICE_CASES[case]):
        src, dst, weight, deletes = zip(*edges)
        graph.apply_batch(make_batch(
            src, dst, weight, batch_id=batch_id, is_delete=deletes
        ))
        if (batch_id + 1) % window == 0:
            _assert_snapshots_identical(snapper.snapshot(), take_snapshot(graph))
    _assert_snapshots_identical(snapper.snapshot(), take_snapshot(graph))
    assert snapper.full_rebuilds == 0


@pytest.mark.parametrize("keep_in_lists", [True, False])
def test_integer_weights_splice_like_float_ones(keep_in_lists):
    """A batch may carry integer weights, whose small values Python caches
    as shared objects; the tracked merge still tells a re-inserted pair
    from a new one, in its journal and in the derived in-degrees."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    snapper = DeltaSnapshotter(graph)
    for batch_id in range(3):
        graph.apply_batch(Batch(
            batch_id, np.array([1, 1, 2]), np.array([2, 3, 1]),
            np.array([1, 2 + batch_id, 1]),
        ))
        _assert_snapshots_identical(snapper.snapshot(), take_snapshot(graph))
    assert graph.num_edges == 3
    assert graph.in_degrees()[[1, 2, 3]].tolist() == [1, 1, 1]


def test_checkpoints_with_in_direction_state_still_resume():
    """Pickles from before out-only tracking carry an in-CSR on the cached
    snapshot and an in-direction journal on the graph.  They load, the
    extra state is ignored, and the pending out-journal still patches
    bit-identically."""
    graph = AdjacencyListGraph(N_VERTICES)
    snapper = DeltaSnapshotter(graph)
    graph.apply_batch(make_batch([0, 0, 3, 2], [1, 2, 1, 0]))
    snapper.snapshot()
    graph.apply_batch(make_batch(
        [0, 1, 0, 3], [5, 3, 1, 1], [1.0, 1.0, 4.0, 1.0], batch_id=1,
        is_delete=[False, False, False, True],
    ))
    # Reshape into the old layout, with a journal still pending.
    for name in ("in_offsets", "in_sources", "in_weights"):
        object.__setattr__(snapper._prev, name, np.zeros(1))
    in_journal = [(np.array([3]), np.array([1]), np.array([1.0]))]
    graph._journal_in, graph._stale_in = in_journal, {1}
    restored = pickle.loads(pickle.dumps(snapper))
    restored.graph.apply_batch(make_batch(
        [4, 0], [0, 2], batch_id=2, is_delete=[False, True]
    ))
    _assert_snapshots_identical(restored.snapshot(), take_snapshot(restored.graph))
    # Both snapshots spliced: the first from the empty CSR.
    assert (restored.full_rebuilds, restored.delta_patches) == (0, 2)


# -- vectorized ingest vs the seed loop ---------------------------------------


def _assert_stats_identical(mine, ref):
    for field in ("vertices", "batch_degree", "length_before", "new_edges"):
        left, right = getattr(mine, field), getattr(ref, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field


def _assert_degrees_match_views(graph):
    views = graph.adjacency_views()
    for degrees, view in zip((graph.out_degrees(), graph.in_degrees()), views):
        want = [len(view.get(v, {})) for v in range(graph.num_vertices)]
        assert degrees.tolist() == want


def _nonempty(view):
    return {v: entry for v, entry in view.items() if entry}


@pytest.mark.parametrize("tracked, keep_in_lists", [
    pytest.param(False, True, id="untracked"),
    pytest.param(True, True, id="tracked"),
    pytest.param(False, False, id="out-only"),
    pytest.param(True, False, id="out-only-tracked"),
])
@given(sequence=sequence_strategy)
@settings(max_examples=50, deadline=None)
def test_vectorized_ingest_matches_reference(sequence, tracked, keep_in_lists):
    """The vectorized `_apply_direction` reproduces the seed loop exactly:
    DirectionStats arrays (dtype and values), adjacency content, degree
    caches (checked against the views after every batch, deletes
    included), touched vertices, edge counts, and per-vertex dict item
    order.  Tracking journals the out-direction only: the in-direction
    keeps the seed loop's first-occurrence order either way, while the
    tracked out-direction inserts each vertex's new targets in ascending
    order.  A graph without in-lists derives the in-direction's stats
    from the out-merge; its in-mapping is built from the out-dicts, so
    only its content is compared."""
    vec = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    vec.track_deltas(tracked)
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    for batch_id, edge_list in enumerate(sequence):
        batch = _to_batch(edge_list, batch_id)
        stats_vec = vec.apply_batch(batch)
        stats_ref = ref.apply_batch(batch)
        _assert_stats_identical(stats_vec.out, stats_ref.out)
        _assert_stats_identical(stats_vec.inn, stats_ref.inn)
        assert stats_vec.deleted_edges == stats_ref.deleted_edges
        _assert_degrees_match_views(vec)
        assert vec.in_degrees().tolist() == ref.in_degrees().tolist()
        assert vec.vertices_with_edges() == ref.vertices_with_edges()
    assert vec.num_edges == ref.num_edges
    out_vec, in_vec = vec.adjacency_views()
    out_ref, in_ref = ref.adjacency_views()
    assert out_vec == out_ref
    if keep_in_lists:
        assert in_vec == in_ref
        for v, entry in in_vec.items():
            assert list(entry.items()) == list(in_ref[v].items())
    else:
        assert _nonempty(in_vec) == _nonempty(in_ref)
    if not tracked:
        for v, entry in out_vec.items():
            assert list(entry.items()) == list(out_ref[v].items())
    assert vec.vertices_with_edges() == ref.vertices_with_edges()


# -- deletes: explicit cases ----------------------------------------------------


_OutOnlyGraph = functools.partial(AdjacencyListGraph, keep_in_lists=False)

#: Every ingest path a delete can follow.
DELETE_GRAPHS = [
    pytest.param(AdjacencyListGraph, False, id="dict"),
    pytest.param(AdjacencyListGraph, True, id="dict-tracked"),
    pytest.param(_OutOnlyGraph, False, id="out-only"),
    pytest.param(_OutOnlyGraph, True, id="out-only-tracked"),
    pytest.param(ReferenceAdjacencyListGraph, False, id="reference"),
]


def _apply_delete_case(cls, tracked, batches):
    graph = cls(N_VERTICES)
    graph.track_deltas(tracked)
    stats = []
    for batch_id, (src, dst, weight, deletes) in enumerate(batches):
        graph.consume_delta()
        stats.append(graph.apply_batch(make_batch(
            src, dst, weight, batch_id=batch_id, is_delete=deletes
        )))
        _assert_degrees_match_views(graph)
    assert adjacency_list._EMPTY == {}
    return graph, stats


def _items(view, v):
    return list(view.get(v, {}).items())


@pytest.mark.parametrize("cls, tracked", DELETE_GRAPHS)
def test_duplicate_delete_in_one_batch_removes_once(cls, tracked):
    graph, stats = _apply_delete_case(cls, tracked, [
        ([1, 1], [2, 3], [1.0, 2.0], None),
        ([1, 1], [2, 2], None, [True, True]),
    ])
    assert stats[1].deleted_edges == 1
    assert graph.num_edges == 1
    out_view, in_view = graph.adjacency_views()
    assert _items(out_view, 1) == [(3, 2.0)]
    assert _items(in_view, 2) == []
    if tracked:
        delta = graph.consume_delta()
        assert delta.kinds.tolist() == [GraphDelta.DELETE]
        assert (delta.owners.tolist(), delta.targets.tolist()) == ([1], [2])


@pytest.mark.parametrize("cls, tracked", DELETE_GRAPHS)
def test_deleting_absent_edges_and_unseen_vertices_is_a_no_op(cls, tracked):
    graph, stats = _apply_delete_case(cls, tracked, [
        ([1], [2], [1.0], None),
        ([1, 2, 7], [5, 1, 8], None, [True, True, True]),
    ])
    assert stats[1].deleted_edges == 0
    assert graph.num_edges == 1
    out_view, in_view = graph.adjacency_views()
    assert _items(out_view, 1) == [(2, 1.0)]
    assert 7 not in out_view and 8 not in in_view
    assert graph.vertices_with_edges() == [1, 2]
    if tracked:
        assert len(graph.consume_delta().kinds) == 0


@pytest.mark.parametrize("cls, tracked", DELETE_GRAPHS)
def test_self_loop_delete(cls, tracked):
    graph, stats = _apply_delete_case(cls, tracked, [
        ([4, 4], [4, 1], [3.0, 1.0], None),
        ([4], [4], None, [True]),
    ])
    assert stats[1].deleted_edges == 1
    out_view, in_view = graph.adjacency_views()
    assert _items(out_view, 4) == [(1, 1.0)]
    assert _items(in_view, 4) == []
    assert _items(in_view, 1) == [(4, 1.0)]
    assert graph.out_degrees()[4] == 1 and graph.in_degrees()[4] == 0


@pytest.mark.parametrize("cls, tracked", DELETE_GRAPHS)
def test_delete_then_reinsert_in_a_later_batch(cls, tracked):
    graph, stats = _apply_delete_case(cls, tracked, [
        ([1, 1], [2, 3], [1.0, 2.0], None),
        ([1], [2], None, [True]),
        ([1], [2], [5.0], None),
    ])
    assert [s.deleted_edges for s in stats] == [0, 1, 0]
    assert stats[2].out.new_edges.tolist() == [1]
    assert graph.num_edges == 2
    out_view, in_view = graph.adjacency_views()
    # The re-inserted edge is new again: it lands at the end.
    assert _items(out_view, 1) == [(3, 2.0), (2, 5.0)]
    assert _items(in_view, 2) == [(1, 5.0)]


def test_notify_external_mutation_resyncs_caches():
    """Direct adjacency mutation + notify leaves all caches consistent."""
    graph = AdjacencyListGraph(8)
    graph.track_deltas(True)
    graph.apply_batch(make_batch([0, 1], [1, 2]))
    out, inn = graph.adjacency_views()
    out.setdefault(5, {})[6] = 1.0  # bypasses apply_batch entirely
    inn.setdefault(6, {})[5] = 1.0
    graph.notify_external_mutation()
    assert graph.num_edges == 3
    assert 5 in graph.vertices_with_edges() and 6 in graph.vertices_with_edges()
    # The delta journal can no longer vouch for the mutation: one None
    # hand-back forces the snapshotter to rebuild from scratch.
    assert graph.consume_delta() is None
    _assert_snapshots_identical(
        DeltaSnapshotter(graph).snapshot(), take_snapshot(graph)
    )


def _stream_with_deletes(dataset, batch_size, count):
    """``count`` batches of ``dataset``'s stream; from the second on, each
    also deletes the first fifth of the previous batch's edges."""
    generator = get_dataset(dataset).generator(seed=7)
    batches, previous = [], None
    for i in range(count):
        inserts = generator.generate_batch(i, batch_size)
        src, dst = inserts.src.tolist(), inserts.dst.tolist()
        deletes = 0
        if previous is not None:
            deletes = len(previous.src) // 5
            src += previous.src[:deletes].tolist()
            dst += previous.dst[:deletes].tolist()
        is_delete = [False] * len(inserts.src) + [True] * deletes
        batches.append(make_batch(src, dst, batch_id=i, is_delete=is_delete))
        previous = inserts
    return batches


@pytest.mark.parametrize("algorithm", ["pr_static", "none", "pr", "cc"])
@pytest.mark.parametrize("mode", capture_parity.MODE_LIST)
def test_out_only_pipeline_matches_one_with_in_lists(mode, algorithm):
    """A pipeline whose algorithm reads no in-lists builds its graph
    without them, never builds an in-mapping from its out-dicts, and its
    RunMetrics equal those of the same config given a graph that keeps
    them, in every golden mode (hw_only and dynamic feed both directions'
    stats to the HAU).  ``cc`` runs a stream with deletes, whose batches
    relabel from the out-adjacency."""
    config = RunConfig(
        dataset="fb", batch_size=500, algorithm=algorithm, mode=mode,
        num_batches=4,
    )
    out_only = config.build_pipeline()
    assert not out_only.graph.keeps_in_lists
    kept = config.build_pipeline(
        graph=AdjacencyListGraph(get_dataset("fb").num_vertices)
    )
    batches = _stream_with_deletes("fb", 500, 4) if algorithm == "cc" else None

    def run(pipeline):
        if batches is None:
            return pipeline.run(4)
        for i, batch in enumerate(batches):
            pipeline.step(final=i == len(batches) - 1, batch=batch)
        assert pipeline.compute.engine.rebuilds == 3
        return pipeline.metrics

    with mock.patch.object(
        AdjacencyListGraph, "_in_from_out", side_effect=AssertionError
    ):
        got = run(out_only)
    assert got == run(kept)


# -- workload executor ---------------------------------------------------------


def test_run_matrix_parallel_matches_serial():
    specs = [
        CellSpec(dataset="fb", batch_size=1_000, algorithm=alg, num_batches=2)
        for alg in ("pr", "sssp")
    ]
    serial = run_matrix(specs, jobs=1)
    parallel = run_matrix(specs, jobs=2)
    assert serial == parallel  # frozen dataclasses: full-value equality


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_run_matrix_start_method_parity(monkeypatch, method):
    """Merged matrix results must not depend on the worker start method —
    the executor pins one explicitly instead of trusting the platform
    default (which Python changes across versions and OSes)."""
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} unavailable on this platform")
    specs = [
        CellSpec(dataset="fb", batch_size=1_000, algorithm=alg, num_batches=2)
        for alg in ("pr", "sssp")
    ]
    serial = run_matrix(specs, jobs=1)
    monkeypatch.setenv("REPRO_MP_START", method)
    assert mp_context().get_start_method() == method
    assert run_matrix(specs, jobs=2) == serial


def test_mp_start_override_validated(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "sideways")
    with pytest.raises(ConfigurationError):
        mp_context()


# -- stream cache --------------------------------------------------------------


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
    return tmp_path


def _batch_fields_equal(a, b):
    assert a.batch_id == b.batch_id
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.weight, b.weight)
    if a.is_delete is None or b.is_delete is None:
        da = a.is_delete if a.is_delete is not None else np.zeros(len(a.src), bool)
        db = b.is_delete if b.is_delete is not None else np.zeros(len(b.src), bool)
        assert np.array_equal(da, db)
    else:
        assert np.array_equal(a.is_delete, b.is_delete)


def test_stream_cache_round_trip(tmp_cache):
    profile = get_dataset("fb")
    fresh = list(profile.generator(seed=7).batches(500, 3))
    first = list(cached_batches(profile, 500, 3, seed=7))   # miss: generates
    second = list(cached_batches(profile, 500, 3, seed=7))  # hit: loads
    for a, b, c in zip(fresh, first, second):
        _batch_fields_equal(a, b)
        _batch_fields_equal(a, c)
    stats = cache_stats()
    assert stats["entries"] == 1


def test_stream_cache_prefix_and_extension(tmp_cache):
    profile = get_dataset("fb")
    list(cached_batches(profile, 500, 4, seed=7))
    # Prefix of a longer cached stream is served from it.
    prefix = list(cached_batches(profile, 500, 2, seed=7))
    fresh = list(profile.generator(seed=7).batches(500, 2))
    for a, b in zip(fresh, prefix):
        _batch_fields_equal(a, b)
    # Asking for more re-generates and re-caches the longer stream.
    longer = list(cached_batches(profile, 500, 6, seed=7))
    fresh6 = list(profile.generator(seed=7).batches(500, 6))
    for a, b in zip(fresh6, longer):
        _batch_fields_equal(a, b)
    assert clear_cache() >= 1


def test_stream_cache_disabled_env(tmp_cache, monkeypatch):
    monkeypatch.setenv("REPRO_STREAM_CACHE", "0")
    profile = get_dataset("fb")
    list(cached_batches(profile, 500, 2, seed=7))
    assert cache_stats()["entries"] == 0


def test_stream_cache_mid_stream_short_batch(tmp_cache):
    """Per-batch sizes survive the round trip even for short batches.

    The pre-fix loader sliced a flat ``num_batches * batch_size`` prefix,
    which silently misaligned every batch after a short one; the sizes
    array must reproduce the exact boundaries instead.
    """
    from repro.datasets.stream import Batch
    from repro.datasets.stream_cache import _load, _save, cache_dir

    rng = np.random.default_rng(3)
    sizes = [500, 120, 500]
    saved = []
    for i, size in enumerate(sizes):
        saved.append(
            Batch(
                batch_id=i,
                src=rng.integers(0, 100, size).astype(np.int64),
                dst=rng.integers(0, 100, size).astype(np.int64),
                weight=rng.random(size),
                is_delete=(rng.random(size) < 0.25) if i == 1 else None,
            )
        )
    path = cache_dir() / "short-batches.npz"
    _save(path, saved, 500)
    loaded = _load(path, 500, 3)
    assert loaded is not None
    assert [b.size for b in loaded] == sizes
    for a, b in zip(saved, loaded):
        _batch_fields_equal(a, b)


def test_stream_cache_length_mismatch_is_miss(tmp_cache):
    """Arrays inconsistent with the sizes metadata are rejected, not served."""
    from repro.datasets.stream_cache import _entry_path, _load

    profile = get_dataset("fb")
    list(cached_batches(profile, 500, 3, seed=7))
    path = _entry_path(profile, 500, 7)
    data = dict(np.load(path))
    data["src"] = data["src"][:-7]  # torn entry: flat array too short
    np.savez(path, **data)
    assert _load(path, 500, 3) is None
    # cached_batches regenerates the real stream instead of misaligning.
    fresh = list(profile.generator(seed=7).batches(500, 3))
    again = list(cached_batches(profile, 500, 3, seed=7))
    for a, b in zip(fresh, again):
        _batch_fields_equal(a, b)


def test_stream_cache_old_format_is_miss(tmp_cache):
    """A v1 entry (3-element meta, no sizes array) loads as a cache miss."""
    from repro.datasets.generators import GENERATOR_VERSION
    from repro.datasets.stream_cache import _entry_path, _load

    profile = get_dataset("fb")
    fresh = list(profile.generator(seed=7).batches(500, 2))
    path = _entry_path(profile, 500, 7)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        meta=np.array([2, 500, GENERATOR_VERSION], dtype=np.int64),
        src=np.concatenate([b.src for b in fresh]),
        dst=np.concatenate([b.dst for b in fresh]),
        weight=np.concatenate([b.weight for b in fresh]),
        has_delete=np.zeros(2, dtype=bool),
        is_delete=np.zeros(1000, dtype=bool),
    )
    assert _load(path, 500, 2) is None


def test_stream_cache_mutated_profile_misses_old_entry(tmp_cache):
    """Editing a profile's generator parameters must invalidate the cache.

    The pre-fix key was ``{name}-b{batch_size}-s{seed}-v{version}``: a
    profile edited in place (without a GENERATOR_VERSION bump) silently
    replayed the stale stream.  The fingerprint keys the entry to every
    generator input.
    """
    import dataclasses

    profile = get_dataset("fb")
    list(cached_batches(profile, 500, 2, seed=7))
    assert cache_stats()["entries"] == 1
    mutated = dataclasses.replace(profile, num_vertices=profile.num_vertices * 2)
    served = list(cached_batches(mutated, 500, 2, seed=7))
    # The mutated profile generated (and cached) its own stream...
    assert cache_stats()["entries"] == 2
    # ...and it is the *mutated* generator's stream, not the stale one.
    fresh = list(mutated.generator(seed=7).batches(500, 2))
    for a, b in zip(fresh, served):
        _batch_fields_equal(a, b)
