"""Parity tests for the wall-clock perf layer.

The optimized substrate paths (vectorized segment ingest, gathered CSR
snapshots, the parallel workload executor, the on-disk stream cache) must
be *invisible* semantically: every test here pins an optimized path against
its reference implementation and requires bit-identical results — same
dtypes, same values, same ordering.
"""

import contextlib
import functools
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
from repro.graph.reference import ReferenceAdjacencyListGraph
from repro.graph.snapshot import CSRSnapshot, DeltaSnapshotter, take_snapshot
from repro.pipeline.config import RunConfig
from repro.pipeline.executor import CellSpec, mp_context, run_matrix
from repro.telemetry.core import NULL_TELEMETRY
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
#: repeats, re-weights, deletes and re-inserts pairs the previous ones
#: stored.
snapshot_sequence_strategy = st.one_of(
    sequence_strategy, _small_universe_sequence(4)
)


def _to_batch(edge_list, batch_id, integer_weights=False):
    src = [e[0] for e in edge_list]
    dst = [e[1] for e in edge_list]
    weight = [float((u * 31 + v * 7 + salt) % 9 + 1) for u, v, salt, __ in edge_list]
    deletes = [d for __, __, __, d in edge_list]
    batch = make_batch(src, dst, weight, batch_id=batch_id, is_delete=deletes)
    if integer_weights:
        batch = Batch(batch_id, batch.src, batch.dst, batch.weight.astype(np.int64),
                      batch.is_delete)
    return batch


@contextlib.contextmanager
def _tight_pool(tight=True):
    """Segments whose first capacity is 1, so they move on every early
    growth."""
    if not tight:
        yield
        return
    with mock.patch.object(adjacency_list, "MIN_CAPACITY", 1):
        yield


def _assert_snapshots_identical(a: CSRSnapshot, b: CSRSnapshot):
    assert a.num_vertices == b.num_vertices
    for field in ("out_offsets", "out_targets", "out_weights"):
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field


def _assert_stats_identical(mine, ref):
    for field in ("vertices", "batch_degree", "length_before", "new_edges"):
        left, right = getattr(mine, field), getattr(ref, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field


def _items(view):
    """Each non-empty entry of a mapping as its ordered item list."""
    return {v: list(entry.items()) for v, entry in view.items() if entry}


def _assert_same_graph(graph, ref):
    """``graph`` holds what the dict oracle ``ref`` holds: each vertex's
    entries in the same order (the in-direction's content only when
    ``graph`` keeps no in-lists), both degree arrays, the edge count and
    the touched vertices."""
    assert graph.num_edges == ref.num_edges
    assert graph.out_degrees().tolist() == ref.out_degrees().tolist()
    assert graph.in_degrees().tolist() == ref.in_degrees().tolist()
    assert graph.vertices_with_edges() == ref.vertices_with_edges()
    out, inn = graph.adjacency_views()
    ref_out, ref_in = ref.adjacency_views()
    assert _items(out) == _items(ref_out)
    if graph.keeps_in_lists:
        assert _items(inn) == _items(ref_in)
    else:
        assert {v: dict(e) for v, e in _items(inn).items()} == {
            v: dict(e) for v, e in _items(ref_in).items()
        }


def _apply_both(graph, ref, batch):
    """Apply ``batch`` to both graphs and check the stats and the state."""
    mine, want = graph.apply_batch(batch), ref.apply_batch(batch)
    _assert_stats_identical(mine.out, want.out)
    _assert_stats_identical(mine.inn, want.inn)
    assert mine.deleted_edges == want.deleted_edges
    _assert_same_graph(graph, ref)


# -- segment storage vs the dict oracle ----------------------------------------


@given(snapshot_sequence_strategy, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_delta_snapshot_matches_full_rebuild(
    sequence, keep_in_lists, integer_weights, tight
):
    """After every batch of a randomized insert/delete/duplicate-heavy
    stream, the segment graph equals the dict oracle (stats, entry order,
    degrees) and its gathered snapshot equals ``take_snapshot`` of the
    oracle, on graphs with and without in-lists, with float or integer
    weights, and with a pool that moves segments at every early growth.
    Every snapshot is a gather."""
    with _tight_pool(tight):
        graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
        ref = ReferenceAdjacencyListGraph(N_VERTICES)
        snapper = DeltaSnapshotter(graph)
        for batch_id, edge_list in enumerate(sequence):
            _apply_both(graph, ref, _to_batch(edge_list, batch_id, integer_weights))
            _assert_snapshots_identical(snapper.snapshot(), take_snapshot(ref))
    assert (snapper.full_rebuilds, snapper.delta_patches) == (0, len(sequence))


@given(snapshot_sequence_strategy, st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_delta_snapshot_with_skipped_batches(sequence, keep_in_lists, data):
    """Snapshots that fall after drawn batches, so that one spans up to six,
    equal the oracle's."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    snapper = DeltaSnapshotter(graph)
    taken = data.draw(st.lists(
        st.booleans(), min_size=len(sequence), max_size=len(sequence)
    ))
    for batch_id, edge_list in enumerate(sequence):
        _apply_both(graph, ref, _to_batch(edge_list, batch_id))
        if taken[batch_id]:
            _assert_snapshots_identical(snapper.snapshot(), take_snapshot(ref))
    _assert_snapshots_identical(snapper.snapshot(), take_snapshot(ref))
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
    """A pair's edits resolve as the dict oracle's do whether one batch or
    several hold them (the cases once pinned a journal splice): the graph
    equals the oracle after every batch, and snapshots taken every
    ``window`` batches equal the oracle's."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    snapper = DeltaSnapshotter(graph)
    for batch_id, edges in enumerate(SPLICE_CASES[case]):
        src, dst, weight, deletes = zip(*edges)
        _apply_both(graph, ref, make_batch(
            src, dst, weight, batch_id=batch_id, is_delete=deletes
        ))
        if (batch_id + 1) % window == 0:
            _assert_snapshots_identical(snapper.snapshot(), take_snapshot(ref))
    _assert_snapshots_identical(snapper.snapshot(), take_snapshot(ref))
    assert snapper.full_rebuilds == 0


@pytest.mark.parametrize("keep_in_lists", [True, False])
def test_integer_weights_splice_like_float_ones(keep_in_lists):
    """A batch may carry integer weights, whose small values Python caches
    as shared objects; the merge still tells a re-inserted pair from a new
    one, in the stats and the derived in-degrees, and stores the weights
    as floats, as the oracle's snapshot does."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    snapper = DeltaSnapshotter(graph)
    for batch_id in range(3):
        _apply_both(graph, ref, Batch(
            batch_id, np.array([1, 1, 2]), np.array([2, 3, 1]),
            np.array([1, 2 + batch_id, 1]),
        ))
        _assert_snapshots_identical(snapper.snapshot(), take_snapshot(ref))
    assert graph.num_edges == 3
    assert graph.in_degrees()[[1, 2, 3]].tolist() == [1, 1, 1]


def test_tight_pool_moves_segments():
    """With capacity-1 first segments, a stream whose vertices grow, shrink
    and grow again moves segments many times, and still equals the oracle
    after every batch."""
    moves = []
    move = adjacency_list._Pool._move

    def counted(pool, verts, need):
        moves.append(len(verts))
        move(pool, verts, need)

    rng = np.random.default_rng(5)
    with _tight_pool(), mock.patch.object(adjacency_list._Pool, "_move", counted):
        graph = AdjacencyListGraph(N_VERTICES)
        ref = ReferenceAdjacencyListGraph(N_VERTICES)
        for batch_id in range(30):
            size = 50
            _apply_both(graph, ref, make_batch(
                rng.integers(0, 6, size), rng.integers(0, N_VERTICES, size),
                rng.integers(1, 4, size), batch_id=batch_id,
                is_delete=rng.random(size) < 0.4,
            ))
    assert len(moves) > 10


def test_serve_shaped_stream_counts_each_distinct_live_pair_once():
    """fb at serve's micro-batch shape, 60-edge batches x 1200, with pairs
    repeated inside a batch, re-sent in later batches, deleted and
    re-inserted: every out- and in-degree equals the number of distinct
    live pairs at that vertex (the rule serve's ``degree`` answers are
    checked by), and the state equals the dict oracle's."""
    n = get_dataset("fb").num_vertices
    generator = get_dataset("fb").generator(seed=28)
    rng = np.random.default_rng(28)
    graph = AdjacencyListGraph(n, keep_in_lists=False)
    ref = ReferenceAdjacencyListGraph(n)
    live: set[tuple[int, int]] = set()
    sent: list[tuple[int, int]] = []
    for batch_id in range(1_200):
        fresh = generator.generate_batch(batch_id, 40)
        pairs = list(zip(fresh.src.tolist(), fresh.dst.tolist()))
        pairs += [pairs[i] for i in rng.integers(0, len(pairs), 8)]
        if sent:
            pairs += [sent[i] for i in rng.integers(0, len(sent), 6)]
        deletes = [sent[i] for i in rng.integers(0, len(sent), 6)] if sent else []
        src, dst = zip(*(pairs + deletes))
        graph.apply_batch(make_batch(
            src, dst, batch_id=batch_id,
            is_delete=[False] * len(pairs) + [True] * len(deletes),
        ))
        ref.apply_batch(make_batch(
            src, dst, batch_id=batch_id,
            is_delete=[False] * len(pairs) + [True] * len(deletes),
        ))
        live.update(pairs)
        live.difference_update(deletes)
        sent += pairs
        if batch_id % 100 == 99:
            live_src, live_dst = (np.array(side) for side in zip(*live))
            assert graph.out_degrees().tolist() == np.bincount(
                live_src, minlength=n).tolist()
            assert graph.in_degrees().tolist() == np.bincount(
                live_dst, minlength=n).tolist()
    assert graph.num_edges == len(live)
    _assert_same_graph(graph, ref)


def test_checkpoints_with_in_direction_state_still_resume():
    """Pickles from before segment storage hold per-vertex dicts, a pending
    out-journal and, older still, an in-CSR on the cached snapshot and an
    in-direction journal.  They load with the dicts as segments in their
    own order, the rest dropped, and keep ingesting and snapshotting like
    the oracle."""
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    batches = [
        make_batch([0, 0, 3, 2], [1, 2, 1, 0]),
        make_batch(
            [0, 1, 0, 3], [5, 3, 1, 1], [1.0, 1.0, 4.0, 1.0], batch_id=1,
            is_delete=[False, False, False, True],
        ),
    ]
    for batch in batches:
        ref.apply_batch(batch)
    graph = AdjacencyListGraph.__new__(AdjacencyListGraph)
    old_state = dict(
        num_vertices=N_VERTICES, num_edges=ref.num_edges, batches_applied=2,
        _out={v: dict(e) for v, e in ref._out.items()},
        _in={v: dict(e) for v, e in ref._in.items()},
        _deg_out=ref._deg_out.copy(), _deg_in=ref._deg_in.copy(),
        _track=True, _delta_invalid=False, _touched=set(ref._touched),
        _touched_sorted=None,
        _journal_out=[(np.array([0]), np.array([5]), np.array([1.0]))],
        _journal_in=[(np.array([3]), np.array([1]), np.array([1.0]))],
        _stale_in={1},
    )
    snapper = DeltaSnapshotter.__new__(DeltaSnapshotter)
    snapper.__dict__.update(
        graph=graph, telemetry=NULL_TELEMETRY,
        full_rebuilds=1, delta_patches=1, rebuild_fraction=0.1,
        _prev=take_snapshot(ref),
    )
    graph.__dict__.update(old_state)
    restored = pickle.loads(pickle.dumps(snapper))
    assert not hasattr(restored, "_prev")
    _assert_same_graph(restored.graph, ref)
    _apply_both(restored.graph, ref, make_batch(
        [4, 0, 2], [0, 2, 0], batch_id=2, is_delete=[False, True, False]
    ))
    _assert_snapshots_identical(restored.snapshot(), take_snapshot(ref))
    assert (restored.full_rebuilds, restored.delta_patches) == (1, 2)


# -- vectorized ingest vs the seed loop ---------------------------------------


@pytest.mark.parametrize("keep_in_lists", [
    pytest.param(True, id="untracked"),
    pytest.param(False, id="out-only"),
])
@given(sequence=sequence_strategy)
@settings(max_examples=50, deadline=None)
def test_vectorized_ingest_matches_reference(sequence, keep_in_lists):
    """The vectorized segment merge reproduces the seed loop exactly:
    DirectionStats arrays (dtype and values), each vertex's entries and
    their order, degree arrays, touched vertices and edge counts, checked
    after every batch, deletes included.  A graph without in-lists derives
    the in-direction's stats from the out-merge; its in-mapping is built
    from the out-segments, so only its content is compared."""
    graph = AdjacencyListGraph(N_VERTICES, keep_in_lists=keep_in_lists)
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    for batch_id, edge_list in enumerate(sequence):
        _apply_both(graph, ref, _to_batch(edge_list, batch_id))


# -- deletes: explicit cases ----------------------------------------------------


_OutOnlyGraph = functools.partial(AdjacencyListGraph, keep_in_lists=False)

#: Every ingest path a delete can follow.
DELETE_GRAPHS = [
    pytest.param(AdjacencyListGraph, id="dict"),
    pytest.param(_OutOnlyGraph, id="out-only"),
    pytest.param(ReferenceAdjacencyListGraph, id="reference"),
]


def _apply_delete_case(cls, batches):
    graph = cls(N_VERTICES)
    ref = ReferenceAdjacencyListGraph(N_VERTICES)
    stats = []
    for batch_id, (src, dst, weight, deletes) in enumerate(batches):
        batch = make_batch(src, dst, weight, batch_id=batch_id, is_delete=deletes)
        stats.append(graph.apply_batch(batch))
        ref.apply_batch(batch)
        _assert_same_graph(graph, ref)
    return graph, stats


def _entries(view, v):
    return list(view.get(v, {}).items())


@pytest.mark.parametrize("cls", DELETE_GRAPHS)
def test_duplicate_delete_in_one_batch_removes_once(cls):
    graph, stats = _apply_delete_case(cls, [
        ([1, 1], [2, 3], [1.0, 2.0], None),
        ([1, 1], [2, 2], None, [True, True]),
    ])
    assert stats[1].deleted_edges == 1
    assert graph.num_edges == 1
    out_view, in_view = graph.adjacency_views()
    assert _entries(out_view, 1) == [(3, 2.0)]
    assert _entries(in_view, 2) == []


@pytest.mark.parametrize("cls", DELETE_GRAPHS)
def test_deleting_absent_edges_and_unseen_vertices_is_a_no_op(cls):
    graph, stats = _apply_delete_case(cls, [
        ([1], [2], [1.0], None),
        ([1, 2, 7], [5, 1, 8], None, [True, True, True]),
    ])
    assert stats[1].deleted_edges == 0
    assert graph.num_edges == 1
    out_view, in_view = graph.adjacency_views()
    assert _entries(out_view, 1) == [(2, 1.0)]
    assert 7 not in out_view and 8 not in in_view
    assert graph.vertices_with_edges() == [1, 2]


@pytest.mark.parametrize("cls", DELETE_GRAPHS)
def test_self_loop_delete(cls):
    graph, stats = _apply_delete_case(cls, [
        ([4, 4], [4, 1], [3.0, 1.0], None),
        ([4], [4], None, [True]),
    ])
    assert stats[1].deleted_edges == 1
    out_view, in_view = graph.adjacency_views()
    assert _entries(out_view, 4) == [(1, 1.0)]
    assert _entries(in_view, 4) == []
    assert _entries(in_view, 1) == [(4, 1.0)]
    assert graph.out_degrees()[4] == 1 and graph.in_degrees()[4] == 0


@pytest.mark.parametrize("cls", DELETE_GRAPHS)
def test_delete_then_reinsert_in_a_later_batch(cls):
    graph, stats = _apply_delete_case(cls, [
        ([1, 1], [2, 3], [1.0, 2.0], None),
        ([1], [2], None, [True]),
        ([1], [2], [5.0], None),
    ])
    assert [s.deleted_edges for s in stats] == [0, 1, 0]
    assert stats[2].out.new_edges.tolist() == [1]
    assert graph.num_edges == 2
    out_view, in_view = graph.adjacency_views()
    # The re-inserted edge is new again: it lands at the end.
    assert _entries(out_view, 1) == [(3, 2.0), (2, 5.0)]
    assert _entries(in_view, 2) == [(1, 5.0)]


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
