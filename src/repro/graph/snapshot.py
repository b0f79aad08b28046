"""Immutable out-direction CSR snapshot of a dynamic graph for the compute phase.

The static algorithms (GAP-style PageRank / SSSP, static BFS / CC, triangle
counting) iterate over the whole graph; a CSR layout makes those sweeps
cheap in numpy.  Every one of them reads only the out-adjacency, so the
snapshot holds the out-CSR alone.  Incremental algorithms read the dynamic
structure directly and do not need a snapshot.

Two materialization paths exist:

* :func:`take_snapshot` — the reference full rebuild, walking every vertex
  with edges;
* :class:`DeltaSnapshotter` — caches the previous snapshot and patches only
  the CSR slices of vertices dirtied since (the graph journals its
  out-direction), falling back to a full rebuild when the dirty fraction
  makes patching a loss.  Both paths produce bit-identical arrays
  (``tests/test_perf_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..telemetry.core import as_telemetry
from .base import DynamicGraph

__all__ = ["CSRSnapshot", "take_snapshot", "DeltaSnapshotter"]


@dataclass(frozen=True)
class CSRSnapshot:
    """CSR view of one graph snapshot's out-adjacency.

    Attributes:
        num_vertices: vertex universe size.
        out_offsets/out_targets/out_weights: CSR of the out-adjacency, each
            vertex's targets in its adjacency's iteration order.
    """

    num_vertices: int
    out_offsets: np.ndarray
    out_targets: np.ndarray
    out_weights: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.out_targets)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.out_offsets)

    def out_slice(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(targets, weights) of v's out-edges."""
        a, b = self.out_offsets[v], self.out_offsets[v + 1]
        return self.out_targets[a:b], self.out_weights[a:b]


def take_snapshot(graph: DynamicGraph) -> CSRSnapshot:
    """Materialize the current state of ``graph`` as a CSR snapshot."""
    touched = graph.vertices_with_edges()
    num_vertices = graph.num_vertices
    adjacency_of = graph.out_neighbors
    degrees = np.zeros(num_vertices, dtype=np.int64)
    for v in touched:
        degrees[v] = len(adjacency_of(v))
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    total = int(offsets[-1])
    neighbors = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.float64)
    for v in touched:
        entry = adjacency_of(v)
        if not entry:
            continue
        a = offsets[v]
        b = a + len(entry)
        neighbors[a:b] = list(entry.keys())
        weights[a:b] = list(entry.values())
    return CSRSnapshot(num_vertices, offsets, neighbors, weights)


def _patch_csr(
    prev: CSRSnapshot,
    adjacency_of,  # callable: vertex -> dict[int, float]
    delta,  # GraphDelta
) -> CSRSnapshot:
    """Rebuild a snapshot from the previous one plus an out-direction delta.

    Unchanged slices are gathered from the previous arrays with one
    vectorized indexed copy; appended edges (the journal) are scattered onto
    each owner's slice tail in application order; only *stale* vertices
    (weight changes, deletions) have their adjacency dicts re-read.  The
    result is bit-identical to a full rebuild because appends reproduce dict
    insertion order and both paths write entries in dict order.
    """
    num_vertices = prev.num_vertices
    offsets, neighbors, weights = prev.out_offsets, prev.out_targets, prev.out_weights
    app_owner, app_target, app_weight = delta.owners, delta.targets, delta.weights
    stale = delta.stale
    stale_mask = None
    entries: list[dict[int, float]] = []
    stale_arr = np.empty(0, dtype=np.int64)
    if stale:
        stale_arr = np.fromiter(stale, dtype=np.int64, count=len(stale))
        stale_arr.sort()
        stale_mask = np.zeros(num_vertices, dtype=bool)
        stale_mask[stale_arr] = True
        entries = [adjacency_of(v) for v in stale_arr.tolist()]
        keep = ~stale_mask[app_owner]
        app_owner = app_owner[keep]
        app_target = app_target[keep]
        app_weight = app_weight[keep]
    # Stable group-by-owner keeps each owner's appends in application order,
    # i.e. exactly the dict insertion order a full rebuild would walk.
    order = np.argsort(app_owner, kind="stable")
    app_owner = app_owner[order]
    app_target = app_target[order]
    app_weight = app_weight[order]
    old_degrees = np.diff(offsets)
    degrees = old_degrees.copy()
    if len(app_owner):
        app_verts, app_counts = np.unique(app_owner, return_counts=True)
        degrees[app_verts] += app_counts
    if stale:
        degrees[stale_arr] = np.fromiter(
            map(len, entries), dtype=np.int64, count=len(entries)
        )
    new_offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=new_offsets[1:])
    total = int(new_offsets[-1])
    # Map every new position to its source position in the old arrays; fresh
    # positions (appended tails, stale slices) get overwritten below, so
    # their out-of-range source indices are clamped to 0 first.
    owner = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    positions = np.arange(total, dtype=np.int64)
    src_idx = positions + (offsets[:-1] - new_offsets[:-1])[owner]
    fresh = positions - new_offsets[:-1][owner] >= old_degrees[owner]
    if stale_mask is not None:
        fresh |= stale_mask[owner]
    src_idx[fresh] = 0
    if len(neighbors) == 0:
        new_neighbors = np.empty(total, dtype=np.int64)
        new_weights = np.empty(total, dtype=np.float64)
    else:
        new_neighbors = neighbors[src_idx]
        new_weights = weights[src_idx]
    if len(app_owner):
        seg_starts = np.cumsum(app_counts) - app_counts
        rank = np.arange(len(app_owner), dtype=np.int64) - np.repeat(seg_starts, app_counts)
        pos = new_offsets[app_owner] + old_degrees[app_owner] + rank
        new_neighbors[pos] = app_target
        new_weights[pos] = app_weight
    if stale:
        stale_pos = stale_mask[owner]
        new_neighbors[stale_pos] = list(
            chain.from_iterable(entry.keys() for entry in entries)
        )
        new_weights[stale_pos] = list(
            chain.from_iterable(entry.values() for entry in entries)
        )
    return CSRSnapshot(num_vertices, new_offsets, new_neighbors, new_weights)


class DeltaSnapshotter:
    """Incremental CSR snapshot producer for one dynamic graph.

    Enables delta tracking on the graph, caches the last
    :class:`CSRSnapshot`, and on the next request patches the cached arrays
    with the recorded out-direction :class:`~repro.graph.base.GraphDelta`
    (appended edges scatter in; stale vertices re-read).  Falls back to
    :func:`take_snapshot` when no previous snapshot exists, the graph does
    not track deltas, or the stale vertices exceed ``rebuild_fraction`` of
    the touched vertices (re-reading ~everything is slower than rebuilding).

    Consuming the delta clears it on the graph, so attach at most one
    ``DeltaSnapshotter`` per graph and route all snapshot requests through
    it (mixing in direct ``take_snapshot`` calls is safe — they just won't
    reset the journal).

    Args:
        graph: the dynamic graph to snapshot.
        rebuild_fraction: stale-to-touched vertex ratio above which a full
            rebuild is cheaper than patching.
        telemetry: optional telemetry backend; rebuild/patch counters and
            the ``snapshot.materialize`` span land there.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        rebuild_fraction: float = 0.25,
        telemetry=None,
    ):
        self.graph = graph
        self.rebuild_fraction = rebuild_fraction
        self.telemetry = as_telemetry(telemetry)
        graph.track_deltas(True)
        self._prev: CSRSnapshot | None = None
        #: Diagnostics: how many snapshots took each path.
        self.full_rebuilds = 0
        self.delta_patches = 0

    def invalidate(self) -> None:
        """Drop the cached snapshot (next request does a full rebuild)."""
        self._prev = None

    def snapshot(self) -> CSRSnapshot:
        """Materialize the graph's current state (patched when possible)."""
        with self.telemetry.span("snapshot.materialize"):
            return self._snapshot()

    def _snapshot(self) -> CSRSnapshot:
        graph = self.graph
        delta = graph.consume_delta()
        if delta is not None and self._prev is None:
            # First request: the journal predates any cached snapshot.
            delta = None
        if delta is not None:
            touched = graph.touched_count()
            budget = self.rebuild_fraction * (touched or graph.num_vertices)
            if len(delta.stale) > budget:
                delta = None
        if delta is None:
            snap = take_snapshot(graph)
            self.full_rebuilds += 1
            self.telemetry.count("snapshot.full_rebuilds")
        else:
            snap = _patch_csr(self._prev, graph.out_neighbors, delta)
            self.delta_patches += 1
            self.telemetry.count("snapshot.delta_patches")
        self._prev = snap
        return snap
