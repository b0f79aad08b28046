"""Immutable out-direction CSR snapshot of a dynamic graph for the compute phase.

The static algorithms (GAP-style PageRank / SSSP, static BFS / CC, triangle
counting) iterate over the whole graph; a CSR layout makes those sweeps
cheap in numpy.  Every one of them reads only the out-adjacency, so the
snapshot holds the out-CSR alone.  Incremental algorithms read the dynamic
structure directly and do not need a snapshot.

Two materialization paths exist:

* :func:`take_snapshot` — the reference full rebuild, walking every vertex
  with edges;
* :class:`DeltaSnapshotter` — caches the previous snapshot and splices in
  the out-direction edits the graph journaled since, without reading any
  adjacency.  Both paths produce bit-identical arrays
  (``tests/test_perf_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry.core import as_telemetry
from .base import DynamicGraph, GraphDelta

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


def _empty_snapshot(num_vertices: int) -> CSRSnapshot:
    """The snapshot of a graph without edges, as :func:`take_snapshot` makes it."""
    return CSRSnapshot(
        num_vertices,
        np.zeros(num_vertices + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _slots(
    prev: CSRSnapshot, pair_keys: np.ndarray, pair_owners: np.ndarray
) -> np.ndarray:
    """The positions in ``prev`` of pairs it holds.

    ``pair_keys`` are the pairs' ascending ``owner * V + target`` keys and
    ``pair_owners`` their owners.  Only those owners' slices are read.
    """
    if not len(pair_keys):
        return np.empty(0, dtype=np.int64)
    offsets, nv = prev.out_offsets, prev.num_vertices
    owners = pair_owners[np.append(True, pair_owners[1:] != pair_owners[:-1])]
    lo = offsets[owners]
    counts = offsets[owners + 1] - lo
    ends = np.cumsum(counts)
    positions = np.repeat(lo - (ends - counts), counts) + np.arange(ends[-1])
    slot_keys = np.repeat(owners, counts) * nv + prev.out_targets[positions]
    order = np.argsort(slot_keys)
    return positions[order[np.searchsorted(slot_keys[order], pair_keys)]]


def _splice(prev: CSRSnapshot, delta: GraphDelta) -> CSRSnapshot:
    """``prev`` with the edits of ``delta`` spliced in.

    Each edited (owner, target) pair resolves from its edits, in order:

    * it was in ``prev`` iff its first edit is a set or a delete.  Such a
      pair is cut from its slot if any delete hit it; otherwise it keeps
      its slot and takes the weight of its last set;
    * a pair whose last edit is not a delete and that has an append goes
      to its owner's tail, after the owner's remaining slots.  Tails are
      ordered by each pair's last append and take the weight of its last
      edit.

    These are the dict's own rules — a pop closes the gap and keeps the
    order of the rest, a ``__setitem__`` on a present key keeps its slot,
    and a re-inserted key goes to the end — so the result is bit-identical
    to :func:`take_snapshot` of the graph.  No adjacency is read: one
    ``np.delete`` cuts, weights are set in place, and one ``np.insert``
    adds every tail.
    """
    if not len(delta.kinds):
        return prev
    nv = prev.num_vertices
    offsets = prev.out_offsets
    keys = delta.owners * nv + delta.targets
    # Stable: each pair's edits stay in journal order.
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.append(True, sorted_keys[1:] != sorted_keys[:-1]))
    first = order[starts]
    last = order[np.append(starts[1:], len(order)) - 1]
    kinds = delta.kinds[order]
    deleted = np.logical_or.reduceat(kinds == GraphDelta.DELETE, starts)
    last_append = np.maximum.reduceat(
        np.where(kinds == GraphDelta.APPEND, order, -1), starts
    )
    owners = delta.owners[first]
    held = delta.kinds[first] != GraphDelta.APPEND
    slots = _slots(prev, sorted_keys[starts][held], owners[held])
    cut_held = deleted[held]
    cut = np.sort(slots[cut_held])
    targets = np.delete(prev.out_targets, cut)
    weights = np.delete(prev.out_weights, cut)
    kept = slots[~cut_held]
    weights[kept - np.searchsorted(cut, kept)] = delta.weights[last[held & ~deleted]]
    tail = (delta.kinds[last] != GraphDelta.DELETE) & (last_append >= 0)
    tail_owners = owners[tail]
    ranked = np.lexsort((last_append[tail], tail_owners))
    tail_owners = tail_owners[ranked]
    ends = offsets[tail_owners + 1]
    at = ends - np.searchsorted(cut, ends)
    targets = np.insert(targets, at, delta.targets[first[tail][ranked]])
    weights = np.insert(weights, at, delta.weights[last[tail][ranked]])
    change = np.bincount(tail_owners, minlength=nv) - np.bincount(
        owners[held][cut_held], minlength=nv
    )
    new_offsets = offsets.copy()
    new_offsets[1:] += np.cumsum(change)
    return CSRSnapshot(nv, new_offsets, targets, weights)


class DeltaSnapshotter:
    """Incremental CSR snapshot producer for one dynamic graph.

    Enables delta tracking on the graph, caches the last
    :class:`CSRSnapshot`, and on the next request splices the recorded
    out-direction :class:`~repro.graph.base.GraphDelta` into the cached
    arrays.  Attached to a graph without edges, it starts from the empty
    CSR, so even the first snapshot is a splice.  It falls back to
    :func:`take_snapshot` when no previous snapshot exists (it attached to
    a graph that already had edges, or :meth:`invalidate` dropped it) or
    the graph cannot vouch for its journal (``consume_delta()`` returns
    ``None``).

    Consuming the delta clears it on the graph, so attach at most one
    ``DeltaSnapshotter`` per graph and route all snapshot requests through
    it (mixing in direct ``take_snapshot`` calls is safe — they just won't
    reset the journal).

    Args:
        graph: the dynamic graph to snapshot.
        telemetry: optional telemetry backend; rebuild/patch counters and
            the ``snapshot.materialize`` span land there.
    """

    def __init__(self, graph: DynamicGraph, telemetry=None):
        self.graph = graph
        self.telemetry = as_telemetry(telemetry)
        # The journal starts empty here, so on a graph without edges it
        # will hold every edge the next snapshot has.
        graph.track_deltas(True)
        self._prev: CSRSnapshot | None = (
            _empty_snapshot(graph.num_vertices) if graph.num_edges == 0 else None
        )
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
        delta = self.graph.consume_delta()
        if delta is None or self._prev is None:
            snap = take_snapshot(self.graph)
            self.full_rebuilds += 1
            self.telemetry.count("snapshot.full_rebuilds")
        else:
            snap = _splice(self._prev, delta)
            self.delta_patches += 1
            self.telemetry.count("snapshot.delta_patches")
        self._prev = snap
        return snap
