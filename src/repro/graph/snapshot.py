"""Immutable out-direction CSR snapshot of a dynamic graph for the compute phase.

The static algorithms (GAP-style PageRank / SSSP, static BFS / CC, triangle
counting) iterate over the whole graph; a CSR layout makes those sweeps
cheap in numpy.  Every one of them reads only the out-adjacency, so the
snapshot holds the out-CSR alone.  Incremental algorithms read the dynamic
structure directly and do not need a snapshot.

Two materialization paths exist:

* :func:`take_snapshot` — the reference walk over every vertex with edges;
* :class:`DeltaSnapshotter` — gathers a graph's stored out-segments into
  fresh arrays with one numpy gather.  Both paths produce bit-identical
  arrays (``tests/test_perf_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry.core import as_telemetry
from .base import DynamicGraph, Segments

__all__ = ["CSRSnapshot", "take_snapshot", "gather_snapshot", "DeltaSnapshotter"]


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


def gather_snapshot(num_vertices: int, segments: Segments) -> CSRSnapshot:
    """The CSR of ``segments``: one gather of every segment, in vertex order,
    into fresh arrays."""
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(segments.lengths, out=offsets[1:])
    positions = segments.positions()
    return CSRSnapshot(
        num_vertices, offsets, segments.targets[positions],
        segments.weights[positions],
    )


class DeltaSnapshotter:
    """CSR snapshot producer for one dynamic graph.

    Each snapshot gathers the graph's out-segments
    (:meth:`~repro.graph.base.DynamicGraph.out_segments`) into fresh arrays
    (:func:`gather_snapshot`) and counts one ``delta_patches``.  A returned
    snapshot never changes afterwards.

    Args:
        graph: the dynamic graph to snapshot.
        telemetry: optional telemetry backend; the ``delta_patches`` counter
            and the ``snapshot.materialize`` span land there.
    """

    def __init__(self, graph: DynamicGraph, telemetry=None):
        self.graph = graph
        self.telemetry = as_telemetry(telemetry)
        #: Diagnostics: how many snapshots were gathered.  ``full_rebuilds``
        #: stays 0; older pickles and the benchmark's traced run read it.
        self.full_rebuilds = 0
        self.delta_patches = 0

    def __setstate__(self, state: dict) -> None:
        """Drop the cached snapshot (``_prev``) and the retired
        ``rebuild_fraction`` of older pickles."""
        state.pop("_prev", None)
        state.pop("rebuild_fraction", None)
        self.__dict__.update(state)

    def snapshot(self) -> CSRSnapshot:
        """Materialize the graph's current state."""
        with self.telemetry.span("snapshot.materialize"):
            self.delta_patches += 1
            self.telemetry.count("snapshot.delta_patches")
            return gather_snapshot(self.graph.num_vertices, self.graph.out_segments())
