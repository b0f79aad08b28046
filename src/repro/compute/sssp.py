"""Single-source shortest paths: static and incremental.

* :class:`StaticSSSP` runs Dijkstra from scratch on a CSR snapshot (the GAP
  reference uses delta-stepping; Dijkstra computes the identical distances,
  and the cost model charges the same per-edge/per-vertex work, so the
  substitution is behaviour-preserving for everything we measure).
* :class:`IncrementalSSSP` keeps distances across batches.  Insertions relax
  incrementally (new edge ``u->v`` can only lower distances downstream of
  ``v``).  Deletions use a KickStarter-style invalidate-and-repair: the
  forward closure of distances that *may* have depended on a deleted edge is
  reset and re-relaxed from its intact in-frontier, guaranteeing exact
  distances after every batch.
"""

from __future__ import annotations

import heapq
import math

from ..datasets.stream import Batch
from ..errors import ConfigurationError
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from .result import ComputeCounters

__all__ = ["StaticSSSP", "IncrementalSSSP"]

INF = math.inf


def out_views(graph: DynamicGraph) -> tuple[memoryview, ...]:
    """Memoryviews of ``graph``'s out-segments (offsets, lengths, targets,
    weights): item reads give Python ints and floats."""
    return tuple(map(memoryview, graph.out_segments()))


class StaticSSSP:
    """Dijkstra from scratch over a CSR snapshot."""

    def __init__(self, source: int):
        if source < 0:
            raise ConfigurationError(f"source must be >= 0, got {source}")
        self.source = source

    def run(self, snapshot: CSRSnapshot) -> tuple[list[float], ComputeCounters]:
        """Compute distances; returns (dist, work counters)."""
        n = snapshot.num_vertices
        if self.source >= n:
            raise ConfigurationError(
                f"source {self.source} out of range for {n} vertices"
            )
        dist = [INF] * n
        dist[self.source] = 0.0
        heap = [(0.0, self.source)]
        touched_vertices = 0
        touched_edges = 0
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            touched_vertices += 1
            targets, weights = snapshot.out_slice(v)
            touched_edges += len(targets)
            for t, w in zip(targets.tolist(), weights.tolist()):
                nd = d + w
                if nd < dist[t]:
                    dist[t] = nd
                    heapq.heappush(heap, (nd, t))
        counters = ComputeCounters(
            iterations=1,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )
        return dist, counters


class IncrementalSSSP:
    """Incremental SSSP over a dynamic graph with insert and delete support."""

    def __init__(self, graph: DynamicGraph, source: int):
        if not 0 <= source < graph.num_vertices:
            raise ConfigurationError(
                f"source {source} out of range for {graph.num_vertices} vertices"
            )
        self.graph = graph
        self.source = source
        self.dist: list[float] = [INF] * graph.num_vertices
        self.dist[source] = 0.0

    # -- internals ----------------------------------------------------------
    def _relax_from(self, heap: list) -> tuple[int, int]:
        """Dijkstra main loop from a pre-seeded heap."""
        dist = self.dist
        offsets, lengths, targets, weights = out_views(self.graph)
        touched_vertices = 0
        touched_edges = 0
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            touched_vertices += 1
            a = offsets[v]
            b = a + lengths[v]
            touched_edges += b - a
            for t, w in zip(targets[a:b], weights[a:b]):
                nd = d + w
                if nd < dist[t]:
                    dist[t] = nd
                    heapq.heappush(heap, (nd, t))
        return touched_vertices, touched_edges

    def _invalidate_closure(self, roots: set[int]) -> tuple[set[int], int]:
        """Forward closure of distances that may depend on ``roots``.

        A child ``c`` is invalidated when its current distance is explained
        by an invalidated parent (``dist[c] == dist[p] + w``) — its shortest
        path may run through the deleted region.
        """
        dist = self.dist
        offsets, lengths, targets, weights = out_views(self.graph)
        invalid = {v for v in roots if dist[v] < INF and v != self.source}
        queue = list(invalid)
        touched_edges = 0
        while queue:
            v = queue.pop()
            a = offsets[v]
            b = a + lengths[v]
            touched_edges += b - a
            for c, w in zip(targets[a:b], weights[a:b]):
                if c in invalid or c == self.source:
                    continue
                if dist[c] == dist[v] + w:
                    invalid.add(c)
                    queue.append(c)
        return invalid, touched_edges

    # -- public API -----------------------------------------------------------
    def on_batch(self, batch: Batch) -> ComputeCounters:
        """Update distances for one applied batch (see :meth:`on_batches`)."""
        return self.on_batches([batch])

    def on_batches(self, batches: list[Batch]) -> ComputeCounters:
        """Update distances after ``batches`` have been applied to the graph.

        Must be called after :meth:`DynamicGraph.apply_batch` so the adjacency
        reflects the batches (the paper's update-then-compute pipeline).
        Passing several batches runs a *single* aggregated relaxation pass
        over their union — the work OCA's aggregation saves when consecutive
        batches touch overlapping regions.
        """
        dist = self.dist
        touched_vertices = 0
        touched_edges = 0
        deleted_roots: set[int] = set()
        for batch in batches:
            deletions = batch.deletions
            if deletions.size:
                deleted_roots.update(deletions.dst.tolist())
        if deleted_roots:
            roots = deleted_roots
            invalid, closure_edges = self._invalidate_closure(roots)
            touched_edges += closure_edges
            for v in invalid:
                dist[v] = INF
            heap = []
            for v in invalid:
                best = INF
                in_nbrs = self.graph.in_neighbors(v)
                touched_edges += len(in_nbrs)
                for u, w in in_nbrs.items():
                    if u not in invalid and dist[u] + w < best:
                        best = dist[u] + w
                if best < INF:
                    dist[v] = best
                    heapq.heappush(heap, (best, v))
            touched_vertices += len(invalid)
            tv, te = self._relax_from(heap)
            touched_vertices += tv
            touched_edges += te
        heap = []
        for batch in batches:
            inserts = batch.insertions
            # The applied weight may differ from a tuple's (duplicates
            # refresh), so read the authoritative weights from the graph;
            # NaN marks a pair deleted since.
            weights = self.graph.edge_weights(inserts.src, inserts.dst)
            for u, v, current in zip(
                inserts.src.tolist(), inserts.dst.tolist(), weights.tolist()
            ):
                if current != current:
                    continue
                nd = dist[u] + current
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
            touched_edges += inserts.size
        tv, te = self._relax_from(heap)
        touched_vertices += tv
        touched_edges += te
        return ComputeCounters(
            iterations=1,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )
