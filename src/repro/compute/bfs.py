"""Breadth-first search: static and incremental (extension algorithms).

The paper's evaluation uses PR and SSSP; BFS is the standard third member of
streaming-graph suites (SAGA-Bench ships it too) and exercises the same
incremental computation model with unit weights: levels only decrease under
insertions, and deletions invalidate-and-repair exactly like SSSP.
"""

from __future__ import annotations

import math

import numpy as np

from ..datasets.stream import Batch, sorted_unique
from ..errors import ConfigurationError
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from .result import ComputeCounters
from .sssp import IncrementalSSSP, out_views

__all__ = ["StaticBFS", "IncrementalBFS"]

INF = math.inf


class StaticBFS:
    """Frontier-based BFS over a CSR snapshot."""

    def __init__(self, source: int):
        if source < 0:
            raise ConfigurationError(f"source must be >= 0, got {source}")
        self.source = source

    def run(self, snapshot: CSRSnapshot) -> tuple[np.ndarray, ComputeCounters]:
        """Compute hop distances; unreachable vertices get -1."""
        n = snapshot.num_vertices
        if self.source >= n:
            raise ConfigurationError(
                f"source {self.source} out of range for {n} vertices"
            )
        levels = np.full(n, -1, dtype=np.int64)
        levels[self.source] = 0
        frontier = np.array([self.source], dtype=np.int64)
        touched_vertices = 0
        touched_edges = 0
        iterations = 0
        while len(frontier):
            iterations += 1
            touched_vertices += len(frontier)
            neighbors = []
            for v in frontier.tolist():
                targets, __ = snapshot.out_slice(v)
                touched_edges += len(targets)
                neighbors.append(targets)
            if neighbors:
                candidates = sorted_unique(np.concatenate(neighbors))
                fresh = candidates[levels[candidates] < 0]
            else:
                fresh = np.empty(0, dtype=np.int64)
            levels[fresh] = iterations
            frontier = fresh
        counters = ComputeCounters(
            iterations=iterations,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )
        return levels, counters


class IncrementalBFS(IncrementalSSSP):
    """Incremental BFS = incremental SSSP with unit edge weights.

    Shares the insert-relaxation and delete-invalidate/repair machinery; the
    only difference is that every edge counts as one hop regardless of the
    stored weight.
    """

    def _relax_from(self, heap):
        # Same algorithm; unit weights are enforced at seed time and here by
        # flattening weights during neighbor expansion.
        import heapq

        dist = self.dist
        offsets, lengths, targets, __ = out_views(self.graph)
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
            nd = d + 1.0
            for t in targets[a:b]:
                if nd < dist[t]:
                    dist[t] = nd
                    heapq.heappush(heap, (nd, t))
        return touched_vertices, touched_edges

    def on_batches(self, batches: list[Batch]) -> ComputeCounters:
        import heapq

        dist = self.dist
        touched_vertices = 0
        touched_edges = 0
        deleted_roots: set[int] = set()
        for batch in batches:
            deletions = batch.deletions
            if deletions.size:
                deleted_roots.update(deletions.dst.tolist())
        if deleted_roots:
            invalid, closure_edges = self._invalidate_closure_unit(deleted_roots)
            touched_edges += closure_edges
            for v in invalid:
                dist[v] = INF
            heap = []
            for v in invalid:
                best = INF
                in_nbrs = self.graph.in_neighbors(v)
                touched_edges += len(in_nbrs)
                for u in in_nbrs:
                    if u not in invalid and dist[u] + 1.0 < best:
                        best = dist[u] + 1.0
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
            present = ~np.isnan(self.graph.edge_weights(inserts.src, inserts.dst))
            for u, v, live in zip(
                inserts.src.tolist(), inserts.dst.tolist(), present.tolist()
            ):
                if not live:
                    continue
                nd = dist[u] + 1.0
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

    def _invalidate_closure_unit(self, roots: set[int]) -> tuple[set[int], int]:
        """Unit-weight forward closure (dist[c] == dist[v] + 1)."""
        dist = self.dist
        offsets, lengths, targets, __ = out_views(self.graph)
        invalid = {v for v in roots if dist[v] < INF and v != self.source}
        queue = list(invalid)
        touched_edges = 0
        while queue:
            v = queue.pop()
            a = offsets[v]
            b = a + lengths[v]
            touched_edges += b - a
            for c in targets[a:b]:
                if c in invalid or c == self.source:
                    continue
                if dist[c] == dist[v] + 1.0:
                    invalid.add(c)
                    queue.append(c)
        return invalid, touched_edges

    def levels(self) -> list[int]:
        """Hop distances as ints (-1 for unreachable)."""
        return [int(d) if d < INF else -1 for d in self.dist]
