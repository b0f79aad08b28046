"""Weakly connected components: static and incremental (extension algorithm).

Insert-only streams are the textbook case for incremental CC: a union-find
over edge endpoints answers component queries in near-constant time per
update.  Deletions can split components, which union-find cannot undo, so a
deletion-containing batch triggers a full relabel (the standard fallback of
streaming CC systems); the work counters reflect that asymmetry, which is
exactly what a granularity-vs-freshness study wants to see.
"""

from __future__ import annotations

import numpy as np

from ..datasets.stream import Batch
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from .result import ComputeCounters

__all__ = ["StaticConnectedComponents", "IncrementalConnectedComponents"]


class StaticConnectedComponents:
    """Label-propagation WCC over a CSR snapshot (undirected view)."""

    def run(self, snapshot: CSRSnapshot) -> tuple[np.ndarray, ComputeCounters]:
        """Compute component labels (the minimum vertex id in each WCC)."""
        n = snapshot.num_vertices
        labels = np.arange(n, dtype=np.int64)
        iterations = 0
        touched_edges = 0
        changed = True
        while changed:
            iterations += 1
            changed = False
            src = np.repeat(
                np.arange(n, dtype=np.int64), snapshot.out_degrees()
            )
            dst = snapshot.out_targets
            touched_edges += 2 * len(dst)
            # Propagate the minimum label both ways along every edge.
            for a, b in ((src, dst), (dst, src)):
                candidate = labels[a]
                improved = candidate < labels[b]
                if improved.any():
                    np.minimum.at(labels, b[improved], candidate[improved])
                    changed = True
        counters = ComputeCounters(
            iterations=iterations,
            touched_vertices=iterations * n,
            touched_edges=touched_edges,
        )
        return labels, counters


class _UnionFind:
    """Path-halving union-find with union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.operations = 0

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
            self.operations += 1
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


class IncrementalConnectedComponents:
    """Incremental WCC over a dynamic graph.

    Insertions union endpoints; batches containing deletions relabel from
    scratch over the current adjacency (documented fallback).
    """

    def __init__(self, graph: DynamicGraph):
        self.graph = graph
        self._uf = _UnionFind(graph.num_vertices)
        self.rebuilds = 0

    def _rebuild(self) -> ComputeCounters:
        """Full relabel from the live adjacency after deletions."""
        self.rebuilds += 1
        self._uf = _UnionFind(self.graph.num_vertices)
        touched_edges = 0
        for u, neighbors in self.graph.out_adjacency().items():
            for v in neighbors:
                self._uf.union(u, v)
            touched_edges += len(neighbors)
        return ComputeCounters(
            iterations=1,
            touched_vertices=self.graph.num_vertices,
            touched_edges=touched_edges,
        )

    def on_batch(self, batch: Batch) -> ComputeCounters:
        """Update component structure after ``batch`` has been applied."""
        if batch.deletions.size:
            return self._rebuild()
        inserts = batch.insertions
        before = self._uf.operations
        merges = 0
        for u, v in zip(inserts.src.tolist(), inserts.dst.tolist()):
            merges += self._uf.union(u, v)
        return ComputeCounters(
            iterations=1,
            touched_vertices=merges * 2,
            touched_edges=inserts.size + (self._uf.operations - before),
        )

    def component(self, v: int) -> int:
        """Canonical component representative of ``v``."""
        return self._uf.find(v)

    def same_component(self, a: int, b: int) -> bool:
        return self._uf.find(a) == self._uf.find(b)

    def labels(self) -> np.ndarray:
        """Component labels normalized to each component's minimum vertex id."""
        n = self.graph.num_vertices
        roots = np.fromiter((self._uf.find(v) for v in range(n)), dtype=np.int64, count=n)
        minima: dict[int, int] = {}
        for v in range(n):
            root = int(roots[v])
            if root not in minima or v < minima[root]:
                minima[root] = v
        return np.fromiter((minima[int(r)] for r in roots), dtype=np.int64, count=n)
