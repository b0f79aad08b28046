"""The per-vertex, per-edge incremental PageRank loops kept as test oracles.

``repro.compute.pagerank.IncrementalPageRank`` vectorizes the canonical
loop (:class:`CanonicalIncrementalPageRank`) and must stay bit-identical to
it: same ranks (``np.array_equal``) and same ``ComputeCounters`` after
every call.

:class:`ReferenceIncrementalPageRank` is the loop the library shipped
before the canonical order, unchanged apart from this docstring and the
class name.  It visits each frontier in Python-set order and sums each
in-list in dict insertion order, so its floats differ from the canonical
loop's in the last bits; it is kept as a bounded oracle.
"""

from __future__ import annotations

import numpy as np

from repro.compute.result import ComputeCounters
from repro.errors import ConfigurationError
from repro.graph.base import DynamicGraph


class CanonicalIncrementalPageRank:
    """The incremental PageRank loop in canonical order.

    Each round visits its frontier in ascending vertex id; each vertex sums
    its in-neighbours' contributions in ascending source id, reading values
    already updated in that round.  It reads the graph's adjacency afresh on
    every call, so it takes (and ignores) the engine's ``batches``.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        max_rounds: int = 100,
    ):
        if not 0 < damping < 1:
            raise ConfigurationError(f"damping must be in (0,1), got {damping}")
        self.graph = graph
        self.damping = damping
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self._base = (1.0 - damping) / graph.num_vertices
        self.values: list[float] = [self._base] * graph.num_vertices

    def on_batch(self, affected, batches=None) -> ComputeCounters:
        out_adj, in_adj = self.graph.adjacency_views()
        empty: dict[int, float] = {}
        values = self.values
        base = self._base
        damping = self.damping
        tolerance = self.tolerance
        frontier = sorted(set(int(v) for v in affected))
        touched_vertices = 0
        touched_edges = 0
        rounds = 0
        while frontier and rounds < self.max_rounds:
            rounds += 1
            next_frontier: set[int] = set()
            force_push = rounds == 1
            touched_vertices += len(frontier)
            for v in frontier:
                total = 0.0
                in_nbrs = sorted(in_adj.get(v, empty))
                for u in in_nbrs:
                    deg = len(out_adj.get(u, empty))
                    if deg:
                        total += values[u] / deg
                touched_edges += len(in_nbrs)
                new_value = base + damping * total
                if force_push or abs(new_value - values[v]) > tolerance:
                    out_nbrs = out_adj.get(v, empty)
                    touched_edges += len(out_nbrs)
                    next_frontier.update(out_nbrs)
                values[v] = new_value
            frontier = sorted(next_frontier)
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )

    def as_array(self) -> np.ndarray:
        """Current rank vector as a numpy array."""
        return np.asarray(self.values)


class ReferenceIncrementalPageRank:
    """Frontier-based incremental PageRank over a dynamic graph.

    State persists across batches; each :meth:`on_batch` call localizes the
    recomputation around the affected vertices.

    Args:
        graph: the dynamic graph the pipeline maintains.
        damping: damping factor.
        tolerance: per-vertex rank change below which propagation stops.
        max_rounds: frontier-round safety cap.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        max_rounds: int = 100,
    ):
        if not 0 < damping < 1:
            raise ConfigurationError(f"damping must be in (0,1), got {damping}")
        self.graph = graph
        self.damping = damping
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self._base = (1.0 - damping) / graph.num_vertices
        self.values: list[float] = [self._base] * graph.num_vertices

    def on_batch(self, affected) -> ComputeCounters:
        """Propagate rank changes outward from the affected vertices.

        Args:
            affected: iterable of vertex ids whose incident edges changed
                (for OCA-aggregated rounds, the union over the covered
                batches).

        Returns:
            Work counters of this round.
        """
        out_adj, in_adj = self.graph.adjacency_views()
        empty: dict[int, float] = {}
        values = self.values
        base = self._base
        damping = self.damping
        tolerance = self.tolerance
        frontier = set(int(v) for v in affected)
        touched_vertices = 0
        touched_edges = 0
        rounds = 0
        while frontier and rounds < self.max_rounds:
            rounds += 1
            next_frontier: set[int] = set()
            # Round 1 pushes every affected vertex's out-neighbors even when
            # its own rank is unchanged: a source that gained edges has a new
            # out-degree, so its *contribution per edge* changed and all its
            # targets must re-pull (the rank delta alone cannot see this).
            force_push = rounds == 1
            touched_vertices += len(frontier)
            for v in frontier:
                total = 0.0
                in_nbrs = in_adj.get(v, empty)
                for u in in_nbrs:
                    deg = len(out_adj.get(u, empty))
                    if deg:
                        total += values[u] / deg
                touched_edges += len(in_nbrs)
                new_value = base + damping * total
                if force_push or abs(new_value - values[v]) > tolerance:
                    values[v] = new_value
                    out_nbrs = out_adj.get(v, empty)
                    touched_edges += len(out_nbrs)
                    next_frontier.update(out_nbrs)
                else:
                    values[v] = new_value
            frontier = next_frontier
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )

    def as_array(self) -> np.ndarray:
        """Current rank vector as a numpy array."""
        return np.asarray(self.values)
