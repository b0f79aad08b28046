"""Reference (pre-vectorization) adjacency-list implementation.

This is the original per-vertex-loop batch ingest kept verbatim as the
semantics oracle: :class:`AdjacencyListGraph`'s vectorized
``_apply_direction`` must produce bit-identical
:class:`~repro.graph.base.DirectionStats` and adjacency state
(``tests/test_perf_parity.py``), and ``benchmarks/test_perf_substrate.py``
times this class as the wall-clock baseline the vectorized ingest is
measured against.
"""

from __future__ import annotations

import numpy as np

from .base import DirectionStats
from .adjacency_list import AdjacencyListGraph

__all__ = ["ReferenceAdjacencyListGraph"]


class ReferenceAdjacencyListGraph(AdjacencyListGraph):
    """Adjacency-list graph with the original per-vertex ingest loop.

    Functionally interchangeable with :class:`AdjacencyListGraph`; only the
    (slower) ingest implementation differs.  It always keeps both
    directions' dicts: it is what a graph without in-lists is checked
    against.
    """

    def __init__(self, num_vertices: int):
        super().__init__(num_vertices)

    def _apply_direction(
        self,
        adjacency: dict[int, dict[int, float]],
        degrees: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
        journaled: bool,
    ) -> tuple[DirectionStats, None]:
        """The seed implementation: one Python loop over unique vertices."""
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        values_list = values[order].tolist()
        weights_list = weights[order].tolist()
        verts, starts, counts = np.unique(
            keys_sorted, return_index=True, return_counts=True
        )
        length_before = np.empty(len(verts), dtype=np.int64)
        new_edges = np.empty(len(verts), dtype=np.int64)
        starts_list = starts.tolist()
        counts_list = counts.tolist()
        for i, v in enumerate(verts.tolist()):
            a = starts_list[i]
            c = counts_list[i]
            entry = adjacency.get(v)
            if entry is None:
                entry = {}
                adjacency[v] = entry
                self._touched.add(v)
                self._touched_sorted = None
            before = len(entry)
            entry.update(zip(values_list[a : a + c], weights_list[a : a + c]))
            length_before[i] = before
            new_edges[i] = len(entry) - before
        degrees[verts] += new_edges
        if journaled and self._track:
            # The reference loop does not journal its merges; poisoning the
            # journal makes the next delta snapshot a full rebuild.
            self._delta_invalid = True
        stats = DirectionStats(
            vertices=verts,
            batch_degree=counts,
            length_before=length_before,
            new_edges=new_edges,
        )
        return stats, None

