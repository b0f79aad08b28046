"""Reference adjacency-list implementation: per-vertex dicts, per-vertex loop.

This is the original batch ingest kept as the semantics oracle:
:class:`~repro.graph.adjacency_list.AdjacencyListGraph` must produce
bit-identical :class:`~repro.graph.base.DirectionStats`, adjacency content
and per-vertex entry order (``tests/test_perf_parity.py``), and
``benchmarks/test_perf_substrate.py`` times this class as the wall-clock
baseline the vectorized ingest is measured against.
"""

from __future__ import annotations

import numpy as np

from ..datasets.stream import Batch
from .base import BatchUpdateStats, DirectionStats, DynamicGraph, read_only

__all__ = ["ReferenceAdjacencyListGraph"]


class ReferenceAdjacencyListGraph(DynamicGraph):
    """Adjacency-list graph storing each vertex's entries in a Python dict.

    It always keeps both directions' dicts: it is what a graph without
    in-lists is checked against.  :meth:`adjacency_views` returns the live
    dicts, which keep every vertex that ever had an entry.
    """

    def __init__(self, num_vertices: int):
        super().__init__(num_vertices)
        self._out: dict[int, dict[int, float]] = {}
        self._in: dict[int, dict[int, float]] = {}
        self._deg_out = np.zeros(num_vertices, dtype=np.int64)
        self._deg_in = np.zeros(num_vertices, dtype=np.int64)
        self._touched: set[int] = set()
        self._touched_sorted: list[int] | None = None

    def out_neighbors(self, v: int) -> dict[int, float]:
        return self._out.get(v, {})

    def in_neighbors(self, v: int) -> dict[int, float]:
        return self._in.get(v, {})

    def adjacency_views(
        self,
    ) -> tuple[dict[int, dict[int, float]], dict[int, dict[int, float]]]:
        return self._out, self._in

    def out_degrees(self) -> np.ndarray:
        return read_only(self._deg_out)

    def in_degrees(self) -> np.ndarray:
        return read_only(self._deg_in)

    def vertices_with_edges(self) -> list[int]:
        if self._touched_sorted is None:
            self._touched_sorted = sorted(self._touched)
        return self._touched_sorted

    def _apply_direction(
        self,
        adjacency: dict[int, dict[int, float]],
        degrees: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
    ) -> DirectionStats:
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
        return DirectionStats(
            vertices=verts,
            batch_degree=counts,
            length_before=length_before,
            new_edges=new_edges,
        )

    def apply_batch(self, batch: Batch) -> BatchUpdateStats:
        """Ingest a batch: all insertions first, then deletions (§4.4.3).

        A deletion pops one entry from each direction, in batch order: a
        pair listed twice is removed once, and an absent one is a no-op.
        """
        self.check_vertices(batch.src, batch.dst)
        inserts = batch.insertions
        out_stats = self._apply_direction(
            self._out, self._deg_out, inserts.src, inserts.dst, inserts.weight
        )
        in_stats = self._apply_direction(
            self._in, self._deg_in, inserts.dst, inserts.src, inserts.weight
        )
        deletes = batch.deletions
        deleted = 0
        for u, v in zip(deletes.src.tolist(), deletes.dst.tolist()):
            entry = self._out.get(u)
            if entry is not None and v in entry:
                del entry[v]
                del self._in[v][u]
                self._deg_out[u] -= 1
                self._deg_in[v] -= 1
                deleted += 1
        self.num_edges += int(out_stats.new_edges.sum()) - deleted
        self.batches_applied += 1
        return BatchUpdateStats(
            batch_id=batch.batch_id,
            batch_size=batch.size,
            out=out_stats,
            inn=in_stats,
            deleted_edges=deleted,
        )
