"""Triangle counting: static and incremental (extension algorithm).

Triangle counts drive the anomaly/fraud-detection applications the paper's
introduction motivates (dense local structure appearing suddenly is a
signal).  Streaming triangle maintenance is the classic example of an
algorithm whose incremental form is dramatically cheaper than recomputation:
an inserted edge ``u-v`` only creates triangles among the *common neighbors*
of ``u`` and ``v``, and a deleted edge only destroys those.

Triangles are counted in the *undirected* view of the graph (each unordered
vertex triple with all three connections counts once), the convention of the
streaming literature.  Because exact maintenance must see the graph evolve
edge by edge, :class:`IncrementalTriangleCounter` *owns* batch application:
call :meth:`~IncrementalTriangleCounter.ingest` instead of
``graph.apply_batch`` for the batches it tracks.
"""

from __future__ import annotations

import numpy as np

from ..datasets.stream import Batch
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot, DeltaSnapshotter
from .registry import ComputeAlgorithm, register_algorithm
from .result import ComputeCounters

__all__ = [
    "StaticTriangleCount",
    "IncrementalTriangleCounter",
    "TriangleCountAlgorithm",
]


class StaticTriangleCount:
    """Exact triangle count over a CSR snapshot (undirected view)."""

    def run(self, snapshot: CSRSnapshot) -> tuple[int, ComputeCounters]:
        n = snapshot.num_vertices
        neighbors: list[set[int]] = [set() for __ in range(n)]
        for v in range(n):
            targets, __ = snapshot.out_slice(v)
            for t in targets.tolist():
                if t != v:
                    neighbors[v].add(t)
                    neighbors[t].add(v)
        count = 0
        touched_edges = 0
        for v in range(n):
            for u in neighbors[v]:
                if u <= v:
                    continue
                smaller, larger = (
                    (neighbors[v], neighbors[u])
                    if len(neighbors[v]) < len(neighbors[u])
                    else (neighbors[u], neighbors[v])
                )
                touched_edges += len(smaller)
                for w in smaller:
                    if w > u and w in larger:
                        count += 1
        counters = ComputeCounters(
            iterations=1, touched_vertices=n, touched_edges=touched_edges
        )
        return count, counters


class IncrementalTriangleCounter:
    """Maintains the exact undirected triangle count across batches."""

    def __init__(self, graph: DynamicGraph):
        self.graph = graph
        self.count = 0

    def ingest(self, batch: Batch) -> ComputeCounters:
        """Apply ``batch`` to the graph while maintaining the count.

        Edges are counted one by one against the graph as it was before the
        batch plus the arcs the batch has added and removed so far, so
        edges inside one batch see each other: insertions first, then
        deletions, per the §4.4.3 ordering.  Self-loops join no triangle.
        The batch is then applied with ``graph.apply_batch``.
        """
        graph = self.graph
        arcs: dict[tuple[int, int], bool] = {}  # the batch's edits so far
        undirected: dict[int, set[int]] = {}  # neighbour sets, as edited
        in_neighbors = graph.in_neighbors
        if not graph.keeps_in_lists:
            # One in-mapping per batch, not one scan of the graph per vertex.
            in_neighbors = graph.adjacency_views()[1].get

        def neighbors(v: int) -> set[int]:
            nbrs = undirected.get(v)
            if nbrs is None:
                nbrs = undirected[v] = set(graph.out_neighbors(v))
                nbrs.update(in_neighbors(v) or ())
                nbrs.discard(v)
            return nbrs

        touched_edges = 0
        touched_vertices = 0
        inserts = batch.insertions
        for u, v in zip(inserts.src.tolist(), inserts.dst.tolist()):
            if u == v:
                continue
            arcs[(u, v)] = True
            u_nbrs = neighbors(u)
            if v not in u_nbrs:
                # A structurally new undirected edge: count new triangles.
                v_nbrs = neighbors(v)
                self.count += len(u_nbrs & v_nbrs)
                touched_edges += len(u_nbrs) + len(v_nbrs)
                touched_vertices += 2
                u_nbrs.add(v)
                v_nbrs.add(u)
        deletions = batch.deletions
        # Whether each deleted arc, and its reverse, held before the batch:
        # one lookup per direction for the whole batch.
        held = ~np.isnan(graph.edge_weights(deletions.src, deletions.dst))
        reverse_held = ~np.isnan(graph.edge_weights(deletions.dst, deletions.src))
        for u, v, arc, reverse in zip(
            deletions.src.tolist(), deletions.dst.tolist(),
            held.tolist(), reverse_held.tolist(),
        ):
            if u == v or not arcs.get((u, v), arc):
                continue
            arcs[(u, v)] = False
            if arcs.get((v, u), reverse):
                # The reverse arc keeps the undirected edge alive.
                continue
            u_nbrs = neighbors(u)
            v_nbrs = neighbors(v)
            u_nbrs.discard(v)
            v_nbrs.discard(u)
            self.count -= len(u_nbrs & v_nbrs)
            touched_edges += len(u_nbrs) + len(v_nbrs)
            touched_vertices += 2
        graph.apply_batch(batch)
        return ComputeCounters(
            iterations=1,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )


@register_algorithm("triangles")
class TriangleCountAlgorithm(ComputeAlgorithm):
    """Exact triangle count per compute round, as a pipeline algorithm.

    Registered here — not in the pipeline — to demonstrate that adding an
    algorithm is a registration, not a core edit.  Because the pipeline's
    update engine owns batch application, this adapter uses the *static*
    counter over CSR snapshots (the exact incremental
    counter, which must see the graph evolve edge by edge, stays available
    as :class:`IncrementalTriangleCounter` for drivers that let it own
    ingestion).  The latest count is exposed as :attr:`count`.
    """

    reads_in_lists = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.snapshotter = DeltaSnapshotter(ctx.graph, telemetry=ctx.telemetry)
        #: Triangle count as of the last compute round.
        self.count: int | None = None

    def on_round(self, batch, affected, covered):
        self.count, counters = StaticTriangleCount().run(
            self.snapshotter.snapshot()
        )
        return counters
