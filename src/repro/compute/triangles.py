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
call :meth:`ingest` instead of ``graph.apply_batch`` for the batches it
tracks.
"""

from __future__ import annotations

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


def _undirected_neighbors(out_adj, in_adj, v, empty) -> set[int]:
    """The undirected neighbor set of ``v``."""
    nbrs = set(out_adj.get(v, empty))
    nbrs.update(in_adj.get(v, empty))
    nbrs.discard(v)
    return nbrs


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

        Insertions are processed (then applied) edge by edge so intra-batch
        edges see each other; deletions follow, per the §4.4.3 ordering.
        """
        out_adj, in_adj = self.graph.adjacency_views()
        empty: dict[int, float] = {}
        touched_edges = 0
        touched_vertices = 0
        inserts = batch.insertions
        for u, v, w in zip(
            inserts.src.tolist(), inserts.dst.tolist(), inserts.weight.tolist()
        ):
            if u == v:
                continue
            u_nbrs = _undirected_neighbors(out_adj, in_adj, u, empty)
            if v not in u_nbrs:
                # A structurally new undirected edge: count new triangles.
                v_nbrs = _undirected_neighbors(out_adj, in_adj, v, empty)
                self.count += len(u_nbrs & v_nbrs)
                touched_edges += len(u_nbrs) + len(v_nbrs)
                touched_vertices += 2
            out_adj.setdefault(u, {})[v] = w
            in_adj.setdefault(v, {})[u] = w
        deletions = batch.deletions
        for u, v in zip(deletions.src.tolist(), deletions.dst.tolist()):
            entry = out_adj.get(u)
            if entry is None or v not in entry:
                continue
            del entry[v]
            in_adj.get(v, {}).pop(u, None)
            if u in out_adj.get(v, empty):
                # The reverse arc keeps the undirected edge alive.
                continue
            u_nbrs = _undirected_neighbors(out_adj, in_adj, u, empty)
            v_nbrs = _undirected_neighbors(out_adj, in_adj, v, empty)
            self.count -= len(u_nbrs & v_nbrs)
            touched_edges += len(u_nbrs) + len(v_nbrs)
            touched_vertices += 2
        # The direct adjacency mutations above bypass apply_batch, so the
        # graph must recompute its derived state (edge count, degree caches,
        # snapshot journals).
        self.graph.notify_external_mutation()
        self.graph.batches_applied += 1
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
    counter over delta-patched CSR snapshots (the exact incremental
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
