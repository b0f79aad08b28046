"""Built-in pipeline algorithms, registered with the compute registry.

Each class adapts one analytics engine (Section 6.1's four algorithms plus
the extension algorithms) to the :class:`~repro.compute.registry.ComputeAlgorithm`
protocol the pipeline drives.  ``"none"`` runs the update phase only.

The adapters hold the per-stream engine state that used to live as
``StreamingPipeline._incremental_*`` attributes; the pipeline still exposes
those names (as properties) for backwards compatibility.
"""

from __future__ import annotations

from ..graph.snapshot import DeltaSnapshotter
from .bfs import IncrementalBFS
from .components import IncrementalConnectedComponents
from .pagerank import IncrementalPageRank, StaticPageRank
from .registry import ComputeAlgorithm, register_algorithm
from .sssp import IncrementalSSSP, StaticSSSP

__all__ = [
    "PageRankAlgorithm",
    "SSSPAlgorithm",
    "StaticPageRankAlgorithm",
    "StaticSSSPAlgorithm",
    "BFSAlgorithm",
    "ConnectedComponentsAlgorithm",
    "NoComputeAlgorithm",
]


class _SourceMixin:
    """Resolves the SSSP/BFS source vertex from the first batch."""

    def resolve_source(self, first_batch) -> int:
        if self.ctx.sssp_source is None:
            self.ctx.sssp_source = int(first_batch.src[0])
        return self.ctx.sssp_source


@register_algorithm("pr")
class PageRankAlgorithm(ComputeAlgorithm):
    """Incremental PageRank over the affected-vertex frontier.

    The engine keeps its own sorted in-CSR, patched from the covered
    batches, so the graph needs no in-lists.
    """

    reads_in_lists = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine: IncrementalPageRank | None = None

    def ensure(self, graph, first_batch):
        if self.engine is None:
            self.engine = IncrementalPageRank(
                graph,
                tolerance=self.ctx.pr_tolerance,
                max_rounds=self.ctx.pr_max_rounds,
                telemetry=self.ctx.telemetry,
            )

    def on_round(self, batch, affected, covered):
        return self.engine.on_batch(affected, covered)


@register_algorithm("sssp")
class SSSPAlgorithm(_SourceMixin, ComputeAlgorithm):
    """Incremental SSSP (KickStarter-style invalidate-and-repair)."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine: IncrementalSSSP | None = None

    def ensure(self, graph, first_batch):
        if self.engine is None:
            self.engine = IncrementalSSSP(graph, self.resolve_source(first_batch))

    def on_round(self, batch, affected, covered):
        return self.engine.on_batches(covered)


@register_algorithm("pr_static")
class StaticPageRankAlgorithm(ComputeAlgorithm):
    """Static PageRank, rerun in full on a CSR snapshot gathered per round."""

    reads_in_lists = False

    def __init__(self, ctx):
        super().__init__(ctx)
        # Static algorithms re-snapshot every round: one gather of the
        # graph's out-segments.
        self.snapshotter = DeltaSnapshotter(ctx.graph, telemetry=ctx.telemetry)

    def on_round(self, batch, affected, covered):
        __, counters = StaticPageRank(
            tolerance=self.ctx.pr_tolerance,
            max_iterations=self.ctx.pr_max_rounds,
        ).run(self.snapshotter.snapshot())
        return counters


@register_algorithm("sssp_static")
class StaticSSSPAlgorithm(_SourceMixin, ComputeAlgorithm):
    """Static SSSP, rerun in full on a CSR snapshot gathered per round."""

    reads_in_lists = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.snapshotter = DeltaSnapshotter(ctx.graph, telemetry=ctx.telemetry)

    def ensure(self, graph, first_batch):
        self.resolve_source(first_batch)

    def on_round(self, batch, affected, covered):
        __, counters = StaticSSSP(self.ctx.sssp_source).run(
            self.snapshotter.snapshot()
        )
        return counters


@register_algorithm("bfs")
class BFSAlgorithm(_SourceMixin, ComputeAlgorithm):
    """Incremental BFS levels from a fixed source."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine: IncrementalBFS | None = None

    def ensure(self, graph, first_batch):
        if self.engine is None:
            self.engine = IncrementalBFS(graph, self.resolve_source(first_batch))

    def on_round(self, batch, affected, covered):
        return self.engine.on_batches(covered)


@register_algorithm("cc")
class ConnectedComponentsAlgorithm(ComputeAlgorithm):
    """Incremental connected components (union-find over applied edges)."""

    reads_in_lists = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine: IncrementalConnectedComponents | None = None

    def ensure(self, graph, first_batch):
        if self.engine is None:
            self.engine = IncrementalConnectedComponents(graph)

    def on_round(self, batch, affected, covered):
        counters = None
        for b in covered:
            c = self.engine.on_batch(b)
            counters = c if counters is None else counters + c
        return counters


@register_algorithm("none")
class NoComputeAlgorithm(ComputeAlgorithm):
    """Update-phase-only runs: every compute round is free."""

    reads_in_lists = False

    def on_round(self, batch, affected, covered):
        return None
