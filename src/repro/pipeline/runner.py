"""The streaming pipeline: interleaved update and compute (Section 3.1).

A :class:`StreamingPipeline` owns a dynamic graph, an update engine, a
compute algorithm (looked up in the registry of
:mod:`repro.compute.registry`) and (optionally) an OCA controller, and
drives them batch by batch through five explicit stages:

    generate -> ingest/update -> OCA observe -> compute-or-defer -> record

:meth:`StreamingPipeline.run` loops the stages over a stream slice;
:meth:`StreamingPipeline.step` exposes one batch at a time, so external
drivers (latency studies, checkpoint/resume loops, serving frontends) can
interleave their own work between batches.  Each stage communicates through
a :class:`BatchContext`.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field

import numpy as np

from ..compute.cost_model import compute_round_time
from ..compute.oca import OCAConfig, OCAController
from ..compute.registry import ALGORITHMS, AlgorithmContext, get_algorithm
from ..costs import (
    DEFAULT_COMPUTE_COSTS,
    DEFAULT_COSTS,
    ComputeCostParameters,
    CostParameters,
)
from ..datasets.profiles import DatasetProfile
from ..datasets.stream import Batch, sorted_unique
from ..errors import ConfigurationError
from ..exec_model.machine import HOST_MACHINE, MachineConfig
from ..graph.adjacency_list import AdjacencyListGraph
from ..graph.base import DynamicGraph
from ..telemetry.core import as_telemetry
from ..update.abr import ABRConfig
from ..update.engine import UpdateEngine, UpdatePolicy
from ..update.result import UpdateResult
from .metrics import BatchMetrics, RunMetrics

__all__ = ["ALGORITHMS", "BatchContext", "StreamingPipeline"]


class _GracefulInterrupt:
    """Turn the first SIGINT during a run into a batch-boundary stop.

    Installed around :meth:`StreamingPipeline.run`'s loop: the first
    Ctrl-C sets a flag the loop checks between batches (so the graph is
    never checkpointed mid-batch); a second Ctrl-C raises
    ``KeyboardInterrupt`` immediately for a hard abort.  Outside the main
    thread (where ``signal.signal`` is unavailable) this degrades to a
    no-op and the interrupt propagates as before.
    """

    def __init__(self):
        self.requested = False
        self._previous = None
        self._installed = False

    def _handle(self, signum, frame):
        if self.requested:
            raise KeyboardInterrupt
        self.requested = True

    def __enter__(self) -> "_GracefulInterrupt":
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(signal.SIGINT, self._handle)
                self._installed = True
            except ValueError:  # pragma: no cover - exotic embedding
                pass
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)
        return False


@dataclass
class BatchContext:
    """Mutable per-batch state threaded through the pipeline stages.

    Attributes:
        index: the batch's absolute position in the stream.
        final: True when this is the stream's last batch (OCA must not
            defer past it).
        batch: the generated input batch.
        update: the update phase's result.
        update_time: modeled update time charged to this batch (includes
            OCA instrumentation).
        overlap: OCA inter-batch locality measured on this batch, if any.
        deferred: True if OCA postponed this batch's compute round.
        affected: union of vertices touched since the last executed round.
        covered: batches the next executed round covers, oldest first.
        compute_time: modeled compute time charged to this batch.
        metrics: the recorded per-batch metrics (set by the record stage).
    """

    index: int
    final: bool = False
    batch: Batch | None = None
    update: UpdateResult | None = None
    update_time: float = 0.0
    overlap: float | None = None
    deferred: bool = False
    affected: np.ndarray | None = None
    covered: list[Batch] = field(default_factory=list)
    compute_time: float = 0.0
    metrics: BatchMetrics | None = None


class StreamingPipeline:
    """Drives repeated update+compute over a dataset's stream.

    Args:
        profile: the dataset to stream.
        batch_size: edges per input batch.
        algorithm: a registered algorithm name (see
            :data:`~repro.compute.registry.ALGORITHMS`; ``"pr"``/``"sssp"``
            are the incremental variants; ``"none"`` runs updates only).
        policy: update strategy policy (an
            :class:`~repro.update.engine.UpdatePolicy`, a registered
            selector name, or a selector instance).
        use_oca: enable overlap-based compute aggregation.
        machine: machine for the software cost models.
        costs / compute_costs: cost model parameters.
        abr_config: ABR parameters.
        oca_config: OCA parameters.
        hau: accelerator simulator (required for HAU policies).
        graph: pre-built graph to reuse; defaults to a fresh
            :class:`~repro.graph.adjacency_list.AdjacencyListGraph` that
            keeps in-lists only if the algorithm's ``reads_in_lists`` says
            it reads them.
        seed: stream generator seed.
        telemetry: optional :class:`~repro.telemetry.core.Telemetry`
            backend threaded through every stage and subsystem (engine,
            OCA, HAU, snapshotter); None runs uninstrumented at ~zero cost.
    """

    def __init__(
        self,
        profile: DatasetProfile,
        batch_size: int,
        algorithm: str = "pr",
        policy: UpdatePolicy | str = UpdatePolicy.ABR_USC,
        use_oca: bool = False,
        machine: MachineConfig = HOST_MACHINE,
        costs: CostParameters = DEFAULT_COSTS,
        compute_costs: ComputeCostParameters = DEFAULT_COMPUTE_COSTS,
        abr_config: ABRConfig | None = None,
        oca_config: OCAConfig | None = None,
        hau=None,
        graph: DynamicGraph | None = None,
        seed: int = 7,
        pr_tolerance: float = 1e-7,
        pr_max_rounds: int = 100,
        sssp_source: int | None = None,
        trace=None,
        telemetry=None,
    ):
        algorithm_cls = get_algorithm(algorithm)
        self.profile = profile
        self.batch_size = batch_size
        self.algorithm = algorithm
        self.machine = machine
        self.costs = costs
        self.compute_costs = compute_costs
        #: Telemetry backend shared by every stage and subsystem.
        self.telemetry = as_telemetry(telemetry)
        if graph is None:
            graph = AdjacencyListGraph(
                profile.num_vertices, keep_in_lists=algorithm_cls.reads_in_lists
            )
        elif algorithm_cls.reads_in_lists and not graph.keeps_in_lists:
            # Without in-lists, every in_neighbors() call scans all the
            # out-segments: the algorithm would slow down silently.
            raise ConfigurationError(
                f"algorithm {algorithm!r} reads in-lists, but the graph "
                "keeps none"
            )
        self.graph = graph
        self.engine = UpdateEngine(
            self.graph,
            policy=policy,
            machine=machine,
            costs=costs,
            abr_config=abr_config,
            hau=hau,
            telemetry=self.telemetry,
        )
        self.oca = (
            OCAController(
                profile.num_vertices,
                config=oca_config,
                costs=costs,
                num_workers=machine.num_workers,
                telemetry=self.telemetry,
            )
            if use_oca
            else None
        )
        self.generator = profile.generator(seed=seed)
        self.pr_tolerance = pr_tolerance
        self.pr_max_rounds = pr_max_rounds
        #: Identifier of this run (timeline tracks, heartbeat).
        self.run_id = f"{profile.name}-{uuid.uuid4().hex[:8]}"
        timeline = getattr(self.telemetry, "timeline", None)
        if timeline is not None:
            timeline.configure(run_id=self.run_id, process="coordinator")
        #: Optional TraceWriter receiving one event per batch.
        self.trace = trace
        if trace is not None and getattr(trace, "telemetry", None) is None:
            # The writer appends a telemetry summary line on close.
            trace.telemetry = self.telemetry
        if trace is not None and getattr(trace, "timeline_provider", None) is None:
            # close() then embeds every process's flight-recorder timeline.
            trace.timeline_provider = self.timeline_snapshots
        self._compute_ctx = AlgorithmContext(
            graph=self.graph,
            pr_tolerance=pr_tolerance,
            pr_max_rounds=pr_max_rounds,
            sssp_source=sssp_source,
            telemetry=self.telemetry,
        )
        #: The active compute algorithm (registry instance).
        self.compute = algorithm_cls(self._compute_ctx)
        self._pending_affected: np.ndarray | None = None
        self._pending_batches: list[Batch] = []
        #: Next stream position :meth:`step` will consume.
        self._cursor: int = 0
        #: Size of the most recently applied batch (heartbeat throughput).
        self.last_batch_edges: int = 0
        #: Metrics accumulated by :meth:`step` (reset by :meth:`run`).
        self.metrics = self._new_metrics()
        #: The RunConfig that built this pipeline, when one did
        #: (:meth:`~repro.pipeline.config.RunConfig.build_pipeline` sets it);
        #: checkpoints embed it so resume can reject mismatched configs.
        self.run_config = None

    def _new_metrics(self) -> RunMetrics:
        return RunMetrics(
            dataset=self.profile.name,
            batch_size=self.batch_size,
            algorithm=self.algorithm,
            mode=self.engine.policy_name,
        )

    # -- backwards-compatible views of the algorithm engines ------------------
    def _engine_of(self, name: str):
        if self.algorithm == name:
            return getattr(self.compute, "engine", None)
        return None

    @property
    def _incremental_pr(self):
        """The incremental PageRank engine (``algorithm="pr"`` only)."""
        return self._engine_of("pr")

    @property
    def _incremental_sssp(self):
        """The incremental SSSP engine (``algorithm="sssp"`` only)."""
        return self._engine_of("sssp")

    @property
    def _incremental_bfs(self):
        """The incremental BFS engine (``algorithm="bfs"`` only)."""
        return self._engine_of("bfs")

    @property
    def _incremental_cc(self):
        """The incremental CC engine (``algorithm="cc"`` only)."""
        return self._engine_of("cc")

    @property
    def _sssp_source(self) -> int | None:
        """The resolved SSSP/BFS source vertex, if any."""
        return self._compute_ctx.sssp_source

    # -- stages ---------------------------------------------------------------
    def _stage_generate(self, ctx: BatchContext) -> None:
        """Generate the batch at ``ctx.index`` and prime the algorithm."""
        ctx.batch = self.generator.generate_batch(ctx.index, self.batch_size)
        self.compute.ensure(self.graph, ctx.batch)

    def _stage_update(self, ctx: BatchContext) -> None:
        """Apply the batch to the graph under the configured policy."""
        ctx.update = self.engine.ingest(ctx.batch)
        ctx.update_time = ctx.update.time

    def _stage_observe(self, ctx: BatchContext) -> None:
        """OCA bookkeeping: measure overlap, decide whether to defer."""
        if self.oca is not None:
            observation = self.oca.observe(ctx.batch)
            ctx.update_time += observation.instrumentation
            ctx.overlap = observation.overlap
            ctx.deferred = observation.defer_compute and not ctx.final
        affected = ctx.batch.unique_vertices()
        if self._pending_affected is not None:
            affected = sorted_unique(
                np.concatenate([affected, self._pending_affected])
            )
        ctx.affected = affected
        ctx.covered = self._pending_batches + [ctx.batch]

    def _stage_compute(self, ctx: BatchContext) -> None:
        """Run the compute round, or bank the batch for the next round."""
        if ctx.deferred:
            self._pending_affected = ctx.affected
            self._pending_batches = ctx.covered
            ctx.compute_time = 0.0
            return
        counters = self.compute.on_round(ctx.batch, ctx.affected, ctx.covered)
        ctx.compute_time = (
            0.0
            if counters is None
            else compute_round_time(counters, self.compute_costs, self.machine)
        )
        self._pending_affected = None
        self._pending_batches = []

    def _stage_record(self, ctx: BatchContext) -> None:
        """Record per-batch metrics and emit the trace event."""
        ctx.metrics = BatchMetrics(
            batch_id=ctx.batch.batch_id,
            update_time=ctx.update_time,
            compute_time=ctx.compute_time,
            strategy=ctx.update.strategy,
            deferred=ctx.deferred,
            aggregated_batches=0 if ctx.deferred else len(ctx.covered),
            cad=ctx.update.cad,
            overlap=ctx.overlap,
        )
        self.metrics.add(ctx.metrics)
        if self.trace is not None:
            from .tracing import TraceEvent

            self.trace.write(
                TraceEvent.from_metrics(
                    ctx.metrics,
                    dataset=self.profile.name,
                    batch_size=self.batch_size,
                    algorithm=self.algorithm,
                    mode=self.engine.policy_name,
                    abr_active=ctx.update.abr_active,
                )
            )

    # -- public API -------------------------------------------------------------
    @property
    def cursor(self) -> int:
        """The stream position (batch id) the next :meth:`step` will use."""
        return self._cursor

    def step(self, final: bool = False, batch: Batch | None = None) -> BatchMetrics:
        """Process exactly one batch and return its metrics.

        External drivers call this in their own loop (the pipeline keeps the
        stream cursor and accumulates :attr:`metrics`); pass ``final=True``
        on the stream's last batch so OCA cannot defer its results forever.

        Args:
            final: this is the stream's last batch.
            batch: externally supplied batch to process *instead of*
                generating one from the profile's stream — the open-ended
                live-ingest mode ``repro serve`` drives (the pipeline then
                needs no pre-materialized workload; the batch id is
                re-stamped to the cursor position if it disagrees).

        Returns:
            The batch's recorded :class:`~repro.pipeline.metrics.BatchMetrics`.
        """
        ctx = BatchContext(index=self._cursor, final=final)
        self._cursor += 1
        tel = self.telemetry
        tel.set_batch(ctx.index)
        with tel.span("pipeline.batch"):
            with tel.span("stage.generate"):
                if batch is None:
                    self._stage_generate(ctx)
                else:
                    if batch.batch_id != ctx.index:
                        batch = dataclasses.replace(batch, batch_id=ctx.index)
                    ctx.batch = batch
                    self.compute.ensure(self.graph, ctx.batch)
            with tel.span("stage.update"):
                self._stage_update(ctx)
            with tel.span("stage.observe"):
                self._stage_observe(ctx)
            with tel.span("stage.compute"):
                self._stage_compute(ctx)
            with tel.span("stage.record"):
                self._stage_record(ctx)
        self.last_batch_edges = ctx.batch.size
        if tel.enabled:
            tel.count("pipeline.batches")
            tel.observe("pipeline.batch_edges", ctx.batch.size)
            if ctx.deferred:
                tel.count("pipeline.deferred_batches")
            elif len(ctx.covered) > 1:
                tel.count("pipeline.aggregated_rounds")
                tel.count("pipeline.aggregated_batches", len(ctx.covered))
        return ctx.metrics

    def save_checkpoint(self, directory, keep: int = 3):
        """Capture the pipeline's state and atomically write it to ``directory``.

        Returns:
            The :class:`~pathlib.Path` of the written checkpoint file.
        """
        from .checkpoint import PipelineCheckpoint

        checkpoint = PipelineCheckpoint.capture(self)
        path = checkpoint.save_to_dir(directory, keep=keep)
        tel = self.telemetry
        if tel.enabled:
            tel.count("checkpoint.saves")
            tel.count("checkpoint.bytes", len(checkpoint.payload))
            tel.decision(
                "checkpoint",
                choice="save",
                batch_id=self._cursor - 1 if self._cursor else None,
                cursor=self._cursor,
                payload_bytes=len(checkpoint.payload),
            )
        return path

    def timeline_snapshots(self):
        """This run's flight-recorder timeline, as a list of snapshots.

        Empty below telemetry level ``full``.
        """
        own = self.telemetry.timeline_snapshot()
        return [] if own is None else [own]

    def run(
        self,
        num_batches: int | None = None,
        seed_offset: int = 0,
        *,
        resume_from=None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 3,
        monitor=None,
    ) -> RunMetrics:
        """Stream ``num_batches`` batches through the pipeline.

        Args:
            num_batches: batches to process (defaults to all the profile's
                stream provides at this batch size).
            seed_offset: shift the stream start of a fresh run.
            resume_from: a :class:`~repro.pipeline.checkpoint.PipelineCheckpoint`
                or a path to one; the pipeline restores that state and
                continues the stream from its cursor instead of starting at
                ``seed_offset``.  The resumed run's final
                :class:`~repro.pipeline.metrics.RunMetrics` are bit-identical
                to the uninterrupted run's (stream generation is a pure
                function of position, and all adaptive state travels in the
                checkpoint).
            checkpoint_dir: when set (with ``checkpoint_every`` > 0), write a
                checkpoint into this directory every ``checkpoint_every``
                batches via atomic write-then-rename.
            checkpoint_every: batches between checkpoints; 0 disables.
            checkpoint_keep: newest checkpoints retained in
                ``checkpoint_dir`` (older ones are pruned).
            monitor: optional
                :class:`~repro.telemetry.heartbeat.HeartbeatMonitor`
                beaten after every batch (live heartbeat file and in-run
                Prometheus refresh); the monitor only observes, so it
                never perturbs the run's metrics.

        Returns:
            The run's :class:`~repro.pipeline.metrics.RunMetrics`.

        Raises:
            CheckpointError: ``resume_from`` is corrupt, was taken under a
                different run config, or its cursor falls outside the
                requested stream window.
        """
        if num_batches is None:
            num_batches = self.profile.num_batches(self.batch_size)
        end = seed_offset + num_batches
        if resume_from is not None:
            from ..errors import CheckpointError
            from .checkpoint import PipelineCheckpoint

            checkpoint = (
                resume_from
                if isinstance(resume_from, PipelineCheckpoint)
                else PipelineCheckpoint.load(resume_from)
            )
            checkpoint.restore(self)
            if not seed_offset <= self._cursor <= end:
                raise CheckpointError(
                    f"checkpoint cursor {self._cursor} is outside the requested "
                    f"stream window [{seed_offset}, {end})"
                )
            tel = self.telemetry
            if tel.enabled:
                tel.count("checkpoint.resumes")
                tel.decision(
                    "checkpoint",
                    choice="resume",
                    batch_id=None,
                    cursor=self._cursor,
                    batches_done=checkpoint.batches_done,
                )
        else:
            self._cursor = seed_offset
            self.metrics = self._new_metrics()
        since_checkpoint = 0
        with _GracefulInterrupt() as interrupt:
            while self._cursor < end and not interrupt.requested:
                batch_id = self._cursor
                started = time.perf_counter()
                self.step(final=self._cursor == end - 1)
                wall = time.perf_counter() - started
                since_checkpoint += 1
                if (
                    checkpoint_dir is not None
                    and checkpoint_every > 0
                    and since_checkpoint >= checkpoint_every
                    and self._cursor < end
                ):
                    self.save_checkpoint(checkpoint_dir, keep=checkpoint_keep)
                    since_checkpoint = 0
                    if monitor is not None:
                        monitor.note_checkpoint()
                if monitor is not None:
                    monitor.beat(
                        self.telemetry,
                        batch_id=batch_id,
                        batch_edges=self.last_batch_edges,
                        wall_seconds=wall,
                    )
            if interrupt.requested:
                # Graceful Ctrl-C path: the loop stopped at a batch
                # boundary, so the state is consistent — persist it (when
                # checkpointing is on) before surfacing the interrupt, so
                # `repro run --checkpoint` keeps the in-flight progress.
                if checkpoint_dir is not None and since_checkpoint > 0:
                    self.save_checkpoint(checkpoint_dir, keep=checkpoint_keep)
                    if monitor is not None:
                        monitor.note_checkpoint()
                raise KeyboardInterrupt
        return self.metrics
