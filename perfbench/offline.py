"""Offline workloads: closed-loop replay through ``StreamingPipeline.step``.

One *replay* builds a fresh pipeline with ``RunConfig.build_pipeline()``
and feeds it the workload's pre-generated batches, one ``step(batch=...)``
at a time.  A batch's visible latency is the time from handing it to
``step()`` until ``step()`` returns.  A run makes a fixed number of
identical replays, so every run does the same work.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.compute.pagerank import StaticPageRank
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.snapshot import take_snapshot
from repro.pipeline.config import RunConfig
from repro.update.result import STRATEGY_RO, STRATEGY_RO_USC

from .tracer import Tracer

#: Largest relative L1 distance allowed between incremental ``pr`` ranks
#: and a from-scratch ``StaticPageRank`` on the same graph.  The
#: incremental engine stops propagating a vertex's change below 1e-7, so
#: it reaches the static fixed point only approximately.
PR_L1_TOLERANCE = 1e-2

#: Largest relative difference between ``pr_static`` ranks on the
#: delta-patched snapshot and on a from-scratch snapshot (equal content,
#: so only float summation order may differ).
PR_STATIC_TOLERANCE = 1e-9


def config_for(spec: dict) -> RunConfig:
    """The shipped-default run config of an offline workload."""
    return RunConfig(
        dataset=spec["dataset"],
        batch_size=spec["batch_size"],
        algorithm=spec["algorithm"],
    )


def new_counts() -> dict:
    """Per-layer counts a traced pass accumulates from public results."""
    return {"edges": 0, "batches": 0, "ro_batches": 0, "touched_edges": 0,
            "iterations": 0, "patches": 0, "rebuilds": 0}


@dataclass
class Replay:
    """One replay's pipeline, per-batch latencies and public outputs."""

    pipeline: object
    latencies: list[float] = field(default_factory=list)
    error: str | None = None
    last_snapshot: object = None
    counts: dict = field(default_factory=new_counts)

    @property
    def window(self) -> float:
        return sum(self.latencies)


def replay(config: RunConfig, batches, tracer: Tracer | None = None) -> Replay:
    """Feed ``batches`` to a fresh pipeline, one timed ``step`` each.

    With a tracer, each layer's public calls on this pipeline's instances
    are wrapped first.  A batch that raises ends the replay.
    """
    result = Replay(config.build_pipeline())
    pipeline = result.pipeline
    snapshotter = getattr(pipeline.compute, "snapshotter", None)
    if tracer is not None:
        instrument(pipeline, tracer, result.counts)
    if snapshotter is not None:
        # Keep the CSR the last pr_static round ran on, for the checks.
        inner = snapshotter.snapshot

        def snapshot():
            result.last_snapshot = inner()
            return result.last_snapshot

        snapshotter.snapshot = snapshot
    last = len(batches) - 1
    for i, batch in enumerate(batches):
        started = time.perf_counter()
        try:
            pipeline.step(final=i == last, batch=batch)
        except Exception as exc:  # counted as a failed batch
            result.error = f"batch {i} raised {exc!r}"
            break
        result.latencies.append(time.perf_counter() - started)
    return result


def instrument(pipeline, tracer: Tracer, counts: dict) -> None:
    """Wrap each layer's public calls on one pipeline's instances."""

    def on_ingest(index, update, args):
        counts["batches"] += 1
        counts["edges"] += args[0].size
        if update.strategy in (STRATEGY_RO, STRATEGY_RO_USC):
            counts["ro_batches"] += 1

    def on_round(index, counters, args):
        if counters is not None:
            counts["touched_edges"] += counters.touched_edges
            counts["iterations"] += counters.iterations

    tracer.wrap(pipeline, "step", "pipeline.step")
    tracer.wrap(pipeline.engine, "ingest", "update.ingest", on_ingest)
    tracer.wrap(pipeline.graph, "apply_batch", "graph.apply")
    tracer.wrap(pipeline.graph, "adjacency_views", "graph.views")
    tracer.wrap(pipeline.compute, "on_round", "compute.round", on_round)
    snapshotter = getattr(pipeline.compute, "snapshotter", None)
    if snapshotter is not None:
        tracer.wrap(snapshotter, "snapshot", "graph.snapshot")


def layer_metrics(tracer: Tracer, counts: dict, passes: int) -> dict:
    """Per-layer times and counts per pass, from one tracer's spans."""
    per = 1.0 / passes
    selfs = tracer.self_times()
    apply_s = tracer.total("graph.apply")
    compute_self = selfs.get("compute.round", 0.0)
    return {
        "graph.apply_s": apply_s * per,
        "graph.apply_edges_per_s": counts["edges"] / apply_s if apply_s else 0.0,
        "graph.views_s": tracer.total("graph.views") * per,
        "graph.snapshot_s": tracer.total("graph.snapshot") * per,
        "graph.snapshot_patches": counts["patches"] * per,
        "graph.snapshot_rebuilds": counts["rebuilds"] * per,
        "update.ingest_s": tracer.total("update.ingest") * per,
        "update.self_s": selfs.get("update.ingest", 0.0) * per,
        "update.ro_batches": counts["ro_batches"] * per,
        "update.batches": counts["batches"] * per,
        "compute.round_s": tracer.total("compute.round") * per,
        "compute.self_s": compute_self * per,
        "compute.touched_edges": counts["touched_edges"] * per,
        "compute.iterations": counts["iterations"] * per,
        "compute.edges_per_s": (
            counts["touched_edges"] / compute_self if compute_self else 0.0
        ),
        "pipeline.step_s": tracer.total("pipeline.step") * per,
        "pipeline.self_s": selfs.get("pipeline.step", 0.0) * per,
    }


def percentile_ms(values, q: float):
    """The q-quantile in ms, or None with fewer than ten samples beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    return 1000.0 * float(np.quantile(values, q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- correctness -----------------------------------------------------------------


def _content(view) -> dict:
    return {v: dict(nbrs) for v, nbrs in view.items() if len(nbrs)}


def check_graph(graph, batches) -> list[str]:
    """Compare the graph with a reference replay of the same batches."""
    reference = AdjacencyListGraph(graph.num_vertices)
    for batch in batches:
        reference.apply_batch(batch)
    problems = []
    got_out, got_in = graph.adjacency_views()
    ref_out, ref_in = reference.adjacency_views()
    for label, got, ref in (("out", got_out, ref_out), ("in", got_in, ref_in)):
        if got == ref:  # plain dicts of dicts: compared at C speed
            continue
        got, ref = _content(got), _content(ref)
        if got != ref:
            missing = sum(len(ref[v].keys() - got.get(v, {}).keys()) for v in ref)
            extra = sum(len(got[v].keys() - ref.get(v, {}).keys()) for v in got)
            problems.append(
                f"{label}-adjacency differs from the reference replay "
                f"({missing} edges missing, {extra} extra)"
            )
    if graph.num_edges != reference.num_edges:
        problems.append(
            f"num_edges {graph.num_edges} != reference {reference.num_edges}"
        )
    return problems


def check_pr(pipeline) -> list[str]:
    """Incremental ``pr`` ranks against a from-scratch StaticPageRank."""
    got = pipeline.compute.engine.as_array()
    want, __ = StaticPageRank(tolerance=1e-12, max_iterations=1000).run(
        take_snapshot(pipeline.graph)
    )
    distance = float(np.abs(got - want).sum() / np.abs(want).sum())
    if not distance <= PR_L1_TOLERANCE:
        return [f"pr ranks off by relative L1 {distance:.3g} > {PR_L1_TOLERANCE}"]
    return []


def check_pr_static(pipeline, last_snapshot) -> list[str]:
    """Last ``pr_static`` ranks (patched snapshot) against a fresh snapshot."""
    if last_snapshot is None:
        return ["pr_static never took a snapshot"]
    config = pipeline.run_config  # the settings the pipeline's rounds use
    ranks = StaticPageRank(
        tolerance=config.pr_tolerance, max_iterations=config.pr_max_rounds
    )
    got, __ = ranks.run(last_snapshot)
    want, __ = ranks.run(take_snapshot(pipeline.graph))
    if not np.allclose(got, want, rtol=PR_STATIC_TOLERANCE, atol=0.0):
        worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
        return [f"pr_static ranks differ from a from-scratch snapshot by {worst:.3g}"]
    return []


def check(spec: dict, result: Replay, batches, edge_counts) -> list[str]:
    """Every correctness check of an offline workload's last replay, plus
    ``edge_counts`` (every replay's final ``num_edges``) all equal."""
    if result.error is not None:
        return [result.error]
    problems = check_graph(result.pipeline.graph, batches)
    if len(set(edge_counts)) > 1:
        problems.append(f"replays ended with different num_edges: {edge_counts}")
    if spec["algorithm"] == "pr":
        problems += check_pr(result.pipeline)
    if spec["algorithm"] == "pr_static":
        problems += check_pr_static(result.pipeline, result.last_snapshot)
    return problems


# -- runs ------------------------------------------------------------------------


def run_untraced(spec: dict, batches, replays: int) -> dict:
    """The end-to-end measurement: ``replays`` identical untraced replays.

    ``edges_per_s`` is the median over replays of the replay's edges over
    its summed ``step()`` time.  A failed check fails every batch.
    """
    config = config_for(spec)
    replay(config, batches[:2])  # warm lazy imports and allocators
    latencies, windows, edge_counts = [], [], []
    result = None
    for __ in range(replays):
        result = None  # free the previous replay before building the next
        gc.collect()
        result = replay(config, batches)
        latencies += result.latencies
        windows.append(result.window)
        edge_counts.append(result.pipeline.graph.num_edges)
        if result.error is not None:
            break
    rss = peak_rss_mb()
    problems = check(spec, result, batches, edge_counts)
    edges = sum(b.size for b in batches)
    attempted = len(windows) * len(batches)
    return {
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems,
        "latencies": latencies,
        "edges_per_s": float(np.median([edges / w for w in windows])),
        "peak_rss_mb": rss,
    }


def run_traced(spec: dict, batches, replays: int) -> dict:
    """Per-layer breakdown from traced replays, alternated with untraced ones.

    Layer times and counts are totals per replay.  The tracing overhead is
    the median traced replay time over the median untraced one.
    """
    config = config_for(spec)
    replay(config, batches[:2])
    plain, plain_latencies, traced, edge_counts, errors = [], [], [], [], []
    tracer = Tracer()
    counts = new_counts()
    for __ in range(replays):
        result = None
        gc.collect()
        untraced = replay(config, batches)
        if untraced.error is not None:
            errors.append(f"untraced replay: {untraced.error}")
        plain.append(untraced.window)
        plain_latencies += untraced.latencies
        edge_counts.append(untraced.pipeline.graph.num_edges)
        untraced = None
        gc.collect()
        result = replay(config, batches, tracer)
        traced.append(result.window)
        edge_counts.append(result.pipeline.graph.num_edges)
        for key, value in result.counts.items():
            counts[key] += value
        snapshotter = getattr(result.pipeline.compute, "snapshotter", None)
        if snapshotter is not None:
            counts["patches"] += snapshotter.delta_patches
            counts["rebuilds"] += snapshotter.full_rebuilds
        if result.error is not None:
            break
    tracer.enabled = False
    problems = errors + check(spec, result, batches, edge_counts)
    layers = layer_metrics(tracer, counts, len(traced))
    layers["trace.overhead_pct"] = 100.0 * (
        float(np.median(traced)) / float(np.median(plain)) - 1.0
    )
    attempted = 2 * len(traced) * len(batches)
    return {
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems,
        "layers": layers,
        "plain_latencies": plain_latencies,
        # Replay time outside every pipeline.step span (loop, wrappers).
        "outside_step_s": sum(traced) / len(traced) - layers["pipeline.step_s"],
        "tracer": tracer,
    }
