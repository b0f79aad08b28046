"""Wall-clock substrate micro-benchmark: ingest, snapshot, matrix row.

Unlike the figure benchmarks (which reproduce the paper's *modeled* times),
this one measures real seconds spent in the substrate itself:

* **ingest** — vectorized ``AdjacencyListGraph.apply_batch`` (segment
  storage) vs the seed per-vertex dict loop
  (``graph.reference.ReferenceAdjacencyListGraph``), on the
  highest-vertex-churn stream (``friendster``, ~87% unique sources per
  100K batch) where ingest dominates wall-clock;
* **snapshot** — ``DeltaSnapshotter``'s gather of an
  ``AdjacencyListGraph``'s stored out-segments vs ``take_snapshot``'s walk
  over the per-vertex dicts of a ``ReferenceAdjacencyListGraph`` fed the
  same batches, each after every batch (``lj``, 8 batches @ 100K, the
  incremental-compute regime);
* **matrix row** — one dataset's pipeline cells end to end through the
  workload executor.

The summary lands in ``results/BENCH_substrate.json`` so successive PRs
leave a wall-clock trajectory; ``make bench-smoke`` compares it against the
committed baseline ``benchmarks/BENCH_substrate.json`` and fails on >20%
regression.  Thresholds: the structural speedup floors (gathered snapshots
and vectorized ingest beat the reference paths) are always asserted; the full
acceptance floors (3x / 1.5x) are asserted when ``REPRO_BENCH_ENFORCE=1``,
so a loaded CI box doesn't flake the default run.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from _harness import RESULTS_DIR, emit
from repro.analysis.report import render_table
from repro.datasets.profiles import get_dataset
from repro.datasets.stream_cache import cached_batches
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.reference import ReferenceAdjacencyListGraph
from repro.graph.snapshot import DeltaSnapshotter, take_snapshot
from repro.pipeline.executor import CellSpec, run_matrix

INGEST_DATASET = "friendster"
SNAPSHOT_DATASET = "lj"
BATCH_SIZE = 100_000
NUM_BATCHES = 8
ROUNDS = 5  # best-of to shave scheduler noise
#: Interleaved telemetry off/full pairs; the overhead is their median ratio.
OVERHEAD_PAIRS = 9

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_substrate.json"


def _batches(dataset: str):
    return list(
        cached_batches(get_dataset(dataset), BATCH_SIZE, NUM_BATCHES, seed=7)
    )


def _time_ingest_once(graph_cls, batches) -> float:
    graph = graph_cls(get_dataset(INGEST_DATASET).num_vertices)
    start = time.perf_counter()
    for batch in batches:
        graph.apply_batch(batch)
    return time.perf_counter() - start


def _time_ingest_pair(batches) -> tuple[float, float]:
    """Best-of-ROUNDS for both ingest paths (reference loop, dict graph),
    rounds interleaved A/B so machine-load drift during the run biases
    neither side of the ratio."""
    best_ref = best_vec = float("inf")
    for __ in range(ROUNDS):
        best_ref = min(best_ref, _time_ingest_once(ReferenceAdjacencyListGraph, batches))
        best_vec = min(best_vec, _time_ingest_once(AdjacencyListGraph, batches))
    return best_ref, best_vec


def _time_snapshots(batches, delta: bool) -> float:
    """Best-of-ROUNDS time of a snapshot after every batch: the gather of an
    ``AdjacencyListGraph`` (``delta``), or the dict walk of the oracle."""
    best = float("inf")
    for __ in range(ROUNDS):
        graph_cls = AdjacencyListGraph if delta else ReferenceAdjacencyListGraph
        graph = graph_cls(get_dataset(SNAPSHOT_DATASET).num_vertices)
        snapper = DeltaSnapshotter(graph) if delta else None
        elapsed = 0.0
        for batch in batches:
            graph.apply_batch(batch)
            start = time.perf_counter()
            snapper.snapshot() if delta else take_snapshot(graph)
            elapsed += time.perf_counter() - start
        best = min(best, elapsed)
    return best


def _time_matrix_row() -> float:
    specs = [
        CellSpec(dataset="fb", batch_size=1_000, algorithm=alg, num_batches=2)
        for alg in ("pr", "sssp", "pr_static", "sssp_static")
    ]
    best = float("inf")
    for __ in range(ROUNDS):
        start = time.perf_counter()
        results = run_matrix(specs, jobs=1)
        elapsed = time.perf_counter() - start
        assert len(results) == len(specs)
        best = min(best, elapsed)
    return best


def run_substrate() -> dict:
    ingest_ref, ingest_vec = _time_ingest_pair(_batches(INGEST_DATASET))
    snapshot_batches = _batches(SNAPSHOT_DATASET)
    snap_full = _time_snapshots(snapshot_batches, delta=False)
    snap_delta = _time_snapshots(snapshot_batches, delta=True)
    return {
        "ingest_dataset": INGEST_DATASET,
        "snapshot_dataset": SNAPSHOT_DATASET,
        "batch_size": BATCH_SIZE,
        "num_batches": NUM_BATCHES,
        "ingest_reference_s": ingest_ref,
        "ingest_vectorized_s": ingest_vec,
        "ingest_speedup": ingest_ref / ingest_vec,
        "ingest_speedup_dict": ingest_ref / ingest_vec,
        "snapshot_full_s": snap_full,
        "snapshot_delta_s": snap_delta,
        "snapshot_speedup": snap_full / snap_delta,
        "matrix_row_s": _time_matrix_row(),
    }


def test_perf_substrate(benchmark):
    result = benchmark.pedantic(run_substrate, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_substrate.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "perf_substrate",
        render_table(
            ["path", "reference (s)", "optimized (s)", "speedup"],
            [
                [
                    f"ingest dict {INGEST_DATASET}@{BATCH_SIZE} x{NUM_BATCHES}",
                    result["ingest_reference_s"],
                    result["ingest_vectorized_s"],
                    result["ingest_speedup_dict"],
                ],
                [
                    f"snapshot {SNAPSHOT_DATASET} per batch",
                    result["snapshot_full_s"],
                    result["snapshot_delta_s"],
                    result["snapshot_speedup"],
                ],
                ["matrix row (4 cells)", "-", result["matrix_row_s"], "-"],
            ],
            title="Substrate wall-clock micro-benchmark",
        ),
    )
    # The optimized paths must beat the reference paths on any machine.
    assert result["ingest_speedup_dict"] > 1.0
    assert result["snapshot_speedup"] > 1.0
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        assert result["ingest_speedup_dict"] >= 1.5
        assert result["snapshot_speedup"] >= 3.0
        if BASELINE_PATH.exists():
            baseline = json.loads(BASELINE_PATH.read_text())
            # Speedups are measured A/B under identical load, so they are
            # stable where absolute seconds on a shared box are not: refuse
            # a >20% drop.  Absolute times only get a gross 2x backstop.
            for key in ("ingest_speedup_dict", "snapshot_speedup"):
                if key in baseline:
                    assert result[key] >= baseline[key] * 0.8, (
                        f"{key} regressed >20% vs committed baseline: "
                        f"{result[key]:.2f}x vs {baseline[key]:.2f}x"
                    )
            for key in ("ingest_vectorized_s", "snapshot_delta_s",
                        "matrix_row_s"):
                if key in baseline:
                    assert result[key] <= baseline[key] * 2.0, (
                        f"{key} regressed >2x vs committed baseline: "
                        f"{result[key]:.3f}s vs {baseline[key]:.3f}s"
                    )


def _time_engine_ingest(batches, telemetry) -> float:
    """One instrumented (or not) UpdateEngine pass over the batches."""
    from repro.update.engine import UpdateEngine, UpdatePolicy

    graph = AdjacencyListGraph(get_dataset(SNAPSHOT_DATASET).num_vertices)
    engine = UpdateEngine(graph, UpdatePolicy.ABR_USC, telemetry=telemetry)
    start = time.perf_counter()
    for batch in batches:
        engine.ingest(batch)
    return time.perf_counter() - start


def run_telemetry_overhead() -> dict:
    """The median, over OVERHEAD_PAIRS back-to-back off/full pairs, of each
    pair's full/off time ratio.  Each pair shares the machine's load of its
    moment, and the pairs alternate which side runs first, so neither drift
    nor order favours a side; the median drops a pair a load spike hit."""
    from repro.telemetry.core import Telemetry

    batches = _batches(SNAPSHOT_DATASET)
    offs, fulls = [], []
    timeline_events = 0
    for pair in range(OVERHEAD_PAIRS):
        tel = Telemetry("full")
        if pair % 2:
            full = _time_engine_ingest(batches, tel)
            off = _time_engine_ingest(batches, None)
        else:
            off = _time_engine_ingest(batches, None)
            full = _time_engine_ingest(batches, tel)
        offs.append(off)
        fulls.append(full)
        timeline_events = tel.timeline.recorded
    return {
        "dataset": SNAPSHOT_DATASET,
        "batch_size": BATCH_SIZE,
        "num_batches": NUM_BATCHES,
        "pairs": OVERHEAD_PAIRS,
        "ingest_off_s": statistics.median(offs),
        "ingest_full_s": statistics.median(fulls),
        "overhead_fraction": statistics.median(
            full / off for off, full in zip(offs, fulls)
        ) - 1.0,
        "timeline_events": timeline_events,
    }


def test_perf_telemetry_overhead(benchmark):
    """Full instrumentation must stay cheap on the ingest hot path.

    The <5% acceptance bound is asserted under ``REPRO_BENCH_ENFORCE=1``
    on the median pair ratio (a comparison of two best-of minima swung
    from -1% to +6% between runs on a loaded box); the always-on bound
    only catches gross regressions — an accidental clock read or
    allocation per edge rather than per batch.
    """
    result = benchmark.pedantic(run_telemetry_overhead, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_telemetry.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "perf_telemetry_overhead",
        render_table(
            ["path", "telemetry off (s)", "telemetry full (s)", "overhead (%)"],
            [[
                f"engine ingest {SNAPSHOT_DATASET}@{BATCH_SIZE} x{NUM_BATCHES}",
                result["ingest_off_s"],
                result["ingest_full_s"],
                100.0 * result["overhead_fraction"],
            ]],
            title="Telemetry overhead micro-benchmark",
        ),
    )
    # The flight recorder rides on every full-level backend, so the <5%
    # budget below covers it only if it actually recorded events here.
    assert result["timeline_events"] > 0, (
        "full-level telemetry did not feed the timeline recorder — the "
        "overhead bound no longer covers it"
    )
    assert result["overhead_fraction"] < 0.5
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        assert result["overhead_fraction"] < 0.05, (
            f"full telemetry (flight recorder included) costs "
            f"{100 * result['overhead_fraction']:.1f}% wall-clock on the "
            f"ingest micro-benchmark (budget: 5%)"
        )
