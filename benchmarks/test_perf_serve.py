"""Wall-clock live-ingest benchmark: ``repro serve`` request throughput
and ingest-to-visible latency.

Runs a real :class:`~repro.serve.server.ServeServer` on its own
event-loop thread and drives it with the load generator — two concurrent
TCP clients streaming edges in small submissions plus a query client —
so the measured numbers cover the whole serving path: line-JSON protocol,
admission control, micro-batch cutting, the pipeline driver thread, and
snapshot queries.  Headline numbers:

* ``requests_per_second`` — acked ``edges`` submissions per second across
  all clients (the service's request throughput);
* ``visible_p99_s`` — p99 of ingest-to-visible latency (admission of a
  submission to the completed pipeline step that makes it queryable), as
  measured by the server's own watermark markers.

The summary lands in ``results/BENCH_serve.json``; ``make serve-smoke``
compares against the committed ``benchmarks/BENCH_serve.json`` baseline.

Honesty notes for the committed baseline: wall-clock on a shared CI box
is noisy, so the enforced gates are wide (throughput may not drop below
half the baseline; p99 may not triple); the always-on assertions pin
semantics (every admitted edge became visible, queries answered) which
must hold on any machine.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

from _harness import RESULTS_DIR, emit
from repro.analysis.report import render_table
from repro.pipeline.config import RunConfig
from repro.serve import ServeSettings, start_server_thread
from repro.serve.client import run_loadgen

DATASET = "fb"
CLIENTS = 2
EDGES_PER_CLIENT = 15_000
SUBMIT_SIZE = 300
BATCH_TARGET = 2_000
ROUNDS = 2  # best-of to shave scheduler noise

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"


def _run_once() -> dict:
    config = RunConfig(
        dataset=DATASET, batch_size=BATCH_TARGET, algorithm="pr",
        mode="abr_usc", telemetry="basic",
    )
    settings = ServeSettings(batch_target=BATCH_TARGET)
    handle = start_server_thread(config, settings)
    try:
        return asyncio.run(
            run_loadgen(
                handle.host, handle.port,
                clients=CLIENTS, edges=EDGES_PER_CLIENT,
                submit_size=SUBMIT_SIZE,
                query="pagerank_topk", query_interval=0.05,
            )
        )
    finally:
        handle.stop()


def run_serve() -> dict:
    best = None
    for __ in range(ROUNDS):
        report = _run_once()
        if (
            best is None
            or report["requests_per_second"] > best["requests_per_second"]
        ):
            best = report
    return {
        "dataset": DATASET,
        "clients": CLIENTS,
        "edges_per_client": EDGES_PER_CLIENT,
        "submit_size": SUBMIT_SIZE,
        "batch_target": BATCH_TARGET,
        "cpu_cores": os.cpu_count(),
        "edges_sent": best["edges_sent"],
        "edges_per_second": best["edges_per_second"],
        "requests_per_second": best["requests_per_second"],
        "ack_p99_s": best["ack_latency_s"]["p99"],
        "visible_p99_s": best["server"]["ingest_to_visible_s"]["p99"],
        "micro_batches": best["server"]["batches"],
        "queries_served": best.get("queries", {}).get("served", 0),
        "lag_edges_at_end": best["server"]["lag_edges"],
    }


def test_perf_serve(benchmark):
    result = benchmark.pedantic(run_serve, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "perf_serve",
        render_table(
            ["metric", "value"],
            [
                [f"edge submissions/s ({CLIENTS} clients)",
                 result["requests_per_second"]],
                ["edges/s", result["edges_per_second"]],
                ["ack p99 (s)", result["ack_p99_s"]],
                ["ingest-to-visible p99 (s)", result["visible_p99_s"]],
                ["micro-batches", result["micro_batches"]],
                ["queries served", result["queries_served"]],
            ],
            title="Live-ingest serving benchmark (repro serve)",
        ),
    )
    # Semantics hold on any machine: everything sent was admitted, became
    # visible, and the query client got answers from live snapshots.
    assert result["edges_sent"] == CLIENTS * EDGES_PER_CLIENT
    assert result["lag_edges_at_end"] == 0
    assert result["micro_batches"] >= (
        CLIENTS * EDGES_PER_CLIENT
    ) // BATCH_TARGET
    assert result["requests_per_second"] > 0.0
    assert result["visible_p99_s"] > 0.0
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        baseline = (
            json.loads(BASELINE_PATH.read_text())
            if BASELINE_PATH.exists() else None
        )
        if baseline is not None and (
            baseline["clients"] != result["clients"]
            or baseline["edges_per_client"] != result["edges_per_client"]
            or baseline["submit_size"] != result["submit_size"]
        ):
            baseline = None  # apples-to-apples only
        if baseline is not None:
            assert result["requests_per_second"] >= (
                baseline["requests_per_second"] * 0.5
            ), (
                "serve request throughput regressed >2x vs committed "
                f"baseline: {result['requests_per_second']:.0f}/s vs "
                f"{baseline['requests_per_second']:.0f}/s"
            )
            assert result["visible_p99_s"] <= (
                baseline["visible_p99_s"] * 3.0
            ), (
                "ingest-to-visible p99 regressed >3x vs committed "
                f"baseline: {result['visible_p99_s']:.4f}s vs "
                f"{baseline['visible_p99_s']:.4f}s"
            )
