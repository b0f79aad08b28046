"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands:

* ``datasets`` — print the Table 2 inventory (paper + scaled profiles).
* ``run`` — run one pipeline cell and print its metrics; ``--checkpoint
  DIR --every N`` persists resumable state every N batches and
  auto-resumes from the newest checkpoint in DIR.
* ``characterize`` — RO trade-off study for one dataset (Fig. 3 row).
* ``hau`` — simulate HAU on one cell and print Table 3-style numbers plus
  the Fig. 19/20 per-core statistics.
* ``oca`` — measure inter-batch overlap and OCA's compute speedup per
  batch size for one dataset (Fig. 14 row).
* ``accuracy`` — ABR decision accuracy over the Fig. 18 (lambda, TH) grid.
* ``sensitivity`` — cost-constant robustness sweep for one parameter.
* ``fidelity`` — paper-reported vs measured summary, joined from the JSON
  records the benchmarks leave under ``results/``.
* ``report`` — analyze one recorded trace (per-stage/per-strategy
  breakdowns, counters, anomaly flags, decision ledger) or A/B-compare two
  traces; ``--timeline OUT`` re-exports the trace's flight-recorder
  timeline as Chrome trace-event JSON (viewable in Perfetto).
* ``top`` — live view of an in-flight run via its ``--heartbeat`` file.
* ``tune`` — auto-tune policy knobs (ABR TH/lambda/n, OCA threshold,
  batch size, ...) over a declared search space with a
  pluggable optimizer; trials are journaled so a killed search resumes
  (docs/TUNING.md).
* ``serve`` — long-running live edge-ingest service: TCP line-JSON
  clients stream edges through one admission window (edges admitted but
  not yet visible) into micro-batches; queries are answered from the
  latest snapshot (docs/SERVE.md).
* ``loadgen`` — synthetic multi-client driver for a running ``serve``.
* ``cache`` — inspect or clear the on-disk stream cache.

``run`` and ``characterize`` accept ``--jobs N`` to fan independent cells
out over worker processes (0 = all cores); results are printed in the same
order and format as the serial run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis.characterization import characterize_cell
from .analysis.report import render_kv, render_table
from .datasets.profiles import BATCH_SIZES, DATASETS, get_dataset
from .exec_model.machine import SIMULATED_MACHINE
from .graph.adjacency_list import AdjacencyListGraph
from .hau.simulator import HAUSimulator
from .pipeline.config import RunConfig
from .pipeline.modes import MODES
from .pipeline.runner import ALGORITHMS
from .telemetry.core import TELEMETRY_LEVELS
from .update.engine import UpdateEngine, UpdatePolicy

__all__ = ["main"]


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        [
            p.name,
            p.full_name,
            p.kind,
            f"{p.paper_vertices:,}",
            f"{p.paper_edges:,}",
            f"{p.num_vertices:,}",
            f"{p.stream_edges:,}",
            ",".join(str(s) for s in sorted(p.friendly_sizes)) or "-",
        ]
        for p in DATASETS.values()
    ]
    print(
        render_table(
            ["name", "full name", "kind", "paper |V|", "paper |E|",
             "scaled |V|", "scaled |E|", "RO-friendly sizes"],
            rows,
            title="Table 2: evaluated datasets (paper originals and scaled profiles)",
        )
    )
    return 0


def _resolve_telemetry_level(args: argparse.Namespace) -> None:
    """Default ``--telemetry`` to full when an exporter needs data."""
    if getattr(args, "telemetry", None) is None:
        wants_export = bool(
            args.trace
            or getattr(args, "prom", None)
            or getattr(args, "timeline", None)
            or getattr(args, "heartbeat", None)
        )
        args.telemetry = "full" if wants_export else "off"


def _cmd_run(args: argparse.Namespace) -> int:
    _resolve_telemetry_level(args)
    if len(args.dataset) > 1:
        return _cmd_run_matrix(args)
    config = RunConfig.from_cli_args(args)
    trace = None
    if args.trace:
        from .pipeline.tracing import TraceWriter

        trace = TraceWriter(args.trace)
    pipeline = config.build_pipeline(trace=trace)
    run_kwargs = {}
    if args.heartbeat or args.prom:
        from .telemetry.heartbeat import HeartbeatMonitor

        run_kwargs["monitor"] = HeartbeatMonitor(
            args.heartbeat or None,
            prom_path=args.prom or None,
            prom_labels={"dataset": config.dataset, "mode": config.mode},
            run_id=pipeline.run_id,
            label=(
                f"{config.dataset} @ {config.batch_size} "
                f"[{config.algorithm}, {config.mode}]"
            ),
            total_batches=config.num_batches,
        )
    if args.checkpoint:
        from .pipeline.checkpoint import latest_checkpoint

        found = latest_checkpoint(args.checkpoint)
        if found is not None:
            checkpoint, path = found
            print(
                f"resuming from {path} "
                f"(cursor {checkpoint.cursor}, {checkpoint.batches_done} batches done)"
            )
            run_kwargs["resume_from"] = checkpoint
        run_kwargs["checkpoint_dir"] = args.checkpoint
        run_kwargs["checkpoint_every"] = args.every
    try:
        metrics = pipeline.run(config.num_batches, **run_kwargs)
    except KeyboardInterrupt:
        # The pipeline stops at a batch boundary on the first Ctrl-C (and
        # has already written a final checkpoint when --checkpoint is on),
        # so this is a clean early exit, not a crash: conventional 130.
        if trace is not None:
            trace.close()
        if args.checkpoint:
            print(
                "interrupted — progress checkpointed at the last batch "
                f"boundary in {args.checkpoint}; rerun to resume",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return 130
    if trace is not None:
        trace.close()
        print(f"trace: {trace.events_written} events -> {trace.path}")
    if args.timeline:
        from .telemetry.timeline import write_chrome_trace

        snapshots = pipeline.timeline_snapshots()
        if snapshots:
            write_chrome_trace(args.timeline, snapshots)
            events = sum(len(s.events) for s in snapshots)
            print(
                f"timeline: {events} events from {len(snapshots)} "
                f"process(es) -> {args.timeline}"
            )
        else:
            print(
                "no timeline recorded (the flight recorder requires "
                "--telemetry full)",
                file=sys.stderr,
            )
    if args.heartbeat:
        print(f"heartbeat -> {args.heartbeat}")
    if args.prom and pipeline.telemetry.enabled:
        from .telemetry.export import write_prometheus_textfile

        write_prometheus_textfile(
            pipeline.telemetry.snapshot(),
            args.prom,
            labels={"dataset": config.dataset, "mode": config.mode},
        )
        print(f"prometheus metrics -> {args.prom}")
    print(
        render_kv(
            f"{config.dataset} @ {config.batch_size} [{config.algorithm}, {config.mode}"
            f"{', oca' if config.use_oca else ''}]",
            {
                "batches": metrics.num_batches,
                "update time (tu)": metrics.total_update_time,
                "compute time (tu)": metrics.total_compute_time,
                "total time (tu)": metrics.total_time,
                "update share": metrics.update_share,
                "strategies": str(metrics.strategies_used()),
            },
        )
    )
    return 0


def _cmd_run_matrix(args: argparse.Namespace) -> int:
    """Multiple datasets: run the cells via the (optionally parallel) executor.

    One cell failing (a worker crash, timeout, or an error inside the
    pipeline) does not abort the matrix: the surviving cells print
    normally, failed cells print their error, and the exit code is 1.
    """
    from .pipeline.executor import (
        executor_telemetry,
        merged_telemetry,
        merged_timelines,
        run_matrix,
    )

    configs = [RunConfig.from_cli_args(args, dataset=name) for name in args.dataset]
    if any(config.requires_hau for config in configs) or args.trace:
        print(
            "HAU modes and --trace require a single dataset", file=sys.stderr
        )
        return 2
    if args.checkpoint:
        print("--checkpoint requires a single dataset", file=sys.stderr)
        return 2
    if args.heartbeat:
        print("--heartbeat requires a single dataset", file=sys.stderr)
        return 2
    stats: dict = {}
    results = run_matrix(configs, jobs=args.jobs, stats=stats)
    failed = [result for result in results if not result.ok]
    for result in results:
        spec = result.spec
        title = (
            f"{spec.dataset} @ {spec.batch_size} [{spec.algorithm}, {spec.mode}"
            f"{', oca' if spec.use_oca else ''}]"
        )
        if not result.ok:
            print(render_kv(title, {"status": "FAILED", "error": result.error}))
            continue
        print(
            render_kv(
                title,
                {
                    "batches": result.num_batches,
                    "update time (tu)": result.update_time,
                    "compute time (tu)": result.compute_time,
                    "total time (tu)": result.total_time,
                    "update share": result.update_time / result.total_time,
                    "strategies": str(dict(result.strategies)),
                },
            )
        )
    if failed:
        print(
            f"{len(failed)}/{len(results)} cell(s) failed: "
            + ", ".join(result.spec.dataset for result in failed),
            file=sys.stderr,
        )
    if args.prom:
        from .telemetry.export import write_prometheus_textfile

        merged = merged_telemetry(results)
        health = executor_telemetry(results, stats)
        snapshot = health if merged is None else merged.merged(health)
        write_prometheus_textfile(snapshot, args.prom)
        print(f"prometheus metrics (all cells merged) -> {args.prom}")
    if args.timeline:
        from .telemetry.timeline import write_chrome_trace

        snapshots = merged_timelines(results)
        if snapshots:
            write_chrome_trace(args.timeline, snapshots)
            events = sum(len(s.events) for s in snapshots)
            print(
                f"timeline: {events} events from {len(snapshots)} "
                f"process(es) -> {args.timeline}"
            )
        else:
            print(
                "no timeline recorded (the flight recorder requires "
                "--telemetry full)",
                file=sys.stderr,
            )
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .telemetry.report import load_report, render_compare, render_report

    base = load_report(args.trace)
    if getattr(args, "timeline_out", None):
        from .telemetry.timeline import write_chrome_trace

        timelines = base.document.timelines
        if not timelines:
            print(
                f"{args.trace}: no timeline lines in trace (record with "
                "`repro run --trace ... --telemetry full`)",
                file=sys.stderr,
            )
            return 1
        write_chrome_trace(args.timeline_out, timelines)
        events = sum(len(s.events) for s in timelines)
        print(
            f"timeline: {events} events from {len(timelines)} "
            f"process(es) -> {args.timeline_out}"
        )
    if args.trace_b is None:
        print(render_report(base))
    else:
        print(render_compare(base, load_report(args.trace_b)))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Render the live heartbeat of an in-flight run, ``top``-style."""
    import time

    from .telemetry.heartbeat import read_heartbeat, render_heartbeat

    def frame() -> str | None:
        data = read_heartbeat(args.path)
        if data is None:
            return None
        return render_heartbeat(data, max_age=args.max_age)

    if args.once:
        text = frame()
        if text is None:
            print(f"{args.path}: no readable heartbeat", file=sys.stderr)
            return 1
        print(text)
        return 0
    # The refresh loop draws on the alternate screen buffer so Ctrl-C
    # hands the terminal back exactly as it was, instead of leaving the
    # user's scrollback replaced by a cleared screen.  An unreadable or
    # half-written heartbeat (frame() -> None) renders as "waiting".
    try:
        sys.stdout.write("\x1b[?1049h")
        while True:
            text = frame()
            # ANSI: clear screen + home, so the view refreshes in place.
            sys.stdout.write("\x1b[2J\x1b[H")
            if text is None:
                sys.stdout.write(f"waiting for heartbeat at {args.path} ...\n")
            else:
                sys.stdout.write(text + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        sys.stdout.write("\x1b[?1049l")
        sys.stdout.flush()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived live-ingest service (see docs/SERVE.md)."""
    import asyncio
    import os
    import signal
    from pathlib import Path

    from .serve import ServeServer, ServeSettings

    if getattr(args, "telemetry", None) is None:
        args.telemetry = "basic"
    config = RunConfig.from_serve_args(args)
    settings = ServeSettings(
        batch_target=args.serve_batch or args.batch_size,
        queue_depth=args.queue_depth,
        max_pending=args.max_pending,
    )
    if args.checkpoint:
        settings.checkpoint_dir = args.checkpoint
        settings.checkpoint_every = args.every
    monitor = None
    if args.heartbeat or args.prom:
        from .telemetry.heartbeat import HeartbeatMonitor

        monitor = HeartbeatMonitor(
            args.heartbeat or None,
            prom_path=args.prom or None,
            prom_labels={"dataset": config.dataset, "mode": config.mode},
            label=(
                f"serve {config.dataset} [{config.algorithm}, {config.mode}]"
            ),
        )

    async def _main() -> int:
        server = ServeServer(config, settings, monitor=monitor)
        host, port = await server.start(args.host, args.port)
        if args.port_file:
            # Atomic write: a watching launcher never reads a torn port.
            target = Path(args.port_file)
            tmp = target.with_suffix(target.suffix + ".tmp")
            tmp.write_text(f"{port}\n", encoding="utf-8")
            os.replace(tmp, target)
        print(
            f"serving {config.dataset} [{config.algorithm}, {config.mode}] "
            f"on {host}:{port} (batch target {settings.batch_target}, "
            f"pending cap {settings.max_pending})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("draining: admission closed, flushing buffered edges ...",
              flush=True)
        await server.drain()
        final = server._stats()
        print(
            render_kv(
                "serve summary",
                {
                    "edges ingested": final["visible_seq"],
                    "micro-batches": final["batches"],
                    "queries served": final["queries_served"],
                    "rejected requests": final["rejected_requests"],
                    "ingest-to-visible p99 (s)": final[
                        "ingest_to_visible_s"
                    ]["p99"],
                },
            )
        )
        return 0

    return asyncio.run(_main())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running ``repro serve`` with synthetic clients."""
    import asyncio
    import json

    from .serve.client import run_loadgen

    try:
        report = asyncio.run(
            run_loadgen(
                args.host,
                args.port,
                clients=args.clients,
                edges=args.edges,
                submit_size=args.submit_size,
                seed=args.seed,
                query=args.query,
                query_interval=args.query_interval,
            )
        )
    except ConnectionError as exc:
        print(
            f"loadgen: cannot reach {args.host}:{args.port} ({exc}); "
            "is `repro serve` running?",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    summary = {
        "clients": report["clients"],
        "edges sent": report["edges_sent"],
        "rejected requests": report["rejected_requests"],
        "wall (s)": report["wall_seconds"],
        "edges/s": report["edges_per_second"],
        "requests/s": report["requests_per_second"],
        "ack p99 (s)": report["ack_latency_s"]["p99"],
        "visible p99 (s)": report["server"]["ingest_to_visible_s"]["p99"],
    }
    if "queries" in report:
        summary["queries served"] = report["queries"]["served"]
        summary["query p99 (s)"] = report["queries"]["latency_s"]["p99"]
    print(render_kv("loadgen", summary))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .analysis.characterization import characterize_cell_spec
    from .pipeline.executor import map_cells

    profile = get_dataset(args.dataset)
    specs = [
        (profile.name, batch_size, profile.num_batches(batch_size, cap=args.num_batches), 7)
        for batch_size in BATCH_SIZES
    ]
    cells = map_cells(characterize_cell_spec, specs, jobs=args.jobs)
    rows = [
        [
            cell.batch_size,
            cell.ro_speedup,
            cell.usc_speedup,
            cell.max_degree,
            "friendly" if cell.ro_friendly else "adverse",
        ]
        for cell in cells
    ]
    print(
        render_table(
            ["batch size", "RO speedup", "RO+USC speedup", "max degree", "category"],
            rows,
            title=f"RO characterization for {profile.name} (Fig. 3 row)",
        )
    )
    return 0


def _cmd_hau(args: argparse.Namespace) -> int:
    profile = get_dataset(args.dataset)
    graph_sw = AdjacencyListGraph(profile.num_vertices)
    sw = UpdateEngine(graph_sw, UpdatePolicy.ABR_USC, machine=SIMULATED_MACHINE)
    for batch in profile.generator().batches(args.batch_size, args.num_batches):
        sw.ingest(batch)
    graph_hw = AdjacencyListGraph(profile.num_vertices)
    hau = HAUSimulator()
    hw = UpdateEngine(
        graph_hw, UpdatePolicy.ABR_USC_HAU, machine=SIMULATED_MACHINE, hau=hau
    )
    for batch in profile.generator().batches(args.batch_size, args.num_batches):
        hw.ingest(batch)
    print(
        render_kv(
            f"HAU on {profile.name} @ {args.batch_size} ({args.num_batches} batches)",
            {
                "ABR+USC update time (tu)": sw.total_time,
                "ABR+USC+HAU update time (tu)": hw.total_time,
                "update speedup": sw.total_time / hw.total_time,
            },
        )
    )
    if hau.results:
        last = hau.results[-1]
        rows = [
            [core, last.tasks_per_core[core], last.lines_per_core[core]]
            for core in sorted(last.tasks_per_core)
        ]
        print()
        print(
            render_table(
                ["core", "update tasks", "edge-data cachelines"],
                rows,
                title="Fig. 19: per-core work distribution (last simulated batch)",
                float_format="{:.0f}",
            )
        )
        print()
        print(
            render_kv(
                "Fig. 20: locality and NoC impact (last simulated batch)",
                {
                    "local tile hit fraction": last.local_fraction,
                    "remote access reduction vs software": last.remote_access_reduction,
                    "max packet latency increase (%)": max(
                        last.packet_latency_increase.values()
                    ),
                },
            )
        )
    return 0


def _cmd_oca(args: argparse.Namespace) -> int:
    profile = get_dataset(args.dataset)
    rows = []
    for batch_size in (1_000, 10_000, 100_000):
        nb = max(
            profile.num_batches(batch_size, cap=args.num_batches), 1
        )
        cell = RunConfig(
            dataset=profile.name, batch_size=batch_size, algorithm="pr",
            mode="abr_usc", num_batches=nb, pr_tolerance=1e-5,
        )
        plain = cell.run()
        oca = dataclasses.replace(cell, use_oca=True).run()
        overlaps = [b.overlap for b in oca.batches if b.overlap is not None]
        rows.append(
            [
                batch_size,
                f"{max(overlaps):.2f}" if overlaps else "-",
                sum(b.deferred for b in oca.batches),
                plain.total_compute_time / oca.total_compute_time,
            ]
        )
    print(
        render_table(
            ["batch size", "max overlap", "rounds deferred", "compute speedup"],
            rows,
            title=f"OCA behaviour for {profile.name} (Fig. 14 row)",
        )
    )
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from .analysis.accuracy import FIG18_GRID
    from .update.cad import cad_from_degrees

    profile = get_dataset(args.dataset)
    examples = []
    for batch_size in (1_000, 10_000, 100_000):
        nb = profile.num_batches(batch_size, cap=args.num_batches)
        cell = characterize_cell(profile, batch_size, nb)
        generator = profile.generator()
        for index, beneficial in enumerate(cell.per_batch_ro_beneficial):
            batch = generator.generate_batch(index, batch_size)
            sides = (batch.in_degrees()[1], batch.out_degrees()[1])
            examples.append((beneficial, batch.size, sides))
    rows = []
    for lam, threshold in FIG18_GRID:
        correct = sum(
            (max(cad_from_degrees(d, size, lam) for d in sides) >= threshold)
            == truth
            for truth, size, sides in examples
        )
        rows.append([lam, threshold, correct / len(examples)])
    print(
        render_table(
            ["lambda", "TH", "accuracy"],
            rows,
            title=f"ABR decision accuracy for {profile.name} "
            f"({len(examples)} example batches)",
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis.sensitivity import sweep_parameter

    cells = [
        (get_dataset("lj"), 100_000, args.num_batches),
        (get_dataset("wiki"), 100_000, args.num_batches),
    ]
    points = sweep_parameter(
        args.parameter, (0.5, 0.75, 1.0, 1.5, 2.0), cells, jobs=args.jobs
    )
    print(
        render_table(
            ["scale", "dataset", "RO speedup", "classification"],
            [
                [p.scale, p.dataset, p.ro_speedup,
                 "friendly" if p.friendly else "adverse"]
                if p.ok
                else [p.scale, p.dataset, "-", f"FAILED: {p.error}"]
                for p in points
            ],
            title=f"Sensitivity of the RO trade-off to '{args.parameter}'",
        )
    )
    failed = [p for p in points if not p.ok]
    if failed:
        print(
            f"{len(failed)}/{len(points)} sweep cell(s) failed",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from .analysis.experiments import ExperimentStore
    from .analysis.paper_targets import fidelity_report

    rows = fidelity_report(ExperimentStore(args.results))
    print(
        render_table(
            ["paper artifact", "paper", "measured", "band", "status"],
            [
                [
                    row["description"],
                    row["paper"],
                    "-" if row["measured"] is None else f"{row['measured']:.3f}",
                    f"[{row['band'][0]:g}, {row['band'][1]:g}]",
                    row["status"],
                ]
                for row in rows
            ],
            title="Reproduction fidelity (run `pytest benchmarks/ "
            "--benchmark-only` first to populate results/)",
        )
    )
    out_of_band = sum(row["status"] == "out-of-band" for row in rows)
    return 1 if out_of_band else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from .analysis.visualize import trajectory_chart
    from .errors import TuneError
    from .tune import TuneDriver, load_space

    base = RunConfig(
        dataset=args.dataset,
        batch_size=args.batch_size,
        algorithm=args.algorithm,
        mode=args.mode,
        use_oca=args.oca,
        num_batches=args.num_batches,
    )
    try:
        space = load_space(args.space)
        driver = TuneDriver(
            space,
            base,
            out_dir=args.out,
            objective=args.objective,
            optimizer=args.optimizer,
            trials=args.trials,
            jobs=args.jobs,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
        )
        result = driver.run()
    except TuneError as exc:
        print(f"tune: {exc}", file=sys.stderr)
        return 2
    print(
        render_table(
            ["trial", "status", args.objective, "assignment"],
            [
                [
                    t.trial_id,
                    "ok" if t.ok else "FAILED",
                    f"{t.score:.6g}" if t.score is not None else "-",
                    json.dumps(t.assignment, sort_keys=True)
                    if t.ok
                    else t.error,
                ]
                for t in result.trials
            ],
            title=f"tune: {space.name} space, {args.optimizer} search, "
            f"{args.dataset} @ batch {args.batch_size}",
        )
    )
    print()
    print(
        trajectory_chart(
            [t.score for t in result.trials],
            title=f"objective trajectory ({result.objective})",
        )
    )
    print()
    baseline = result.trials[0]
    details = {
        "best trial": result.best.trial_id,
        "best score": result.best.score,
        "baseline score": baseline.score,
        "best config": str(driver.best_path),
        "trajectory": str(driver.trajectory_path),
        "journal": str(driver.journal_path),
    }
    if (
        baseline.score is not None
        and result.best.score is not None
        and baseline.score > 0
    ):
        details["improvement over default"] = (
            f"{result.best.score / baseline.score:.3f}x"
        )
    if result.resumed:
        details["resumed trials"] = result.resumed
    print(render_kv("search outcome", details))
    failed = sum(1 for t in result.trials if not t.ok)
    if failed:
        print(
            f"{failed}/{len(result.trials)} trial(s) failed "
            f"(see {driver.journal_path})",
            file=sys.stderr,
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .datasets.stream_cache import cache_stats, clear_cache

    if args.clear:
        removed = clear_cache()
        print(f"cleared {removed} cached stream(s)")
        return 0
    stats = cache_stats()
    print(
        render_kv(
            "stream cache",
            {
                "directory": stats["directory"],
                "entries": stats["entries"],
                "size (MiB)": stats["bytes"] / (1024 * 1024),
            },
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Input-aware streaming graph processing (MICRO 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the dataset inventory")

    run = sub.add_parser("run", help="run one or more pipeline cells")
    run.add_argument("dataset", nargs="+", choices=sorted(DATASETS))
    run.add_argument("--batch-size", type=int, default=10_000)
    run.add_argument("--num-batches", type=int, default=12)
    run.add_argument("--algorithm", choices=ALGORITHMS, default="pr")
    run.add_argument("--mode", choices=sorted(MODES), default="abr_usc")
    run.add_argument("--oca", action="store_true", help="enable compute aggregation")
    run.add_argument("--trace", help="write a per-batch JSONL trace to this file")
    run.add_argument(
        "--telemetry", choices=TELEMETRY_LEVELS, default=None,
        help="instrumentation level (default: full when --trace/--prom "
        "is given, otherwise off)",
    )
    run.add_argument(
        "--prom", metavar="FILE",
        help="export telemetry counters to this Prometheus textfile "
        "(refreshed in-run every batch when --heartbeat is also set)",
    )
    run.add_argument(
        "--timeline", metavar="FILE",
        help="export the run's cross-process flight-recorder timeline as "
        "Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    run.add_argument(
        "--heartbeat", metavar="FILE",
        help="atomically rewrite a live heartbeat JSON file every batch; "
        "watch it with `repro top FILE` (single dataset only)",
    )
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for multi-dataset runs (0 = all cores)",
    )
    run.add_argument(
        "--checkpoint", metavar="DIR",
        help="checkpoint pipeline state into DIR and auto-resume from the "
        "newest checkpoint found there (single dataset only)",
    )
    run.add_argument(
        "--every", type=int, default=5, metavar="N",
        help="batches between checkpoints when --checkpoint is set "
        "(default: 5)",
    )

    serve = sub.add_parser(
        "serve", help="long-running live edge-ingest service (docs/SERVE.md)"
    )
    serve.add_argument(
        "dataset", choices=sorted(DATASETS),
        help="dataset profile supplying the vertex universe",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (default: 0 = ephemeral)",
    )
    serve.add_argument(
        "--port-file", metavar="FILE",
        help="atomically write the bound port here once listening "
        "(launchers poll this instead of parsing stdout)",
    )
    serve.add_argument("--batch-size", type=int, default=10_000,
                       help="pipeline batch-size knob (cost models)")
    serve.add_argument("--algorithm", choices=ALGORITHMS, default="pr")
    serve.add_argument("--mode", choices=sorted(MODES), default="abr_usc")
    serve.add_argument(
        "--telemetry", choices=TELEMETRY_LEVELS, default=None,
        help="instrumentation level (default: basic)",
    )
    serve.add_argument(
        "--serve-batch", type=int, default=None, metavar="EDGES",
        help="micro-batch target size (default: --batch-size)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="bounded hand-off queue length in batches (default: 8)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=200_000, metavar="EDGES",
        help="admission window: edges admitted but not yet visible "
        "(default: 200000)",
    )
    serve.add_argument(
        "--checkpoint", metavar="DIR",
        help="checkpoint pipeline state into DIR while serving (and on "
        "graceful drain)",
    )
    serve.add_argument(
        "--every", type=int, default=50, metavar="N",
        help="micro-batches between checkpoints (default: 50)",
    )
    serve.add_argument(
        "--heartbeat", metavar="FILE",
        help="atomically rewrite a live heartbeat JSON per micro-batch",
    )
    serve.add_argument(
        "--prom", metavar="FILE",
        help="refresh a Prometheus textfile every micro-batch",
    )

    loadgen = sub.add_parser(
        "loadgen", help="drive a running `repro serve` with synthetic clients"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument(
        "--clients", type=int, default=2,
        help="concurrent ingest connections (default: 2)",
    )
    loadgen.add_argument(
        "--edges", type=int, default=20_000,
        help="edges per client (default: 20000)",
    )
    loadgen.add_argument(
        "--submit-size", type=int, default=500,
        help="edges per request (default: 500)",
    )
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument(
        "--query", choices=["pagerank_topk", "triangles", "degree"],
        default=None,
        help="also run a concurrent query client issuing this query",
    )
    loadgen.add_argument(
        "--query-interval", type=float, default=0.05, metavar="SECONDS",
    )
    loadgen.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON (for scripts and benchmarks)",
    )

    character = sub.add_parser("characterize", help="RO trade-off study (Fig. 3 row)")
    character.add_argument("dataset", choices=sorted(DATASETS))
    character.add_argument("--num-batches", type=int, default=8)
    character.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, one per batch size (0 = all cores)",
    )

    hau = sub.add_parser("hau", help="HAU vs ABR+USC on the simulated CMP")
    hau.add_argument("dataset", choices=sorted(DATASETS))
    hau.add_argument("--batch-size", type=int, default=1_000)
    hau.add_argument("--num-batches", type=int, default=12)

    oca = sub.add_parser("oca", help="OCA overlap/speedup study (Fig. 14 row)")
    oca.add_argument("dataset", choices=sorted(DATASETS))
    oca.add_argument("--num-batches", type=int, default=6)

    accuracy = sub.add_parser(
        "accuracy", help="ABR accuracy over the (lambda, TH) grid (Fig. 18)"
    )
    accuracy.add_argument("dataset", choices=sorted(DATASETS))
    accuracy.add_argument("--num-batches", type=int, default=6)

    sensitivity = sub.add_parser(
        "sensitivity", help="cost-constant robustness sweep"
    )
    sensitivity.add_argument("parameter")
    sensitivity.add_argument("--num-batches", type=int, default=4)
    sensitivity.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, one per sweep cell (0 = all cores); a "
        "crashing cell is reported per-cell instead of killing the sweep",
    )

    fidelity = sub.add_parser(
        "fidelity", help="paper-reported vs measured summary"
    )
    fidelity.add_argument("--results", default="results")

    report = sub.add_parser(
        "report", help="analyze a recorded trace (two traces = A/B compare)"
    )
    report.add_argument("trace", help="trace file from `repro run --trace`")
    report.add_argument(
        "trace_b", nargs="?", default=None,
        help="second trace; compare A (first) against B with regression deltas",
    )
    report.add_argument(
        "--timeline", dest="timeline_out", metavar="OUT",
        help="re-export the trace's embedded flight-recorder timeline as "
        "Chrome trace-event JSON",
    )

    top = sub.add_parser(
        "top", help="live view of an in-flight run via its heartbeat file"
    )
    top.add_argument(
        "path",
        help="heartbeat file from `repro run --heartbeat` (or the "
        "directory containing heartbeat.json)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit instead of refreshing",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default: 1.0)",
    )
    top.add_argument(
        "--max-age", type=float, default=30.0, metavar="SECONDS",
        help="flag the run as STALLED when the heartbeat is older than "
        "this (default: 30)",
    )

    tune = sub.add_parser(
        "tune", help="auto-tune policy knobs over a declared search space"
    )
    tune.add_argument("dataset", choices=sorted(DATASETS))
    tune.add_argument(
        "--space", default="demo",
        help="built-in space name (abr, demo, full) or a JSON space file "
        "(default: demo)",
    )
    tune.add_argument(
        "--optimizer", default="random",
        help="search strategy: random, grid, or tpe (default: random)",
    )
    tune.add_argument(
        "--trials", type=int, default=8,
        help="total trial budget, including the baseline trial 0 "
        "(default: 8)",
    )
    tune.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes evaluating trials (0 = all cores); a "
        "crashing trial is journaled as failed instead of killing the "
        "search",
    )
    tune.add_argument(
        "--objective", default="ingest_throughput",
        help="scoring objective: ingest_throughput, update_time, or "
        "ro_speedup (default: ingest_throughput)",
    )
    tune.add_argument("--batch-size", type=int, default=1_000)
    tune.add_argument("--num-batches", type=int, default=4)
    tune.add_argument("--algorithm", choices=ALGORITHMS, default="pr")
    tune.add_argument("--mode", choices=sorted(MODES), default="abr_usc")
    tune.add_argument(
        "--oca", action="store_true", help="enable compute aggregation"
    )
    tune.add_argument(
        "--seed", type=int, default=0,
        help="search seed (proposal randomness; trial streams keep the "
        "run seed)",
    )
    tune.add_argument(
        "--out", default="tune-out",
        help="output directory: journal.jsonl (the resumable trial log), "
        "trajectory.csv, best_config.json (default: tune-out)",
    )
    tune.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="checkpoint each trial's pipeline every N batches into a "
        "per-trial subdirectory of OUT/checkpoints (0 = off)",
    )

    cache = sub.add_parser("cache", help="inspect or clear the stream cache")
    cache.add_argument(
        "--clear", action="store_true", help="delete all cached streams"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "characterize": _cmd_characterize,
        "hau": _cmd_hau,
        "oca": _cmd_oca,
        "accuracy": _cmd_accuracy,
        "sensitivity": _cmd_sensitivity,
        "fidelity": _cmd_fidelity,
        "report": _cmd_report,
        "top": _cmd_top,
        "tune": _cmd_tune,
        "cache": _cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
