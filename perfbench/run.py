#!/usr/bin/env python3
"""End-to-end benchmark of the repro streaming pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pr-lj --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric named in BENCHMARK.json;
``--trace 1`` runs the same workload again with each layer's public calls
wrapped and prints every per-layer metric.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload BENCHMARK.json
gates, each in a fresh process.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: The workloads.  BENCHMARK.json gates all but ingest-wiki, whose
#: run-to-run spread on a shared 2-vCPU VM reached its bound (README.md,
#: Noise); it stays runnable by name.  Offline ones replay ``batches``
#: batches ``replays`` times, a fixed amount of work sized for the 15 s
#: ``run_seconds`` of BENCHMARK.json; serve-fb sends ``rate`` edges/s in
#: submissions of ``submit`` edges for ``--seconds``.  pr-lj's step time
#: grows with every batch, so it replays an odd number of batches: the
#: median latency then falls on one batch's samples, not in the gap
#: between two batches'.
WORKLOADS = {
    "pr-lj": {
        "dataset": "lj", "algorithm": "pr", "batch_size": 20_000,
        "batches": 7, "replays": 5,
    },
    "ingest-wiki": {
        "dataset": "wiki", "algorithm": "none", "batch_size": 10_000,
        "batches": 120, "replays": 3,
    },
    "churn-friendster": {
        "dataset": "friendster", "algorithm": "pr_static", "batch_size": 50_000,
        "batches": 20, "replays": 3, "delete_share": 0.2,
    },
    "serve-fb": {"dataset": "fb", "serve": True, "rate": 4_000, "submit": 60},
}

#: Set-ups timed back to back before each run's timed window; setup_s is
#: their median.
SETUP_REPEATS = 9
SPANS_DIR = ROOT / ".perfbench"


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - started


def make_inputs(name: str, seed: int, seconds: float):
    from perfbench import inputs

    spec = WORKLOADS[name]
    if spec.get("serve"):
        return inputs.serve_plan(
            spec["dataset"], seed, spec["rate"], seconds, spec["submit"]
        )
    if "delete_share" in spec:
        return inputs.churn_batches(
            spec["dataset"], seed, spec["batch_size"], spec["batches"],
            spec["delete_share"],
        )
    return inputs.stream_batches(
        spec["dataset"], seed, spec["batch_size"], spec["batches"]
    )


#: A fresh interpreter that imports the program and builds the pipeline:
#: argv[1] is the source directory, argv[2] the RunConfig as JSON.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.pipeline.config import RunConfig; "
    "RunConfig.from_json(sys.argv[2]).build_pipeline(); print('ready', flush=True)"
)


def time_offline_setup(config_json: str) -> float:
    """Seconds from process start to a built pipeline, in a fresh process."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), config_json],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


# -- workloads -------------------------------------------------------------------


def run_offline(name: str, args, batches) -> dict:
    from perfbench import offline

    spec = WORKLOADS[name]
    replays = spec["replays"]
    if args.trace:
        result = offline.run_traced(spec, batches, replays)
        result["tracer"].write(SPANS_DIR / f"spans-{name}-seed{args.seed}.json")
        layers = result["layers"]
        plain = result["plain_latencies"]
        layers.update({
            "visible_p90_ms": offline.percentile_ms(plain, 0.9),
            "visible_p99_ms": None, "query_p50_ms": None, "query_p90_ms": None,
        })
        # Offline runs have no serving layer.
        layers.update({metric: 0.0 for metric in (
            "serve.ack_p50_ms", "serve.dwell_ms", "serve.queue_wait_ms",
            "serve.step_ms", "serve.batch_edges", "serve.query_wait_ms",
        )})
        print(f"replay time outside pipeline.step spans: "
              f"{result['outside_step_s']:.4f} s per replay")
        return result
    config_json = offline.config_for(spec).to_json()
    setups = [time_offline_setup(config_json) for __ in range(SETUP_REPEATS)]
    result = offline.run_untraced(spec, batches, replays)
    result["metrics"] = {
        "edges_per_s": result["edges_per_s"],
        "visible_p50_ms": offline.percentile_ms(result["latencies"], 0.5),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"batches: {len(result['latencies'])} over {replays} replays; "
          f"set-ups (s): {[round(s, 4) for s in setups]}")
    return result


def run_serve(name: str, args, plan) -> dict:
    from perfbench import serving

    spec = WORKLOADS[name]
    if args.trace:
        return run_serve_traced(name, args, plan)
    # Set-ups back to back before the session; the last server serves it.
    setups = []
    proc = None
    for __ in range(SETUP_REPEATS):
        if proc is not None:
            serving.stop_cli_server(proc)
        proc, port, ready = serving.start_cli_server(ROOT, spec["dataset"])
        setups.append(ready)
    try:
        raw = asyncio.run(serving.drive("127.0.0.1", port, plan))
        problems = asyncio.run(
            serving.check_server("127.0.0.1", port, plan, args.seed)
        )
        rss = serving.peak_rss_mb_of(proc.pid)
    finally:
        serving.stop_cli_server(proc)
    result = serving.summarize(raw, plan)
    result["problems"] += problems
    if problems:  # a wrong final state fails every submission
        result["failed"] = result["attempted"]
    result["metrics"] = {
        "edges_per_s": result["edges_per_s"],
        "visible_p50_ms": result["visible_p50_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    print(f"submissions: {len(plan.lines)} at {spec['rate']} edges/s; "
          f"queries: {result['queries']}; generator lateness max "
          f"{result['late_max_ms']:.2f} ms, p99 {result['late_p99_ms']:.2f} ms")
    print("serve-only: " + ", ".join(
        f"{k}={result[k]}" for k in
        ("visible_p90_ms", "visible_p99_ms", "query_p50_ms", "query_p90_ms",
         "ack_p50_ms")
    ))
    print(f"set-ups (s): {[round(s, 4) for s in setups]}")
    return result


def run_serve_traced(name: str, args, plan) -> dict:
    """Untraced then traced in-process sessions, each driven from a
    separate generator process."""
    from perfbench import offline, serving
    from perfbench.tracer import Tracer

    spec = WORKLOADS[name]
    client = [sys.executable, __file__, "--workload", name,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = serving.server_env(ROOT)
    sessions = []
    tracer = Tracer()
    for traced in (False, True):
        raw, cpu, records, handle = serving.run_session_inprocess(
            spec["dataset"], client, env, tracer if traced else None
        )
        try:
            problems = asyncio.run(
                serving.check_server(handle.host, handle.port, plan, args.seed)
            )
        finally:
            handle.stop()
        sessions.append((raw, cpu, records, problems))
    (plain_raw, plain_cpu, __, plain_problems), (raw, cpu, records, problems) = sessions
    tracer.write(SPANS_DIR / f"spans-{name}-seed{args.seed}.json")
    plain = serving.summarize(plain_raw, plan)
    traced = serving.summarize(raw, plan)
    layers, stages = serving.serve_layers(
        tracer, raw, records["appends"], records["cuts"]
    )
    layers.update(offline.layer_metrics(tracer, records["counts"], 1))
    layers.update({
        "trace.overhead_pct": 100.0 * (cpu / plain_cpu - 1.0),
        "visible_p90_ms": plain["visible_p90_ms"],
        "visible_p99_ms": plain["visible_p99_ms"],
        "query_p50_ms": plain["query_p50_ms"],
        "query_p90_ms": plain["query_p90_ms"],
    })
    mean_visible = 1000.0 * statistics.fmean(traced["latencies"])
    print(f"visible latency, traced session mean: {mean_visible:.2f} ms")
    for stage, value in stages.items():
        print(f"  {stage:<12} {value:9.2f} ms")
    print(f"  unattributed {mean_visible - sum(stages.values()):9.2f} ms "
          "(send lateness, admission, cut, watermark polling)")
    print(f"server CPU s: untraced {plain_cpu:.3f}, traced {cpu:.3f}")
    # A wrong final state fails every submission of its session.
    failed = sum(
        summary["attempted"] if final else summary["failed"]
        for summary, final in ((plain, plain_problems), (traced, problems))
    )
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed,
        "problems": plain["problems"] + plain_problems + traced["problems"] + problems,
        "layers": layers,
    }


def client_main(args, plan) -> None:
    """Generator-process side of the traced serve-fb run."""
    from perfbench import serving

    host, port = args.client.rsplit(":", 1)
    raw = asyncio.run(serving.drive(host, int(port), plan))
    print(json.dumps(raw))


# -- entry point -----------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_metric_units(trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in load_spec()[key]}


def run_all(args) -> int:
    """Every workload BENCHMARK.json gates, each in a fresh process;
    prints one line each."""
    status = 0
    for name in [w["name"] for w in load_spec()["workloads"]]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else done.stderr[-500:]}")
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--client", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    units = load_metric_units(bool(args.trace))
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    if args.client:
        client_main(args, inputs)
        return 0
    print(f"machine probe: {machine_probe():.4f} s (diagnostic only)")
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
    if WORKLOADS[args.workload].get("serve"):
        result = run_serve(args.workload, args, inputs)
    else:
        result = run_offline(args.workload, args, inputs)
    values = result["layers"] if args.trace else result["metrics"]
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        print_layers(values)
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if value is None:  # percentile without ten samples beyond it
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def print_layers(layers: dict) -> None:
    """Per-layer self times (per pass) and their share of pipeline.step_s."""
    step = layers["pipeline.step_s"]
    selfs = {
        "pipeline (self)": layers["pipeline.self_s"],
        "update (self)": layers["update.self_s"],
        "graph.apply": layers["graph.apply_s"],
        "graph.views": layers["graph.views_s"],
        "graph.snapshot": layers["graph.snapshot_s"],
        "compute (self)": layers["compute.self_s"],
    }
    print(f"pipeline.step_s {step:.4f} s per pass; self times:")
    for label, seconds in selfs.items():
        share = 100.0 * seconds / step if step else 0.0
        print(f"  {label:<16} {seconds:9.4f} s  {share:5.1f}%")
    print("  (pipeline self = step time in no wrapped layer: generate/ensure, "
          "observe, record)")
    for name, value in layers.items():
        print(f"{name}: {value}")


if __name__ == "__main__":
    sys.exit(main())
