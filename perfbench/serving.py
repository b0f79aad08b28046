"""The serving workload: an open-loop generator against ``repro serve``.

One generator process holds two connections to the server:

* the *ingest* connection pipelines ``edges`` submissions on a fixed
  schedule (never waiting for acks) and interleaves ``stats`` polls; every
  reply carries the visibility watermark (``visible_seq``);
* the *query* connection runs a closed-loop ``pagerank_topk`` client.

A submission's visible latency runs from its *scheduled* send time to the
first watermark observation at or past its ``seq``, so a stall also
charges the wait it imposes on submissions due later.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np

from .inputs import ServePlan
from .offline import instrument, new_counts, percentile_ms

#: Watermark poll period on the ingest connection (acks add more samples).
POLL_S = 0.01
#: Pause between a query's reply and the next query (closed loop).
THINK_S = 0.005
#: A submission sent later than this after its schedule means the
#: generator fell behind: the run fails instead of reporting a number.
LATE_LIMIT_S = 0.05
#: How long the tail may take to become visible after the last send.
DRAIN_TIMEOUT_S = 60.0
#: Vertices whose ``degree`` answers are checked after the session.
DEGREE_SAMPLES = 32


async def _read_replies(reader, kinds, out):
    """Consume in-order replies on the ingest connection."""
    while kinds or not out["closing"]:
        line = await reader.readline()
        if not line:
            break
        now = time.monotonic()
        kind, index = kinds.popleft()
        reply = json.loads(line)
        if kind == "edges":
            out["ack_at"][index] = now
            if reply.get("ok"):
                out["seq"][index] = reply["seq"]
                out["watermarks"].append((now, reply["watermark"]))
            else:
                out["errors"].append(reply.get("error", "?"))
        else:
            out["watermarks"].append((now, reply["visible_seq"]))


async def drive(host: str, port: int, plan: ServePlan) -> dict:
    """Run the plan against a ready server; returns raw observations."""
    n = len(plan.lines)
    out = {
        "sched": [0.0] * n, "sent_at": [0.0] * n, "ack_at": [0.0] * n,
        "seq": [0] * n, "errors": [], "watermarks": [], "queries": [],
        "closing": False,
    }
    reader, writer = await asyncio.open_connection(host, port)
    q_reader, q_writer = await asyncio.open_connection(host, port)
    for r, w in ((reader, writer), (q_reader, q_writer)):
        w.write(b'{"op":"hello"}\n')
        await r.readline()
    kinds: collections.deque = collections.deque()
    replies = asyncio.ensure_future(_read_replies(reader, kinds, out))
    stop_queries = asyncio.Event()

    async def query_loop():
        request = b'{"op":"query","what":"pagerank_topk","k":10}\n'
        while not stop_queries.is_set():
            started = time.monotonic()
            q_writer.write(request)
            reply = json.loads(await q_reader.readline())
            out["queries"].append((started, time.monotonic(), bool(reply.get("ok"))))
            await asyncio.sleep(THINK_S)

    async def poll_loop():
        while not out["closing"]:
            kinds.append(("stats", -1))
            writer.write(b'{"op":"stats"}\n')
            await asyncio.sleep(POLL_S)

    queries = asyncio.ensure_future(query_loop())
    polls = asyncio.ensure_future(poll_loop())
    t0 = time.monotonic() + 0.05
    for i, line in enumerate(plan.lines):
        due = t0 + plan.offsets[i]
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        kinds.append(("edges", i))
        writer.write(line)
        out["sched"][i] = due
        out["sent_at"][i] = time.monotonic()
        await writer.drain()
    stop_queries.set()
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        if out["watermarks"] and out["watermarks"][-1][1] >= plan.edges:
            break
        await asyncio.sleep(POLL_S)
    out["closing"] = True
    await polls
    # One last poll, so a reader already waiting for a reply gets one.
    kinds.append(("stats", -1))
    writer.write(b'{"op":"stats"}\n')
    await queries
    await replies
    for w in (writer, q_writer):
        w.close()
        await w.wait_closed()
    del out["closing"]
    return out


def _visible_at(raw: dict) -> list[float | None]:
    """First watermark observation covering each submission's seq."""
    marks = raw["watermarks"]
    visible, j = [], 0
    for seq in raw["seq"]:
        while j < len(marks) and marks[j][1] < seq:
            j += 1
        visible.append(marks[j][0] if seq and j < len(marks) else None)
    return visible


def summarize(raw: dict, plan: ServePlan) -> dict:
    """End-to-end numbers and failure counts from one session."""
    visible = _visible_at(raw)
    latencies = [v - s for v, s in zip(visible, raw["sched"]) if v is not None]
    never_visible = sum(v is None for v in visible)
    lateness = [a - s for a, s in zip(raw["sent_at"], raw["sched"])]
    late = sum(x > LATE_LIMIT_S for x in lateness)
    q_ok = [(b - a) for a, b, ok in raw["queries"] if ok]
    q_failed = sum(not ok for __, __, ok in raw["queries"])
    last_visible = max(v for v in visible if v is not None) if latencies else None
    acks = [a - s for a, s in zip(raw["ack_at"], raw["sent_at"])]
    return {
        "attempted": len(visible) + len(raw["queries"]),
        "failed": len(raw["errors"]) + never_visible + late + q_failed,
        "problems": (
            [f"{len(raw['errors'])} submissions rejected: {raw['errors'][:3]}"]
            if raw["errors"] else []
        ) + ([f"{never_visible} submissions never became visible"]
             if never_visible else [])
          + ([f"generator fell behind: {late} sends over "
              f"{LATE_LIMIT_S * 1000:.0f} ms late"] if late else [])
          + ([f"{q_failed} queries failed"] if q_failed else []),
        "latencies": latencies,
        "edges_per_s": (
            plan.edges / (last_visible - raw["sched"][0]) if last_visible else 0.0
        ),
        "visible_p50_ms": percentile_ms(latencies, 0.5),
        "visible_p90_ms": percentile_ms(latencies, 0.9),
        "visible_p99_ms": percentile_ms(latencies, 0.99),
        "query_p50_ms": percentile_ms(q_ok, 0.5),
        "query_p90_ms": percentile_ms(q_ok, 0.9),
        "queries": len(raw["queries"]),
        "ack_p50_ms": percentile_ms(acks, 0.5),
        "late_max_ms": 1000.0 * max(lateness),
        "late_p99_ms": 1000.0 * float(np.quantile(lateness, 0.99)),
    }


# -- server-side checks ----------------------------------------------------------


async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    return json.loads(await reader.readline())


async def check_server(host: str, port: int, plan: ServePlan, seed: int) -> list[str]:
    """Final watermark, admission and ``degree`` answers vs our own counts."""
    reader, writer = await asyncio.open_connection(host, port)
    problems = []
    try:
        stats = await _request(reader, writer, {"op": "stats"})
        if stats["lag_edges"] != 0:
            problems.append(f"lag_edges {stats['lag_edges']} != 0 at the end")
        if stats["admitted_seq"] != plan.edges:
            problems.append(
                f"admitted {stats['admitted_seq']} of {plan.edges} scheduled edges"
            )
        if stats["rejected_requests"]:
            problems.append(f"{stats['rejected_requests']} requests rejected")
        nv = int(max(plan.src.max(), plan.dst.max())) + 1
        pairs = np.unique(plan.src * nv + plan.dst)
        out_deg = np.bincount(pairs // nv, minlength=nv)
        in_deg = np.bincount(pairs % nv, minlength=nv)
        touched = np.unique(np.concatenate([plan.src, plan.dst]))
        rng = np.random.default_rng(seed)
        for v in rng.choice(touched, size=DEGREE_SAMPLES, replace=False).tolist():
            reply = await _request(
                reader, writer, {"op": "query", "what": "degree", "vertex": v}
            )
            want = (int(out_deg[v]), int(in_deg[v]))
            got = (reply.get("out_degree"), reply.get("in_degree"))
            if got != want:
                problems.append(f"degree({v}) = {got}, expected {want}")
    finally:
        writer.close()
        await writer.wait_closed()
    return problems


# -- the `repro serve` subprocess --------------------------------------------------


def server_env(root) -> dict:
    """Subprocess environment: the checkout's sources, shipped defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_cli_server(root, dataset: str):
    """Launch ``repro serve``; returns (process, port, seconds to ready)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", dataset, "--port", "0"],
        cwd=root, env=server_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    match = re.search(r" on (\S+):(\d+) ", line)
    if match is None:
        stop_cli_server(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return proc, int(match.group(2)), ready


def peak_rss_mb_of(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def stop_cli_server(proc) -> str:
    """Drain the server gracefully (SIGINT) and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        output, __ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, __ = proc.communicate()
    return output


# -- in-process server (the traced run) --------------------------------------------


def _overlap(a: float, b: float, spans) -> float:
    return sum(max(0.0, min(b, end) - max(a, start)) for start, end in spans)


def serve_layers(tracer, raw: dict, appends: list, cuts: list) -> dict:
    """The ``serve.*`` breakdown of one traced session, and the mean
    server-side share of a submission's visible latency by stage.

    ``appends`` holds ``(span index, seq_end)`` per ``MicroBatcher.append``
    and ``cuts`` ``(span index, seq_end, edges)`` per ``MicroBatcher.cut``;
    the driver steps cut batches in cut order.
    """
    spans = tracer.spans
    steps = [(s[1], s[2]) for s in tracer.by_name("pipeline.step")]
    cut_ends = [seq for __, seq, __ in cuts]
    # Per submission: dwell in the batcher, wait for the driver, step.
    dwell, queued, stepping = [], [], []
    for index, seq in appends:
        k = int(np.searchsorted(cut_ends, seq))
        if k >= len(steps):
            continue
        dwell.append(spans[cuts[k][0]][1] - spans[index][1])
        queued.append(steps[k][0] - spans[cuts[k][0]][2])
        stepping.append(steps[k][1] - steps[k][0])
    queue_wait = [
        steps[k][0] - spans[cuts[k][0]][2] for k in range(min(len(cuts), len(steps)))
    ]
    query_wait = [_overlap(a, b, steps) for a, b, __ in raw["queries"]]
    acks = [a - s for a, s in zip(raw["ack_at"], raw["sent_at"])]
    ms = lambda values: 1000.0 * float(np.mean(values)) if values else 0.0
    return {
        "serve.ack_p50_ms": 1000.0 * float(np.median(acks)),
        "serve.dwell_ms": ms(dwell),
        "serve.queue_wait_ms": ms(queue_wait),
        "serve.step_ms": ms([b - a for a, b in steps]),
        "serve.batch_edges": float(np.mean([e for __, __, e in cuts])) if cuts else 0.0,
        "serve.query_wait_ms": ms(query_wait),
    }, {"dwell": ms(dwell), "queue wait": ms(queued), "step": ms(stepping)}


def instrument_server(server, tracer, counts: dict) -> tuple[list, list]:
    """Wrap the server's batcher and pipeline; returns (appends, cuts)."""
    appends, cuts = [], []
    tracer.wrap(
        server.batcher, "append", "serve.append",
        lambda i, seq_end, args: appends.append((i, seq_end)),
    )
    tracer.wrap(
        server.batcher, "cut", "serve.cut",
        lambda i, pending, args: cuts.append((i, pending.seq_end, pending.size)),
    )
    instrument(server.pipeline, tracer, counts)
    return appends, cuts


def run_session_inprocess(dataset: str, client_cmd: list, env: dict, tracer=None):
    """Host the server in this process; drive it from a generator process.

    Returns the raw client observations, the server process's CPU seconds
    over the session, the traced records (or None) and the still-running
    server's handle, which the caller stops after its checks.
    """
    from repro.pipeline.config import RunConfig
    from repro.serve.server import ServeSettings, start_server_thread

    # `repro serve DATASET` with no flags: pr, batch size 10000, telemetry
    # basic, ServeSettings defaults.
    config = RunConfig(
        dataset=dataset, batch_size=10_000, algorithm="pr", telemetry="basic"
    )
    handle = start_server_thread(config, ServeSettings())
    records = None
    try:
        if tracer is not None:
            counts = new_counts()
            appends, cuts = instrument_server(handle.server, tracer, counts)
            records = {"appends": appends, "cuts": cuts, "counts": counts}
        cpu = time.process_time()
        done = subprocess.run(
            client_cmd + ["--client", f"{handle.host}:{handle.port}"],
            env=env, capture_output=True, text=True, timeout=170,
        )
        cpu = time.process_time() - cpu
        if done.returncode != 0:
            raise RuntimeError(f"generator failed: {done.stderr[-2000:]}")
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        if tracer is not None:
            tracer.enabled = False
        return raw, cpu, records, handle
    except BaseException:
        handle.stop()
        raise
