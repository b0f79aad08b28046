"""Protocol client and load generator for ``repro serve``.

:class:`ServeClient` is a thin asyncio line-JSON client — one coroutine
per connection, strict request/reply.  :func:`run_loadgen` drives N
concurrent ingest clients (plus an optional query client) against a
server and reports achieved throughput, per-request ack latency, and the
server's own ingest-to-visible quantiles; ``repro loadgen`` is its CLI
face and ``benchmarks/test_perf_serve.py`` its bench harness.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.heartbeat import _quantile

__all__ = ["ServeClient", "run_loadgen"]


class ServeClient:
    """One line-JSON connection to a :class:`~repro.serve.server.ServeServer`.

    Use :meth:`connect`; every request coroutine sends one JSON line and
    awaits exactly one reply line (the server replies in order).  Not
    task-safe: one in-flight request per client, by design.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        """Open a connection and complete the ``hello`` handshake.

        The server's ``hello`` reply (dataset, algorithm, vertex count)
        lands on :attr:`hello_info`.
        """
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        client.hello_info = await client.request({"op": "hello"})
        return client

    async def request(self, payload: dict) -> dict:
        """Send one request object and await its reply object."""
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def send_edges(self, edges: list) -> dict:
        """Submit edges (``[src, dst, weight?, delete?]`` lists)."""
        return await self.request({"op": "edges", "edges": edges})

    async def query(self, what: str, **params) -> dict:
        """Run a snapshot query (``pagerank_topk``/``triangles``/``degree``)."""
        return await self.request({"op": "query", "what": what, **params})

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def flush(self) -> dict:
        """Ask the server to cut the current partial micro-batch now."""
        return await self.request({"op": "flush"})

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _ingest_worker(
    host: str,
    port: int,
    name: str,
    edges_total: int,
    submit_size: int,
    num_vertices: int | None,
    seed: int,
    results: dict,
) -> None:
    """One ingest client.  The server holds a reply while its window is
    full, so a rejection is final: it ends this client with its code."""
    client = await ServeClient.connect(host, port)
    try:
        nv = num_vertices or int(client.hello_info.get("num_vertices", 1024))
        rng = np.random.default_rng(seed)
        sent = 0
        acks: list[float] = []
        error = None
        while sent < edges_total:
            n = min(submit_size, edges_total - sent)
            src = rng.integers(0, nv, size=n)
            dst = rng.integers(0, nv, size=n)
            edges = [[int(s), int(d)] for s, d in zip(src, dst)]
            started = time.monotonic()
            reply = await client.send_edges(edges)
            if not reply.get("ok"):
                error = reply.get("error", "?")
                break
            acks.append(time.monotonic() - started)
            sent += n
        results[name] = {
            "edges_sent": sent,
            "requests": len(acks),
            "error": error,
            "ack_latencies": acks,
        }
    finally:
        await client.close()


async def _query_worker(
    host: str,
    port: int,
    what: str,
    interval: float,
    done: asyncio.Event,
    results: dict,
) -> None:
    client = await ServeClient.connect(host, port)
    try:
        served = 0
        failed = 0
        latencies: list[float] = []
        params = {"k": 5} if what == "pagerank_topk" else {}
        if what == "degree":
            params = {"vertex": 0}
        while not done.is_set():
            started = time.monotonic()
            reply = await client.query(what, **params)
            if reply.get("ok"):
                served += 1
                latencies.append(time.monotonic() - started)
            else:
                failed += 1
            try:
                await asyncio.wait_for(done.wait(), timeout=interval)
            except asyncio.TimeoutError:
                pass
        results["query"] = {
            "served": served, "failed": failed, "latencies": latencies,
        }
    finally:
        await client.close()


async def run_loadgen(
    host: str,
    port: int,
    *,
    clients: int = 2,
    edges: int = 20_000,
    submit_size: int = 500,
    num_vertices: int | None = None,
    seed: int = 7,
    query: str | None = None,
    query_interval: float = 0.05,
) -> dict:
    """Drive a running server and measure it; returns the report dict.

    Args:
        host / port: the server address.
        clients: concurrent ingest connections.
        edges: edges *per client*.
        submit_size: edges per ``edges`` request.
        num_vertices: vertex-id range (defaults to the server's universe).
        seed: base RNG seed (client ``i`` uses ``seed + i``).
        query: also run a query client issuing this query concurrently
            (``pagerank_topk``, ``triangles`` or ``degree``).
        query_interval: seconds between queries.

    The report contains client-side numbers (achieved edges/s, ack-latency
    quantiles, query latency quantiles), the error code of each ingest
    client a rejection ended (``"errors"``, by client name; it counts in
    ``"rejected_requests"``) and the server's own ``stats`` reply
    (ingest-to-visible quantiles, admission stats) under ``"server"``.
    """
    if clients < 1:
        raise ConfigurationError(f"clients must be >= 1, got {clients}")
    results: dict = {}
    done = asyncio.Event()
    tasks = [
        asyncio.ensure_future(
            _ingest_worker(
                host, port, f"loadgen-{i}", edges, submit_size,
                num_vertices, seed + i, results,
            )
        )
        for i in range(clients)
    ]
    query_task = None
    if query:
        query_task = asyncio.ensure_future(
            _query_worker(host, port, query, query_interval, done, results)
        )
    started = time.monotonic()
    await asyncio.gather(*tasks)
    ingest_wall = time.monotonic() - started
    done.set()
    if query_task is not None:
        await query_task

    # Wait for everything sent to become visible, then read server stats.
    control = await ServeClient.connect(host, port)
    try:
        await control.flush()
        server_stats = await control.stats()
        deadline = time.monotonic() + 30.0
        while (
            server_stats.get("lag_edges", 0) > 0
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.02)
            await control.flush()
            server_stats = await control.stats()
    finally:
        await control.close()

    ingest = {name: r for name, r in results.items() if name != "query"}
    acks = [sample for r in ingest.values() for sample in r["ack_latencies"]]
    edges_sent = sum(r["edges_sent"] for r in ingest.values())
    requests = sum(r["requests"] for r in ingest.values())
    errors = {
        name: r["error"] for name, r in sorted(ingest.items()) if r["error"]
    }
    report = {
        "clients": clients,
        "edges_sent": edges_sent,
        "requests": requests,
        "rejected_requests": len(errors),
        "errors": errors,
        "wall_seconds": ingest_wall,
        "edges_per_second": edges_sent / ingest_wall if ingest_wall else 0.0,
        "requests_per_second": requests / ingest_wall if ingest_wall else 0.0,
        "ack_latency_s": {
            "p50": _quantile(acks, 0.50),
            "p95": _quantile(acks, 0.95),
            "p99": _quantile(acks, 0.99),
        },
        "server": server_stats,
    }
    if "query" in results:
        q = results["query"]
        report["queries"] = {
            "served": q["served"],
            "failed": q["failed"],
            "latency_s": {
                "p50": _quantile(q["latencies"], 0.50),
                "p99": _quantile(q["latencies"], 0.99),
            },
        }
    return report
