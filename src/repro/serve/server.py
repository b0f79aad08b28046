"""The ``repro serve`` asyncio TCP server and its pipeline driver thread.

Architecture (one process, two execution domains):

* **Event loop** (asyncio): accepts connections, speaks the line-JSON
  protocol (one JSON object per line, one reply line per request), runs
  admission control, appends admitted edges to the
  :class:`~repro.serve.admission.MicroBatcher` and cuts micro-batches into
  a bounded hand-off queue.  A full queue is backpressure: the cut waits,
  the buffer absorbs new edges, and once the global pending window fills
  the admission gate makes *clients* wait.

* **Driver thread**: pulls cut batches off the queue and feeds them to the
  existing :class:`~repro.pipeline.runner.StreamingPipeline` via
  ``step(batch=...)`` — the same five-stage pipeline the batch CLI runs,
  so everything (ABR/USC/OCA, telemetry, checkpoints) works
  unchanged.  Between steps it answers queued queries against the latest
  completed snapshot, writes periodic checkpoints, releases admission
  window space, and beats the heartbeat monitor.

The hand-off is work-conserving, with no timer.  When the driver finds
no batch queued it turns idle and asks the loop to cut the buffer at once;
when an append finds the driver idle, the loop cuts at once.  So a lone
submission at low load is its own micro-batch, and under load a batch is
everything that arrived during the previous step (or a ``target``
cut).  Both transitions — the driver's "nothing queued → idle" and the
loop's "idle → enqueue, busy" — happen under one lock, so an edge can
never be left buffered behind a driver that is blocked on an empty queue.
A query wakes an idle driver with a token that carries no work; a busy
driver answers queries before its next step.

Visibility is a watermark: every admitted edge gets a global sequence
number; ``visible_seq`` advances to a batch's last edge when its step
completes, and the ``(seq, admit-time)`` markers that fall below the
watermark become ingest-to-visible latency samples (``stats`` reports
their rolling p50/p95/p99 — the load generator's headline number).

Graceful drain (SIGINT/SIGTERM or :meth:`ServeServer.drain`): admission
starts rejecting with ``"draining"``, the partial buffer is flushed as a
final batch, the driver finishes the queue, writes a final checkpoint,
and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..pipeline.config import RunConfig
from ..telemetry.heartbeat import _quantile
from .admission import AdmissionController, MicroBatcher, PendingBatch

__all__ = [
    "ServeServer",
    "ServeSettings",
    "ServerHandle",
    "start_server_thread",
]

#: Sentinel closing the driver's work queue.
_STOP = object()

#: Wakes an idle driver to answer queries; not a batch, takes no queue slot.
_WAKE = object()

#: Rolling window of ingest-to-visible latency samples.
_LATENCY_WINDOW = 4096


@dataclass
class ServeSettings:
    """Service knobs, separate from the pipeline's :class:`RunConfig`.

    ``repro serve`` sets the first five from its flags; the environment
    sets none.

    Attributes:
        batch_target: micro-batch size cap (edges) — the throughput cut.
        queue_depth: bounded hand-off queue length (batches).
        max_pending: admitted-but-not-visible edge cap (the admission
            window).
        checkpoint_dir / checkpoint_every / checkpoint_keep: durability
            (``checkpoint_every`` counts micro-batches; 0 disables).
        capture: record every admitted edge and batch boundary (the
            offline-replay parity harness; costs memory, tests only).
    """

    batch_target: int = 10_000
    queue_depth: int = 8
    max_pending: int = 200_000
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    checkpoint_keep: int = 3
    capture: bool = False


@dataclass
class _ServeState:
    """Watermarks and service counters, shared across the two domains."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    admitted_seq: int = 0
    visible_seq: int = 0
    batches_done: int = 0
    queries_served: int = 0
    edges_rejected_requests: int = 0
    latencies: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)

    def latency_quantiles(self) -> dict[str, float]:
        with self.lock:
            window = list(self.latencies)
        return {
            "p50": _quantile(window, 0.50),
            "p95": _quantile(window, 0.95),
            "p99": _quantile(window, 0.99),
            "samples": len(window),
        }


class _PipelineDriver(threading.Thread):
    """Owns the pipeline: steps batches, answers queries, checkpoints."""

    def __init__(self, server: "ServeServer"):
        super().__init__(name="repro-serve-driver", daemon=True)
        self._server = server
        self.error: BaseException | None = None

    def run(self) -> None:  # pragma: no cover - exercised via the server
        try:
            self._loop()
        except BaseException as exc:
            self.error = exc
            self._server._driver_failed(exc)

    def _loop(self) -> None:
        server = self._server
        while True:
            item = server._next_item()
            self._answer_pending_queries()
            if item is _STOP:
                break
            if item is not _WAKE:
                self._apply(item)
        if (
            server.settings.checkpoint_dir is not None
            and server.state.batches_done > server._last_checkpoint_batch
        ):
            self._checkpoint()

    def _apply(self, pending: PendingBatch) -> None:
        server = self._server
        pipeline = server.pipeline
        started = time.perf_counter()
        from ..datasets.stream import Batch

        batch = Batch(
            batch_id=pipeline.cursor,
            src=pending.src,
            dst=pending.dst,
            weight=pending.weight,
            is_delete=pending.is_delete,
        )
        pipeline.step(batch=batch)
        wall = time.perf_counter() - started
        now = time.monotonic()
        state = server.state
        with state.lock:
            state.visible_seq = pending.seq_end
            state.batches_done += 1
            for __, t_admit in pending.markers:
                state.latencies.append(max(0.0, now - t_admit))
            del state.latencies[:-_LATENCY_WINDOW]
            if server.settings.capture:
                state.batch_sizes.append(pending.size)
            batches_done = state.batches_done
        server.admission.release(pending.size)
        tel = pipeline.telemetry
        if tel.enabled:
            tel.count("serve.batches")
            tel.count("serve.edges", pending.size)
            tel.count(f"serve.cut.{pending.cut_reason}")
            tel.gauge("serve.queue_depth", server._batch_queue.qsize())
            tel.gauge("serve.pending_edges", server.admission.pending_total)
        settings = server.settings
        if (
            settings.checkpoint_dir is not None
            and settings.checkpoint_every > 0
            and batches_done - server._last_checkpoint_batch
            >= settings.checkpoint_every
        ):
            self._checkpoint()
        if server.monitor is not None:
            server.monitor.beat(
                tel,
                batch_id=batch.batch_id,
                batch_edges=pending.size,
                wall_seconds=wall,
                serve=server._serve_heartbeat_section(),
            )

    def _checkpoint(self) -> None:
        server = self._server
        server.pipeline.save_checkpoint(
            server.settings.checkpoint_dir, keep=server.settings.checkpoint_keep
        )
        server._last_checkpoint_batch = server.state.batches_done
        if server.monitor is not None:
            server.monitor.note_checkpoint()

    # -- queries --------------------------------------------------------------
    def _answer_pending_queries(self) -> None:
        server = self._server
        while True:
            try:
                request, future = server._query_queue.get_nowait()
            except queue.Empty:
                return
            if future.cancelled():
                continue
            try:
                future.set_result(self._answer(request))
            except Exception as exc:
                future.set_result(
                    {"ok": False, "error": "query_failed", "detail": str(exc)}
                )

    def _answer(self, request: dict) -> dict:
        server = self._server
        pipeline = server.pipeline
        what = request.get("what")
        reply: dict = {"ok": True, "what": what}
        if what == "pagerank_topk":
            if pipeline.algorithm != "pr":
                return _query_error(
                    f"pagerank_topk needs algorithm 'pr', serving "
                    f"{pipeline.algorithm!r}"
                )
            k = request.get("k", 10)
            if type(k) is not int or k < 1:
                return _query_error("pagerank_topk needs an integer 'k' >= 1")
            engine = getattr(pipeline.compute, "engine", None)
            if engine is None:
                reply["ranks"] = []
            else:
                values = engine.as_array()
                k = min(k, len(values))
                top = np.argpartition(-values, k - 1)[:k]
                top = top[np.argsort(-values[top], kind="stable")]
                reply["ranks"] = [
                    [int(v), float(values[v])] for v in top
                ]
        elif what == "triangles":
            if pipeline.algorithm != "triangles":
                return _query_error(
                    f"triangles needs algorithm 'triangles', serving "
                    f"{pipeline.algorithm!r}"
                )
            count = getattr(pipeline.compute, "count", None)
            reply["count"] = int(count) if count is not None else 0
        elif what == "degree":
            vertex = request.get("vertex")
            if type(vertex) is not int:
                return _query_error("degree needs an integer 'vertex'")
            if not 0 <= vertex < pipeline.graph.num_vertices:
                return _query_error(
                    f"vertex {vertex} outside [0, {pipeline.graph.num_vertices})"
                )
            reply["vertex"] = vertex
            reply["out_degree"] = pipeline.graph.out_degree(vertex)
            reply["in_degree"] = pipeline.graph.in_degree(vertex)
        else:
            return _query_error(f"unknown query {what!r}")
        state = server.state
        with state.lock:
            state.queries_served += 1
            reply["watermark"] = {
                "admitted_seq": state.admitted_seq,
                "visible_seq": state.visible_seq,
                "batches": state.batches_done,
            }
        tel = pipeline.telemetry
        if tel.enabled:
            tel.count("serve.queries")
        return reply


def _query_error(detail: str) -> dict:
    return {"ok": False, "error": "bad_query", "detail": detail}


class _Rejected(Exception):
    """A request that breaks the wire rules; ``reply`` answers it."""

    def __init__(self, error: str, detail: str):
        super().__init__(detail)
        self.reply = {"ok": False, "error": error, "detail": detail}


def _parse_edges(edges, num_vertices: int):
    """Check an ``edges`` payload; returns ``(src, dst, weight, deletes)``.

    Vertex ids must be JSON integers (not booleans) in
    ``[0, num_vertices)``, weights finite numbers and delete flags
    booleans.  Each rule is one pass over a column; nothing is coerced
    (``int`` would read 1.7 and ``true`` as 1, ``bool`` would read
    ``"false"`` as a delete).  Raises :class:`_Rejected`.
    """
    shape = "each edge is [src, dst, weight?, delete?]"
    if not isinstance(edges, list) or not edges:
        raise _Rejected("bad_edges", "edges must be a non-empty list")
    if set(map(type, edges)) != {list} or not set(map(len, edges)) <= {2, 3, 4}:
        raise _Rejected("bad_edges", shape)
    ids = [e[0] for e in edges] + [e[1] for e in edges]
    weights = [e[2] if len(e) > 2 else 1.0 for e in edges]
    deletes = [e[3] if len(e) > 3 else False for e in edges]
    if set(map(type, ids)) != {int}:
        raise _Rejected("bad_edges", f"{shape}: vertex ids are integers")
    if set(map(type, deletes)) != {bool}:
        raise _Rejected("bad_edges", f"{shape}: delete flags are booleans")
    not_finite = _Rejected("bad_edges", f"{shape}: weights are finite numbers")
    if not set(map(type, weights)) <= {int, float}:
        raise not_finite
    out_of_range = _Rejected(
        "vertex_out_of_range", f"vertex ids must lie in [0, {num_vertices})"
    )
    try:
        ids = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        raise out_of_range from None
    try:
        weight = np.asarray(weights, dtype=np.float64)
    except OverflowError:  # an integer weight past the float range
        raise not_finite from None
    if ids.min() < 0 or ids.max() >= num_vertices:
        raise out_of_range
    if not np.isfinite(weight).all():
        raise not_finite
    n = len(edges)
    return ids[:n], ids[n:], weight, deletes


class ServeServer:
    """The live ingest service; see the module docstring for the shape.

    Args:
        config: the pipeline's run configuration (dataset supplies the
            vertex universe; ``num_batches`` is ignored — serving is
            open-ended).
        settings: service knobs (:class:`ServeSettings`).
        monitor: optional
            :class:`~repro.telemetry.heartbeat.HeartbeatMonitor` beaten
            after every applied micro-batch.
    """

    def __init__(
        self,
        config: RunConfig,
        settings: ServeSettings | None = None,
        *,
        monitor=None,
    ):
        self.config = config
        self.settings = settings or ServeSettings()
        self.monitor = monitor
        self.pipeline = config.build_pipeline()
        self.batcher = MicroBatcher(target_edges=self.settings.batch_target)
        self.admission = AdmissionController(self.settings.max_pending)
        self.state = _ServeState()
        # The hand-off: ``_batch_queue`` carries batches, ``_STOP`` and
        # wake tokens; ``_queued`` counts all but the tokens, which is
        # what ``queue_depth`` bounds.  ``_queued`` and ``_driver_idle``
        # change only under ``_handoff``.
        self._batch_queue: queue.Queue = queue.Queue()
        self._queue_depth = max(1, self.settings.queue_depth)
        self._handoff = threading.Lock()
        self._queued = 0
        self._driver_idle = False
        #: Cuts waiting for a queue slot, in cut order (event loop only);
        #: nothing may overtake them, an idle cut included.
        self._put_order = asyncio.Lock()
        self._puts_waiting = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._query_queue: queue.Queue = queue.Queue()
        self._driver = _PipelineDriver(self)
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._drained = asyncio.Event()
        self._last_checkpoint_batch = 0
        self._clients = 0
        #: Arrival-order record of every admitted edge (capture mode).
        self.captured: dict[str, list] | None = (
            {"src": [], "dst": [], "weight": [], "is_delete": []}
            if self.settings.capture
            else None
        )

    # -- lifecycle ------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start the driver thread; returns (host, port)."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._loop = asyncio.get_running_loop()
        self._driver.start()
        self._server = await asyncio.start_server(
            self._handle_client, host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def drain(self) -> None:
        """Graceful shutdown: reject new edges, flush, checkpoint, stop.

        Idempotent; safe to call from a signal handler task.  On return
        every admitted edge is visible, the final checkpoint (when
        enabled) is on disk, and the driver thread has exited.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.admission.start_drain()
        if self._server is not None:
            self._server.close()
        if self.batcher.size > 0:
            await self._enqueue(self.batcher.cut("drain"))
        await self._put_queue_item(_STOP)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._driver.join)
        if self._server is not None:
            await self._server.wait_closed()
        self._drained.set()

    def _driver_failed(self, exc: BaseException) -> None:
        # Driver death must not hang clients: fail queued queries.
        while True:
            try:
                __, future = self._query_queue.get_nowait()
            except queue.Empty:
                break
            if not future.done():
                future.set_result(
                    {"ok": False, "error": "driver_failed", "detail": str(exc)}
                )

    # -- hand-off -------------------------------------------------------------
    def _next_item(self):
        """Driver thread: the next queued item, blocking with no timeout.

        With nothing queued and no query waiting, the driver turns idle
        and has the event loop cut the buffer at once (:meth:`_cut_if_idle`).
        """
        with self._handoff:
            if self._queued == 0:
                if not self._query_queue.empty():
                    return _WAKE
                self._driver_idle = True
                self._loop.call_soon_threadsafe(self._cut_if_idle)
        item = self._batch_queue.get()
        if item is not _WAKE:
            with self._handoff:
                self._queued -= 1
        return item

    def _put_locked(self, item) -> None:
        self._batch_queue.put_nowait(item)
        self._queued += 1
        self._driver_idle = False

    def _cut_if_idle(self) -> None:
        """Event loop: hand an idle driver everything buffered.

        Runs after each append that cut nothing and each time the driver
        turns idle.  Once draining starts it does nothing: drain makes its
        own cut, and none may follow ``_STOP``.
        """
        if self._draining or self._puts_waiting or self.batcher.size == 0:
            return
        with self._handoff:
            if self._driver_idle:
                self._put_locked(self.batcher.cut("idle"))

    def _wake_driver(self) -> None:
        """Event loop: wake an idle driver for a query.

        A busy driver answers queries before its next step, so it gets no
        token; an idle one has nothing queued, so the token it gets holds
        no batch's slot.
        """
        with self._handoff:
            if self._driver_idle:
                self._driver_idle = False
                self._batch_queue.put_nowait(_WAKE)

    def _offer(self, item) -> bool:
        """Queue ``item`` unless ``queue_depth`` items already wait."""
        with self._handoff:
            if self._queued >= self._queue_depth:
                return False
            self._put_locked(item)
            return True

    async def _put_queue_item(self, item) -> None:
        """Bounded-queue put that never blocks the event loop.

        The driver is the only consumer and the event loop the only
        producer, so full → poll is race-free backpressure.  Items reach
        the driver in cut order: ``_put_order`` is FIFO and only its
        holder polls, so a later cut cannot take a freed slot first.
        """
        self._puts_waiting += 1
        try:
            async with self._put_order:
                while True:
                    if self._driver.error is not None:
                        raise ConfigurationError(
                            f"pipeline driver died: {self._driver.error!r}"
                        )
                    if self._offer(item):
                        return
                    await asyncio.sleep(0.005)
        finally:
            self._puts_waiting -= 1

    async def _enqueue(self, pending: PendingBatch) -> None:
        await self._put_queue_item(pending)

    async def _maybe_cut(self) -> None:
        reason = self.batcher.cut_due()
        if reason is not None:
            await self._enqueue(self.batcher.cut(reason))
        else:
            self._cut_if_idle()

    # -- protocol -------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._clients += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except (ValueError, UnicodeDecodeError):
                    await self._reply(
                        writer, {"ok": False, "error": "bad_json"}
                    )
                    continue
                op = request.get("op")
                if op == "hello":
                    await self._reply(writer, {
                        "ok": True,
                        "server": "repro-serve",
                        "dataset": self.config.dataset,
                        "algorithm": self.config.algorithm,
                        "mode": self.config.mode,
                        "num_vertices": self.pipeline.graph.num_vertices,
                    })
                elif op == "edges":
                    await self._handle_edges(request, writer)
                elif op == "query":
                    await self._handle_query(request, writer)
                elif op == "stats":
                    await self._reply(writer, self._stats())
                elif op == "flush":
                    if self.batcher.size > 0 and not self._draining:
                        await self._enqueue(self.batcher.cut("flush"))
                    await self._reply(writer, {"ok": True})
                else:
                    await self._reply(
                        writer, {"ok": False, "error": "unknown_op", "op": op}
                    )
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._clients -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _handle_edges(self, request: dict,
                            writer: asyncio.StreamWriter) -> None:
        edges = request.get("edges")
        try:
            src, dst, weight, deletes = _parse_edges(
                edges, self.pipeline.graph.num_vertices
            )
        except _Rejected as exc:
            await self._reply(writer, exc.reply)
            return
        n = len(edges)
        while True:
            decision = self.admission.admit(n)
            if decision.admitted:
                break
            if decision.reject:
                with self.state.lock:
                    self.state.edges_rejected_requests += 1
                await self._reply(
                    writer, {"ok": False, "error": decision.reason}
                )
                return
            await asyncio.sleep(decision.delay)
        # Admitted: append + sequence assignment happen synchronously on
        # the event loop, so the arrival order is the admission order —
        # the property the offline-replay parity invariant rests on.
        is_delete = deletes if any(deletes) else None
        seq_end = self.batcher.append(
            src, dst, weight=weight, is_delete=is_delete
        )
        with self.state.lock:
            self.state.admitted_seq = seq_end
            visible = self.state.visible_seq
        if self.captured is not None:
            self.captured["src"].extend(src.tolist())
            self.captured["dst"].extend(dst.tolist())
            self.captured["weight"].extend(weight.tolist())
            self.captured["is_delete"].extend(deletes)
        await self._maybe_cut()
        await self._reply(writer, {
            "ok": True,
            "accepted": n,
            "seq": seq_end,
            "watermark": visible,
        })

    async def _handle_query(self, request: dict,
                            writer: asyncio.StreamWriter) -> None:
        import concurrent.futures

        if self._draining:
            await self._reply(
                writer, {"ok": False, "error": "draining"}
            )
            return
        if self._driver.error is not None:
            await self._reply(writer, {
                "ok": False, "error": "driver_failed",
                "detail": str(self._driver.error),
            })
            return
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._query_queue.put((request, future))
        self._wake_driver()
        reply = await asyncio.wrap_future(future)
        await self._reply(writer, reply)

    def _stats(self) -> dict:
        state = self.state
        with state.lock:
            payload = {
                "ok": True,
                "admitted_seq": state.admitted_seq,
                "visible_seq": state.visible_seq,
                "lag_edges": state.admitted_seq - state.visible_seq,
                "batches": state.batches_done,
                "queries_served": state.queries_served,
                "rejected_requests": state.edges_rejected_requests,
                "clients": self._clients,
                "draining": self._draining,
            }
        payload["queue_depth"] = self._batch_queue.qsize()
        payload["buffer_edges"] = self.batcher.size
        payload["cut_reasons"] = dict(self.batcher.cut_reasons)
        payload["ingest_to_visible_s"] = self.state.latency_quantiles()
        payload["admission"] = self.admission.stats()
        return payload

    def _serve_heartbeat_section(self) -> dict:
        """The ``serve`` block of the heartbeat payload."""
        state = self.state
        with state.lock:
            section = {
                "queue_depth": self._batch_queue.qsize(),
                "pending_edges": self.admission.pending_total,
                "admitted_seq": state.admitted_seq,
                "visible_seq": state.visible_seq,
                "queries_served": state.queries_served,
                "clients": self._clients,
            }
        latency = self.state.latency_quantiles()
        section["ingest_to_visible_p99"] = latency["p99"]
        return section


# -- in-thread harness (tests, benchmarks, loadgen-managed servers) -----------


class ServerHandle:
    """A server running on a dedicated event-loop thread.

    Attributes:
        server: the :class:`ServeServer` (its state is safe to *read*
            after :meth:`stop`).
        host / port: the bound address.
    """

    def __init__(self, server: ServeServer, host: str, port: int,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread,
                 stop_event: asyncio.Event):
        self.server = server
        self.host = host
        self.port = port
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    def stop(self, timeout: float = 60.0) -> None:
        """Drain gracefully and join the server thread (idempotent)."""
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog only
            raise TimeoutError("serve thread did not drain in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


def start_server_thread(
    config: RunConfig,
    settings: ServeSettings | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    monitor=None,
) -> ServerHandle:
    """Run a :class:`ServeServer` on its own thread; returns its handle.

    The thread owns an event loop running the server until
    :meth:`ServerHandle.stop` (which drains gracefully).  Startup errors
    re-raise here rather than being swallowed by the thread.
    """
    started = threading.Event()
    holder: dict = {}

    async def _main() -> None:
        server = ServeServer(config, settings, monitor=monitor)
        stop_event = asyncio.Event()
        try:
            bound = await server.start(host, port)
        except BaseException as exc:  # surface bind/driver failures
            holder["error"] = exc
            started.set()
            raise
        holder.update(
            server=server, host=bound[0], port=bound[1],
            loop=asyncio.get_running_loop(), stop_event=stop_event,
        )
        started.set()
        await stop_event.wait()
        await server.drain()

    def _thread_main() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # pragma: no cover - surfaced via stop
            holder.setdefault("error", exc)
            started.set()

    thread = threading.Thread(
        target=_thread_main, name="repro-serve", daemon=True
    )
    thread.start()
    started.wait(timeout=60.0)
    if "error" in holder:
        thread.join(timeout=5.0)
        raise holder["error"]
    if "server" not in holder:
        raise TimeoutError("serve thread did not start in time")
    return ServerHandle(
        holder["server"], holder["host"], holder["port"],
        holder["loop"], thread, holder["stop_event"],
    )
