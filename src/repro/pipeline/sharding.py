"""Sharded single-run execution: vertex-partitioned update across workers.

The paper's HAU eliminates update locks by routing every update task to core
``src mod N`` (Section 4.4): tasks that touch the same vertex land on the
same core, so no two cores ever write the same adjacency.  This module lifts
that owner mapping from the simulated CMP to real shard workers, so one
pipeline run's *update phase* — the real data-structure work in this library
(DESIGN.md §2) — fans out over ``num_shards`` persistent workers.

Since PR 7 the runtime is split into three separable layers:

* **placement** (:mod:`repro.pipeline.partition`) — *which shard owns each
  vertex* is an explicit owner-map array materialized once by a registered
  policy (``mod`` — the paper's mapping and the default — ``hash``, or the
  ``greedy`` streaming partitioner).  Workers and coordinator slice and
  route through the map; no ``v % N`` arithmetic exists outside the policy
  module.
* **transport** (:mod:`repro.pipeline.transport`) — *how coordinator and
  workers talk* is a registered channel implementation: ``inproc`` direct
  calls, ``shm`` pipes + SharedMemory (the default), or ``tcp``
  length-prefixed sockets ready to cross host boundaries.
* **coordination** (this module) — the owner-disjoint apply/merge protocol,
  mirrored reads, checkpointing, and lifecycle, all agnostic to the other
  two layers.

The shard owning a vertex holds the full out-adjacency of its sources and
the full in-adjacency of its destinations — the two directions of one edge
generally live on different shards, exactly like the HAU's per-direction
task routing.  Per-shard :class:`~repro.graph.base.DirectionStats` merge
back into the exact arrays the serial graph would have produced: the vertex
partition is disjoint, so a concatenate + stable argsort *is* the serial
sort order **regardless of placement**.  Compute stays serial on the
coordinator against lazily mirrored byte-exact adjacency views.

The hard invariant: a run at any ``num_shards``, under any transport and
any placement policy, produces algorithm results and
:class:`~repro.pipeline.metrics.RunMetrics` bit-identical to
``num_shards=1`` (enforced by the golden parity matrix in
``tests/test_pipeline_parity.py`` and ``tests/test_sharding.py``).

Environment knobs:

* ``REPRO_MP_START`` — start method for shard workers (see
  :func:`~repro.pipeline.executor.mp_context`);
* ``REPRO_SHARD_TRANSPORT`` / ``REPRO_SHARD_SHM`` /
  ``REPRO_SHARD_CONNECT_TIMEOUT`` — see :mod:`repro.pipeline.transport`;
* ``REPRO_CELL_TIMEOUT`` — seconds the coordinator waits on a shard reply
  before declaring the worker hung (unset/0 = wait forever), shared with
  the matrix executor.
"""

from __future__ import annotations

import pickle
import time
import uuid

import numpy as np

from ..errors import ConfigurationError, GraphError
from ..graph.adjacency_list import AdjacencyListGraph, _empty_direction_stats
from ..graph.base import BatchUpdateStats, DirectionStats, DynamicGraph
from ..graph.formats import make_adjacency_graph, resolve_adjacency_format
from ..telemetry.core import as_telemetry, make_telemetry, merge_snapshots
from .executor import CellExecutionError, _env_float
from .partition import (
    GREEDY_SAMPLE_EDGES,
    build_owner_map,
    owner_map_checksum,
    resolve_partition_policy,
    shard_owner,  # noqa: F401  (canonical home is partition.py; re-exported)
    validate_owner_map,
)
from .runner import StreamingPipeline
from .transport import (
    _shared_memory,
    make_transport,
    resolve_shard_transport,
)

__all__ = ["ShardedGraph", "ShardedPipeline", "ShardWorker", "shard_owner"]

# -- batch representation -----------------------------------------------------
#
# One batch becomes five flat arrays (insert src/dst/weight, delete src/dst).
# The transport decides how they travel (SharedMemory segment, inline pipe
# pickle, socket frame); the worker slices out its own edges either way.

_INT = np.dtype(np.int64)
_FLT = np.dtype(np.float64)


def _attach_shm(name):
    """Attach to a coordinator-owned segment without tracker side effects.

    On Python < 3.13 attaching registers the segment with a resource
    tracker, which is wrong either way the worker was started: a spawned
    worker's own tracker would unlink the segment (and warn) when the
    worker exits, and a forked worker shares the coordinator's tracker, so
    an unregister-after-attach would cancel the owner's registration
    instead.  Suppress the registration entirely — only the coordinator,
    which created the segment, tracks its lifetime.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _unpack_shm(shm, n_ins: int, n_del: int):
    """Rebuild the five arrays as views over an attached segment."""
    buf = shm.buf
    offset = 0
    out = []
    for count, dtype in (
        (n_ins, _INT), (n_ins, _INT), (n_ins, _FLT), (n_del, _INT), (n_del, _INT),
    ):
        out.append(np.ndarray((count,), dtype=dtype, buffer=buf, offset=offset))
        offset += count * dtype.itemsize
    return out


# -- worker side --------------------------------------------------------------


def _slice_batch(arrays, shard: int, owners: np.ndarray):
    """Cut one shard's slices out of the five batch arrays via the owner map.

    Boolean-mask indexing *copies*, so the slices outlive any shared-memory
    views behind ``arrays``; masks preserve batch order, which per-vertex
    dict insertion-order parity depends on.  Out-direction slices are keyed
    by source, in-direction slices by destination — one edge's two
    directions generally route to two different shards.
    """
    ins_src, ins_dst, ins_w, del_src, del_dst = arrays
    out_pick = owners[ins_src] == shard
    in_pick = owners[ins_dst] == shard
    dout_pick = owners[del_src] == shard
    din_pick = owners[del_dst] == shard
    return (
        (ins_src[out_pick], ins_dst[out_pick], ins_w[out_pick]),
        (ins_dst[in_pick], ins_src[in_pick], ins_w[in_pick]),
        (del_src[dout_pick], del_dst[dout_pick]),
        (del_dst[din_pick], del_src[din_pick]),
    )


class ShardWorker:
    """One shard's state and command handlers, transport-agnostic.

    Owns the partition's adjacency graph and a shard-local telemetry
    backend.  Process transports run one of these behind
    :func:`serve_shard_worker`; the ``inproc`` transport dispatches into
    :meth:`handle` directly.

    The spec dict carries everything a freshly spawned process needs:
    ``shard``, ``num_vertices``, ``telemetry_level``, ``adjacency`` and the
    policy-materialized ``owner_map``.
    """

    def __init__(self, spec: dict):
        self.shard = spec["shard"]
        self.num_vertices = spec["num_vertices"]
        self.owners = spec["owner_map"]
        self.tel = make_telemetry(spec.get("telemetry_level", "off"))
        timeline = getattr(self.tel, "timeline", None)
        if timeline is not None:
            timeline.configure(
                run_id=spec.get("run_id", ""),
                process=f"shard-{self.shard}",
                shard=self.shard,
            )
        self.graph = make_adjacency_graph(
            spec.get("adjacency", "dict"), self.num_vertices, telemetry=self.tel
        )

    # -- command handlers -----------------------------------------------------
    def handle(self, command: str, payload):
        """Serve one protocol command; raises on failure (the channel layer
        converts exceptions to ``("error", ...)`` replies)."""
        if command == "apply":
            return self._apply(payload)
        if command == "fetch":
            direction, vertices = payload
            adjacency_of = (
                self.graph.out_neighbors
                if direction == "out"
                else self.graph.in_neighbors
            )
            if self.tel.enabled:
                self.tel.count("shard.fetches")
                self.tel.count("shard.fetched_vertices", len(vertices))
            return {v: adjacency_of(v) for v in vertices}
        if command == "state":
            return pickle.dumps(self.graph, protocol=pickle.HIGHEST_PROTOCOL)
        if command == "restore":
            graph = pickle.loads(payload)
            if graph.num_vertices != self.num_vertices:
                raise GraphError(
                    f"restored shard graph has {graph.num_vertices} "
                    f"vertices, worker was spawned for {self.num_vertices}"
                )
            self.graph = graph
            return None
        if command == "track":
            self.graph.track_deltas(bool(payload))
            return None
        if command == "telemetry":
            return self.tel.snapshot()
        if command == "timeline":
            # Clock-offset handshake: the local perf_counter reading rides
            # back with the snapshot so the coordinator can express worker
            # timestamps on its own clock (offset = midpoint(t0, t1) - t_w).
            return (time.perf_counter(), self.tel.timeline_snapshot())
        if command == "close":
            return None
        raise GraphError(f"unknown shard command {command!r}")

    def _apply(self, payload):
        """Apply this shard's slice of one batch; reply with stats + updates."""
        tel = self.tel
        tel.set_batch(payload.get("batch_id"))
        with tel.span("shard.apply"):
            return self._apply_slices(payload)

    def _apply_slices(self, payload):
        graph, tel = self.graph, self.tel
        if "shm" in payload:
            shm = _attach_shm(payload["shm"])
            arrays = None
            try:
                arrays = _unpack_shm(shm, payload["n_ins"], payload["n_del"])
                slices = _slice_batch(arrays, self.shard, self.owners)
            finally:
                # Drop the zero-copy views before close(); a live export
                # would make releasing the segment's buffer fail.
                arrays = None  # noqa: F841
                shm.close()
        else:
            slices = _slice_batch(payload["inline"], self.shard, self.owners)
        (out_keys, out_vals, out_w), (in_keys, in_vals, in_w), dout, din = slices

        out_stats = graph.apply_direction_edges(
            out_keys, out_vals, out_w, direction="out"
        )
        in_stats = graph.apply_direction_edges(
            in_keys, in_vals, in_w, direction="in"
        )
        removed_out = graph.delete_direction_edges(dout[0], dout[1], direction="out")
        removed_in = graph.delete_direction_edges(din[0], din[1], direction="in")
        deleted = sum(removed_out.values())
        # Tracking exists here only to keep the worker's out-direction on
        # the tracked apply path (its per-vertex dict order differs from the
        # fast path's; the in-direction always takes the fast path); the
        # coordinator rebuilds snapshots from scratch, so drop the journal
        # rather than let it accumulate across batches.
        graph.consume_delta()

        updated_out = updated_in = None
        if payload["include_updates"]:
            touched_out = set(out_stats.vertices.tolist())
            touched_out.update(removed_out)
            touched_in = set(in_stats.vertices.tolist())
            touched_in.update(removed_in)
            updated_out = {v: graph.out_neighbors(v) for v in sorted(touched_out)}
            updated_in = {v: graph.in_neighbors(v) for v in sorted(touched_in)}

        if tel.enabled:
            tel.count("shard.batches")
            tel.count("shard.out_edges", len(out_keys))
            tel.count("shard.in_edges", len(in_keys))
            if len(out_stats.new_edges):
                tel.count("shard.new_edges", int(out_stats.new_edges.sum()))
            if deleted:
                tel.count("shard.deleted_edges", deleted)
        return (out_stats, in_stats, deleted, updated_out, updated_in)


def serve_shard_worker(spec: dict, channel) -> None:
    """Shard worker loop: serve protocol commands until close/disconnect.

    Protocol: the coordinator sends ``(command, payload)`` tuples, the
    worker replies ``("ok", result)`` or ``("error", (type_name,
    message))``; exceptions never cross the channel as live objects
    (arbitrary tracebacks may not unpickle in the parent).
    """
    worker = ShardWorker(spec)
    while True:
        try:
            command, payload = channel.recv()
        except (EOFError, OSError):  # coordinator vanished; nothing to serve
            break
        if command == "close":
            try:
                channel.send(("ok", None))
            except (OSError, ValueError):  # pragma: no cover - racing close
                pass
            break
        try:
            reply = worker.handle(command, payload)
        except Exception as exc:
            channel.send(("error", (type(exc).__name__, str(exc))))
            continue
        channel.send(("ok", reply))
    channel.close()


# -- coordinator side ---------------------------------------------------------


def _merge_direction(parts) -> DirectionStats:
    """Merge disjoint per-shard stats into the serial direction stats.

    Every shard reports sorted vertices and the partition is disjoint, so a
    stable argsort of the concatenation reproduces the serial (globally
    sorted) order exactly — whatever policy produced the partition; the
    per-vertex columns ride along unchanged.
    """
    parts = [p for p in parts if len(p.vertices)]
    if not parts:
        return _empty_direction_stats()
    if len(parts) == 1:
        return parts[0]
    vertices = np.concatenate([p.vertices for p in parts])
    order = np.argsort(vertices, kind="stable")
    return DirectionStats(
        vertices=vertices[order],
        batch_degree=np.concatenate([p.batch_degree for p in parts])[order],
        length_before=np.concatenate([p.length_before for p in parts])[order],
        new_edges=np.concatenate([p.new_edges for p in parts])[order],
    )


class _ShardAdjacencyView:
    """Read-only mapping view over one direction of a :class:`ShardedGraph`.

    Looks like the dict the serial graph hands out — same outer key
    *insertion order* (CC's rebuild iterates it), same inner dict order
    (cached dicts are byte-for-byte copies of the owning worker's) — but
    materializes adjacencies lazily from the owner shard on first access.
    """

    __slots__ = ("_graph", "_direction")

    def __init__(self, graph: "ShardedGraph", direction: str):
        self._graph = graph
        self._direction = direction

    def _order(self):
        g = self._graph
        return g._key_order_out if self._direction == "out" else g._key_order_in

    def _keys(self):
        g = self._graph
        return g._key_set_out if self._direction == "out" else g._key_set_in

    def __len__(self) -> int:
        return len(self._order())

    def __contains__(self, v) -> bool:
        return v in self._keys()

    def __iter__(self):
        return iter(self._order())

    def __getitem__(self, v):
        if v not in self._keys():
            raise KeyError(v)
        return self._graph._adjacency_of(self._direction, v)

    def get(self, v, default=None):
        if v not in self._keys():
            return default
        return self._graph._adjacency_of(self._direction, v)

    def keys(self):
        return list(self._order())

    def items(self):
        graph, direction = self._graph, self._direction
        graph._warm(direction)
        for v in self._order():
            yield v, graph._adjacency_of(direction, v)

    def values(self):
        for _v, entry in self.items():
            yield entry


class ShardedGraph(DynamicGraph):
    """A dynamic graph whose update phase runs on ``num_shards`` workers.

    Drop-in for :class:`~repro.graph.adjacency_list.AdjacencyListGraph`
    inside a pipeline: :meth:`apply_batch` returns bit-identical
    :class:`~repro.graph.base.BatchUpdateStats` and the read accessors
    expose bit-identical adjacency (content *and* iteration order), so the
    cost models and compute algorithms cannot tell the difference.  The
    coordinator holds no authoritative adjacency — only merged bookkeeping
    (edge counts, outer-key order, a read cache) — while each worker owns
    its partition outright and applies its slices lock-free.

    Picklable for checkpoints: pickling drains each worker's graph into a
    per-shard payload; unpickling re-launches the transport lazily and
    pushes the payloads back on first use.  The owner map travels in the
    checkpoint, so a resume under a different placement is rejected instead
    of silently mis-routing.

    Args:
        num_vertices: vertex id universe.
        num_shards: shard worker count (>= 1).
        telemetry_level: level for the shard-local backends (coordinator +
            one per worker), kept separate from the pipeline's backend so
            sharding does not perturb the run's own telemetry stream; read
            the merged view with :meth:`shard_telemetry`.
        adjacency: adjacency-format name each worker builds its partition
            with (see :mod:`repro.graph.formats`); parity holds at any
            format, so this is a per-worker wall-clock lever.
        transport: shard-transport name (see
            :mod:`repro.pipeline.transport`); None resolves
            ``REPRO_SHARD_TRANSPORT`` / the default.
        policy: partition-policy name (see
            :mod:`repro.pipeline.partition`); ignored for placement when
            ``owner_map`` is given (it still labels the map's origin).
        owner_map: pre-materialized owner map (policies that sample the
            stream build it upstream); None materializes ``policy`` with
            no edge sample.
        run_telemetry: the *pipeline's* telemetry backend, used only for
            partition-quality and transport-traffic counters
            (``partition.*`` / ``transport.*``) that `repro report`
            surfaces; None records none.
    """

    def __init__(
        self,
        num_vertices: int,
        num_shards: int,
        telemetry_level: str = "off",
        adjacency: str | None = None,
        transport: str | None = None,
        policy: str | None = None,
        owner_map: np.ndarray | None = None,
        run_telemetry=None,
        run_id: str | None = None,
    ):
        super().__init__(num_vertices)
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.num_shards = num_shards
        self.adjacency = resolve_adjacency_format(adjacency)
        self.transport_name = resolve_shard_transport(transport)
        self.policy = resolve_partition_policy(policy).name
        if owner_map is None:
            owner_map = build_owner_map(self.policy, num_vertices, num_shards)
        self.owner_map = validate_owner_map(owner_map, num_vertices, num_shards)
        self._tel_level = telemetry_level
        self._tel = make_telemetry(telemetry_level)
        self._run_tel = as_telemetry(run_telemetry)
        # Outer-key bookkeeping mirroring the serial dicts: insertion order
        # (new keys arrive sorted within each batch, exactly like the serial
        # setdefault pass) and O(1) membership for negative lookups that
        # must not cross a process boundary.
        self._key_order_out: list[int] = []
        self._key_order_in: list[int] = []
        self._key_set_out: set[int] = set()
        self._key_set_in: set[int] = set()
        self._touched: set[int] = set()
        self._touched_sorted: list[int] | None = None
        # Read cache: exact copies of worker adjacency dicts.  ``_mirror``
        # flips on the first read access; from then on apply replies carry
        # the updated dicts so the cache stays coherent without re-fetching.
        self._cache_out: dict[int, dict[int, float]] = {}
        self._cache_in: dict[int, dict[int, float]] = {}
        self._mirror = False
        self._view_out = _ShardAdjacencyView(self, "out")
        self._view_in = _ShardAdjacencyView(self, "in")
        self._transport = None
        self._traffic_seen = (0, 0)
        self._pending_payloads: list[bytes] | None = None
        self._track_deltas = False
        self._closed = False
        #: Run identifier propagated into worker specs (timeline tracks).
        self.run_id = run_id or f"shards-{uuid.uuid4().hex[:8]}"
        #: Worker timelines harvested at (or before) close.
        self._worker_timelines: list = []

    # -- worker lifecycle ---------------------------------------------------
    @property
    def _conns(self):
        """Live per-shard channels (None before launch / after close)."""
        return None if self._transport is None else self._transport.channels

    @property
    def _procs(self):
        """Live worker processes (empty for in-process transports)."""
        return None if self._transport is None else self._transport.processes

    def _worker_specs(self) -> list[dict]:
        return [
            {
                "shard": shard,
                "num_shards": self.num_shards,
                "num_vertices": self.num_vertices,
                "telemetry_level": self._tel_level,
                "adjacency": self.adjacency,
                "owner_map": self.owner_map,
                "run_id": self.run_id,
            }
            for shard in range(self.num_shards)
        ]

    def _ensure_workers(self) -> None:
        if self._transport is not None:
            return
        if self._closed:
            raise GraphError("ShardedGraph has been closed")
        transport = make_transport(self.transport_name)
        try:
            transport.launch(self._worker_specs())
            self._transport = transport
            self._traffic_seen = (0, 0)
            if self._pending_payloads is not None:
                for shard, payload in enumerate(self._pending_payloads):
                    self._send(shard, ("restore", payload))
                for shard in range(self.num_shards):
                    self._recv(shard)
                self._pending_payloads = None
            if self._track_deltas:
                for shard in range(self.num_shards):
                    self._send(shard, ("track", True))
                for shard in range(self.num_shards):
                    self._recv(shard)
        except BaseException:
            # A partial launch (a worker that failed to spawn or connect,
            # a restore payload the worker rejected) must never leak live
            # shard processes: reap everything the transport started, then
            # surface the original error.  close() is idempotent, so the
            # caller's own try/finally close() remains safe.
            self._transport = transport
            self.close()
            raise

    def track_deltas(self, enabled: bool = True) -> None:
        """Keep the shard workers' out-direction on the *tracked* apply path.

        The tracked and untracked ingest paths insert a vertex's new
        out-targets in different dict orders (composite-sort dedup vs raw
        batch order), so when a delta consumer attaches — ``DeltaSnapshotter``
        does this for the static-recompute algorithms — the workers must
        flip too, or their adjacency would diverge bit-for-bit from a
        tracked serial graph's.  The in-direction ingests untracked either
        way.  The journal itself never crosses the
        channel: workers drop it after every batch, :meth:`consume_delta`
        stays ``None`` (the inherited default), and snapshots rebuild from
        the coordinator's mirror.
        """
        self._track_deltas = enabled
        if self._transport is not None:
            self._request_all("track", enabled)

    def _recv(self, shard: int):
        channel = self._transport.channels[shard]
        timeout = _env_float("REPRO_CELL_TIMEOUT", 0.0)
        try:
            if timeout > 0 and not channel.poll(timeout):
                raise CellExecutionError(
                    f"shard worker {shard} gave no reply within {timeout:g}s"
                )
            status, value = channel.recv()
        except (EOFError, OSError) as exc:
            raise CellExecutionError(
                f"shard worker {shard} died (channel closed: {exc!r}); its "
                "partition's state is lost — resume from a checkpoint"
            ) from exc
        if status == "error":
            type_name, message = value
            raise GraphError(f"shard worker {shard} failed: {type_name}: {message}")
        return value

    def _send(self, shard: int, message) -> None:
        try:
            self._transport.channels[shard].send(message)
        except (OSError, ValueError) as exc:
            # A killed worker surfaces as EPIPE on the *next* send; same
            # diagnosis and remedy as a recv-side death.
            raise CellExecutionError(
                f"shard worker {shard} died (channel closed: {exc!r}); its "
                "partition's state is lost — resume from a checkpoint"
            ) from exc

    def _request_all(self, command: str, payload=None) -> list:
        """Send one command to every worker, then gather replies in order."""
        self._ensure_workers()
        for shard in range(self.num_shards):
            self._send(shard, (command, payload))
        replies = [self._recv(shard) for shard in range(self.num_shards)]
        if self._run_tel.enabled:
            self._run_tel.count("transport.round_trips", self.num_shards)
        return replies

    def _harvest_worker_timelines(self) -> list:
        """Fetch every live worker's timeline with a clock handshake.

        For each worker the coordinator stamps ``t0``/``t1`` around the
        round trip and the worker replies with its own ``perf_counter``
        reading ``t_w``; ``offset = (t0 + t1)/2 - t_w`` expresses the
        worker's timestamps on the coordinator's clock (exact up to half
        the round-trip asymmetry, and ~0 for same-clock transports).
        Best-effort by design — dead or hung workers are skipped so close()
        and crash paths never stall on observability.
        """
        if self._transport is None:
            return self._worker_timelines
        snapshots = []
        for shard in range(self.num_shards):
            try:
                channel = self._transport.channels[shard]
                t0 = time.perf_counter()
                channel.send(("timeline", None))
                if not channel.poll(10.0):
                    continue
                status, value = channel.recv()
                t1 = time.perf_counter()
            except Exception:
                continue
            if status != "ok" or value is None:
                continue
            t_worker, snap = value
            if snap is not None:
                snapshots.append(snap.shifted((t0 + t1) / 2.0 - t_worker))
        if snapshots:
            self._worker_timelines = snapshots
        return self._worker_timelines

    def worker_timelines(self) -> list:
        """Clock-aligned worker timelines (live harvest, else the snapshots
        cached by :meth:`close`; empty below telemetry level ``full``)."""
        if self._tel_level != "full":
            return []
        if self._transport is not None:
            return list(self._harvest_worker_timelines())
        return list(self._worker_timelines)

    def close(self) -> None:
        """Shut the shard workers down; the graph is unusable afterwards.

        Idempotent: safe to call repeatedly, after a partial launch
        failure, and with already-dead workers (their broken channels are
        tolerated and the processes reaped regardless).

        Worker flight-recorder timelines are harvested (best effort) just
        before shutdown, so :meth:`worker_timelines` — and through it the
        trace writer's close — still sees them afterwards.
        """
        self._closed = True
        if self._transport is not None and self._tel_level == "full":
            try:
                self._harvest_worker_timelines()
            except Exception:
                pass
        transport, self._transport = self._transport, None
        if transport is None:
            return
        for channel in transport.channels:
            try:
                channel.send(("close", None))
            except (OSError, ValueError, EOFError):
                pass
        transport.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- checkpointing ------------------------------------------------------
    def describe_shards(self) -> dict:
        """Placement identity for checkpoint headers and reports."""
        return {
            "num_shards": self.num_shards,
            "transport": self.transport_name,
            "policy": self.policy,
            "owner_map_crc32": owner_map_checksum(self.owner_map),
        }

    def __getstate__(self) -> dict:
        self._ensure_workers()
        payloads = self._request_all("state")
        return {
            "num_vertices": self.num_vertices,
            "num_shards": self.num_shards,
            "num_edges": self.num_edges,
            "batches_applied": self.batches_applied,
            "tel_level": self._tel_level,
            "tel": self._tel,
            "run_tel": self._run_tel,
            "adjacency": self.adjacency,
            "transport": self.transport_name,
            "policy": self.policy,
            "owner_map": self.owner_map,
            "key_order_out": self._key_order_out,
            "key_order_in": self._key_order_in,
            "touched": self._touched,
            "mirror": self._mirror,
            "track": self._track_deltas,
            "payloads": payloads,
            "run_id": self.run_id,
        }

    def __setstate__(self, state: dict) -> None:
        self.num_vertices = state["num_vertices"]
        self.num_shards = state["num_shards"]
        self.num_edges = state["num_edges"]
        self.batches_applied = state["batches_applied"]
        self._tel_level = state["tel_level"]
        self._tel = state["tel"]
        self._run_tel = state.get("run_tel", as_telemetry(None))
        # Checkpoints written before these fields default to the layout
        # every pre-refactor run used: dicts over pipes, mod placement.
        self.adjacency = state.get("adjacency", "dict")
        self.transport_name = state.get("transport", "shm")
        self.policy = state.get("policy", "mod")
        owner_map = state.get("owner_map")
        if owner_map is None:
            owner_map = build_owner_map(
                self.policy, self.num_vertices, self.num_shards
            )
        self.owner_map = validate_owner_map(
            owner_map, self.num_vertices, self.num_shards
        )
        self._key_order_out = state["key_order_out"]
        self._key_order_in = state["key_order_in"]
        self._key_set_out = set(self._key_order_out)
        self._key_set_in = set(self._key_order_in)
        self._touched = state["touched"]
        self._touched_sorted = None
        self._cache_out = {}
        self._cache_in = {}
        self._mirror = state["mirror"]
        self._view_out = _ShardAdjacencyView(self, "out")
        self._view_in = _ShardAdjacencyView(self, "in")
        self._transport = None
        self._traffic_seen = (0, 0)
        # Worker graphs travel as opaque pickles and are pushed back into
        # freshly launched workers on first use (worker-side telemetry
        # resets — only the coordinator backend survives a checkpoint).
        self._pending_payloads = state["payloads"]
        self._track_deltas = state["track"]
        self._closed = False
        self.run_id = state.get("run_id") or f"shards-{uuid.uuid4().hex[:8]}"
        self._worker_timelines = []

    # -- updates ------------------------------------------------------------
    def apply_batch(self, batch) -> BatchUpdateStats:
        self.check_vertices(batch.src, batch.dst)
        self._ensure_workers()
        inserts = batch.insertions
        deletes = batch.deletions
        arrays = (
            np.ascontiguousarray(inserts.src, dtype=_INT),
            np.ascontiguousarray(inserts.dst, dtype=_INT),
            np.ascontiguousarray(inserts.weight, dtype=_FLT),
            np.ascontiguousarray(deletes.src, dtype=_INT),
            np.ascontiguousarray(deletes.dst, dtype=_INT),
        )
        fields, release, shipped = self._transport.pack_batch(arrays)
        payload = {
            "include_updates": self._mirror,
            "batch_id": batch.batch_id,
            **fields,
        }
        try:
            replies = self._request_all("apply", payload)
        finally:
            if release is not None:
                release()
        out_stats = _merge_direction([reply[0] for reply in replies])
        in_stats = _merge_direction([reply[1] for reply in replies])
        deleted = sum(reply[2] for reply in replies)
        inserted = int(out_stats.new_edges.sum()) if len(out_stats.new_edges) else 0
        self.num_edges += inserted - deleted
        self.batches_applied += 1
        self._note_keys(
            out_stats.vertices, self._key_set_out, self._key_order_out
        )
        self._note_keys(in_stats.vertices, self._key_set_in, self._key_order_in)
        if self._mirror:
            for reply in replies:
                self._cache_out.update(reply[3])
                self._cache_in.update(reply[4])
        if self._tel.enabled:
            self._tel.count("shard.coordinator_batches")
            self._tel.count(
                "shard.shm_batches" if "shm" in fields else "shard.inline_batches"
            )
        self._record_partition_telemetry(arrays, shipped)
        return BatchUpdateStats(
            batch_id=batch.batch_id,
            batch_size=batch.size,
            out=out_stats,
            inn=in_stats,
            deleted_edges=deleted,
        )

    def _record_partition_telemetry(self, arrays, shipped: int) -> None:
        """Partition-quality + transport-traffic counters on the *run's*
        telemetry stream (``repro report`` renders them; see
        docs/OBSERVABILITY.md).  Placement quality is observation-only —
        it never feeds back into routing."""
        tel = self._run_tel
        if not tel.enabled:
            return
        owners = self.owner_map
        src_own = owners[arrays[0]]
        dst_own = owners[arrays[1]]
        tel.count("partition.edges", len(src_own))
        tel.count("partition.cut_edges", int(np.sum(src_own != dst_own)))
        loads = np.bincount(src_own, minlength=self.num_shards) + np.bincount(
            dst_own, minlength=self.num_shards
        )
        for shard in range(self.num_shards):
            tel.count(f"partition.load.s{shard:02d}", int(loads[shard]))
        sent = sum(c.bytes_sent for c in self._transport.channels)
        received = sum(c.bytes_received for c in self._transport.channels)
        last_sent, last_received = self._traffic_seen
        tel.count("transport.bytes_sent", sent - last_sent)
        tel.count("transport.bytes_received", received - last_received)
        self._traffic_seen = (sent, received)
        if shipped:
            tel.count("transport.shm_bytes", shipped)

    def _note_keys(self, vertices: np.ndarray, key_set: set, key_order: list) -> None:
        """Append this batch's new outer keys in serial insertion order.

        ``vertices`` arrives sorted, matching the order the serial graph's
        setdefault pass materializes new outer keys in.
        """
        fresh = [v for v in vertices.tolist() if v not in key_set]
        if not fresh:
            return
        key_set.update(fresh)
        key_order.extend(fresh)
        before = len(self._touched)
        self._touched.update(fresh)
        if len(self._touched) != before:
            self._touched_sorted = None

    # -- reads --------------------------------------------------------------
    def _adjacency_of(self, direction: str, v: int) -> dict[int, float]:
        """The (cached) adjacency dict of an existing outer key ``v``."""
        cache = self._cache_out if direction == "out" else self._cache_in
        entry = cache.get(v)
        if entry is None:
            self._mirror = True
            entry = self._fetch(direction, [v])[v]
            cache[v] = entry
            if self._tel.enabled:
                self._tel.count("shard.cache_misses")
        return entry

    def _fetch(self, direction: str, vertices: list) -> dict:
        """Fetch adjacency dicts from their owner shards, grouped per owner."""
        self._ensure_workers()
        owner_map = self.owner_map
        by_owner: dict[int, list] = {}
        for v in vertices:
            by_owner.setdefault(int(owner_map[v]), []).append(v)
        owners = sorted(by_owner)
        for owner in owners:
            self._send(owner, ("fetch", (direction, by_owner[owner])))
        fetched: dict = {}
        for owner in owners:
            fetched.update(self._recv(owner))
        return fetched

    def _warm(self, direction: str) -> None:
        """Pull every not-yet-cached adjacency of one direction at once."""
        self._mirror = True
        cache = self._cache_out if direction == "out" else self._cache_in
        order = self._key_order_out if direction == "out" else self._key_order_in
        missing = [v for v in order if v not in cache]
        if not missing:
            return
        if self._tel.enabled:
            self._tel.count("shard.cache_warms")
            self._tel.count("shard.warmed_vertices", len(missing))
        cache.update(self._fetch(direction, missing))

    def out_neighbors(self, v: int) -> dict[int, float]:
        self._mirror = True
        return self._view_out.get(v, {})

    def in_neighbors(self, v: int) -> dict[int, float]:
        self._mirror = True
        return self._view_in.get(v, {})

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge u->v is currently present."""
        return v in self.out_neighbors(u)

    def edge_weight(self, u: int, v: int) -> float | None:
        """Current weight of u->v, or None if absent."""
        return self.out_neighbors(u).get(v)

    def adjacency_views(self):
        self._mirror = True
        return self._view_out, self._view_in

    def vertices_with_edges(self) -> list[int]:
        """Sorted vertices with any incident edge; pre-warms the read cache
        (snapshot construction reads every vertex right after calling this)."""
        self._warm("out")
        self._warm("in")
        if self._touched_sorted is None:
            self._touched_sorted = sorted(self._touched)
        return self._touched_sorted

    def touched_count(self) -> int:
        return len(self._touched)

    def notify_external_mutation(self) -> None:
        raise GraphError(
            "ShardedGraph adjacency views are read-only mirrors; algorithms "
            "that mutate views directly require num_shards=1"
        )

    def sum_search_cost(self, batch_degree, length_before, new_edges, per_element):
        # The modeled duplicate-check cost is a pure function of the stats;
        # delegate to the serial structure's linear-scan formula so sharded
        # runs charge identical modeled time.
        return AdjacencyListGraph.sum_search_cost(
            self, batch_degree, length_before, new_edges, per_element
        )

    # -- telemetry ----------------------------------------------------------
    def shard_telemetry(self):
        """Merged shard telemetry: coordinator backend + workers, in shard
        order (deterministic, mirroring the executor's snapshot merge)."""
        if not self._tel.enabled:
            return self._tel.snapshot()
        snapshots = [self._tel.snapshot()]
        snapshots.extend(self._request_all("telemetry"))
        return merge_snapshots(snapshots)


def _sample_stream_edges(profile, batch_size: int, seed: int):
    """Peek at the head of a profile's stream for edge-aware placement.

    Stream generation is a pure function of ``(seed, batch_id)``, so
    peeking consumes nothing and the sample — hence the owner map — is
    identical on every (re)construction of the same run, which checkpoint
    resume depends on.
    """
    generator = profile.generator(seed=seed)
    limit = min(profile.num_batches(batch_size), 8)
    src_parts, dst_parts, total = [], [], 0
    for index in range(limit):
        if total >= GREEDY_SAMPLE_EDGES:
            break
        inserts = generator.generate_batch(index, batch_size).insertions
        src_parts.append(np.ascontiguousarray(inserts.src, dtype=np.int64))
        dst_parts.append(np.ascontiguousarray(inserts.dst, dtype=np.int64))
        total += len(inserts.src)
    if not src_parts:
        return None
    return np.concatenate(src_parts), np.concatenate(dst_parts)


class ShardedPipeline(StreamingPipeline):
    """A :class:`StreamingPipeline` whose graph updates fan out over shards.

    The stage logic is inherited untouched — only the graph substrate
    changes — which is what makes sharded metrics bit-identical by
    construction.  Use as a context manager (or call :meth:`close`) so the
    shard workers shut down promptly; abandoned workers are daemons and die
    with the coordinator regardless.

    Args:
        num_shards: shard workers (>= 1).
        adjacency: per-worker adjacency format (see
            :mod:`repro.graph.formats`).
        shard_transport: transport name (see
            :mod:`repro.pipeline.transport`); None resolves the
            environment/default.
        shard_policy: partition-policy name (see
            :mod:`repro.pipeline.partition`); edge-aware policies sample
            the head of the stream before the first batch runs.
        (remaining arguments as :class:`StreamingPipeline`)
    """

    def __init__(self, profile, batch_size, *, num_shards, graph=None,
                 telemetry=None, adjacency=None, shard_transport=None,
                 shard_policy=None, seed=7, **kwargs):
        # One run id spans coordinator and workers so their timeline
        # snapshots merge into a single clock-aligned trace.
        run_id = kwargs.pop("run_id", None)
        if graph is None:
            run_id = run_id or f"{profile.name}-{uuid.uuid4().hex[:8]}"
            backend = as_telemetry(telemetry)
            policy = resolve_partition_policy(shard_policy)
            edges = (
                _sample_stream_edges(profile, batch_size, seed)
                if policy.uses_edges
                else None
            )
            owner_map = build_owner_map(
                policy, profile.num_vertices, num_shards, edges=edges
            )
            graph = ShardedGraph(
                profile.num_vertices, num_shards,
                telemetry_level=backend.level, adjacency=adjacency,
                transport=shard_transport, policy=policy.name,
                owner_map=owner_map, run_telemetry=backend, run_id=run_id,
            )
        else:
            run_id = run_id or getattr(graph, "run_id", None)
        self.num_shards = num_shards
        super().__init__(
            profile, batch_size, graph=graph, telemetry=telemetry, seed=seed,
            run_id=run_id, **kwargs
        )

    def close(self) -> None:
        """Shut down the shard workers backing this pipeline's graph."""
        close = getattr(self.graph, "close", None)
        if close is not None:
            close()

    def shard_telemetry(self):
        """The graph's merged shard telemetry (see
        :meth:`ShardedGraph.shard_telemetry`)."""
        return self.graph.shard_telemetry()

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
