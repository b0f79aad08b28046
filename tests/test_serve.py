"""``repro serve``: admission control, micro-batching, the live server,
offline-replay parity, queries, and graceful drain.

The units (the admission window, batcher cuts) run without a server,
the batcher with an injected clock; the end-to-end tests run a real
:class:`ServeServer` on its own event-loop thread and speak the wire
protocol through :class:`ServeClient`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.stream import Batch
from repro.errors import ConfigurationError
from repro.pipeline.config import RunConfig
from repro.serve import (
    AdmissionController,
    MicroBatcher,
    ServeClient,
    ServeSettings,
    run_loadgen,
    start_server_thread,
)


# -- the admission window ------------------------------------------------------

def test_admission_backpressure_waits_then_releases():
    ctl = AdmissionController(max_pending=100)
    assert ctl.admit(80).admitted
    blocked = ctl.admit(30)
    assert not blocked.admitted and not blocked.reject
    assert blocked.reason == "backpressure" and blocked.delay > 0.0
    ctl.release(50)
    assert ctl.admit(30).admitted
    assert ctl.pending_total == 60


def test_admission_oversize_drain_and_stats():
    ctl = AdmissionController(max_pending=10)
    with pytest.raises(ConfigurationError):
        ctl.admit(0)
    assert ctl.admit(4).admitted
    big = ctl.admit(11)
    assert big.reject and big.reason == "too_large"
    ctl.start_drain()
    refused = ctl.admit(1)
    assert refused.reject and refused.reason == "draining"
    assert ctl.stats() == {
        "pending_edges": 4, "max_pending": 10, "draining": True,
    }


# -- micro-batcher -------------------------------------------------------------

def test_batcher_target_cut_sequences_and_tenant_counts():
    """Submissions from any connections share one sequence; a batch keeps
    no per-client counts, since the driver releases its ``size``."""
    mb = MicroBatcher(target_edges=10, clock=lambda: 0.0)
    assert mb.append([1, 2, 3], [4, 5, 6]) == 3
    assert mb.cut_due() is None
    mb.append(list(range(7)), list(range(7)))
    assert mb.cut_due() == "target"
    batch = mb.cut("target")
    assert batch.size == 10 and batch.seq_end == 10
    assert not hasattr(batch, "tenant_counts")
    assert batch.is_delete is None and batch.cut_reason == "target"
    assert [seq for seq, _ in batch.markers] == [3, 10]
    assert mb.size == 0 and mb.cut_reasons == {"target": 1}


def test_batcher_never_cuts_on_time_alone():
    """Only size cuts inside the batcher: however long a small buffer
    lingers, it waits for the server's idle, flush or drain cut."""
    clock = {"t": 0.0}
    mb = MicroBatcher(target_edges=100, clock=lambda: clock["t"])
    mb.append([1], [2])
    clock["t"] = 3600.0
    assert mb.cut_due() is None
    batch = mb.cut("idle")
    assert batch.markers == [(1, 0.0)] and batch.cut_reason == "idle"


def test_batcher_preserves_weights_and_deletes():
    mb = MicroBatcher(target_edges=10, clock=lambda: 0.0)
    mb.append([1, 2], [3, 4], weight=[2.0, 3.0], is_delete=[False, True])
    batch = mb.cut("drain")
    assert batch.weight.tolist() == [2.0, 3.0]
    assert batch.is_delete.tolist() == [False, True]
    with pytest.raises(ConfigurationError):
        mb.cut("drain")  # buffer is empty again


# -- settings ------------------------------------------------------------------

def test_serve_settings_env_defaults_and_overrides(monkeypatch):
    """The environment sets nothing: each knob has its default or the
    value passed in."""
    monkeypatch.setenv("REPRO_SERVE_BATCH", "123")
    monkeypatch.setenv("REPRO_SERVE_MAX_PENDING", "garbage")
    settings = ServeSettings(queue_depth=4)
    assert settings.batch_target == 10_000
    assert settings.max_pending == 200_000
    assert settings.queue_depth == 4
    assert not hasattr(ServeSettings, "from_env")


@pytest.mark.parametrize("name", ["fair_share", "rate", "burst", "max_delay"])
def test_serve_settings_refuse_the_removed_tenant_knobs(name):
    with pytest.raises(TypeError):
        ServeSettings(**{name: 1.0})


# -- live server helpers -------------------------------------------------------

def _config(**overrides) -> RunConfig:
    base = dict(dataset="fb", batch_size=1_000, algorithm="pr",
                mode="abr_usc", telemetry="basic")
    base.update(overrides)
    return RunConfig(**base)


async def _until_visible(client: ServeClient, min_batches: int = 1) -> dict:
    for _ in range(500):
        stats = await client.stats()
        if stats["lag_edges"] == 0 and stats["batches"] >= min_batches:
            return stats
        await client.flush()
        await asyncio.sleep(0.01)
    raise AssertionError(f"edges never became visible: {stats}")


async def _caught_up(client: ServeClient, timeout: float = 10.0) -> dict:
    """Poll ``stats``, never sending ``flush``, until nothing is lagging."""
    deadline = time.monotonic() + timeout
    while True:
        stats = await client.stats()
        if stats["lag_edges"] == 0:
            return stats
        assert time.monotonic() < deadline, f"edges stranded: {stats}"
        await asyncio.sleep(0.005)


async def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.002)


def _hold(obj, name: str) -> tuple[threading.Event, threading.Event]:
    """Make calls to ``obj.name`` wait for a release; returns the events
    (entered, release).  Holding a driver call keeps the driver busy."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(obj, name)

    def held(*args, **kwargs):
        entered.set()
        release.wait(timeout=30.0)
        return original(*args, **kwargs)

    setattr(obj, name, held)
    return entered, release


# -- the tentpole invariant: live multi-client ingest == offline replay -------

def test_multi_client_ingest_matches_offline_replay():
    """N asyncio clients interleaving edges must leave the pipeline in a
    state bit-identical to the same edges replayed as one offline stream
    in arrival order with the same batch boundaries."""
    config = _config()
    settings = ServeSettings(batch_target=700, capture=True)
    handle = start_server_thread(config, settings)
    try:
        async def drive():
            clients = [
                await ServeClient.connect(handle.host, handle.port)
                for i in range(3)
            ]
            nv = clients[0].hello_info["num_vertices"]
            rng = np.random.default_rng(11)
            for _ in range(6):
                for i, client in enumerate(clients):
                    n = 100 + 37 * i
                    src = rng.integers(0, nv, size=n)
                    dst = rng.integers(0, nv, size=n)
                    reply = await client.send_edges(
                        [[int(s), int(d)] for s, d in zip(src, dst)]
                    )
                    assert reply["ok"], reply
            await _until_visible(clients[0])
            for client in clients:
                await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()

    server = handle.server
    captured = server.captured
    sizes = server.state.batch_sizes
    total = sum(sizes)
    assert total == len(captured["src"]) == 3 * (100 + 137 + 174) * 2
    assert server.state.visible_seq == total

    offline = config.build_pipeline()
    start = 0
    for index, size in enumerate(sizes):
        stop = start + size
        deletes = captured["is_delete"][start:stop]
        offline.step(batch=Batch(
            batch_id=index,
            src=np.asarray(captured["src"][start:stop], dtype=np.int64),
            dst=np.asarray(captured["dst"][start:stop], dtype=np.int64),
            weight=np.asarray(captured["weight"][start:stop],
                              dtype=np.float64),
            is_delete=np.asarray(deletes) if any(deletes) else None,
        ))
        start = stop

    assert offline.metrics == server.pipeline.metrics
    np.testing.assert_array_equal(
        offline.compute.engine.as_array(),
        server.pipeline.compute.engine.as_array(),
    )
    assert offline.graph.num_edges == server.pipeline.graph.num_edges


# -- protocol: queries, watermark, errors -------------------------------------

def test_queries_watermark_and_protocol_errors():
    handle = start_server_thread(
        _config(), ServeSettings(batch_target=1_000)
    )
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            assert client.hello_info["dataset"] == "fb"
            reply = await client.send_edges([[0, 1], [1, 2], [2, 0]])
            assert reply["ok"] and reply["seq"] == 3
            stats = await _until_visible(client)
            assert stats["visible_seq"] == 3

            topk = await client.query("pagerank_topk", k=2)
            assert topk["ok"] and len(topk["ranks"]) == 2
            assert topk["watermark"]["visible_seq"] == 3
            ranks = dict((v, r) for v, r in topk["ranks"])
            assert all(r > 0.0 for r in ranks.values())

            degree = await client.query("degree", vertex=1)
            assert degree["ok"]
            assert degree["out_degree"] == 1 and degree["in_degree"] == 1

            wrong = await client.query("triangles")
            assert not wrong["ok"] and wrong["error"] == "bad_query"
            assert not (await client.query("nope"))["ok"]
            bad_vertex = await client.query("degree", vertex=-5)
            assert not bad_vertex["ok"]

            assert (await client.request({"op": "wat"}))["error"] == (
                "unknown_op"
            )
            empty = await client.request({"op": "edges", "edges": []})
            assert empty["error"] == "bad_edges"
            mangled = await client.request(
                {"op": "edges", "edges": [[0, "x"]]}
            )
            assert mangled["error"] == "bad_edges"
            oob = await client.send_edges([[0, 10**9]])
            assert oob["error"] == "vertex_out_of_range"
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            line = await client._reader.readline()
            assert b"bad_json" in line
            await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()


@pytest.mark.parametrize("algorithm", ["pr", "pr_static"])
def test_degree_query_matches_a_bincount_of_the_edges(algorithm):
    """``degree`` reads the degree arrays, which a graph keeps without
    in-lists (neither ``pr`` nor ``pr_static`` reads them): the answers are
    JSON integers."""
    inserts = [[0, 1], [1, 2], [2, 0], [0, 2], [3, 1], [0, 1], [4, 4], [3, 0]]
    deletes = [[3, 0, 1.0, True], [5, 1, 1.0, True]]  # the second is absent
    live = set(map(tuple, inserts)) - {(3, 0)}
    src, dst = np.array(sorted(live)).T
    handle = start_server_thread(
        _config(algorithm=algorithm), ServeSettings(batch_target=1_000)
    )
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            assert (await client.send_edges(inserts))["ok"]
            await _until_visible(client)
            assert (await client.send_edges(deletes))["ok"]
            await _until_visible(client, min_batches=2)
            answers = [await client.query("degree", vertex=v) for v in range(6)]
            await client.close()
            return answers

        answers = asyncio.run(drive())
    finally:
        handle.stop()
    assert not handle.server.pipeline.graph.keeps_in_lists
    assert all(reply["ok"] for reply in answers)
    assert [r["out_degree"] for r in answers] == np.bincount(src, minlength=6).tolist()
    assert [r["in_degree"] for r in answers] == np.bincount(dst, minlength=6).tolist()


def test_triangle_count_query_from_live_snapshot():
    handle = start_server_thread(
        _config(algorithm="triangles"),
        ServeSettings(batch_target=1_000),
    )
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            reply = await client.send_edges([[0, 1], [1, 2], [2, 0]])
            assert reply["ok"]
            await _until_visible(client)
            count = await client.query("triangles")
            assert count["ok"] and count["count"] >= 1
            wrong = await client.query("pagerank_topk")
            assert not wrong["ok"] and wrong["error"] == "bad_query"
            await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()


# -- the admission window, live -------------------------------------------------

def test_full_window_holds_the_reply_and_oversize_is_refused():
    """A submission that would overfill the window gets its ack only once
    a step makes earlier edges visible; one larger than the window is
    refused and admits nothing."""
    handle = start_server_thread(_config(), ServeSettings(max_pending=100))
    server = handle.server
    entered, release = _hold(server.pipeline, "step")
    try:
        async def drive():
            first = await ServeClient.connect(handle.host, handle.port)
            waiter = await ServeClient.connect(handle.host, handle.port)
            assert (await first.send_edges([[0, v] for v in range(60)]))["ok"]
            assert await asyncio.to_thread(entered.wait, 10.0)
            assert (await first.send_edges([[1, v] for v in range(30)]))["ok"]
            held = asyncio.ensure_future(
                waiter.send_edges([[2, v] for v in range(20)])
            )
            await asyncio.sleep(0.3)
            assert not held.done()
            too_large = await first.send_edges([[3, v] for v in range(101)])
            assert too_large == {"ok": False, "error": "too_large"}
            stats = await first.stats()
            assert stats["admitted_seq"] == 90 and stats["visible_seq"] == 0
            assert stats["admission"]["pending_edges"] == 90
            release.set()
            reply = await asyncio.wait_for(held, 10.0)
            assert reply["ok"] and reply["seq"] == 110
            stats = await _caught_up(first)
            assert stats["visible_seq"] == 110
            assert stats["rejected_requests"] == 1
            assert stats["admission"]["pending_edges"] == 0
            for client in (first, waiter):
                await client.close()

        asyncio.run(drive())
    finally:
        release.set()
        handle.stop()


def test_loadgen_client_ends_on_a_rejection():
    """A rejection is final: loadgen reports it instead of resending."""
    handle = start_server_thread(_config(), ServeSettings(max_pending=100))
    try:
        report = asyncio.run(asyncio.wait_for(
            run_loadgen(handle.host, handle.port, clients=1, edges=200,
                        submit_size=200),
            timeout=20.0,
        ))
    finally:
        handle.stop()
    assert report["edges_sent"] == 0
    assert report["rejected_requests"] == 1
    assert report["errors"] == {"loadgen-0": "too_large"}
    assert report["server"]["rejected_requests"] == 1


# -- graceful drain ------------------------------------------------------------

def test_drain_flushes_partial_buffer_and_stops_cleanly():
    """stop() must make every admitted edge visible (a final 'drain' cut
    flushes the partial buffer), then stop the driver thread."""
    handle = start_server_thread(
        _config(),
        # Nothing cuts on size: a huge target.
        ServeSettings(batch_target=1_000_000),
    )
    server = handle.server
    # A driver held busy answering a query leaves new edges buffered.
    entered, release = _hold(server._driver, "_answer")
    stopper = threading.Thread(target=handle.stop)

    async def drive():
        querier = await ServeClient.connect(handle.host, handle.port)
        held = asyncio.ensure_future(querier.query("degree", vertex=0))
        assert await asyncio.to_thread(entered.wait, 10.0)
        client = await ServeClient.connect(handle.host, handle.port)
        reply = await client.send_edges([[v, v + 1] for v in range(10)])
        assert reply["ok"]
        stats = await client.stats()
        assert stats["buffer_edges"] == 10 and stats["batches"] == 0
        await client.close()
        stopper.start()
        await _wait_until(lambda: server.admission.draining)
        release.set()  # the driver now finds the drain cut, then _STOP
        assert (await asyncio.wait_for(held, 10.0))["ok"]
        await querier.close()

    try:
        asyncio.run(drive())
    finally:
        release.set()
    stopper.join(timeout=60.0)
    assert not stopper.is_alive()
    assert server.state.visible_seq == 10
    assert server.state.batches_done == 1
    assert server.batcher.cut_reasons.get("drain") == 1
    assert server.admission.draining
    assert not server._driver.is_alive()
    assert server._driver.error is None
    handle.stop()  # idempotent


# -- work-conserving hand-off ----------------------------------------------------

def test_idle_driver_takes_a_lone_submission_at_once():
    handle = start_server_thread(_config(), ServeSettings())
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            reply = await client.send_edges([[0, 1], [1, 2]])
            assert reply["ok"]
            stats = await _caught_up(client)
            assert stats["visible_seq"] == 2 and stats["batches"] == 1
            assert stats["cut_reasons"] == {"idle": 1}
            await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()


def test_submissions_during_a_step_coalesce_into_one_batch():
    """While the driver is inside a step new submissions buffer; the
    moment it finishes, everything buffered becomes the next batch."""
    handle = start_server_thread(_config(), ServeSettings(capture=True))
    entered, release = _hold(handle.server.pipeline, "step")
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            assert (await client.send_edges([[0, 1]]))["ok"]
            assert await asyncio.to_thread(entered.wait, 10.0)
            for v in range(1, 6):
                reply = await client.send_edges([[v, v + 1], [v + 1, v]])
                assert reply["ok"]
            assert (await client.stats())["buffer_edges"] == 10
            release.set()
            stats = await _caught_up(client)
            assert stats["batches"] == 2
            assert stats["cut_reasons"] == {"idle": 2}
            await client.close()

        asyncio.run(drive())
    finally:
        release.set()
        handle.stop()
    assert handle.server.state.batch_sizes == [1, 10]


def test_no_edge_is_stranded_without_a_timer():
    """Lost wake-up stress: bursts from six clients, with queries, a
    short thread switch interval and a one-slot queue in the mix, must
    each become visible with no flush op.  A lost wake-up strands edges
    and trips the deadline; a cut that overtakes an earlier one (two
    target cuts racing for the freed slot, or an idle cut passing a
    waiting one) leaves the watermark behind."""
    settings = ServeSettings(batch_target=150, queue_depth=1, capture=True)
    handle = start_server_thread(_config(), settings)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        async def drive():
            clients = [
                await ServeClient.connect(handle.host, handle.port)
                for i in range(6)
            ]
            nv = clients[0].hello_info["num_vertices"]
            rng = np.random.default_rng(5)

            async def burst(client):
                for __ in range(int(rng.integers(1, 4))):
                    n = int(rng.integers(1, 200))
                    edges = rng.integers(0, nv, size=(n, 2)).tolist()
                    assert (await client.send_edges(edges))["ok"]
                if rng.random() < 0.5:
                    reply = await asyncio.wait_for(
                        client.query("pagerank_topk", k=3), timeout=10.0
                    )
                    assert reply["ok"]

            for __ in range(40):
                await asyncio.gather(*(burst(c) for c in clients))
                await _caught_up(clients[0], timeout=10.0)
            for client in clients:
                await client.close()

        asyncio.run(drive())
    finally:
        sys.setswitchinterval(switch)
        handle.stop()
    state = handle.server.state
    assert state.visible_seq == state.admitted_seq == sum(state.batch_sizes)
    assert "flush" not in handle.server.batcher.cut_reasons


def test_query_wakes_an_idle_driver():
    """With no timed poll left, only the query's wake-up can get an idle
    driver to answer; nothing else arrives to wake it."""
    handle = start_server_thread(_config(), ServeSettings())
    server = handle.server
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            assert (await client.send_edges([[0, 1]]))["ok"]
            await _caught_up(client)
            for __ in range(20):
                await _wait_until(lambda: server._driver_idle)
                reply = await asyncio.wait_for(
                    client.query("degree", vertex=0), timeout=1.0
                )
                assert reply["ok"] and reply["out_degree"] == 1
            await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()


def test_query_arriving_as_the_driver_turns_idle_is_answered():
    """A query queued after the driver answered its last batch of queries
    but before it blocks finds it busy, so gets no wake token: the driver
    must see it on its way to idle instead of blocking on it."""
    handle = start_server_thread(_config(), ServeSettings())
    server = handle.server
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            await _wait_until(lambda: server._driver_idle)
            entered, release = _hold(server, "_next_item")
            try:
                first = await asyncio.wait_for(
                    client.query("degree", vertex=0), timeout=10.0
                )
                assert first["ok"]
                assert await asyncio.to_thread(entered.wait, 10.0)
                second = asyncio.ensure_future(
                    client.query("degree", vertex=0)
                )
                await _wait_until(lambda: not server._query_queue.empty())
            finally:
                release.set()
            assert (await asyncio.wait_for(second, timeout=2.0))["ok"]
            await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()


# -- malformed input is answered, never coerced --------------------------------

@pytest.fixture(scope="module")
def served():
    handle = start_server_thread(_config(), ServeSettings())
    yield handle
    handle.stop()


@pytest.mark.parametrize("payload, error", [
    ({"op": "edges", "edges": [[2**70, 2]]}, "vertex_out_of_range"),
    ({"op": "edges", "edges": [[1.7, 2]]}, "bad_edges"),
    ({"op": "edges", "edges": [[True, 2]]}, "bad_edges"),
    ({"op": "edges", "edges": [["3", 2]]}, "bad_edges"),
    ({"op": "edges", "edges": [[1, 2, float("nan")]]}, "bad_edges"),
    ({"op": "edges", "edges": [[1, 2, float("-inf")]]}, "bad_edges"),
    ({"op": "edges", "edges": [[1, 2, 1.0, "false"]]}, "bad_edges"),
    ({"op": "query", "what": "degree", "vertex": 1.9}, "bad_query"),
    ({"op": "query", "what": "pagerank_topk", "k": -5}, "bad_query"),
], ids=["id_overflows_int64", "float_id", "bool_id", "string_id",
        "nan_weight", "infinite_weight", "string_delete_flag",
        "float_degree_vertex", "negative_topk_k"])
def test_malformed_request_is_answered_and_connection_kept(served, payload,
                                                           error):
    async def drive():
        client = await ServeClient.connect(served.host, served.port)
        before = await client.stats()
        reply = await client.request(payload)
        assert reply["ok"] is False and reply["error"] == error, reply
        after = await client.stats()
        assert after["ok"] and after["admitted_seq"] == before["admitted_seq"]
        await client.close()

    asyncio.run(drive())


def test_hello_naming_a_tenant_is_still_answered(served):
    async def drive():
        client = await ServeClient.connect(served.host, served.port)
        reply = await client.request({"op": "hello", "tenant": "x"})
        await client.close()
        return reply

    reply = asyncio.run(drive())
    assert reply["ok"] and reply["dataset"] == "fb"
    assert reply["num_vertices"] == served.server.pipeline.graph.num_vertices


# -- heartbeat integration -----------------------------------------------------

def test_serve_heartbeat_carries_service_section(tmp_path):
    from repro.telemetry.heartbeat import HeartbeatMonitor, read_heartbeat

    monitor = HeartbeatMonitor(tmp_path / "hb.json", label="serve fb")
    handle = start_server_thread(
        _config(), ServeSettings(batch_target=50),
        monitor=monitor,
    )
    try:
        async def drive():
            client = await ServeClient.connect(handle.host, handle.port)
            reply = await client.send_edges([[v, v + 1] for v in range(60)])
            assert reply["ok"]
            await _until_visible(client)
            await client.close()

        asyncio.run(drive())
    finally:
        handle.stop()
    beat = read_heartbeat(tmp_path / "hb.json")
    assert beat is not None and "mono" in beat
    serve = beat["serve"]
    assert serve["visible_seq"] >= 50
    assert serve["ingest_to_visible_p99"] >= 0.0
    from repro.telemetry.heartbeat import render_heartbeat

    frame = render_heartbeat(beat, now=beat["ts"])
    assert "serve:" in frame and "queries=" in frame


# -- CLI surface ---------------------------------------------------------------

def test_cli_parser_accepts_serve_and_loadgen():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["serve", "fb", "--serve-batch", "500", "--max-pending", "5000",
         "--checkpoint", "/tmp/ckpt", "--every", "7"]
    )
    assert args.command == "serve"
    assert args.serve_batch == 500 and args.max_pending == 5000
    assert args.every == 7
    args = parser.parse_args(
        ["loadgen", "--port", "1234", "--query", "triangles", "--json"]
    )
    assert args.command == "loadgen"
    assert args.port == 1234 and args.query == "triangles" and args.json


@pytest.mark.parametrize("flag", ["--fair-share", "--rate", "--burst",
                                  "--max-delay"])
def test_removed_serve_flags_exit_2(flag, capsys):
    """Parsed only: a flag that is accepted again fails here instead of
    starting a server."""
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(["serve", "fb", flag, "1"])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _serve_parser():
    from repro.cli import build_parser

    return build_parser()._subparsers._group_actions[0].choices["serve"]


def test_serve_options_are_pinned():
    """Every serve knob is listed here, so adding one is a visible diff."""
    assert [f.name for f in dataclasses.fields(ServeSettings)] == [
        "batch_target", "queue_depth", "max_pending", "checkpoint_dir",
        "checkpoint_every", "checkpoint_keep", "capture",
    ]
    flags = [
        action.option_strings[-1] for action in _serve_parser()._actions
        if action.option_strings and action.dest != "help"
    ]
    assert flags == [
        "--host", "--port", "--port-file", "--batch-size", "--algorithm",
        "--mode", "--telemetry", "--serve-batch", "--queue-depth",
        "--max-pending", "--checkpoint", "--every", "--heartbeat", "--prom",
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    named = [
        str(path.relative_to(src)) for path in sorted(src.rglob("*.py"))
        if "REPRO_SERVE_" in path.read_text(encoding="utf-8")
    ]
    assert named == []


def test_serve_flag_defaults_are_the_settings_defaults():
    """`repro serve` with no flags serves with ``ServeSettings()``."""
    args = _serve_parser().parse_args(["fb"])
    assert args.queue_depth == ServeSettings.queue_depth
    assert args.max_pending == ServeSettings.max_pending
    assert args.batch_size == ServeSettings.batch_target


def test_run_config_from_serve_args_is_open_ended():
    import argparse

    args = argparse.Namespace(
        dataset="fb", batch_size=500, algorithm="pr", mode="abr_usc",
        telemetry=None,
    )
    config = RunConfig.from_serve_args(args)
    assert config.num_batches is None
    assert config.telemetry == "basic"
    assert config.dataset == "fb" and config.batch_size == 500
