"""Live-run heartbeat: atomic beats, the `repro top` renderer, anomaly
math, and crash durability (a SIGKILLed run leaves readable artifacts).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.telemetry.anomaly import AnomalyFlag, rolling_mad_flags
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.heartbeat import (
    HEARTBEAT_FILENAME,
    HeartbeatMonitor,
    read_heartbeat,
    render_heartbeat,
)


# -- the beat ------------------------------------------------------------------

def _instrumented_telemetry() -> Telemetry:
    tel = Telemetry("full")
    with tel.span("stage.update"):
        pass
    with tel.span("stage.compute"):
        pass
    return tel


def test_beat_writes_atomic_payload(tmp_path):
    path = tmp_path / "hb.json"
    monitor = HeartbeatMonitor(
        path, run_id="r1", label="fb @ 500", total_batches=4
    )
    tel = _instrumented_telemetry()
    monitor.note_checkpoint()
    payload = monitor.beat(
        tel, batch_id=0, batch_edges=500, wall_seconds=0.25
    )
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert not list(tmp_path.glob("*.tmp"))
    assert payload["schema"] == 1
    assert payload["run_id"] == "r1"
    assert payload["batches_done"] == 1
    assert payload["total_batches"] == 4
    assert payload["throughput_eps"] == pytest.approx(500 / 0.25)
    assert payload["batch_seconds"]["last"] == 0.25
    assert set(payload["stages"]) == {"update", "compute"}
    assert payload["checkpoint"]["age_s"] >= 0.0


def test_stage_deltas_are_per_beat_not_cumulative(tmp_path):
    monitor = HeartbeatMonitor(tmp_path / "hb.json")
    tel = Telemetry("full")
    with tel.span("stage.update"):
        time.sleep(0.002)
    first = monitor.beat(tel, batch_id=0, batch_edges=10, wall_seconds=0.01)
    # No new stage work: the next beat reports no stage deltas.
    second = monitor.beat(tel, batch_id=1, batch_edges=10, wall_seconds=0.01)
    assert first["stages"]["update"] > 0.0
    assert "update" not in second["stages"]
    with tel.span("stage.update"):
        time.sleep(0.002)
    third = monitor.beat(tel, batch_id=2, batch_edges=10, wall_seconds=0.01)
    assert third["stages"]["update"] < tel.snapshot().spans["stage.update"].total


def test_null_telemetry_degrades_to_throughput_only(tmp_path):
    monitor = HeartbeatMonitor(tmp_path / "hb.json")
    payload = monitor.beat(
        NULL_TELEMETRY, batch_id=0, batch_edges=100, wall_seconds=0.5
    )
    assert payload["throughput_eps"] == pytest.approx(200.0)
    assert payload["stages"] == {}
    assert "shards" not in payload and "transport" not in payload


def test_beat_refreshes_prometheus_textfile_in_run(tmp_path):
    prom = tmp_path / "metrics.prom"
    monitor = HeartbeatMonitor(
        None, prom_path=prom, prom_labels={"dataset": "fb"}
    )
    tel = Telemetry("full")
    tel.count("pipeline.batches", 1)
    monitor.beat(tel, batch_id=0, batch_edges=10, wall_seconds=0.01)
    text = prom.read_text()
    assert 'repro_pipeline_batches_total{dataset="fb"} 1' in text
    tel.count("pipeline.batches", 1)
    monitor.beat(tel, batch_id=1, batch_edges=10, wall_seconds=0.01)
    assert 'repro_pipeline_batches_total{dataset="fb"} 2' in prom.read_text()


def test_directory_path_resolves_to_heartbeat_json(tmp_path):
    monitor = HeartbeatMonitor(tmp_path)
    monitor.beat(NULL_TELEMETRY, batch_id=0, batch_edges=1, wall_seconds=0.1)
    assert (tmp_path / HEARTBEAT_FILENAME).exists()
    assert read_heartbeat(tmp_path)["batch_id"] == 0


def test_checkpoint_age_survives_wall_clock_step(tmp_path, monkeypatch):
    """An NTP/DST step between checkpoint and beat must not corrupt the
    reported checkpoint age: the arithmetic runs on the monotonic clock,
    the wall stamp is display-only."""
    import repro.telemetry.heartbeat as hb_mod

    clock = {"wall": 1_000_000.0, "mono": 500.0}
    monkeypatch.setattr(hb_mod.time, "time", lambda: clock["wall"])
    monkeypatch.setattr(hb_mod.time, "monotonic", lambda: clock["mono"])
    monitor = HeartbeatMonitor(tmp_path / "hb.json")
    monitor.note_checkpoint()
    # The wall clock steps back a whole hour while 5 real seconds pass.
    clock["wall"] -= 3600.0
    clock["mono"] += 5.0
    payload = monitor.beat(
        NULL_TELEMETRY, batch_id=0, batch_edges=10, wall_seconds=0.01
    )
    assert payload["checkpoint"]["age_s"] == pytest.approx(5.0)
    assert payload["ts"] == clock["wall"]
    assert payload["mono"] == clock["mono"]
    # With a forward step the age still tracks real elapsed time.
    clock["wall"] += 7200.0
    clock["mono"] += 1.0
    again = monitor.beat(
        NULL_TELEMETRY, batch_id=1, batch_edges=10, wall_seconds=0.01
    )
    assert again["checkpoint"]["age_s"] == pytest.approx(6.0)


def test_render_ages_from_monotonic_stamp(tmp_path, monkeypatch):
    """`repro top` (no explicit now) ages the frame from the payload's
    monotonic stamp, so a wall-clock step can't flag a live run STALLED."""
    import repro.telemetry.heartbeat as hb_mod

    clock = {"wall": 1_000_000.0, "mono": 500.0}
    monkeypatch.setattr(hb_mod.time, "time", lambda: clock["wall"])
    monkeypatch.setattr(hb_mod.time, "monotonic", lambda: clock["mono"])
    monitor = HeartbeatMonitor(tmp_path / "hb.json")
    monitor.beat(NULL_TELEMETRY, batch_id=0, batch_edges=10, wall_seconds=0.01)
    data = read_heartbeat(tmp_path / "hb.json")
    # Wall clock jumps an hour ahead; only 2 real seconds pass.
    clock["wall"] += 3600.0
    clock["mono"] += 2.0
    frame = render_heartbeat(data, max_age=30.0)
    assert "heartbeat 2.0s old" in frame
    assert "STALLED" not in frame
    # Explicit `now` keeps wall semantics for archived heartbeats.
    archived = render_heartbeat(data, now=data["ts"] + 120.0, max_age=30.0)
    assert "STALLED" in archived


# -- reading + rendering -------------------------------------------------------

def test_read_heartbeat_returns_none_when_absent_or_invalid(tmp_path):
    assert read_heartbeat(tmp_path / "missing.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert read_heartbeat(bad) is None


def test_read_heartbeat_tolerates_garbage_and_non_objects(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00garbage\x00\x80")
    assert read_heartbeat(binary) is None
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"schema": 1, "ts": 123')
    assert read_heartbeat(truncated) is None
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert read_heartbeat(empty) is None
    # Valid JSON that isn't an object is just as unusable for a renderer.
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    assert read_heartbeat(scalar) is None
    listdoc = tmp_path / "list.json"
    listdoc.write_text("[1, 2, 3]")
    assert read_heartbeat(listdoc) is None


def test_render_heartbeat_frame(tmp_path):
    monitor = HeartbeatMonitor(
        tmp_path / "hb.json", run_id="r1", label="fb @ 500 [pr, abr_usc]",
        total_batches=8,
    )
    tel = _instrumented_telemetry()
    monitor.beat(tel, batch_id=2, batch_edges=500, wall_seconds=0.1)
    data = read_heartbeat(tmp_path / "hb.json")
    frame = render_heartbeat(data, now=data["ts"] + 1.0)
    assert "fb @ 500 [pr, abr_usc]" in frame
    assert "heartbeat 1.0s old" in frame
    assert "batches: 1/8" in frame
    assert "throughput: 5.00k edges/s" in frame
    assert "stages (last batch): compute=" in frame
    assert "STALLED" not in frame
    stale = render_heartbeat(data, now=data["ts"] + 120.0, max_age=30.0)
    assert "STALLED" in stale


def test_top_once_via_cli(tmp_path, capsys):
    from repro.cli import main

    monitor = HeartbeatMonitor(tmp_path / "hb.json", label="fb run")
    monitor.beat(NULL_TELEMETRY, batch_id=3, batch_edges=100, wall_seconds=0.1)
    assert main(["top", str(tmp_path / "hb.json"), "--once"]) == 0
    out = capsys.readouterr().out
    assert "fb run" in out and "last batch id: 3" in out
    assert main(["top", str(tmp_path / "nope.json"), "--once"]) == 1


def test_top_loop_waits_on_corrupt_heartbeat_and_restores_screen(
    tmp_path, monkeypatch, capsys
):
    """The watch loop renders "waiting" (not a crash) over a torn or
    corrupt heartbeat, and Ctrl-C leaves the terminal on the primary
    screen buffer with exit 0."""
    import time as time_mod

    from repro.cli import main

    torn = tmp_path / "hb.json"
    torn.write_text('{"schema": 1, "ts":')
    ticks = {"n": 0}

    def interrupt_on_second_tick(_interval):
        ticks["n"] += 1
        if ticks["n"] >= 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(time_mod, "sleep", interrupt_on_second_tick)
    assert main(["top", str(torn), "--interval", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\x1b[?1049h")   # alternate screen entered...
    assert out.endswith("\x1b[?1049l")     # ...and restored on the way out
    assert "waiting for heartbeat" in out


# -- anomaly math --------------------------------------------------------------

def test_rolling_mad_flags_spike_not_trend():
    steady = [1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 1.0]
    assert rolling_mad_flags(steady) == []
    spiked = steady[:5] + [9.0] + steady[5:]
    flags = rolling_mad_flags(spiked)
    assert [f.index for f in flags] == [5]
    flag = flags[0]
    assert isinstance(flag, AnomalyFlag)
    assert flag.value == 9.0
    assert flag.baseline == pytest.approx(1.0, abs=0.05)
    assert flag.z > 3.5
    assert flag.ratio == pytest.approx(9.0 / flag.baseline)
    # A gradual ramp is a level shift, not an anomaly.
    ramp = [1.0 * 1.08 ** i for i in range(16)]
    assert rolling_mad_flags(ramp) == []


def test_rolling_mad_needs_history_and_handles_flat_series():
    # Too little history: nothing can be flagged.
    assert rolling_mad_flags([1.0, 100.0]) == []
    # A perfectly flat series has MAD 0; the relative floor keeps a true
    # spike flaggable without dividing by zero.
    flat = [2.0] * 8 + [20.0]
    flags = rolling_mad_flags(flat)
    assert [f.index for f in flags] == [8]
    assert rolling_mad_flags([2.0] * 10) == []
    assert rolling_mad_flags([]) == []


# -- crash durability ----------------------------------------------------------

def test_killed_run_leaves_readable_heartbeat_and_trace(tmp_path):
    """SIGKILL mid-run: the heartbeat and trace stay parseable (atomic
    replace + line-oriented trace with torn-tail tolerance)."""
    from repro.pipeline.tracing import read_trace_document

    hb = tmp_path / "hb.json"
    trace = tmp_path / "trace.jsonl"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run", "fb",
            "--batch-size", "200", "--num-batches", "500",
            "--algorithm", "pr", "--trace", str(trace),
            "--heartbeat", str(hb),
        ],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            data = read_heartbeat(hb)
            if data is not None and data["batches_done"] >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("run finished before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("no heartbeat appeared within 60s")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    data = read_heartbeat(hb)
    assert data is not None
    assert data["batches_done"] >= 2
    assert data["run_id"]
    rendered = render_heartbeat(data, max_age=0.0)
    assert "STALLED" in rendered
    doc = read_trace_document(trace)
    assert len(doc.events) >= 1  # whatever was flushed before the kill
    assert doc.summary is None  # close() never ran


def test_sigint_sharded_run_checkpoints_and_exits_130(tmp_path):
    """Ctrl-C on `repro run`: the run stops at a batch boundary, writes a
    checkpoint (even though --every would not have fired yet), and exits
    with 130.  (Named for the two-shard run it drove while the sharded
    runtime existed; the interrupt path it covers is the serial one.)"""
    hb = tmp_path / "hb.json"
    ckpt = tmp_path / "ckpt"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run", "fb",
            "--batch-size", "200", "--num-batches", "500",
            "--algorithm", "pr",
            "--checkpoint", str(ckpt), "--every", "1000",
            "--heartbeat", str(hb),
        ],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            data = read_heartbeat(hb)
            if data is not None and data["batches_done"] >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("run finished before it could be interrupted")
            time.sleep(0.05)
        else:
            pytest.fail("no heartbeat appeared within 60s")
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    assert proc.returncode == 130
    assert "interrupted" in stderr.decode()
    assert "progress checkpointed" in stderr.decode()
    # --every 1000 never fired on its own: only the interrupt path wrote.
    written = sorted(ckpt.glob("ckpt-*.ckpt"))
    assert len(written) >= 1
