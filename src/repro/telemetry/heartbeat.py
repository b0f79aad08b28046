"""Live run monitoring: atomic heartbeat file + terminal renderer.

While a run is in flight the only artifacts on disk today are written at
close (trace summary, Prometheus textfile), so a long run is a black box
until it ends.  :class:`HeartbeatMonitor` fixes that: the pipeline calls
:meth:`HeartbeatMonitor.beat` after every batch and the monitor writes a
small JSON document — throughput, batch-latency quantiles over a rolling
window, per-stage latency for the last batch, checkpoint age — via a temp
file + ``os.replace`` so a concurrent reader (``repro top``, a crash
post-mortem) never sees a torn file.

The same beat optionally refreshes the Prometheus textfile in-run, so a
scraping ``node_exporter`` sees live counters rather than only the
end-of-run flush.

``repro top RUNDIR`` tails the heartbeat (:func:`read_heartbeat` +
:func:`render_heartbeat`); ``--once`` renders a single frame for scripts
and smoke tests.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path

from .export import write_prometheus_textfile

__all__ = [
    "HEARTBEAT_FILENAME",
    "HeartbeatMonitor",
    "read_heartbeat",
    "render_heartbeat",
]

#: Default file name when a directory is given instead of a file.
HEARTBEAT_FILENAME = "heartbeat.json"

#: Beats retained for the rolling throughput / quantile window.
DEFAULT_WINDOW = 32


def _resolve(path) -> Path:
    path = Path(path)
    if path.is_dir():
        return path / HEARTBEAT_FILENAME
    return path


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a small unsorted sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + fraction * (ordered[high] - ordered[low])


class HeartbeatMonitor:
    """Writes the per-batch heartbeat (and optional in-run Prometheus file).

    Args:
        path: heartbeat file (or directory to hold ``heartbeat.json``);
            ``None`` disables the JSON heartbeat (useful when only the
            in-run Prometheus refresh is wanted).
        prom_path: Prometheus textfile to refresh on every beat; ``None``
            disables the refresh.
        prom_labels: constant labels for the Prometheus export.
        run_id: run identifier stamped into the heartbeat.
        label: human run label ("fb @ 500 [pr, abr_usc]").
        total_batches: planned batch count, if known (progress rendering).
        window: beats in the rolling throughput/quantile window.
    """

    def __init__(self, path=None, *, prom_path=None, prom_labels=None,
                 run_id: str = "", label: str = "",
                 total_batches: int | None = None,
                 window: int = DEFAULT_WINDOW):
        self.path = None if path is None else _resolve(path)
        self.prom_path = None if prom_path is None else Path(prom_path)
        self.prom_labels = prom_labels
        self.run_id = run_id
        self.label = label
        self.total_batches = total_batches
        self.beats = 0
        self._window: deque = deque(maxlen=max(2, window))
        self._last_checkpoint: float | None = None
        self._last_checkpoint_mono: float | None = None
        self._last_stage_totals: dict[str, tuple[int, float]] = {}

    def note_checkpoint(self) -> None:
        """Record that a checkpoint was just written (age resets to 0).

        The wall-clock stamp is kept for display; the age arithmetic uses
        the monotonic clock so an NTP step or DST change cannot produce a
        negative or wildly wrong checkpoint age.
        """
        self._last_checkpoint = time.time()
        self._last_checkpoint_mono = time.monotonic()

    # -- the per-batch beat --------------------------------------------------
    def _stage_deltas(self, snapshot) -> dict[str, float]:
        """Per-stage seconds spent since the previous beat."""
        deltas: dict[str, float] = {}
        if snapshot is None:
            return deltas
        for name, stat in snapshot.spans.items():
            if not name.startswith("stage."):
                continue
            prev_count, prev_total = self._last_stage_totals.get(name, (0, 0.0))
            if stat.count > prev_count:
                deltas[name[len("stage."):]] = stat.total - prev_total
            self._last_stage_totals[name] = (stat.count, stat.total)
        return deltas

    def beat(self, telemetry, *, batch_id: int, batch_edges: int,
             wall_seconds: float, serve: dict | None = None) -> dict:
        """Record one completed batch and rewrite the heartbeat file.

        Args:
            telemetry: the run's telemetry backend (``snapshot()`` is read
                for stage spans and the ledger drop counter; the null
                backend degrades to throughput-only beats).
            batch_id: id of the batch that just completed.
            batch_edges: edge events applied by that batch.
            wall_seconds: wall-clock seconds the batch took end to end.
            serve: optional live-ingest service section (``repro serve``:
                queue depth, pending edges, watermarks) embedded verbatim.

        Returns the payload written (also returned when ``path`` is None,
        so callers can test/forward it).

        The payload carries two clocks: ``ts`` (wall, for humans) and
        ``mono`` (monotonic, for age arithmetic — same-host readers like
        ``repro top`` compute staleness from it, immune to clock steps).
        """
        now = time.time()
        mono = time.monotonic()
        snapshot = telemetry.snapshot() if telemetry.enabled else None
        stages = self._stage_deltas(snapshot)
        self._window.append((batch_edges, wall_seconds))
        self.beats += 1

        window_edges = sum(edges for edges, _ in self._window)
        window_seconds = sum(seconds for _, seconds in self._window)
        batch_times = [seconds for _, seconds in self._window]
        payload: dict = {
            "schema": 1,
            "run_id": self.run_id,
            "label": self.label,
            "pid": os.getpid(),
            "ts": now,
            "mono": mono,
            "batch_id": batch_id,
            "batches_done": self.beats,
            "total_batches": self.total_batches,
            "batch_edges": batch_edges,
            "throughput_eps": (
                window_edges / window_seconds if window_seconds > 0 else 0.0
            ),
            "batch_seconds": {
                "last": wall_seconds,
                "p50": _quantile(batch_times, 0.50),
                "p95": _quantile(batch_times, 0.95),
                "p99": _quantile(batch_times, 0.99),
            },
            "stages": stages,
        }
        if snapshot is not None:
            dropped = snapshot.counter("ledger.dropped")
            if dropped:
                payload["ledger_dropped"] = dropped
        if serve:
            payload["serve"] = serve
        if self._last_checkpoint is not None:
            payload["checkpoint"] = {
                "last_ts": self._last_checkpoint,
                "age_s": max(0.0, mono - self._last_checkpoint_mono),
            }

        if self.path is not None:
            self._write_atomic(payload)
        if self.prom_path is not None and snapshot is not None:
            write_prometheus_textfile(
                snapshot, self.prom_path, labels=self.prom_labels
            )
        return payload

    def _write_atomic(self, payload: dict) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.path)


# -- reading + rendering (repro top) ------------------------------------------

def read_heartbeat(path) -> dict | None:
    """Load one heartbeat document (accepts the file or its directory).

    Returns ``None`` for anything unreadable: missing file, permission
    problems, invalid or truncated JSON, undecodable bytes, or valid
    JSON that is not an object.  The writer's replaces are atomic, so
    these only arise from files that were never (whole) heartbeats — a
    watching ``repro top`` must render "waiting", not crash.
    """
    try:
        with open(_resolve(path), encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return data if isinstance(data, dict) else None


def _rate(value: float) -> str:
    for unit, scale in (("M", 1e6), ("k", 1e3)):
        if value >= scale:
            return f"{value / scale:.2f}{unit}"
    return f"{value:.1f}"


def render_heartbeat(data: dict, *, now: float | None = None,
                     max_age: float | None = None) -> str:
    """One terminal frame of a heartbeat document (``repro top``).

    ``max_age`` flags the run as stalled when the heartbeat timestamp is
    older than that many seconds (the writer beats every batch, so a
    stale file means the run is stuck, killed, or finished).

    Age arithmetic prefers the payload's monotonic stamp (``mono``) when
    the caller does not supply ``now``: writer and reader run on the same
    host, so monotonic differences are meaningful and immune to wall-clock
    steps (NTP, DST) that would otherwise yield negative or inflated ages
    and spurious STALLED flags.  An explicit ``now`` keeps wall-clock
    semantics (tests, rendering archived heartbeats).
    """
    if now is None and "mono" in data:
        age = max(0.0, time.monotonic() - data["mono"])
    else:
        now = time.time() if now is None else now
        age = max(0.0, now - data.get("ts", now))
    stalled = max_age is not None and age > max_age
    lines = []
    title = data.get("label") or data.get("run_id") or "run"
    lines.append(f"repro top — {title} (pid {data.get('pid', '?')}, "
                 f"heartbeat {age:.1f}s old"
                 f"{' — STALLED?' if stalled else ''})")
    done = data.get("batches_done", 0)
    total = data.get("total_batches")
    progress = f"{done}/{total}" if total else str(done)
    lines.append(
        f"  batches: {progress}   last batch id: {data.get('batch_id', '?')}"
        f"   throughput: {_rate(data.get('throughput_eps', 0.0))} edges/s"
    )
    bs = data.get("batch_seconds", {})
    lines.append(
        "  batch wall (s): "
        f"last={bs.get('last', 0.0):.4f} p50={bs.get('p50', 0.0):.4f} "
        f"p95={bs.get('p95', 0.0):.4f} p99={bs.get('p99', 0.0):.4f}"
    )
    stages = data.get("stages") or {}
    if stages:
        rendered = "  ".join(
            f"{name}={seconds * 1e3:.2f}ms"
            for name, seconds in sorted(stages.items())
        )
        lines.append(f"  stages (last batch): {rendered}")
    serve = data.get("serve") or {}
    if serve:
        lag = serve.get("admitted_seq", 0) - serve.get("visible_seq", 0)
        lines.append(
            f"  serve: clients={serve.get('clients', 0)} "
            f"queue={serve.get('queue_depth', 0)} "
            f"pending={serve.get('pending_edges', 0)} lag={lag} "
            f"queries={serve.get('queries_served', 0)} "
            f"p99_visible={serve.get('ingest_to_visible_p99', 0.0):.4f}s"
        )
    checkpoint = data.get("checkpoint")
    if checkpoint:
        lines.append(f"  checkpoint age: {checkpoint.get('age_s', 0.0):.1f}s")
    if data.get("ledger_dropped"):
        lines.append(
            f"  WARNING: {data['ledger_dropped']:.0f} decisions dropped "
            f"past the ledger cap"
        )
    return "\n".join(lines)
