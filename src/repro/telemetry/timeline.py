"""Flight-recorder timeline: cross-process event tracing for live runs.

The aggregate :class:`~repro.telemetry.core.TelemetrySnapshot` answers *how
much* time each span consumed; it cannot answer *when* — which stage a slow
batch sat in, which matrix-cell worker ran while another stalled, where a
straggler sat.  This module adds
the missing axis: a bounded ring-buffer :class:`TimelineRecorder` of
timestamped events that every ``full``-level telemetry backend carries
automatically, and a Chrome trace-event exporter so merged timelines open
directly in Perfetto (https://ui.perfetto.dev).

Design constraints, in order:

* **Off the metrics path.** The recorder only observes completed spans and
  instants; nothing reads it during a run, so RunMetrics stay bit-identical
  with the recorder on (the golden-parity suite asserts this).
* **Bounded.** Events land in a ``deque(maxlen=capacity)``; overflow evicts
  the oldest event and increments ``dropped`` — a run can never grow the
  recorder past ``capacity`` events (default 65536, override with
  ``REPRO_TIMELINE_CAP``).
* **Mergeable across clocks.** Events are stamped with the local
  :func:`time.perf_counter`; each process's snapshot carries a
  ``clock_offset`` that expresses every timestamp on one reference clock:
  ``aligned = ts + clock_offset``.  Processes on one host share that clock
  (offset 0.0); the ``shard``/``clock_offset`` fields stay in the schema
  so traces written by older multi-process runs still export.

Event tuples are ``(kind, name, ts, dur, batch_id)`` with ``kind`` already
in Chrome trace-event phase vocabulary: ``"X"`` for complete spans (``ts``
is the start, ``dur`` the duration, both in seconds), ``"i"`` for instant
events (``dur`` is 0).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, replace

__all__ = [
    "DEFAULT_TIMELINE_CAPACITY",
    "TimelineRecorder",
    "TimelineSnapshot",
    "merge_timeline_snapshots",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Ring-buffer slots per recorder unless ``REPRO_TIMELINE_CAP`` overrides.
DEFAULT_TIMELINE_CAPACITY = 65_536


def _capacity_from_env() -> int:
    raw = os.environ.get("REPRO_TIMELINE_CAP")
    if not raw:
        return DEFAULT_TIMELINE_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_TIMELINE_CAPACITY
    return max(1, value)


@dataclass(frozen=True)
class TimelineSnapshot:
    """Frozen, picklable timeline of one process (or one drain of it).

    Attributes:
        run_id: identifier shared by every process of one run.
        process: human label for the track ("coordinator", "shard-1", ...).
        shard: owning shard id, or ``None`` for the coordinator.
        pid: OS process id the events were recorded in.
        clock_offset: seconds to add to every ``ts`` to express it on the
            coordinator's clock (0.0 until a handshake assigns one).
        captured_at: local ``perf_counter`` at snapshot time.
        recorded: events ever pushed into the recorder (including dropped).
        dropped: events evicted by the ring bound.
        events: ``(kind, name, ts, dur, batch_id)`` tuples, oldest first.
    """

    run_id: str = ""
    process: str = ""
    shard: int | None = None
    pid: int = 0
    clock_offset: float = 0.0
    captured_at: float = 0.0
    recorded: int = 0
    dropped: int = 0
    events: tuple = ()

    def shifted(self, offset: float) -> "TimelineSnapshot":
        """This snapshot with ``offset`` seconds added to its clock offset."""
        return replace(self, clock_offset=self.clock_offset + offset)

    def to_dict(self) -> dict:
        """Plain-JSON form (the trace ``timeline`` record's payload)."""
        return {
            "run_id": self.run_id,
            "process": self.process,
            "shard": self.shard,
            "pid": self.pid,
            "clock_offset": self.clock_offset,
            "captured_at": self.captured_at,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": [list(ev) for ev in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimelineSnapshot":
        return cls(
            run_id=data.get("run_id", ""),
            process=data.get("process", ""),
            shard=data.get("shard"),
            pid=int(data.get("pid", 0)),
            clock_offset=float(data.get("clock_offset", 0.0)),
            captured_at=float(data.get("captured_at", 0.0)),
            recorded=int(data.get("recorded", 0)),
            dropped=int(data.get("dropped", 0)),
            events=tuple(
                (ev[0], ev[1], float(ev[2]), float(ev[3]), ev[4])
                for ev in data.get("events", [])
            ),
        )

    def spans_named(self, name: str) -> list[tuple[float, float, object]]:
        """Clock-aligned ``(start, end, batch_id)`` of every ``name`` span."""
        out = []
        for kind, ev_name, ts, dur, batch_id in self.events:
            if kind == "X" and ev_name == name:
                start = ts + self.clock_offset
                out.append((start, start + dur, batch_id))
        return out


class TimelineRecorder:
    """Bounded ring buffer of timestamped events for one process.

    One recorder rides on each ``full``-level :class:`Telemetry` backend;
    spans feed it on exit and subsystems may add instants directly.  All
    methods are O(1); overflow evicts the oldest event (flight-recorder
    semantics: the end of a run is always retained).
    """

    __slots__ = (
        "capacity", "run_id", "process", "shard", "pid",
        "recorded", "dropped", "_events",
    )

    def __init__(self, capacity: int | None = None, *, run_id: str = "",
                 process: str = "", shard: int | None = None):
        self.capacity = _capacity_from_env() if capacity is None else max(1, capacity)
        self.run_id = run_id
        self.process = process
        self.shard = shard
        self.pid = os.getpid()
        self.recorded = 0
        self.dropped = 0
        self._events: deque = deque(maxlen=self.capacity)

    def configure(self, *, run_id: str | None = None,
                  process: str | None = None,
                  shard: int | None = None) -> None:
        """Assign run/track identity (owners label recorders they adopt)."""
        if run_id is not None:
            self.run_id = run_id
        if process is not None:
            self.process = process
        if shard is not None:
            self.shard = shard

    def __len__(self) -> int:
        return len(self._events)

    def _push(self, event: tuple) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.recorded += 1

    def span(self, name: str, start: float, duration: float,
             batch_id: int | None = None) -> None:
        """Record one completed span (``start`` from ``perf_counter``)."""
        self._push(("X", name, start, duration, batch_id))

    def instant(self, name: str, batch_id: int | None = None,
                ts: float | None = None) -> None:
        """Record one instant event at ``ts`` (default: now)."""
        self._push(("i", name, time.perf_counter() if ts is None else ts,
                    0.0, batch_id))

    def snapshot(self) -> TimelineSnapshot:
        """Freeze the buffered events (non-destructive)."""
        return TimelineSnapshot(
            run_id=self.run_id,
            process=self.process or f"pid-{self.pid}",
            shard=self.shard,
            pid=self.pid,
            captured_at=time.perf_counter(),
            recorded=self.recorded,
            dropped=self.dropped,
            events=tuple(self._events),
        )


def merge_timeline_snapshots(snapshots) -> list[TimelineSnapshot]:
    """Coalesce snapshots of the same process into one timeline each.

    A trace file may hold several ``timeline`` records for one process
    (periodic drains plus the close-time flush); group them by identity
    ``(run_id, pid, process, shard)``, concatenate events in time order,
    and keep the latest capture's offset/progress counters.  The result is
    ordered coordinator-first, then by shard id.
    """
    groups: dict[tuple, list[TimelineSnapshot]] = {}
    for snap in snapshots:
        if snap is None:
            continue
        groups.setdefault(
            (snap.run_id, snap.pid, snap.process, snap.shard), []
        ).append(snap)
    merged = []
    for parts in groups.values():
        parts.sort(key=lambda s: s.captured_at)
        last = parts[-1]
        seen = set()
        events = []
        for part in parts:
            for ev in part.events:
                if ev not in seen:
                    seen.add(ev)
                    events.append(ev)
        events.sort(key=lambda ev: ev[2])
        merged.append(replace(last, events=tuple(events)))
    merged.sort(key=lambda s: (s.shard is not None, s.shard or 0, s.pid))
    return merged


# -- Chrome trace-event export ------------------------------------------------

def _track(snapshot: TimelineSnapshot) -> tuple[int, int, str]:
    """(pid, tid, label) placing one snapshot on its own Perfetto track."""
    tid = 0 if snapshot.shard is None else snapshot.shard + 1
    label = snapshot.process or f"pid-{snapshot.pid}"
    return snapshot.pid, tid, label


def to_chrome_trace(snapshots, *, origin: float | None = None) -> dict:
    """Render snapshots as a Chrome trace-event JSON document.

    Timestamps are clock-aligned (``ts + clock_offset``), shifted so the
    earliest event sits at 0, and expressed in microseconds as the format
    requires.  Each snapshot becomes one track: the coordinator as tid 0,
    shard workers as tid ``shard + 1`` (distinct pids already separate
    multi-process runs).  Open the result at https://ui.perfetto.dev or
    ``chrome://tracing``.
    """
    snaps = merge_timeline_snapshots(snapshots)
    if origin is None:
        starts = [
            ev[2] + snap.clock_offset for snap in snaps for ev in snap.events
        ]
        origin = min(starts) if starts else 0.0
    trace_events: list[dict] = []
    run_ids = sorted({s.run_id for s in snaps if s.run_id})
    for sort_index, snap in enumerate(snaps):
        pid, tid, label = _track(snap)
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": tid,
            "args": {"name": label},
        })
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": label},
        })
        trace_events.append({
            "ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
            "args": {"sort_index": sort_index},
        })
        for kind, name, ts, dur, batch_id in snap.events:
            event = {
                "name": name,
                "cat": "timeline",
                "ph": "X" if kind == "X" else "i",
                "ts": (ts + snap.clock_offset - origin) * 1e6,
                "pid": pid,
                "tid": tid,
            }
            if kind == "X":
                event["dur"] = dur * 1e6
            else:
                event["s"] = "t"
            if batch_id is not None:
                event["args"] = {"batch": batch_id}
            trace_events.append(event)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"run_ids": run_ids},
    }


def write_chrome_trace(path, snapshots) -> dict:
    """Atomically write the Chrome trace JSON for ``snapshots`` to ``path``.

    Written via a temp file + ``os.replace`` so a reader (or a crash) never
    observes a torn document.  Returns the document written.
    """
    document = to_chrome_trace(snapshots)
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)
    return document
