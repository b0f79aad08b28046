"""Per-batch execution traces (JSONL), schema v2.

A trace records, for every batch of a pipeline run, what the input-aware
machinery observed and decided — the CAD measured, the strategy executed,
the OCA overlap and deferral, and the modeled times — plus (schema v2) one
closing **summary record** carrying the run's telemetry: wall-clock spans,
subsystem counters, and the decision ledger.  Traces make runs debuggable
and comparable offline (``repro report``, ``read_trace`` + any JSONL
tooling), and the CLI exposes them via ``repro run --trace FILE``.

Schema v2 line types (the ``type`` field):

* ``header`` — first line; carries ``schema_version``.
* ``batch`` — one :class:`TraceEvent` per processed batch.
* ``timeline`` — one
  :class:`~repro.telemetry.timeline.TimelineSnapshot` document per process
  of the run, written at close when the run recorded a flight-recorder
  timeline.  ``repro report --timeline``
  re-exports these as Chrome trace-event JSON.
* ``summary`` — last line; a
  :class:`~repro.telemetry.core.TelemetrySnapshot` document (only written
  when the writer was given an enabled telemetry backend).

Schema v1 files (bare :class:`TraceEvent` lines, no ``type`` field) stay
readable: :func:`read_trace` and :func:`read_trace_document` accept both.
Unknown line types and unknown batch fields are skipped, so newer traces
degrade gracefully under older readers.  A trailing partially-written line
(a run crashed mid-``write``) is tolerated with a warning; malformed lines
anywhere else still raise.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..errors import AnalysisError
from ..telemetry.core import TelemetrySnapshot
from ..telemetry.timeline import TimelineSnapshot
from .metrics import BatchMetrics

__all__ = [
    "SCHEMA_VERSION",
    "TraceEvent",
    "TraceDocument",
    "TraceWriter",
    "read_trace",
    "read_trace_document",
]

#: Current trace schema version written by :class:`TraceWriter`.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceEvent:
    """One batch's trace record."""

    dataset: str
    batch_size: int
    algorithm: str
    mode: str
    batch_id: int
    strategy: str
    update_time: float
    compute_time: float
    abr_active: bool
    cad: float | None
    overlap: float | None
    deferred: bool
    aggregated_batches: int

    @classmethod
    def from_metrics(
        cls,
        metrics: BatchMetrics,
        dataset: str,
        batch_size: int,
        algorithm: str,
        mode: str,
        abr_active: bool,
    ) -> "TraceEvent":
        return cls(
            dataset=dataset,
            batch_size=batch_size,
            algorithm=algorithm,
            mode=mode,
            batch_id=metrics.batch_id,
            strategy=metrics.strategy,
            update_time=metrics.update_time,
            compute_time=metrics.compute_time,
            abr_active=abr_active,
            cad=metrics.cad,
            overlap=metrics.overlap,
            deferred=metrics.deferred,
            aggregated_batches=metrics.aggregated_batches,
        )


_EVENT_FIELDS = frozenset(f.name for f in fields(TraceEvent))


@dataclass
class TraceDocument:
    """Everything parsed from one trace file.

    Attributes:
        path: the file the document was read from.
        schema_version: declared schema (1 for bare-event legacy files).
        events: the per-batch records, in stream order.
        summary: the run's telemetry snapshot, when the trace carries one.
        timelines: per-process flight-recorder timelines, in file order
            (empty for runs recorded without the timeline layer).
    """

    path: Path
    schema_version: int = 1
    events: list[TraceEvent] = field(default_factory=list)
    summary: TelemetrySnapshot | None = None
    timelines: list[TimelineSnapshot] = field(default_factory=list)


class TraceWriter:
    """Appends trace events to a JSONL file (schema v2).

    Usable as a context manager::

        with TraceWriter("run.jsonl", telemetry=telemetry) as trace:
            StreamingPipeline(..., trace=trace).run(10)

    ``close()`` (or context exit) writes the closing telemetry summary when
    an enabled backend was attached, then flushes and fsyncs so a crash
    after the run cannot lose buffered events.

    Args:
        path: output file (truncated on open).
        telemetry: optional telemetry backend whose
            :meth:`~repro.telemetry.core.Telemetry.snapshot` becomes the
            trace's summary record.  The pipeline wires its own backend in
            when one is configured (see
            :meth:`~repro.pipeline.config.RunConfig.build_pipeline`).
    """

    def __init__(self, path: str | Path, telemetry=None):
        self.path = Path(path)
        self._handle = open(self.path, "w")
        self.events_written = 0
        #: Telemetry backend snapshotted into the summary record on close.
        self.telemetry = telemetry
        #: Optional zero-arg callable returning the run's
        #: :class:`~repro.telemetry.timeline.TimelineSnapshot` list; the
        #: pipeline wires in its own ``timeline_snapshots`` so close()
        #: captures every process's timeline (workers included).
        self.timeline_provider = None
        self._handle.write(
            json.dumps({"type": "header", "schema_version": SCHEMA_VERSION})
            + "\n"
        )

    def write(self, event: TraceEvent) -> None:
        self._handle.write(
            json.dumps({"type": "batch", **asdict(event)}) + "\n"
        )
        # Flush (no fsync) per batch: a SIGKILLed run keeps every batch
        # line the OS received, and the reader tolerates a torn tail.
        self._handle.flush()
        self.events_written += 1

    def write_timeline(self, snapshot: TimelineSnapshot) -> None:
        """Append one process's timeline as a ``timeline`` record."""
        if snapshot is None or self._handle.closed:
            return
        self._handle.write(
            json.dumps({
                "type": "timeline",
                "schema_version": SCHEMA_VERSION,
                **snapshot.to_dict(),
            }) + "\n"
        )

    def close(self) -> None:
        if self._handle.closed:
            return
        if self.timeline_provider is not None:
            # Timelines are fetched best-effort: a dead worker must not
            # cost us the summary record below.
            try:
                for snapshot in self.timeline_provider():
                    self.write_timeline(snapshot)
            except Exception:
                pass
        if self.telemetry is not None and getattr(
            self.telemetry, "enabled", False
        ):
            summary = {
                "type": "summary",
                "schema_version": SCHEMA_VERSION,
                **self.telemetry.snapshot().to_dict(),
            }
            self._handle.write(json.dumps(summary) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace_document(path: str | Path) -> TraceDocument:
    """Parse a trace file (schema v1 or v2) into a :class:`TraceDocument`.

    A trailing line that is not valid JSON — the tell-tale of a run that
    died mid-write — is dropped with a :class:`UserWarning` instead of
    failing the whole read; every other malformed line raises.

    Raises:
        AnalysisError: for missing files or malformed non-trailing lines.
    """
    path = Path(path)
    if not path.exists():
        raise AnalysisError(f"no trace file at {path}")
    document = TraceDocument(path=path)
    lines = path.read_text().splitlines()
    last_index = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == last_index:
                warnings.warn(
                    f"{path}:{index + 1}: dropping partially-written "
                    f"trailing trace line ({exc})",
                    stacklevel=2,
                )
                break
            raise AnalysisError(
                f"{path}:{index + 1}: malformed trace line ({exc})"
            ) from exc
        kind = data.get("type", "batch") if isinstance(data, dict) else None
        try:
            if kind == "batch":
                payload = {
                    k: v for k, v in data.items() if k in _EVENT_FIELDS
                }
                document.events.append(TraceEvent(**payload))
            elif kind == "header":
                document.schema_version = int(
                    data.get("schema_version", SCHEMA_VERSION)
                )
            elif kind == "summary":
                document.summary = TelemetrySnapshot.from_dict(data)
            elif kind == "timeline":
                document.timelines.append(TimelineSnapshot.from_dict(data))
            # Unknown types: skip for forward compatibility.
        except (TypeError, ValueError, KeyError) as exc:
            raise AnalysisError(
                f"{path}:{index + 1}: malformed trace line ({exc})"
            ) from exc
    return document


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a trace's per-batch events (summary/header records skipped).

    Raises:
        AnalysisError: for missing files or malformed lines.
    """
    return read_trace_document(path).events
