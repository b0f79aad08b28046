"""Low-overhead instrumentation core: counters, gauges, histograms, spans.

One :class:`Telemetry` instance accompanies one pipeline run and is threaded
through every subsystem that has something worth measuring (update engine,
OCA, HAU simulator, snapshotter).  Four primitives:

* **counters** — monotonically accumulated floats (``count("usc.hash_hits",
  n)``); merged across worker processes by summation;
* **gauges** — last-written values (``gauge("hau.local_fraction", f)``);
* **histograms** — streaming power-of-two bucket histograms
  (``observe("pipeline.batch_edges", b.size)``) keeping count/sum/min/max;
* **spans** — wall-clock timed regions (``with tel.span("stage.update")``)
  measured with :func:`time.perf_counter`; nested spans record
  independently under their own names.

Plus the **decision ledger**: every input-aware decision (ABR, OCA, the
strategy selector) appends a :class:`Decision` carrying the inputs that
produced it, so a run can answer *why* it executed the way it did.

Disabled runs use :data:`NULL_TELEMETRY`, whose methods are empty and whose
``span()`` returns a shared no-op context manager — the cost of leaving the
instrumentation points in the hot paths is a method call and a branch.  The
``"basic"`` level records counters/gauges/decisions but skips spans and
histograms (no clock reads); ``"full"`` records everything.

:meth:`Telemetry.snapshot` freezes the state into a plain-data, picklable
:class:`TelemetrySnapshot`; snapshots from executor workers merge
deterministically with :func:`merge_snapshots` (counters sum, histograms
combine, span stats pool, ledgers concatenate in merge order).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "TELEMETRY_LEVELS",
    "Decision",
    "SpanStat",
    "HistogramStat",
    "TelemetrySnapshot",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "make_telemetry",
    "as_telemetry",
    "merge_snapshots",
]

#: Recognized instrumentation levels, least to most detailed.
TELEMETRY_LEVELS = ("off", "basic", "full")

#: Ledger entries kept per run; beyond this, entries are dropped and the
#: ``ledger.dropped`` counter records how many (``repro report`` warns when
#: it is nonzero).
MAX_DECISIONS = 100_000


@dataclass(frozen=True)
class Decision:
    """One recorded decision of an input-aware component.

    Attributes:
        kind: decision point — ``"abr"``, ``"oca"``, ``"strategy"``, or any
            custom label.
        choice: the outcome (e.g. ``"reorder"``, ``"defer"``, a strategy
            label).
        batch_id: the stream position the decision was made at, if any.
        inputs: the values the decision was computed from, as sorted
            ``(name, value)`` pairs (e.g. ``cad`` vs ``threshold``).
    """

    kind: str
    choice: str
    batch_id: int | None
    inputs: tuple[tuple[str, object], ...]

    def input(self, name: str, default=None):
        """Look one input value up by name."""
        for key, value in self.inputs:
            if key == name:
                return value
        return default

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "choice": self.choice,
            "batch_id": self.batch_id,
            "inputs": dict(self.inputs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Decision":
        return cls(
            kind=data["kind"],
            choice=data["choice"],
            batch_id=data.get("batch_id"),
            inputs=tuple(sorted(data.get("inputs", {}).items())),
        )


@dataclass(frozen=True)
class SpanStat:
    """Aggregated wall-clock statistics of one span name.

    Attributes:
        count: completed entries.
        total: summed wall-clock seconds.
        min / max: extreme single-entry durations.
    """

    count: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "SpanStat") -> "SpanStat":
        return SpanStat(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


@dataclass(frozen=True)
class HistogramStat:
    """Streaming histogram of one observed value name.

    Values land in power-of-two buckets keyed by ``ceil(log2(v))`` (bucket 0
    holds everything <= 1), so the storage is O(log range) regardless of
    how many values are observed.

    Attributes:
        count: observations.
        total: summed values.
        min / max: extreme observations.
        buckets: sorted ``(bucket_exponent, count)`` pairs.
    """

    count: int
    total: float
    min: float
    max: float
    buckets: tuple[tuple[int, int], ...]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the power-of-two buckets.

        Finds the bucket holding rank ``q * count`` and interpolates
        linearly inside it, clamping the bucket range to the observed
        min/max so single-bucket histograms stay exact at the extremes.
        The estimate is bounded by the bucket resolution: at most a factor
        of 2 off, exact when the bucket holds one distinct value.
        """
        if self.count <= 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        rank = q * self.count
        cumulative = 0
        for exponent, count in self.buckets:
            if cumulative + count >= rank:
                lo = 0.0 if exponent == 0 else float(2 ** (exponent - 1))
                hi = float(2 ** exponent)
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (rank - cumulative) / count
                return lo + fraction * (hi - lo)
            cumulative += count
        return self.max

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 estimates, keyed for rendering."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merged(self, other: "HistogramStat") -> "HistogramStat":
        combined = dict(self.buckets)
        for exponent, count in other.buckets:
            combined[exponent] = combined.get(exponent, 0) + count
        return HistogramStat(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            buckets=tuple(sorted(combined.items())),
        )


def _bucket(value: float) -> int:
    if value <= 1.0:
        return 0
    return max(0, math.ceil(math.log2(value)))


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Frozen, picklable aggregation of one run's telemetry.

    Plain dicts/tuples of primitives only, so snapshots cross process
    boundaries (executor workers), serialize into trace summaries, and
    merge deterministically.
    """

    level: str = "full"
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    decisions: tuple = ()

    def counter(self, name: str, default: float = 0.0) -> float:
        """One counter's value (0 when never incremented)."""
        return self.counters.get(name, default)

    def decisions_of(self, kind: str) -> list[Decision]:
        """Ledger entries of one kind, in recording order."""
        return [d for d in self.decisions if d.kind == kind]

    def merged(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Deterministic pairwise merge (see :func:`merge_snapshots`)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = {**self.gauges, **other.gauges}
        spans = dict(self.spans)
        for name, stat in other.spans.items():
            spans[name] = spans[name].merged(stat) if name in spans else stat
        histograms = dict(self.histograms)
        for name, stat in other.histograms.items():
            histograms[name] = (
                histograms[name].merged(stat) if name in histograms else stat
            )
        return TelemetrySnapshot(
            level=self.level if self.level == other.level else "full",
            counters=counters,
            gauges=gauges,
            spans=spans,
            histograms=histograms,
            decisions=self.decisions + other.decisions,
        )

    def to_dict(self) -> dict:
        """Plain-JSON form (the trace summary record's payload)."""
        return {
            "level": self.level,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": {
                name: {
                    "count": s.count, "total": s.total,
                    "min": s.min, "max": s.max,
                }
                for name, s in sorted(self.spans.items())
            },
            "histograms": {
                name: {
                    "count": h.count, "total": h.total,
                    "min": h.min, "max": h.max,
                    "buckets": [list(pair) for pair in h.buckets],
                }
                for name, h in sorted(self.histograms.items())
            },
            "decisions": [d.to_dict() for d in self.decisions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySnapshot":
        return cls(
            level=data.get("level", "full"),
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            spans={
                name: SpanStat(s["count"], s["total"], s["min"], s["max"])
                for name, s in data.get("spans", {}).items()
            },
            histograms={
                name: HistogramStat(
                    h["count"], h["total"], h["min"], h["max"],
                    tuple((int(e), int(c)) for e, c in h.get("buckets", [])),
                )
                for name, h in data.get("histograms", {}).items()
            },
            decisions=tuple(
                Decision.from_dict(d) for d in data.get("decisions", [])
            ),
        )


class _NullSpan:
    """Shared no-op context manager returned by disabled ``span()`` calls."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timed region; records into its telemetry on exit."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Span":
        self._telemetry._span_depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter() - self._start
        tel = self._telemetry
        tel._span_depth -= 1
        tel._max_span_depth = max(tel._max_span_depth, tel._span_depth + 1)
        record = tel._spans.get(self._name)
        if record is None:
            tel._spans[self._name] = [1, elapsed, elapsed, elapsed]
        else:
            record[0] += 1
            record[1] += elapsed
            if elapsed < record[2]:
                record[2] = elapsed
            if elapsed > record[3]:
                record[3] = elapsed
        timeline = tel.timeline
        if timeline is not None:
            timeline.span(self._name, self._start, elapsed, tel._batch)
        return False


class Telemetry:
    """Recording instrumentation backend (levels ``"basic"`` and ``"full"``).

    Thread-compatible, not thread-safe: one instance per pipeline (the
    executor gives each worker process its own and merges snapshots).

    Args:
        level: ``"basic"`` (counters/gauges/decisions only — no clock
            reads) or ``"full"`` (adds spans and histograms).
    """

    enabled = True

    def __init__(self, level: str = "full"):
        if level not in ("basic", "full"):
            raise ConfigurationError(
                f"telemetry level must be 'basic' or 'full', got {level!r}"
            )
        self.level = level
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._spans: dict[str, list] = {}
        self._hists: dict[str, list] = {}
        self._decisions: list[Decision] = []
        self._span_depth = 0
        self._max_span_depth = 0
        self._full = level == "full"
        self._batch: int | None = None
        # Every full-level backend carries a flight-recorder timeline so
        # executor workers (built via make_telemetry) participate without
        # extra plumbing.  Imported lazily to avoid a cycle.
        if self._full:
            from .timeline import TimelineRecorder
            self.timeline = TimelineRecorder()
        else:
            self.timeline = None

    # -- primitives ---------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name`` (full level only)."""
        if not self._full:
            return
        record = self._hists.get(name)
        if record is None:
            self._hists[name] = [1, value, value, value, {_bucket(value): 1}]
            return
        record[0] += 1
        record[1] += value
        if value < record[2]:
            record[2] = value
        if value > record[3]:
            record[3] = value
        buckets = record[4]
        b = _bucket(value)
        buckets[b] = buckets.get(b, 0) + 1

    def span(self, name: str):
        """Context manager timing one region under ``name`` (full only)."""
        if not self._full:
            return _NULL_SPAN
        return _Span(self, name)

    def set_batch(self, batch_id: int | None) -> None:
        """Tag subsequent timeline events with the current batch id."""
        self._batch = batch_id

    def decision(self, kind: str, choice: str, batch_id: int | None = None,
                 **inputs) -> None:
        """Append one entry to the decision ledger."""
        if len(self._decisions) >= MAX_DECISIONS:
            self.count("ledger.dropped")
            return
        self._decisions.append(
            Decision(
                kind=kind,
                choice=choice,
                batch_id=batch_id,
                inputs=tuple(sorted(inputs.items())),
            )
        )
        if self.timeline is not None:
            self.timeline.instant(
                f"decision.{kind}:{choice}",
                self._batch if batch_id is None else batch_id,
            )

    def timeline_snapshot(self):
        """Freeze the flight-recorder timeline (``None`` below full)."""
        return None if self.timeline is None else self.timeline.snapshot()

    # -- aggregation --------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the current state into a picklable snapshot."""
        return TelemetrySnapshot(
            level=self.level,
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            spans={
                name: SpanStat(r[0], r[1], r[2], r[3])
                for name, r in self._spans.items()
            },
            histograms={
                name: HistogramStat(
                    r[0], r[1], r[2], r[3], tuple(sorted(r[4].items()))
                )
                for name, r in self._hists.items()
            },
            decisions=tuple(self._decisions),
        )


class NullTelemetry:
    """The disabled backend: every primitive is a no-op.

    A single shared instance (:data:`NULL_TELEMETRY`) serves every
    uninstrumented run; ``span()`` hands back one shared no-op context
    manager so disabled spans allocate nothing.
    """

    enabled = False
    level = "off"
    timeline = None

    __slots__ = ()

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str):
        return _NULL_SPAN

    def set_batch(self, batch_id: int | None) -> None:
        pass

    def decision(self, kind: str, choice: str, batch_id: int | None = None,
                 **inputs) -> None:
        pass

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(level="off")

    def timeline_snapshot(self):
        return None


#: Shared no-op backend used wherever telemetry was not requested.
NULL_TELEMETRY = NullTelemetry()


def make_telemetry(level: str | None):
    """Backend for a named level (``None``/``"off"`` -> the null backend).

    Raises:
        ConfigurationError: for unrecognized level names.
    """
    if level is None or level == "off":
        return NULL_TELEMETRY
    return Telemetry(level)


def as_telemetry(telemetry):
    """Normalize an optional backend argument (``None`` -> null backend)."""
    return NULL_TELEMETRY if telemetry is None else telemetry


def merge_snapshots(snapshots) -> TelemetrySnapshot:
    """Merge worker snapshots left to right (deterministic in input order).

    Counters and span/histogram statistics accumulate; gauges take the
    last-merged value; decision ledgers concatenate.  Merging results in
    submission order makes ``jobs=N`` aggregation identical to ``jobs=1``.
    """
    merged = TelemetrySnapshot(level="off")
    first = True
    for snap in snapshots:
        merged = snap if first else merged.merged(snap)
        first = False
    return merged
