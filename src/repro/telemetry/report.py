"""Trace analyzer behind ``repro report``.

Loads one recorded trace (schema v1 or v2) and renders a run report —
per-stage wall-clock breakdown, modeled per-strategy breakdown, subsystem
counters, and the decision-ledger summary ("batches reordered because
CAD >= TH: 14/24").  Given two traces it renders an A/B comparison with
regression deltas instead.

The analyzer is offline-only: everything it prints comes from the trace
file, so reports are reproducible from artifacts alone, long after the run
(and on a different machine).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import render_kv, render_table
from ..pipeline.tracing import TraceDocument, read_trace_document
from .anomaly import rolling_mad_flags
from .core import TelemetrySnapshot

__all__ = ["TraceReport", "load_report", "render_report", "render_compare"]


@dataclass
class TraceReport:
    """One loaded trace plus the aggregates the report prints."""

    document: TraceDocument

    @property
    def events(self):
        return self.document.events

    @property
    def summary(self) -> TelemetrySnapshot | None:
        return self.document.summary

    @property
    def label(self) -> str:
        if not self.events:
            return str(self.document.path)
        e = self.events[0]
        return f"{e.dataset} @ {e.batch_size} [{e.algorithm}, {e.mode}]"

    @property
    def num_batches(self) -> int:
        return len(self.events)

    @property
    def total_update_time(self) -> float:
        return sum(e.update_time for e in self.events)

    @property
    def total_compute_time(self) -> float:
        return sum(e.compute_time for e in self.events)

    @property
    def total_time(self) -> float:
        return self.total_update_time + self.total_compute_time

    @property
    def deferred(self) -> int:
        return sum(e.deferred for e in self.events)

    @property
    def wall_seconds(self) -> float | None:
        """Summed wall-clock of the five stage spans, if recorded."""
        if self.summary is None:
            return None
        stage = [
            s.total for name, s in self.summary.spans.items()
            if name.startswith("stage.")
        ]
        return sum(stage) if stage else None

    def strategy_breakdown(self) -> dict[str, tuple[int, float]]:
        """strategy -> (batches, modeled update time)."""
        out: dict[str, tuple[int, float]] = {}
        for e in self.events:
            count, t = out.get(e.strategy, (0, 0.0))
            out[e.strategy] = (count + 1, t + e.update_time)
        return out

    def batch_wall_seconds(self) -> dict[int, float]:
        """batch id -> wall-clock seconds, from the coordinator's
        flight-recorder ``pipeline.batch`` spans (empty without a
        recorded timeline)."""
        out: dict[int, float] = {}
        for snapshot in self.document.timelines:
            if snapshot.process != "coordinator":
                continue
            for start, end, batch_id in snapshot.spans_named("pipeline.batch"):
                if batch_id is not None:
                    out[batch_id] = end - start
        return out


def load_report(path) -> TraceReport:
    """Load one trace file into a report object.

    Raises:
        AnalysisError: for missing files or malformed (non-trailing) lines.
    """
    return TraceReport(document=read_trace_document(path))


# -- single-trace rendering ---------------------------------------------------

def _modeled_section(report: TraceReport) -> list[str]:
    pairs = {
        "batches": report.num_batches,
        "update time (tu)": report.total_update_time,
        "compute time (tu)": report.total_compute_time,
        "total time (tu)": report.total_time,
        "rounds deferred (OCA)": report.deferred,
    }
    wall = report.wall_seconds
    if wall is not None:
        pairs["wall clock, staged (s)"] = wall
    return [render_kv("modeled totals", pairs)]


def _strategy_section(report: TraceReport) -> list[str]:
    breakdown = report.strategy_breakdown()
    if not breakdown:
        return []
    total = report.total_update_time or 1.0
    rows = [
        [name, count, t, 100.0 * t / total]
        for name, (count, t) in sorted(breakdown.items())
    ]
    return [
        render_table(
            ["strategy", "batches", "update time (tu)", "share (%)"],
            rows,
            title="per-strategy modeled update breakdown",
        )
    ]


def _span_section(summary: TelemetrySnapshot) -> list[str]:
    if not summary.spans:
        return []
    stage_total = sum(
        s.total for name, s in summary.spans.items() if name.startswith("stage.")
    )
    rows = []
    for name, stat in sorted(
        summary.spans.items(), key=lambda kv: -kv[1].total
    ):
        share = (
            100.0 * stat.total / stage_total
            if name.startswith("stage.") and stage_total
            else float("nan")
        )
        rows.append([
            name,
            stat.count,
            stat.total,
            1e3 * stat.mean,
            "-" if share != share else f"{share:.1f}",
        ])
    return [
        render_table(
            ["span", "count", "total (s)", "mean (ms)", "stage share (%)"],
            rows,
            title="wall-clock spans",
            float_format="{:.4f}",
        )
    ]


def _histogram_section(summary: TelemetrySnapshot) -> list[str]:
    """Approximate quantiles from the power-of-two histogram buckets."""
    if not summary.histograms:
        return []
    rows = []
    for name, hist in sorted(summary.histograms.items()):
        p = hist.percentiles()
        rows.append([
            name, hist.count, hist.mean, p["p50"], p["p95"], p["p99"],
            hist.max,
        ])
    return [
        render_table(
            ["histogram", "n", "mean", "p50~", "p95~", "p99~", "max"],
            rows,
            title="value distributions (quantiles approximated from "
            "power-of-two buckets)",
            float_format="{:.4g}",
        )
    ]


def _anomaly_section(report: TraceReport) -> list[str]:
    """Rolling-median/MAD outlier flags on the per-batch series.

    Robust to the level shifts a streaming run produces (strategy
    switches, graph growth): each batch is judged against the median of a
    trailing window, and deviation is scaled by the window's MAD rather
    than a standard deviation an outlier could inflate.
    """
    events = report.events
    series: list[tuple[str, str, list[float]]] = [
        ("update time", "tu", [e.update_time for e in events]),
        ("total time", "tu",
         [e.update_time + e.compute_time for e in events]),
    ]
    wall = report.batch_wall_seconds()
    if wall:
        ordered = sorted(wall)
        series.append(
            ("batch wall clock", "s", [wall[b] for b in ordered])
        )
        series.append(
            ("batch throughput", "edges/s",
             [e.batch_size / wall[e.batch_id] for e in events
              if e.batch_id in wall and wall[e.batch_id] > 0])
        )
    lines = ["anomaly flags (rolling-median / MAD, |z| > 3.5)"]
    flagged = 0
    for name, unit, values in series:
        for flag in rolling_mad_flags(values):
            flagged += 1
            lines.append(
                f"  batch {flag.index}: {name} {flag.value:.4g} {unit} "
                f"vs rolling median {flag.baseline:.4g} "
                f"({flag.ratio:.1f}x, z={flag.z:.1f})"
            )
    if not flagged:
        lines.append(
            f"  none over {len(events)} batches "
            f"({len(series)} series checked)"
        )
    return ["\n".join(lines)]


def _counter_section(summary: TelemetrySnapshot) -> list[str]:
    if not summary.counters:
        return []
    rows = [[name, value] for name, value in sorted(summary.counters.items())]
    for name, value in sorted(summary.gauges.items()):
        rows.append([f"{name} (gauge)", value])
    return [render_table(["counter", "value"], rows, title="counters",
                         float_format="{:.4g}")]


def _decision_section(report: TraceReport) -> list[str]:
    summary = report.summary
    lines = ["decision ledger"]
    events = report.events
    reordered = sum(1 for e in events if e.strategy in ("reorder", "reorder+usc"))
    if summary is not None:
        abr = summary.decisions_of("abr")
        if abr:
            chose_reorder = sum(1 for d in abr if d.choice == "reorder")
            lines.append(
                f"  ABR: reorder chosen on {chose_reorder}/{len(abr)} active "
                f"batches (CAD >= TH)"
            )
        oca = summary.decisions_of("oca")
        if oca:
            aggregated = sum(1 for d in oca if d.choice == "aggregate")
            threshold = oca[0].input("threshold")
            lines.append(
                f"  OCA: aggregation on {aggregated}/{len(oca)} measurements "
                f"(overlap >= {threshold}); {report.deferred} rounds deferred"
            )
        strategy = summary.decisions_of("strategy")
        if strategy:
            histogram: dict[str, int] = {}
            for d in strategy:
                histogram[d.choice] = histogram.get(d.choice, 0) + 1
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(histogram.items())
            )
            lines.append(f"  strategy selector: {rendered}")
    lines.append(
        f"  batches executed reordered: {reordered}/{len(events)}"
    )
    if summary is not None:
        dropped = summary.counter("ledger.dropped")
        if dropped:
            lines.append(
                f"  WARNING: {dropped:.0f} decisions dropped past the "
                f"ledger cap — the ledger holds the first entries only"
            )
    if summary is None:
        lines.append(
            "  (no telemetry summary in trace — v1 trace or telemetry off; "
            "modeled breakdown only)"
        )
    return ["\n".join(lines)]


def render_report(report: TraceReport) -> str:
    """Render the full single-trace report."""
    doc = report.document
    header = (
        f"trace report: {report.label}\n"
        f"  file: {doc.path} (schema v{doc.schema_version}, "
        f"{report.num_batches} batch events)"
    )
    if doc.timelines:
        timeline_events = sum(len(s.events) for s in doc.timelines)
        header += (
            f"\n  timeline: {timeline_events} flight-recorder events from "
            f"{len(doc.timelines)} process(es) — export with "
            f"`repro report ... --timeline out.json`"
        )
    sections = [header]
    sections += _modeled_section(report)
    sections += _strategy_section(report)
    if report.summary is not None:
        sections += _span_section(report.summary)
        sections += _histogram_section(report.summary)
        sections += _counter_section(report.summary)
    sections += _anomaly_section(report)
    sections += _decision_section(report)
    return "\n\n".join(sections)


# -- A/B comparison -----------------------------------------------------------

def _delta_row(name: str, a: float | None, b: float | None) -> list:
    if a is None or b is None:
        return [name, "-" if a is None else f"{a:.4f}",
                "-" if b is None else f"{b:.4f}", "-", "-"]
    delta = b - a
    pct = f"{100.0 * delta / a:+.1f}" if a else "-"
    return [name, a, b, delta, pct]


def render_compare(a: TraceReport, b: TraceReport) -> str:
    """Render the A/B comparison table (positive delta = B is slower)."""
    rows = [
        _delta_row("batches", float(a.num_batches), float(b.num_batches)),
        _delta_row("update time (tu)", a.total_update_time, b.total_update_time),
        _delta_row("compute time (tu)", a.total_compute_time, b.total_compute_time),
        _delta_row("total time (tu)", a.total_time, b.total_time),
        _delta_row("rounds deferred", float(a.deferred), float(b.deferred)),
        _delta_row("wall clock (s)", a.wall_seconds, b.wall_seconds),
    ]
    strategies_a = a.strategy_breakdown()
    strategies_b = b.strategy_breakdown()
    for name in sorted(set(strategies_a) | set(strategies_b)):
        rows.append(
            _delta_row(
                f"batches via {name}",
                float(strategies_a.get(name, (0, 0.0))[0]),
                float(strategies_b.get(name, (0, 0.0))[0]),
            )
        )
    header = (
        f"A/B trace comparison (positive delta = B slower)\n"
        f"  A: {a.label} ({a.document.path})\n"
        f"  B: {b.label} ({b.document.path})"
    )
    table = render_table(
        ["metric", "A", "B", "delta", "delta (%)"],
        rows,
        float_format="{:.4f}",
    )
    return header + "\n\n" + table
