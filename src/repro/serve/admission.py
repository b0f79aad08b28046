"""Admission control and micro-batching.

Two concerns, deliberately separated from the network layer so both are
unit-testable:

* :class:`AdmissionController` decides whether an ``edges`` submission may
  enter the ingest buffer *right now*.  It keeps one global pending
  window: edges admitted but not yet visible in a completed pipeline
  step.  A submission that would overfill the window waits (backpressure)
  until the pipeline has made earlier edges visible; one larger than the
  whole window is refused as ``too_large``, and once shutdown begins every
  submission is refused as ``draining``.  "Pending" is measured end to
  end, so backpressure reflects real ingest lag, not just buffer
  occupancy, and the window bounds the memory admitted edges hold.

* :class:`MicroBatcher` accumulates admitted edges in arrival order and
  calls for a cut once the buffer reaches ``target_edges``.  Time never
  cuts: the server hands the whole buffer to its pipeline driver the
  moment the driver is idle (an ``"idle"`` cut, see
  :mod:`repro.serve.server`), so batch size follows load, and a drain cut
  flushes the partial tail on shutdown.  The input-knowledge decisions
  (ABR's reordering, USC) stay in the update engine, which sees exactly
  the batches the server cuts.

All waiting is the *caller's* job: :meth:`AdmissionController.admit`
never sleeps, it returns a decision with a suggested delay, so an asyncio
handler can ``await asyncio.sleep(delay)`` without blocking the loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "MicroBatcher",
    "PendingBatch",
]

#: Suggested re-poll delay while the pending window is full.
_POLL_DELAY = 0.01


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict.

    Attributes:
        admitted: the edges may enter the buffer now.
        delay: when not admitted and not rejected: suggested seconds to
            wait before asking again (the window is full: backpressure).
        reject: the submission should be refused outright; ``reason`` is
            the protocol error code.
        reason: ``""`` (admitted), ``"backpressure"``, ``"too_large"`` or
            ``"draining"``.
    """

    admitted: bool
    delay: float = 0.0
    reject: bool = False
    reason: str = ""


class AdmissionController:
    """Thread-safe admission through one pending window.

    The asyncio side calls :meth:`admit` (event loop thread); the pipeline
    driver calls :meth:`release` as batches become visible (driver
    thread), hence the lock.

    Args:
        max_pending: cap on admitted-but-not-yet-visible edges.
    """

    def __init__(self, max_pending: int = 200_000):
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self.pending_total = 0
        self.draining = False

    def admit(self, n: int) -> AdmissionDecision:
        """Decide whether ``n`` edges may enter now."""
        if n < 1:
            raise ConfigurationError(f"edge count must be >= 1, got {n}")
        with self._lock:
            if self.draining:
                return AdmissionDecision(
                    admitted=False, reject=True, reason="draining"
                )
            if n > self.max_pending:
                return AdmissionDecision(
                    admitted=False, reject=True, reason="too_large"
                )
            if self.pending_total + n > self.max_pending:
                return AdmissionDecision(
                    admitted=False, delay=_POLL_DELAY, reason="backpressure"
                )
            self.pending_total += n
            return AdmissionDecision(admitted=True)

    def release(self, n: int) -> None:
        """Mark ``n`` admitted edges visible (frees pending window)."""
        with self._lock:
            self.pending_total = max(0, self.pending_total - n)

    def start_drain(self) -> None:
        """Refuse all future submissions (graceful-shutdown mode)."""
        with self._lock:
            self.draining = True

    def stats(self) -> dict:
        """The window's state (the ``admission`` block of ``stats``)."""
        with self._lock:
            return {
                "pending_edges": self.pending_total,
                "max_pending": self.max_pending,
                "draining": self.draining,
            }


@dataclass
class PendingBatch:
    """One cut micro-batch queued for the pipeline driver.

    Attributes:
        src / dst / weight / is_delete: the batch arrays (``is_delete`` is
            None for insert-only batches, matching
            :class:`~repro.datasets.stream.Batch`).
        seq_end: global sequence number of the batch's last edge (the
            visibility watermark advances to this after the step).
        markers: ``(seq, admit_monotonic)`` pairs for ingest-to-visible
            latency sampling (one per submission, not per edge).
        cut_reason: why the boundary fell here — ``"target"``, ``"idle"``,
            ``"flush"`` or ``"drain"``.
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    is_delete: np.ndarray | None
    seq_end: int
    markers: list[tuple[int, float]]
    cut_reason: str

    @property
    def size(self) -> int:
        return len(self.src)


class MicroBatcher:
    """Accumulates admitted edges and picks batch boundaries online.

    Single-threaded by design (owned by the server's event loop).

    Args:
        target_edges: throughput-oriented batch size cap (a cut happens at
            this size).
        clock: monotonic clock, injectable for tests.
    """

    def __init__(self, target_edges: int = 10_000, clock=time.monotonic):
        if target_edges < 1:
            raise ConfigurationError(
                f"target_edges must be >= 1, got {target_edges}"
            )
        self.target_edges = target_edges
        self._clock = clock
        self._reset()
        #: Global edge sequence number of the last admitted edge.
        self.seq = 0
        #: Cut counts by reason (telemetry / stats).
        self.cut_reasons: dict[str, int] = {}

    def _reset(self) -> None:
        self._src: list[int] = []
        self._dst: list[int] = []
        self._weight: list[float] = []
        self._delete: list[bool] = []
        self._has_delete = False
        self._markers: list[tuple[int, float]] = []

    @property
    def size(self) -> int:
        return len(self._src)

    def append(
        self,
        src,
        dst,
        weight=None,
        is_delete=None,
        now: float | None = None,
    ) -> int:
        """Buffer one admitted submission; returns its ``seq_end``.

        Arguments are parallel sequences (plain lists or arrays).  The
        caller must have passed admission first — the batcher never
        refuses edges.
        """
        now = self._clock() if now is None else now
        n = len(src)
        self._src.extend(int(v) for v in src)
        self._dst.extend(int(v) for v in dst)
        if weight is None:
            self._weight.extend([1.0] * n)
        else:
            self._weight.extend(float(w) for w in weight)
        if is_delete is None:
            self._delete.extend([False] * n)
        else:
            flags = [bool(f) for f in is_delete]
            self._delete.extend(flags)
            self._has_delete = self._has_delete or any(flags)
        self.seq += n
        self._markers.append((self.seq, now))
        return self.seq

    def cut_due(self) -> str | None:
        """``"target"`` once the buffer reaches the size cap, else None.

        Checked after appends.  The other cuts (``"idle"``, ``"flush"``,
        ``"drain"``) are the server's to make.
        """
        if self.size >= self.target_edges:
            return "target"
        return None

    def cut(self, reason: str) -> PendingBatch:
        """Materialize the buffer as a :class:`PendingBatch` and reset."""
        if self.size == 0:
            raise ConfigurationError("cannot cut an empty buffer")
        batch = PendingBatch(
            src=np.asarray(self._src, dtype=np.int64),
            dst=np.asarray(self._dst, dtype=np.int64),
            weight=np.asarray(self._weight, dtype=np.float64),
            is_delete=(
                np.asarray(self._delete, dtype=bool)
                if self._has_delete
                else None
            ),
            seq_end=self.seq,
            markers=list(self._markers),
            cut_reason=reason,
        )
        self.cut_reasons[reason] = self.cut_reasons.get(reason, 0) + 1
        self._reset()
        return batch
