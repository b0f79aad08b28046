"""Multi-tenant admission control and micro-batching.

Two concerns, deliberately separated from the network layer so both are
unit-testable with an injected clock:

* :class:`AdmissionController` decides whether an ``edges`` submission may
  enter the ingest buffer *right now*.  Three gates apply, in order:
  a per-tenant token bucket (rate limiting — waiting longer than
  ``max_delay`` converts into an explicit ``rate_limited`` rejection with a
  ``retry_after`` hint), a per-tenant fairness cap (no tenant may occupy
  more than ``fair_share`` of the pending window, so one hot client cannot
  starve the rest), and a global pending cap (classic backpressure: the
  submission waits until the pipeline has made earlier edges visible).
  "Pending" is measured end to end — admitted but not yet visible in a
  completed pipeline step — so backpressure reflects real ingest lag, not
  just buffer occupancy.

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
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "MicroBatcher",
    "PendingBatch",
    "TokenBucket",
]

#: Suggested re-poll delay for wait-style (non-rejecting) admission gates.
_POLL_DELAY = 0.01


class TokenBucket:
    """A standard token bucket; ``rate <= 0`` means unlimited.

    Args:
        rate: tokens (edges) replenished per second.
        burst: bucket capacity (maximum instantaneous debt).
    """

    def __init__(self, rate: float, burst: float):
        if rate > 0 and burst <= 0:
            raise ConfigurationError(
                f"token bucket burst must be positive, got {burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp: float | None = None

    def _refill(self, now: float) -> None:
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now

    def delay(self, n: int, now: float) -> float:
        """Seconds until ``n`` tokens are available (0.0 = available now)."""
        if self.rate <= 0:
            return 0.0
        self._refill(now)
        if self._tokens >= n:
            return 0.0
        return (n - self._tokens) / self.rate

    def take(self, n: int, now: float) -> None:
        """Consume ``n`` tokens (may go negative only via oversized bursts)."""
        if self.rate <= 0:
            return
        self._refill(now)
        self._tokens -= n


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict.

    Attributes:
        admitted: the edges may enter the buffer now.
        delay: when not admitted and not rejected: suggested seconds to
            wait before asking again (the gate is transient backpressure).
        reject: the submission should be refused outright; ``reason`` is
            the protocol error code and ``delay`` the ``retry_after`` hint.
        reason: ``""`` (admitted), ``"backpressure"``, ``"fairness"``,
            ``"rate_limited"`` or ``"draining"``.
    """

    admitted: bool
    delay: float = 0.0
    reject: bool = False
    reason: str = ""


@dataclass
class _Tenant:
    bucket: TokenBucket
    pending: int = 0
    admitted_edges: int = 0
    rejected: int = 0


class AdmissionController:
    """Thread-safe multi-tenant admission over a shared pending window.

    The asyncio side calls :meth:`admit` (event loop thread); the pipeline
    driver calls :meth:`release` as batches become visible (driver
    thread), hence the lock.

    Args:
        max_pending: global cap on admitted-but-not-yet-visible edges.
        fair_share: fraction of ``max_pending`` one tenant may occupy.
        rate: per-tenant token-bucket rate in edges/second (0 = unlimited).
        burst: per-tenant bucket capacity (defaults to one second of rate).
        max_delay: longest rate-limit wait tolerated before converting the
            wait into an explicit ``rate_limited`` rejection.
        clock: monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        max_pending: int = 200_000,
        fair_share: float = 0.5,
        rate: float = 0.0,
        burst: float | None = None,
        max_delay: float = 5.0,
        clock=time.monotonic,
    ):
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if not 0.0 < fair_share <= 1.0:
            raise ConfigurationError(
                f"fair_share must be in (0, 1], got {fair_share}"
            )
        self.max_pending = int(max_pending)
        self.fair_share = float(fair_share)
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(rate, 1.0)
        self.max_delay = float(max_delay)
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}
        self.pending_total = 0
        self.draining = False

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = _Tenant(TokenBucket(self.rate, self.burst))
            self._tenants[name] = tenant
        return tenant

    def admit(self, tenant_name: str, n: int, now: float | None = None) -> AdmissionDecision:
        """Decide whether ``n`` edges from ``tenant_name`` may enter now."""
        if n < 1:
            raise ConfigurationError(f"edge count must be >= 1, got {n}")
        now = self._clock() if now is None else now
        with self._lock:
            if self.draining:
                return AdmissionDecision(
                    admitted=False, reject=True, reason="draining"
                )
            tenant = self._tenant(tenant_name)
            if n > self.max_pending:
                tenant.rejected += 1
                return AdmissionDecision(
                    admitted=False, reject=True, reason="too_large"
                )
            delay = tenant.bucket.delay(n, now)
            if delay > 0.0:
                if delay > self.max_delay:
                    tenant.rejected += 1
                    return AdmissionDecision(
                        admitted=False, delay=delay, reject=True,
                        reason="rate_limited",
                    )
                return AdmissionDecision(
                    admitted=False, delay=delay, reason="rate_limited"
                )
            fair_cap = max(1, int(self.max_pending * self.fair_share))
            if tenant.pending + n > fair_cap and any(
                other.pending for name, other in self._tenants.items()
                if name != tenant_name
            ):
                # Fairness only bites while others hold window space: a
                # lone tenant may use the whole window (the global gate
                # below still bounds it).
                return AdmissionDecision(
                    admitted=False, delay=_POLL_DELAY, reason="fairness"
                )
            if self.pending_total + n > self.max_pending:
                return AdmissionDecision(
                    admitted=False, delay=_POLL_DELAY, reason="backpressure"
                )
            tenant.bucket.take(n, now)
            tenant.pending += n
            tenant.admitted_edges += n
            self.pending_total += n
            return AdmissionDecision(admitted=True)

    def release(self, counts: dict[str, int]) -> None:
        """Mark per-tenant edge counts visible (frees pending window)."""
        with self._lock:
            for name, n in counts.items():
                tenant = self._tenants.get(name)
                if tenant is not None:
                    tenant.pending = max(0, tenant.pending - n)
            self.pending_total = max(
                0, self.pending_total - sum(counts.values())
            )

    def start_drain(self) -> None:
        """Refuse all future submissions (graceful-shutdown mode)."""
        with self._lock:
            self.draining = True

    def stats(self) -> dict:
        """Per-tenant and global admission statistics (for ``stats`` ops)."""
        with self._lock:
            return {
                "pending_edges": self.pending_total,
                "max_pending": self.max_pending,
                "draining": self.draining,
                "tenants": {
                    name: {
                        "pending": tenant.pending,
                        "admitted_edges": tenant.admitted_edges,
                        "rejected": tenant.rejected,
                    }
                    for name, tenant in sorted(self._tenants.items())
                },
            }


@dataclass
class PendingBatch:
    """One cut micro-batch queued for the pipeline driver.

    Attributes:
        src / dst / weight / is_delete: the batch arrays (``is_delete`` is
            None for insert-only batches, matching
            :class:`~repro.datasets.stream.Batch`).
        tenant_counts: edges per tenant, released to admission when the
            batch becomes visible.
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
    tenant_counts: dict[str, int]
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
        self._tenant_counts: dict[str, int] = {}
        self._markers: list[tuple[int, float]] = []

    @property
    def size(self) -> int:
        return len(self._src)

    def append(
        self,
        tenant: str,
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
        self._tenant_counts[tenant] = self._tenant_counts.get(tenant, 0) + n
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
            tenant_counts=dict(self._tenant_counts),
            seq_end=self.seq,
            markers=list(self._markers),
            cut_reason=reason,
        )
        self.cut_reasons[reason] = self.cut_reasons.get(reason, 0) + 1
        self._reset()
        return batch
