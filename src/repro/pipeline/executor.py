"""Parallel execution of workload-matrix cells, with per-cell fault isolation.

The evaluation matrix (``pipeline.workloads``) is embarrassingly parallel:
every cell builds its own graph from its own seeded stream, so cells can run
in worker processes with no shared state.  :func:`run_matrix` fans cells out
over a ``ProcessPoolExecutor`` while guaranteeing:

* **determinism** — each cell derives its stream from its spec's seed, and
  results are returned in input order, so ``jobs=N`` output is byte-identical
  to ``jobs=1``;
* **failure isolation** — cells run as *individual* futures.  A cell whose
  function raises reports that cell's error (or, with ``on_error``, a
  substitute result) without discarding or re-running any other cell's work.
  Pool-level failures (a worker killed mid-cell, a sandbox that forbids
  forking) are retried with bounded backoff for the *unfinished* cells only;
  a cell that repeatedly breaks the pool is finally attempted in an isolated
  single-worker pool so the crash attributes to it definitively;
* **bounded stalls** — an optional per-cell timeout (``timeout=`` or
  ``REPRO_CELL_TIMEOUT``) marks a hung cell failed, terminates the stuck
  workers, and continues the remaining cells in a fresh pool.

Environment knobs (all overridable per call):

* ``REPRO_CELL_TIMEOUT`` — per-cell wall-clock timeout in seconds
  (unset/0 = wait forever);
* ``REPRO_EXECUTOR_RETRIES`` — pool-rebuild rounds after a pool-level
  failure before the isolation pass (default 1);
* ``REPRO_EXECUTOR_BACKOFF`` — base sleep in seconds between pool-rebuild
  rounds (default 0.1, scaled linearly with the attempt number);
* ``REPRO_MP_START`` — multiprocessing start method (``fork``,
  ``forkserver`` or ``spawn``); see :func:`mp_context` for the default.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from ..errors import ConfigurationError
from ..telemetry.core import Decision, TelemetrySnapshot, merge_snapshots

__all__ = [
    "CellSpec",
    "CellResult",
    "CellExecutionError",
    "run_matrix",
    "map_cells",
    "default_jobs",
    "mp_context",
    "merged_telemetry",
    "merged_timelines",
    "executor_telemetry",
]

_START_METHODS = ("fork", "forkserver", "spawn")


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every repro worker process is spawned from.

    The platform default start method differs by OS (fork on Linux, spawn on
    macOS/Windows), which makes worker behaviour and fault semantics
    platform-dependent — and fork is unsafe once the parent holds threads
    (POSIX only promises the forking thread survives; any lock another
    thread held stays locked forever in the child).  So the method is pinned
    explicitly:

    * ``REPRO_MP_START`` (``fork``/``forkserver``/``spawn``) wins when set —
      an unknown value raises :class:`~repro.errors.ConfigurationError`;
    * otherwise ``fork`` where available *and* the process is still
      single-threaded (cheap, inherits warm imports), else ``spawn``
      (slow but always safe).  ``forkserver`` is never the default: its
      long-lived server process would not observe environment variables set
      after it starts, which the fault-injection hooks rely on.

    Every matrix-cell pool worker must come from this context so a run's
    process semantics are uniform and testable under both methods.
    """
    name = os.environ.get("REPRO_MP_START", "").strip().lower()
    if name:
        if name not in _START_METHODS:
            raise ConfigurationError(
                f"REPRO_MP_START must be one of {_START_METHODS}, got {name!r}"
            )
        if name not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"REPRO_MP_START={name!r} is not available on this platform "
                f"(available: {multiprocessing.get_all_start_methods()})"
            )
        return multiprocessing.get_context(name)
    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to run one pipeline cell in any process.

    Plain strings/ints only, so specs pickle cheaply into workers.

    Attributes:
        dataset: dataset profile name.
        batch_size: edges per batch.
        algorithm: one of :data:`~repro.pipeline.runner.ALGORITHMS`.
        mode: update-policy mode name (see :data:`~repro.pipeline.modes.MODES`).
        use_oca: enable overlap-based compute aggregation.
        num_batches: batches to stream (None = the profile's full stream).
        seed: stream generator seed (per-cell, so every cell is
            reproducible in isolation).
    """

    dataset: str
    batch_size: int
    algorithm: str = "pr"
    mode: str = "abr_usc"
    use_oca: bool = False
    num_batches: int | None = None
    seed: int = 7


@dataclass(frozen=True)
class CellResult:
    """Summary of one executed cell (picklable, plain values only).

    Attributes:
        telemetry: the cell pipeline's telemetry snapshot, when the run was
            instrumented (``telemetry != "off"``); None otherwise.  Frozen
            plain data, so it ships back from worker processes unchanged.
        timelines: the cell's flight-recorder timeline snapshots (one per
            process of the cell run; empty below telemetry ``full``).
            Like ``telemetry``, excluded from comparison so jobs=N parity
            on the metric fields is unaffected.
        error: None for a successful cell; otherwise a short
            ``"ExceptionType: message"`` string describing why the cell
            failed (its metric fields are all zero in that case).
    """

    spec: CellSpec
    num_batches: int
    update_time: float
    compute_time: float
    strategies: tuple[tuple[str, int], ...]
    telemetry: TelemetrySnapshot | None = field(default=None, compare=False)
    timelines: tuple = field(default=(), compare=False)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def total_time(self) -> float:
        return self.update_time + self.compute_time

    @classmethod
    def failed(cls, spec: CellSpec, error: str) -> "CellResult":
        """The error outcome of a cell that did not complete."""
        return cls(
            spec=spec,
            num_batches=0,
            update_time=0.0,
            compute_time=0.0,
            strategies=(),
            error=error,
        )


class CellExecutionError(RuntimeError):
    """A cell failed inside a worker in a way that has no exception object.

    Raised (or wrapped into an error outcome) when the worker process died
    (e.g. ``os._exit``, OOM-kill, segfault) or exceeded the per-cell
    timeout — there is no traceback to propagate, only a diagnosis.
    """


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` (all cores)."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _CellJob:
    """One cell plus its private checkpoint namespace (picklable).

    ``run_matrix`` wraps configs in jobs when ``checkpoint_root`` is set:
    every cell checkpoints into (and auto-resumes from) its *own*
    subdirectory.  Cells sharing one directory would be corrupted by
    ``save_to_dir``'s keep-pruning — trial A's retention pass would count
    trial B's checkpoints as "old" and delete B's newest live state.
    """

    config: object
    checkpoint_dir: str
    checkpoint_every: int
    checkpoint_keep: int


def _run_cell(item) -> CellResult:
    """Execute one configured run start to finish (inside a worker process).

    Workers receive a pickled :class:`~repro.pipeline.config.RunConfig`
    (or a :class:`_CellJob` carrying one plus a private checkpoint
    namespace) and construct their pipeline through its factory, so the
    worker-side build is exactly the serial one.
    """
    run_kwargs = {}
    if isinstance(item, _CellJob):
        from .checkpoint import latest_checkpoint

        config = item.config
        found = latest_checkpoint(item.checkpoint_dir)
        if found is not None:
            run_kwargs["resume_from"] = found[0]
        run_kwargs["checkpoint_dir"] = item.checkpoint_dir
        run_kwargs["checkpoint_every"] = item.checkpoint_every
        run_kwargs["checkpoint_keep"] = item.checkpoint_keep
    else:
        config = item
    pipeline = config.build_pipeline()
    metrics = pipeline.run(config.num_batches, **run_kwargs)
    if isinstance(item, _CellJob):
        # The runner only checkpoints *between* batches (crash recovery);
        # a finished cell additionally persists its final state so a matrix
        # rerun over the same root restores it without recomputing batches.
        pipeline.save_checkpoint(item.checkpoint_dir, keep=item.checkpoint_keep)
    timelines = tuple(pipeline.timeline_snapshots())
    return CellResult(
        spec=config.to_cell_spec(),
        num_batches=metrics.num_batches,
        update_time=metrics.total_update_time,
        compute_time=metrics.total_compute_time,
        strategies=tuple(sorted(metrics.strategies_used().items())),
        telemetry=(
            pipeline.telemetry.snapshot() if pipeline.telemetry.enabled else None
        ),
        timelines=timelines,
    )


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, "") or default)
    except ValueError:
        return default


@dataclass
class _Failure:
    """Per-item failure marker threaded through the result slots."""

    error: BaseException


_PENDING = object()  # result-slot sentinel: item not finished yet


class _PoolRound:
    """One pool lifetime: submit pending items, harvest until done or broken."""

    def __init__(self, fn, items, results, pending, jobs, timeout, stats):
        self.fn = fn
        self.items = items
        self.results = results
        self.queue = deque(pending)
        self.unfinished = set(pending)
        self.jobs = min(jobs, len(pending))
        self.timeout = timeout
        self.stats = stats
        self.inflight: dict = {}  # future -> item index
        self.deadlines: dict = {}  # future -> monotonic deadline
        self.broke = False  # pool died or was torn down mid-round
        self.unusable = False  # pool could not run at all (fork refused)

    def _submit_next(self, pool) -> None:
        index = self.queue.popleft()
        future = pool.submit(self.fn, self.items[index])
        self.inflight[future] = index
        if self.timeout:
            self.deadlines[future] = time.monotonic() + self.timeout

    def _fail(self, index: int, error: BaseException) -> None:
        self.results[index] = _Failure(error)
        self.unfinished.discard(index)

    def _harvest(self, future) -> None:
        index = self.inflight.pop(future)
        self.deadlines.pop(future, None)
        try:
            self.results[index] = future.result()
            self.unfinished.discard(index)
        except BrokenProcessPool:
            # The worker died; this item (and everything still inflight)
            # stays unfinished for the retry round.
            self.broke = True
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            # A genuine error raised by ``fn`` (or its result failed to
            # pickle): the *cell's* outcome, never retried.
            self.stats["errors"] = self.stats.get("errors", 0) + 1
            self._fail(index, exc)

    def _expire_overdue(self) -> bool:
        """Mark futures past their deadline failed; True if any expired."""
        now = time.monotonic()
        overdue = [
            future
            for future, deadline in self.deadlines.items()
            if deadline <= now and not future.done()
        ]
        for future in overdue:
            index = self.inflight.pop(future)
            self.deadlines.pop(future, None)
            self.stats["timeouts"] = self.stats.get("timeouts", 0) + 1
            self._fail(
                index,
                CellExecutionError(
                    f"cell timed out after {self.timeout:g}s in a worker process"
                ),
            )
        return bool(overdue)

    def run(self) -> list[int]:
        """Execute the round; returns the still-unfinished indices, sorted."""
        try:
            pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=mp_context())
        except (OSError, ValueError):
            self.unusable = True
            return sorted(self.unfinished)
        kill = False
        try:
            try:
                while self.queue and len(self.inflight) < self.jobs:
                    self._submit_next(pool)
                while self.inflight and not self.broke:
                    if self.deadlines:
                        budget = min(self.deadlines.values()) - time.monotonic()
                        done, _ = wait(
                            list(self.inflight),
                            timeout=max(budget, 0.0),
                            return_when=FIRST_COMPLETED,
                        )
                    else:
                        done, _ = wait(
                            list(self.inflight), return_when=FIRST_COMPLETED
                        )
                    if not done:
                        if self._expire_overdue():
                            # The stuck worker cannot be reclaimed; tear the
                            # pool down and let the caller rebuild for the
                            # remaining cells.
                            kill = True
                            self.broke = True
                        continue
                    for future in done:
                        self._harvest(future)
                        if self.broke:
                            break
                        if self.queue:
                            self._submit_next(pool)
            except BrokenProcessPool:
                self.broke = True
            except OSError:
                # Forking refused mid-round (sandbox): whatever is left runs
                # serially in the caller.
                self.unusable = True
        finally:
            if kill:
                for process in list((getattr(pool, "_processes", None) or {}).values()):
                    try:
                        process.terminate()
                    except OSError:
                        pass
            pool.shutdown(wait=True, cancel_futures=True)
        return sorted(self.unfinished)


def _run_isolated(fn, item, timeout, stats):
    """Run one item in its own single-worker pool; returns result slot value.

    Used as the last resort for items that survived the retry rounds: a
    crash here attributes to this item definitively, so it gets an error
    outcome while every other cell's result is preserved.
    """
    stats["isolated"] = stats.get("isolated", 0) + 1
    try:
        pool = ProcessPoolExecutor(max_workers=1, mp_context=mp_context())
    except (OSError, ValueError):
        return _Failure(
            CellExecutionError("worker pool unavailable for isolated retry")
        )
    kill = False
    try:
        future = pool.submit(fn, item)
        try:
            return future.result(timeout=timeout or None)
        except BrokenProcessPool:
            return _Failure(
                CellExecutionError(
                    "worker process died while executing this cell"
                )
            )
        except TimeoutError:
            kill = True
            stats["timeouts"] = stats.get("timeouts", 0) + 1
            return _Failure(
                CellExecutionError(
                    f"cell timed out after {timeout:g}s in a worker process"
                )
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            stats["errors"] = stats.get("errors", 0) + 1
            return _Failure(exc)
    finally:
        if kill:
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except OSError:
                    pass
        pool.shutdown(wait=True, cancel_futures=True)


def _map_serial(fn, items, indices, results, on_error, stats) -> None:
    for index in indices:
        try:
            results[index] = fn(items[index])
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            stats["errors"] = stats.get("errors", 0) + 1
            results[index] = _Failure(exc)
            if on_error is None:
                # Preserve fail-fast semantics serially: nothing after this
                # item has started, so stopping loses no completed work.
                break


def map_cells(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    *,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    on_error: Callable[[T, BaseException], R] | None = None,
    stats: dict | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    ``fn`` must be a module-level callable and items/results picklable when
    ``jobs > 1``.  Results always come back in input order.

    Every item runs as its own future, so failures are isolated per item:

    * an exception raised by ``fn`` (or an unpicklable result) fails *that
      item only* — with ``on_error`` the substitute ``on_error(item, exc)``
      takes its slot; without it the first error re-raises after the
      already-running items finish.  Either way no completed item is ever
      re-executed (the old implementation re-ran the whole list serially);
    * a pool-level failure (worker killed, fork refused) retries only the
      unfinished items, up to ``retries`` pool rebuilds with linear
      ``backoff``; stubborn items get one final attempt in an isolated
      single-worker pool so a crash attributes to the guilty item;
    * with ``timeout`` (or ``REPRO_CELL_TIMEOUT``), an item stuck in a
      worker longer than ``timeout`` seconds fails with
      :class:`CellExecutionError` and its worker is terminated.

    Args:
        fn: module-level callable applied to each item.
        items: the work list.
        jobs: worker processes (1 = serial in-process, 0 = all cores).
        timeout: per-item wall-clock seconds (None = ``REPRO_CELL_TIMEOUT``,
            0 = no limit).
        retries: pool-rebuild rounds after pool-level failures
            (None = ``REPRO_EXECUTOR_RETRIES``, default 1).
        backoff: base seconds slept between pool rebuilds
            (None = ``REPRO_EXECUTOR_BACKOFF``, default 0.1).
        on_error: optional ``(item, exception) -> result`` hook supplying a
            substitute result for failed items instead of raising.
        stats: optional dict accumulating executor counters
            (``errors``, ``timeouts``, ``pool_breaks``, ``pool_retries``,
            ``isolated``, ``serial_fallback``).
    """
    items = list(items)
    if stats is None:
        stats = {}
    if jobs <= 0:
        jobs = default_jobs()
    if timeout is None:
        timeout = _env_float("REPRO_CELL_TIMEOUT", 0.0)
    timeout = timeout or 0.0
    if retries is None:
        retries = int(_env_float("REPRO_EXECUTOR_RETRIES", 1.0))
    if backoff is None:
        backoff = _env_float("REPRO_EXECUTOR_BACKOFF", 0.1)

    results: list = [_PENDING] * len(items)
    pending = list(range(len(items)))
    if jobs == 1 or len(items) <= 1:
        _map_serial(fn, items, pending, results, on_error, stats)
    else:
        attempt = 0
        while pending:
            round_ = _PoolRound(fn, items, results, pending, jobs, timeout, stats)
            pending = round_.run()
            if round_.unusable:
                # The environment cannot run worker processes at all;
                # serial in-process execution computes the same results.
                stats["serial_fallback"] = stats.get("serial_fallback", 0) + 1
                _map_serial(fn, items, pending, results, on_error, stats)
                pending = []
                break
            if not pending:
                break
            stats["pool_breaks"] = stats.get("pool_breaks", 0) + 1
            attempt += 1
            if attempt > retries:
                break
            stats["pool_retries"] = stats.get("pool_retries", 0) + 1
            if backoff > 0:
                time.sleep(backoff * attempt)
        for index in pending:
            results[index] = _run_isolated(fn, items[index], timeout, stats)

    out: list = []
    first_error: BaseException | None = None
    for index, slot in enumerate(results):
        if slot is _PENDING:  # serial fail-fast stopped before this item
            slot = _Failure(
                CellExecutionError("not executed: an earlier cell failed")
            )
        if isinstance(slot, _Failure):
            if on_error is not None:
                out.append(on_error(items[index], slot.error))
            elif first_error is None:
                first_error = slot.error
        else:
            out.append(slot)
    if first_error is not None:
        raise first_error
    return out


def run_matrix(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    *,
    timeout: float | None = None,
    stats: dict | None = None,
    checkpoint_root: str | None = None,
    checkpoint_every: int = 5,
    checkpoint_keep: int = 3,
    checkpoint_names: Sequence[str] | None = None,
) -> list[CellResult]:
    """Run workload cells, ``jobs`` at a time; results in spec order.

    Accepts :class:`CellSpec` rows (lifted into
    :class:`~repro.pipeline.config.RunConfig` for the workers) or
    ready-made ``RunConfig`` objects.  ``jobs=1`` runs serially in-process;
    ``jobs=0`` uses every core.  Each cell is self-seeded via its config,
    so the result list is identical regardless of ``jobs``.

    Failures never discard completed work: a cell whose worker raises,
    dies, or times out comes back as :meth:`CellResult.failed` (inspect
    :attr:`CellResult.error`) while every other cell's result is returned
    normally.  Pass ``stats`` to collect the executor's retry/timeout
    counters (see :func:`executor_telemetry`).

    Args:
        checkpoint_root: when set, every cell checkpoints its pipeline
            state every ``checkpoint_every`` batches into its **own**
            subdirectory of this root — ``checkpoint_names[i]`` when given,
            else ``cell-<i>`` — and auto-resumes from the newest checkpoint
            found there.  The per-cell namespace is load-bearing for
            correctness, not just hygiene: concurrent cells sharing one
            directory would have ``save_to_dir``'s keep-pruning delete each
            other's newest live checkpoints.
        checkpoint_every: batches between checkpoints (with
            ``checkpoint_root``).
        checkpoint_keep: newest checkpoints retained per cell.
        checkpoint_names: per-cell subdirectory names (must match ``specs``
            in length); names must be unique.
    """
    from .config import RunConfig

    configs = [
        spec if isinstance(spec, RunConfig) else RunConfig.from_cell_spec(spec)
        for spec in specs
    ]
    items: list = configs
    if checkpoint_root is not None:
        if checkpoint_names is None:
            checkpoint_names = [f"cell-{i:04d}" for i in range(len(configs))]
        if len(checkpoint_names) != len(configs):
            raise ConfigurationError(
                f"checkpoint_names has {len(checkpoint_names)} entries for "
                f"{len(configs)} cells"
            )
        if len(set(checkpoint_names)) != len(checkpoint_names):
            raise ConfigurationError(
                "checkpoint_names must be unique: two cells writing into "
                "one directory would keep-prune each other's checkpoints"
            )
        items = [
            _CellJob(
                config=config,
                checkpoint_dir=os.path.join(checkpoint_root, name),
                checkpoint_every=checkpoint_every,
                checkpoint_keep=checkpoint_keep,
            )
            for config, name in zip(configs, checkpoint_names)
        ]

    def cell_error(item, exc: BaseException) -> CellResult:
        config = item.config if isinstance(item, _CellJob) else item
        return CellResult.failed(
            config.to_cell_spec(), f"{type(exc).__name__}: {exc}"
        )

    return map_cells(
        _run_cell,
        items,
        jobs=jobs,
        timeout=timeout,
        on_error=cell_error,
        stats=stats,
    )


def merged_telemetry(results: Sequence[CellResult]) -> TelemetrySnapshot | None:
    """Deterministically merge the cells' telemetry snapshots.

    Snapshots merge in result (= submission) order — counters sum, spans
    and histograms pool, decision ledgers concatenate — so the aggregate
    is identical for ``jobs=1`` and ``jobs=N``.  Returns None when no cell
    was instrumented.  Failed cells carry no snapshot and merge as nothing.
    """
    snapshots = [r.telemetry for r in results if r.telemetry is not None]
    return merge_snapshots(snapshots) if snapshots else None


def merged_timelines(results: Sequence[CellResult]) -> list:
    """Every cell's timeline snapshots, in result (= submission) order.

    Executor workers stamp events with the machine-wide monotonic clock
    (``perf_counter`` is CLOCK_MONOTONIC on Linux), so cross-process
    snapshots from one host are already clock-aligned; each keeps its own
    (run_id, pid) track in the Chrome trace export.  Empty below
    telemetry level ``full``.
    """
    return [snap for r in results for snap in r.timelines]


def executor_telemetry(
    results: Sequence[CellResult], stats: dict | None = None
) -> TelemetrySnapshot:
    """The executor's own health counters and failure ledger as a snapshot.

    Separate from :func:`merged_telemetry` (which aggregates what ran
    *inside* the cells) so serial/parallel cell aggregation stays
    bit-identical; merge the two when exporting.  Counters:

    * ``executor.cells`` / ``executor.cells_failed`` — outcome totals;
    * ``executor.errors`` / ``executor.timeouts`` — per-cell failures seen;
    * ``executor.pool_breaks`` / ``executor.pool_retries`` /
      ``executor.isolated`` / ``executor.serial_fallback`` — pool-level
      recovery activity (from the ``stats`` dict of
      :func:`map_cells`/:func:`run_matrix`).

    Each failed cell also appends a ``kind="cell"`` :class:`Decision` with
    the spec coordinates and the error string, so ``repro report`` can show
    *which* cells failed and why.
    """
    failed = [r for r in results if r.error is not None]
    counters: dict[str, float] = {
        "executor.cells": float(len(results)),
        "executor.cells_failed": float(len(failed)),
    }
    for key, value in (stats or {}).items():
        counters[f"executor.{key}"] = float(value)
    decisions = tuple(
        Decision(
            kind="cell",
            choice="error",
            batch_id=None,
            inputs=(
                ("batch_size", r.spec.batch_size),
                ("dataset", r.spec.dataset),
                ("error", r.error),
                ("mode", r.spec.mode),
            ),
        )
        for r in failed
    )
    return TelemetrySnapshot(level="basic", counters=counters, decisions=decisions)
