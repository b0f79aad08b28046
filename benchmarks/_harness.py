"""Shared helpers for the figure/table benchmarks.

Every benchmark regenerates one of the paper's evaluation artifacts and
writes its rendered rows to ``results/<name>.txt`` (in addition to printing),
so ``pytest benchmarks/ --benchmark-only`` leaves a complete, diffable record
behind.  Set ``REPRO_BENCH_FULL=1`` to use the full batch-count caps instead
of the quick defaults, and ``REPRO_BENCH_JOBS=N`` to fan multi-cell
benchmarks out over N worker processes (results are ordering-identical to
the serial run).  Streams are served from the on-disk cache
(``.cache/streams/``) after first generation; ``REPRO_STREAM_CACHE=0``
disables that.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.characterization import geomean
from repro.costs import DEFAULT_COSTS
from repro.datasets.profiles import DatasetProfile
from repro.datasets.stream_cache import cached_batches
from repro.pipeline.config import RunConfig
from repro.pipeline.executor import map_cells
from repro.exec_model.machine import HOST_MACHINE, MachineConfig
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.compute.pagerank import IncrementalPageRank
from repro.compute.cost_model import compute_round_time
from repro.update.cad import cad_from_degrees, instrumentation_time
from repro.update.engine import UpdateEngine, UpdatePolicy
from repro.update.result import STRATEGY_RO, STRATEGY_RO_USC

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Quick-mode batch caps: small enough for a laptop run of the whole bench
#: suite, large enough to reach the steady-state regime per cell.
QUICK_CAPS = {100: 6, 1_000: 6, 10_000: 5, 100_000: 4, 500_000: 2}
FULL_CAPS = {100: 24, 1_000: 24, 10_000: 12, 100_000: 8, 500_000: 4}


def caps() -> dict[int, int]:
    return FULL_CAPS if os.environ.get("REPRO_BENCH_FULL") == "1" else QUICK_CAPS


def bench_jobs() -> int:
    """Worker processes for multi-cell benchmarks (``REPRO_BENCH_JOBS``)."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    except ValueError:
        return 1


def run_cells(fn, items):
    """Map a cell function over items, honouring ``REPRO_BENCH_JOBS``.

    ``fn`` must be module-level and picklable; results keep item order, so
    benchmark artifacts are byte-identical at any job count.
    """
    return map_cells(fn, items, jobs=bench_jobs())


def num_batches(profile: DatasetProfile, batch_size: int) -> int:
    return profile.num_batches(batch_size, cap=caps()[batch_size])


def run_pipeline(dataset: str, batch_size: int, num_batches=None, **overrides):
    """Run one pipeline cell described as data.

    ``overrides`` are :class:`repro.pipeline.config.RunConfig` fields
    (``algorithm``, ``mode``, ``use_oca``, ``oca=OCAConfig(...)``,
    ``pr_tolerance`` ...); returns the run's ``RunMetrics``.
    """
    return RunConfig(
        dataset=dataset,
        batch_size=batch_size,
        num_batches=num_batches,
        **overrides,
    ).run()


def emit(name: str, text: str) -> None:
    """Print a report and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def record(name: str, payload: dict) -> None:
    """Persist a machine-readable summary (joined against the paper targets
    by ``repro fidelity``)."""
    from repro.analysis.experiments import ExperimentStore

    ExperimentStore(RESULTS_DIR).record(name, payload)


class CellRun:
    """One stream pass through a cell, with every strategy's per-batch time.

    The batch is applied once; baseline/RO/RO+USC times come from the
    engine's alternatives, CAD from the batch's degree profile, and
    (optionally) a policy-independent compute time from incremental PR.
    """

    def __init__(
        self,
        profile: DatasetProfile,
        batch_size: int,
        nb: int | None = None,
        machine: MachineConfig = HOST_MACHINE,
        with_compute: bool = False,
        seed: int = 7,
    ):
        self.profile = profile
        self.batch_size = batch_size
        self.machine = machine
        nb = nb if nb is not None else num_batches(profile, batch_size)
        graph = AdjacencyListGraph(profile.num_vertices)
        engine = UpdateEngine(graph, UpdatePolicy.BASELINE, machine=machine)
        pagerank = IncrementalPageRank(graph, tolerance=1e-5, max_rounds=12)
        self.baseline: list[float] = []
        self.reorder: list[float] = []
        self.usc: list[float] = []
        self.cads: list[float] = []
        self.compute: list[float] = []
        self.max_degree = 0
        for batch in cached_batches(profile, batch_size, nb, seed=seed):
            result = engine.ingest(batch)
            self.baseline.append(result.time)
            self.reorder.append(result.alternatives[STRATEGY_RO])
            self.usc.append(result.alternatives[STRATEGY_RO_USC])
            cad = 0.0
            for counts in (batch.in_degrees()[1], batch.out_degrees()[1]):
                cad = max(cad, cad_from_degrees(counts, batch.size, 256))
            self.cads.append(cad)
            self.max_degree = max(self.max_degree, batch.max_degree())
            if with_compute:
                counters = pagerank.on_batch(batch.unique_vertices(), [batch])
                self.compute.append(
                    compute_round_time(counters, machine=machine)
                )

    # -- totals ---------------------------------------------------------------
    @property
    def baseline_update(self) -> float:
        return sum(self.baseline)

    @property
    def ro_update(self) -> float:
        return sum(self.reorder)

    @property
    def usc_update(self) -> float:
        return sum(self.usc)

    @property
    def compute_total(self) -> float:
        return sum(self.compute)

    def perfect_abr_update(self, usc: bool = False) -> float:
        alt = self.usc if usc else self.reorder
        return sum(min(b, r) for b, r in zip(self.baseline, alt))

    def abr_update(
        self, usc: bool = False, n: int = 10, threshold: float = 465.0
    ) -> float:
        """Replay the ABR controller over the recorded per-batch times."""
        reordering = True
        total = 0.0
        alt = self.usc if usc else self.reorder
        workers = self.machine.num_workers
        for index, (t_base, t_alt, cad) in enumerate(
            zip(self.baseline, alt, self.cads)
        ):
            active = index % n == 0
            if active:
                total += instrumentation_time(
                    self.batch_size, reordering, DEFAULT_COSTS, workers
                )
            total += t_alt if reordering else t_base
            if active:
                reordering = cad >= threshold
        return total

    def overall(self, update_times: list[float] | float) -> float:
        """Overall (update + compute) total for a given update-time series."""
        if isinstance(update_times, float):
            return update_times + self.compute_total
        return sum(update_times) + self.compute_total


def fmt_speedup(value: float) -> str:
    return f"{value:.2f}x"


__all__ = [
    "CellRun",
    "QUICK_CAPS",
    "FULL_CAPS",
    "bench_jobs",
    "caps",
    "num_batches",
    "emit",
    "fmt_speedup",
    "geomean",
    "run_cells",
    "run_pipeline",
]
