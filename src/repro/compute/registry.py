"""Pluggable compute-algorithm registry for the streaming pipeline.

The pipeline's compute phase dispatches to a :class:`ComputeAlgorithm`
looked up here by name.  The built-in algorithms (Section 6.1's four plus
the extension algorithms) self-register in
:mod:`repro.compute.algorithms`; third-party algorithms register from
anywhere — no pipeline edits required:

    from repro.compute.registry import ComputeAlgorithm, register_algorithm

    @register_algorithm("my_metric")
    class MyMetric(ComputeAlgorithm):
        def on_round(self, batch, affected, covered):
            ...
            return ComputeCounters(iterations=1, ...)

    StreamingPipeline(profile, 1_000, algorithm="my_metric").run(4)

Registered names automatically become valid pipeline algorithms and CLI
``--algorithm`` choices (:data:`ALGORITHMS` is a live view).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.stream import Batch
    from ..graph.base import DynamicGraph
    from .result import ComputeCounters

__all__ = [
    "ALGORITHM_REGISTRY",
    "ALGORITHMS",
    "AlgorithmContext",
    "ComputeAlgorithm",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
]


@dataclass
class AlgorithmContext:
    """Everything a pipeline hands its compute algorithm at construction.

    Mutable on purpose: algorithms that resolve settings lazily (e.g. the
    SSSP family picking a source from the first batch) write the resolved
    value back, so it is observable on the pipeline.

    Attributes:
        graph: the dynamic graph the update phase mutates.
        pr_tolerance / pr_max_rounds: PageRank convergence settings (both
            the incremental and static variants honour them).
        sssp_source: source vertex for SSSP/BFS; None = first batch's first
            source endpoint.
        telemetry: the pipeline's telemetry backend (None when
            uninstrumented); algorithms pass it to the substrate pieces
            they own (e.g. the snapshotter).
    """

    graph: "DynamicGraph"
    pr_tolerance: float = 1e-7
    pr_max_rounds: int = 100
    sssp_source: int | None = None
    telemetry: object = None


class ComputeAlgorithm:
    """One streaming analytics algorithm driven by the pipeline.

    Lifecycle: instantiated once per pipeline with an
    :class:`AlgorithmContext`; :meth:`ensure` runs before *every* batch is
    ingested (lazy engine construction against the pre-batch graph);
    :meth:`on_round` runs once per non-deferred compute round.
    """

    #: Registry key (set by :func:`register_algorithm`).
    name: str = ""

    #: Whether the algorithm reads the graph's in-lists (``in_neighbors``
    #: or the in-mapping of ``adjacency_views``).  A pipeline builds its
    #: graph with in-lists only when this is true, so an algorithm that
    #: reads the out-direction alone sets it to False.
    reads_in_lists: bool = True

    def __init__(self, ctx: AlgorithmContext):
        self.ctx = ctx

    def ensure(self, graph: "DynamicGraph", first_batch: "Batch") -> None:
        """Prepare per-stream state; called before each batch is applied."""

    def on_round(
        self,
        batch: "Batch",
        affected,
        covered: list["Batch"],
    ) -> "ComputeCounters | None":
        """Execute one compute round.

        Args:
            batch: the batch that triggered this round.
            affected: union of vertices touched since the last round
                (including OCA-deferred batches'), as an int array.
            covered: every batch this round covers, oldest first.

        Returns:
            The round's work counters, or None for update-only algorithms
            (the round then costs zero modeled time).
        """
        raise NotImplementedError


#: Registry: algorithm name -> ComputeAlgorithm subclass.
ALGORITHM_REGISTRY: dict[str, type[ComputeAlgorithm]] = {}


def register_algorithm(name: str):
    """Class decorator registering a :class:`ComputeAlgorithm` under ``name``."""

    def decorate(cls: type[ComputeAlgorithm]) -> type[ComputeAlgorithm]:
        if not name:
            raise ConfigurationError("algorithm name must be non-empty")
        cls.name = name
        ALGORITHM_REGISTRY[name] = cls
        return cls

    return decorate


def algorithm_names() -> tuple[str, ...]:
    """Registered algorithm names, in registration order."""
    return tuple(ALGORITHM_REGISTRY)


def get_algorithm(name: str) -> type[ComputeAlgorithm]:
    """Look an algorithm class up by name.

    Raises:
        ConfigurationError: for unregistered names.
    """
    try:
        return ALGORITHM_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"algorithm must be one of {algorithm_names()}, got {name!r}"
        ) from None


class _AlgorithmNames(Sequence):
    """Live, tuple-like view of the registered algorithm names.

    Keeps ``ALGORITHMS`` (and CLI choices built from it) automatically in
    sync with the registry, unlike a tuple frozen at import time.
    """

    def __len__(self) -> int:
        return len(ALGORITHM_REGISTRY)

    def __getitem__(self, index):
        return algorithm_names()[index]

    def __contains__(self, name) -> bool:
        return name in ALGORITHM_REGISTRY

    def __iter__(self):
        return iter(ALGORITHM_REGISTRY)

    def __repr__(self) -> str:
        return repr(algorithm_names())

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, list, Sequence)) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))


#: Supported algorithm labels (live registry view): Section 6.1's four
#: algorithms, the extension algorithms, "none", and anything registered
#: via :func:`register_algorithm`.
ALGORITHMS: Sequence[str] = _AlgorithmNames()
