"""Dynamic graph interface shared by the evaluated data structures.

The paper evaluates the SAGA-Bench *adjacency list* structure (used by
multiple streaming systems) and discusses *degree-aware hashing* (DAH) as an
alternative (Section 6.2.3).  Both implement this interface: batched edge
ingestion with duplicate checking, plus the per-vertex statistics the update
cost models need (batch degree, pre-update adjacency length, new-vs-duplicate
split per direction).

Structures may also journal changes for CSR snapshot patching
(:meth:`DynamicGraph.track_deltas` / :meth:`DynamicGraph.consume_delta`).
Snapshots hold only the out-adjacency, so only the out-direction is
journaled; the in-direction always ingests untracked.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..datasets.stream import Batch
from ..errors import VertexOutOfRangeError

__all__ = ["DirectionStats", "BatchUpdateStats", "GraphDelta", "DynamicGraph"]


def read_only(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array`` (no copy)."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass
class GraphDelta:
    """The out-adjacency's edits since the last snapshot, in order.

    Recorded by structures with delta tracking enabled (see
    :meth:`DynamicGraph.consume_delta`) so ``DeltaSnapshotter`` can splice
    them into a cached CSR snapshot without re-reading any adjacency.
    Each batch journals, in this order: the pairs its inserts added
    (:attr:`APPEND`, each owner's in ascending target order, which is the
    order they enter the owner's dict), the existing pairs whose stored
    weight it changed (:attr:`SET`), and the pairs its deletes removed
    (:attr:`DELETE`).

    Attributes:
        owners/targets: the edited pair of each edit.
        weights: the weight an append or set stored (unused for a delete).
        kinds: each edit's kind, an ``int8`` of :attr:`APPEND`,
            :attr:`SET` or :attr:`DELETE`.
    """

    APPEND = 0
    SET = 1
    DELETE = 2

    owners: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    kinds: np.ndarray

    @classmethod
    def from_journal(
        cls, journal: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    ) -> "GraphDelta":
        """Concatenate ``(owners, targets, weights, kinds)`` journal entries."""
        if not journal:
            none = np.empty(0, dtype=np.int64)
            return cls(
                none, none.copy(), np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int8),
            )
        return cls(*(np.concatenate(part) for part in zip(*journal)))


@dataclass(frozen=True)
class DirectionStats:
    """Per-vertex update statistics for one direction of one batch.

    For the *out* direction, ``vertices`` are the batch's unique sources and
    each source's entries describe updates to its out-adjacency; for the *in*
    direction, destinations and in-adjacency.

    Attributes:
        vertices: unique vertex ids updated in this direction (sorted).
        batch_degree: number of batch edges per vertex (``k_v``).
        length_before: adjacency length before the batch (``L_v``).
        new_edges: entries actually inserted (non-duplicates).
        duplicates: entries that only refreshed an existing edge's weight.
    """

    vertices: np.ndarray
    batch_degree: np.ndarray
    length_before: np.ndarray
    new_edges: np.ndarray

    @property
    def duplicates(self) -> np.ndarray:
        return self.batch_degree - self.new_edges

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return int(self.batch_degree.sum()) if len(self.batch_degree) else 0


@dataclass(frozen=True)
class BatchUpdateStats:
    """Statistics of applying one batch (both directions).

    The update engines derive *all* modeled-time figures from this object, so
    a batch is applied to the structure exactly once no matter how many
    execution strategies are being compared.
    """

    batch_id: int
    batch_size: int
    out: DirectionStats
    inn: DirectionStats
    deleted_edges: int = 0

    @property
    def directions(self) -> tuple[DirectionStats, DirectionStats]:
        return (self.out, self.inn)


class DynamicGraph(abc.ABC):
    """A dynamic graph ingesting batched edge updates.

    Both directions' update stats are reported (out- and in-adjacency),
    since batch reordering must sort by source *and* destination
    (Section 3.2).  A structure may keep in-degrees without in-lists
    (:attr:`keeps_in_lists`).
    """

    def __init__(self, num_vertices: int):
        if num_vertices < 1:
            raise VertexOutOfRangeError(num_vertices, num_vertices)
        self.num_vertices = num_vertices
        self.num_edges = 0
        self.batches_applied = 0

    # -- structure-specific operations ------------------------------------
    @abc.abstractmethod
    def apply_batch(self, batch: Batch) -> BatchUpdateStats:
        """Ingest a batch (insertions, then deletions) and return stats.

        Deletion-after-insertion ordering follows Section 4.4.3 ("software
        triggers HAU to perform all insertions first before performing
        deletions").
        """

    @abc.abstractmethod
    def out_neighbors(self, v: int) -> dict[int, float]:
        """Out-adjacency of ``v`` as a target -> weight mapping."""

    @abc.abstractmethod
    def in_neighbors(self, v: int) -> dict[int, float]:
        """In-adjacency of ``v`` as a source -> weight mapping."""

    @property
    def keeps_in_lists(self) -> bool:
        """True when the in-adjacency is stored: :meth:`in_neighbors` and the
        in-mapping of :meth:`adjacency_views` then read it in its stored
        order, instead of a copy built from the out-adjacency."""
        return True

    @abc.abstractmethod
    def sum_search_cost(
        self,
        batch_degree: np.ndarray,
        length_before: np.ndarray,
        new_edges: np.ndarray,
        per_element: float,
    ) -> np.ndarray:
        """Modeled per-vertex cost of the batch's duplicate-check searches.

        For each vertex, ``batch_degree`` searches run against an adjacency
        that starts at ``length_before`` entries and grows by ``new_edges``
        over the batch.  The plain adjacency list pays a linear scan per
        search; structures with cheaper membership tests (DAH) override this.

        Args:
            batch_degree: searches per vertex (``k_v``).
            length_before: adjacency length before the batch (``L_v``).
            new_edges: inserts that grow the adjacency during the batch.
            per_element: modeled cost of touching one adjacency element
                (already adjusted for cache warmth by the caller).

        Returns:
            Array of per-vertex total search costs.
        """

    @abc.abstractmethod
    def adjacency_views(
        self,
    ) -> tuple[dict[int, dict[int, float]], dict[int, dict[int, float]]]:
        """Direct (out, in) adjacency mappings for read-heavy algorithms.

        The compute engines iterate millions of adjacency entries per round;
        this accessor exposes the underlying vertex -> {neighbor: weight}
        mappings so those loops avoid per-neighbor method dispatch.  Callers
        must treat the returned mappings as read-only.  Without in-lists
        (:attr:`keeps_in_lists` false) the in-mapping is a copy built from
        the out-adjacency on each call.
        """

    def out_adjacency(self) -> dict[int, dict[int, float]]:
        """The live out-mapping of :meth:`adjacency_views`, read-only.

        For readers of the out-direction alone: a structure without stored
        in-lists returns it without building an in-mapping.
        """
        return self.adjacency_views()[0]

    def consume_phase_overhead(self) -> float:
        """Structure-specific maintenance time accrued by the last batch.

        Structures with background work (e.g. the edge log's archiving)
        report it here; the update engine charges it to the batch regardless
        of strategy, then the accumulator resets.  The plain structures have
        none.
        """
        return 0.0

    @abc.abstractmethod
    def track_deltas(self, enabled: bool = True) -> None:
        """Start (or stop) recording out-direction deltas for snapshot patching.

        Off by default so plain ingest pays no tracking cost.
        """

    @abc.abstractmethod
    def consume_delta(self) -> GraphDelta | None:
        """Return and clear the out-direction delta recorded since last call.

        Only meaningful after :meth:`track_deltas`; consumption clears the
        journal, so attach at most one delta consumer per graph.  ``None``
        means "unknown — rebuild snapshots from scratch".
        """

    @abc.abstractmethod
    def vertices_with_edges(self) -> list[int]:
        """Sorted vertices that have ever had an incident edge (read-only)."""

    @abc.abstractmethod
    def notify_external_mutation(self) -> None:
        """Rebuild derived bookkeeping after direct adjacency mutation.

        A few read-mostly algorithms (e.g. the triangle counter) mutate the
        mappings returned by :meth:`adjacency_views` edge by edge instead of
        going through :meth:`apply_batch`; they must call this afterwards so
        maintained state (edge counts, degree caches, delta journals) is
        recomputed from the mappings.
        """

    @abc.abstractmethod
    def out_degrees(self) -> np.ndarray:
        """Read-only int64 out-degree of every vertex (length ``num_vertices``),
        returned without copying the maintained degree array."""

    @abc.abstractmethod
    def in_degrees(self) -> np.ndarray:
        """Read-only int64 in-degree of every vertex; see :meth:`out_degrees`."""

    # -- shared helpers ----------------------------------------------------
    def out_degree(self, v: int) -> int:
        return int(self.out_degrees()[v])

    def in_degree(self, v: int) -> int:
        return int(self.in_degrees()[v])

    def check_vertices(self, *arrays: np.ndarray) -> None:
        """Validate vertex ids against the universe."""
        for arr in arrays:
            if len(arr) and (int(arr.max()) >= self.num_vertices or int(arr.min()) < 0):
                bad = int(arr.max()) if int(arr.max()) >= self.num_vertices else int(arr.min())
                raise VertexOutOfRangeError(bad, self.num_vertices)
