"""Dynamic graph interface shared by the evaluated data structures.

The paper evaluates the SAGA-Bench *adjacency list* structure (used by
multiple streaming systems) and discusses *degree-aware hashing* (DAH) as an
alternative (Section 6.2.3).  Both implement this interface: batched edge
ingestion with duplicate checking, plus the per-vertex statistics the update
cost models need (batch degree, pre-update adjacency length, new-vs-duplicate
split per direction).

Readers that sweep many adjacencies read them as arrays through
:meth:`DynamicGraph.out_segments`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..datasets.stream import Batch
from ..errors import VertexOutOfRangeError

__all__ = ["DirectionStats", "BatchUpdateStats", "Segments", "DynamicGraph"]


def read_only(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array`` (no copy)."""
    view = array.view()
    view.flags.writeable = False
    return view


def segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + lengths[i] - 1`` of every
    segment ``i``, concatenated in segment order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


class Segments(NamedTuple):
    """One direction's adjacency as arrays, in stored order.

    Vertex ``v``'s neighbours and weights are ``targets[offsets[v] :
    offsets[v] + lengths[v]]`` and the same slice of ``weights``.  Slots
    outside every segment hold garbage.  The arrays are read-only and valid
    until the graph's next :meth:`DynamicGraph.apply_batch`.
    """

    offsets: np.ndarray
    lengths: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def positions(self, owners: np.ndarray | None = None) -> np.ndarray:
        """Slots of the pairs of ``owners`` (default: every vertex),
        owner after owner, each in stored order."""
        if owners is None:
            return segment_positions(self.offsets, self.lengths)
        return segment_positions(self.offsets[owners], self.lengths[owners])


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
        order, instead of building it from the out-adjacency."""
        return True

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
        search: ``k * L`` elements for the pre-existing entries plus the ramp
        of the batch's own inserts (on average, every search after the first
        sees half of them already in place).  Structures with cheaper
        membership tests (DAH) override this.

        Args:
            batch_degree: searches per vertex (``k_v``).
            length_before: adjacency length before the batch (``L_v``).
            new_edges: inserts that grow the adjacency during the batch.
            per_element: modeled cost of touching one adjacency element
                (already adjusted for cache warmth by the caller).

        Returns:
            Array of per-vertex total search costs.
        """
        k = batch_degree.astype(np.float64)
        scanned = (
            k * length_before.astype(np.float64)
            + np.maximum(k - 1.0, 0.0) * new_edges.astype(np.float64) / 2.0
        )
        return per_element * scanned

    @abc.abstractmethod
    def adjacency_views(
        self,
    ) -> tuple[dict[int, dict[int, float]], dict[int, dict[int, float]]]:
        """The (out, in) adjacency as vertex -> {neighbor: weight} mappings.

        For checks and tests: a structure that stores arrays builds these
        mappings on each call, so no timed path calls it.  Callers must
        treat the returned mappings as read-only.
        """

    def out_segments(self) -> Segments:
        """The out-adjacency as :class:`Segments`, for readers that sweep it.

        This default builds them on each call from a CSR walk over
        :meth:`out_neighbors`, so a dict-backed structure still drives every
        engine; a structure that stores segments returns its storage.
        """
        from .snapshot import take_snapshot

        snap = take_snapshot(self)
        return Segments(
            snap.out_offsets[:-1], snap.out_degrees(), snap.out_targets,
            snap.out_weights,
        )

    def consume_phase_overhead(self) -> float:
        """Structure-specific maintenance time accrued by the last batch.

        Structures with background work (e.g. the edge log's archiving)
        report it here; the update engine charges it to the batch regardless
        of strategy, then the accumulator resets.  The plain structures have
        none.
        """
        return 0.0

    @abc.abstractmethod
    def vertices_with_edges(self) -> list[int]:
        """Sorted vertices that have ever had an incident edge (read-only)."""

    @abc.abstractmethod
    def out_degrees(self) -> np.ndarray:
        """Read-only int64 out-degree of every vertex (length ``num_vertices``),
        returned without copying the maintained degree array."""

    @abc.abstractmethod
    def in_degrees(self) -> np.ndarray:
        """Read-only int64 in-degree of every vertex; see :meth:`out_degrees`."""

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge u->v is currently present."""
        return v in self.out_neighbors(u)

    def edge_weight(self, u: int, v: int) -> float | None:
        """Current weight of u->v, or None if absent."""
        return self.out_neighbors(u).get(v)

    def edge_weights(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Current float64 weight of each pair ``src[i] -> dst[i]``, NaN
        where the pair is absent (a stored NaN weight reads as absent).

        Readers that check a whole batch's pairs make this one call instead
        of one :meth:`edge_weight` each.
        """
        return np.array(
            [self.out_neighbors(u).get(v, np.nan)
             for u, v in zip(src.tolist(), dst.tolist())],
            dtype=np.float64,
        )

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
