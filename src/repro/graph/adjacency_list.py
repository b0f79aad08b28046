"""The adjacency-list dynamic graph structure (the paper's evaluated one).

SAGA-Bench's adjacency list keeps, per vertex, a growable array of
``<neighbor, weight>`` entries; updating an edge requires a linear duplicate-
check scan of that array (Section 4.3).  We keep that shape: each direction
stores every vertex's entries as one *segment* of a shared *pool*, a pair of
numpy arrays (targets, weights).  A segment has a power-of-two capacity; its
unused part is its *slack*, which later inserts fill without moving it.  The
modeled duplicate-check cost charged by the update engines stays that of
the linear array scan the paper's structure performs — the split between
real mutation and modeled time is the library's core substitution
(DESIGN.md §2).

Batch ingestion is vectorized: one sort of composite ``src * |V| + dst``
keys deduplicates the batch, a binary search of its sorted keys for each
pair its owners store finds which pairs are already present, and new pairs
land in their owners' slack with numpy scatters.  A segment that outgrows
its capacity moves to the pool's end with at least twice the capacity, so
the slots left behind stay fewer than the live segments' own.  Each
segment keeps the order of ``repro.graph.reference``'s per-vertex dict
loop, the semantics oracle: a new pair goes to its owner's tail in
first-arrival order, a repeat updates its weight in place (the last
arrival wins), and a delete closes its gap keeping the rest in order.  The
two produce bit-identical :class:`~repro.graph.base.DirectionStats`.

Both directions' stats come from the out-merge: the in-direction holds its
transpose, so the pairs the out-merge found new, grouped by destination,
are the in-direction's new entries.  A graph built with
``keep_in_lists=False`` stores the in-degree array alone; one that keeps
in-lists fills a second pool from the merge: it appends the new pairs
without a search, and looks up only the stored pairs whose weight changed.
"""

from __future__ import annotations

import numpy as np

from ..datasets.stream import Batch, sorted_unique
from .base import (
    BatchUpdateStats,
    DirectionStats,
    DynamicGraph,
    Segments,
    read_only,
    segment_positions,
)

__all__ = ["AdjacencyListGraph", "MIN_CAPACITY"]

#: Capacity of a vertex's first segment (measured in docs/MODEL.md,
#: "Segment storage").
MIN_CAPACITY = 2


def _starts(sorted_values: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array begins."""
    heads = np.empty(len(sorted_values), dtype=bool)
    heads[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=heads[1:])
    return np.flatnonzero(heads)


def _runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and the length of each run."""
    starts = _starts(sorted_values)
    return sorted_values[starts], np.diff(np.append(starts, len(sorted_values)))


def _keys(owners: np.ndarray, targets: np.ndarray, nv: int) -> np.ndarray:
    """The int64 ``owner * V + target`` key of each pair."""
    owners = owners.astype(np.int64, copy=False)
    return owners * nv + targets.astype(np.int64, copy=False)


def _capacity(lengths: np.ndarray) -> np.ndarray:
    """The smallest power of two holding each length, at least MIN_CAPACITY."""
    exponent = np.frexp(np.asarray(lengths - 1, dtype=np.float64))[1]
    return np.maximum(np.left_shift(1, exponent.astype(np.int64)), MIN_CAPACITY)


def _empty_direction_stats() -> DirectionStats:
    empty = np.empty(0, dtype=np.int64)
    return DirectionStats(
        vertices=empty,
        batch_degree=empty.copy(),
        length_before=empty.copy(),
        new_edges=empty.copy(),
    )


class _Pool:
    """One direction's adjacency: a segment per vertex in one pair of arrays.

    Vertex ``v``'s pairs sit at ``targets[start[v] : start[v] + length[v]]``
    (and the same slots of ``weights``), in the reference loop's order.
    ``capacity[v]`` slots are reserved from ``start[v]``: 0 before ``v``'s
    first pair, else a power of two of at least :data:`MIN_CAPACITY`.  The
    first ``used`` slots of the arrays are handed out.

    Args:
        num_vertices: vertex universe size.
        length: the array to keep the segment lengths in (a new one by
            default), so a graph can hand it out as its degree array.
    """

    def __init__(self, num_vertices: int, length: np.ndarray | None = None):
        self.start = np.zeros(num_vertices, dtype=np.int64)
        self.capacity = np.zeros(num_vertices, dtype=np.int64)
        self.length = (
            np.zeros(num_vertices, dtype=np.int64) if length is None else length
        )
        self.targets = np.empty(0, dtype=np.int64)
        self.weights = np.empty(0, dtype=np.float64)
        self.used = 0

    @classmethod
    def from_mapping(cls, mapping: dict, num_vertices: int, length=None) -> "_Pool":
        """A pool holding ``mapping``'s ``{vertex: {target: weight}}``
        entries in its dicts' order (what older pickles stored)."""
        pool = cls(num_vertices, length)
        lengths = np.fromiter(map(len, mapping.values()), np.int64, len(mapping))
        verts = np.fromiter(mapping.keys(), np.int64, len(mapping))[lengths > 0]
        lengths = lengths[lengths > 0]
        capacity = _capacity(lengths)
        pool.used = int(capacity.sum())
        pool.targets = np.empty(pool.used, dtype=np.int64)
        pool.weights = np.empty(pool.used, dtype=np.float64)
        start = np.cumsum(capacity) - capacity
        slots = segment_positions(start, lengths)
        pool.targets[slots] = [t for v in verts.tolist() for t in mapping[v]]
        pool.weights[slots] = [w for v in verts.tolist() for w in mapping[v].values()]
        pool.length[:] = 0
        pool.start[verts], pool.capacity[verts] = start, capacity
        pool.length[verts] = lengths
        return pool

    # -- reads ---------------------------------------------------------------

    def segments(self) -> Segments:
        return Segments(*map(
            read_only, (self.start, self.length, self.targets, self.weights)
        ))

    def neighbors(self, v: int) -> dict[int, float]:
        a = int(self.start[v])
        b = a + int(self.length[v])
        return dict(zip(self.targets[a:b].tolist(), self.weights[a:b].tolist()))

    def mapping(self) -> dict[int, dict[int, float]]:
        """A ``{vertex: {target: weight}}`` copy of every non-empty segment."""
        return {v: self.neighbors(v) for v in np.flatnonzero(self.length).tolist()}

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each pair, or -1 where it is absent.

        ``keys`` are distinct ``owner * V + target`` keys, ascending.  Only
        their owners' segments are read: each stored pair is looked up in
        ``keys`` with a binary search, so the cost follows those owners'
        degrees (times the log of the key count), with no sort of them.
        """
        owners = keys // len(self.start)
        owners = owners[_starts(owners)]
        lengths = self.length[owners]
        positions = segment_positions(self.start[owners], lengths)
        slots = np.full(len(keys), -1, dtype=np.int64)
        if not len(positions):
            return slots
        held = np.repeat(owners * len(self.start), lengths)
        held += self.targets[positions]
        # Owner after owner, the stored keys rise between segments, which
        # keeps the searches' paths in cache.
        at = np.searchsorted(keys, held)
        np.minimum(at, len(keys) - 1, out=at)
        hit = keys[at] == held
        slots[at[hit]] = positions[hit]
        return slots

    # -- writes --------------------------------------------------------------

    def merge(
        self,
        keys: np.ndarray,
        owners: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        arrival: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge a batch's distinct pairs.

        ``keys`` are the pairs' ascending ``owner * V + target`` keys,
        ``weights`` (float64) the weight of each pair's last arrival in the
        batch and ``arrival`` the batch position of its first.  A stored
        pair takes its new weight in place; new pairs go to their owners'
        tails in arrival order.

        Returns:
            (which pairs were new, which stored ones changed their weight's
            bits).
        """
        slots = self.find(keys)
        held = slots >= 0
        stored = slots[held]
        reweighted = np.zeros(len(keys), dtype=bool)
        reweighted[held] = (
            self.weights[stored].view(np.int64) != weights[held].view(np.int64)
        )
        self.weights[stored] = weights[held]
        is_new = ~held
        if is_new.any():
            self.append(
                owners[is_new], targets[is_new], weights[is_new], arrival[is_new]
            )
        return is_new, reweighted

    def reweight(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Set the weights of stored pairs; ``keys`` distinct, ascending."""
        self.weights[self.find(keys)] = weights

    def append(
        self,
        owners: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        arrival: np.ndarray,
    ) -> None:
        """Append pairs absent from the pool to their owners' tails, in the
        order of ``arrival``."""
        # By owner, then arrival: a plain sort of one composite key is
        # ~10x faster than np.lexsort here.
        order = np.argsort(
            owners.astype(np.int64) * (int(arrival.max()) + 1) + arrival
        )
        verts, counts = _runs(owners[order])
        length = self.length[verts]
        need = length + counts
        grow = need > self.capacity[verts]
        if grow.any():
            self._move(verts[grow], need[grow])
        slots = segment_positions(self.start[verts] + length, counts)
        self.targets[slots] = targets[order]
        self.weights[slots] = weights[order]
        self.length[verts] = need

    def _move(self, verts: np.ndarray, need: np.ndarray) -> None:
        """Move the segments of ``verts`` to the pool's end, each with room
        for ``need`` pairs.  Their old slots stay unused: each move at
        least doubles a capacity, so those stay fewer than the live ones."""
        capacity = _capacity(need)
        total = int(capacity.sum())
        self._grow(total)
        lengths = self.length[verts]
        start = self.used + np.cumsum(capacity) - capacity
        old = segment_positions(self.start[verts], lengths)
        moved = segment_positions(start, lengths)
        self.targets[moved] = self.targets[old]
        self.weights[moved] = self.weights[old]
        self.start[verts] = start
        self.capacity[verts] = capacity
        self.used += total

    def _grow(self, extra: int) -> None:
        """Make room for ``extra`` more slots, at least doubling the arrays."""
        if self.used + extra <= len(self.targets):
            return
        size = max(self.used + extra, 2 * len(self.targets))
        for name in ("targets", "weights"):
            old = getattr(self, name)
            new = np.empty(size, dtype=old.dtype)
            new[: self.used] = old[: self.used]
            setattr(self, name, new)

    def delete(self, keys: np.ndarray) -> np.ndarray:
        """Delete the stored pairs among ``keys`` (distinct ``owner * V +
        target`` keys, ascending); returns which were stored."""
        slots = self.find(keys)
        hit = slots >= 0
        if hit.any():
            self._close(keys[hit] // len(self.start), slots[hit])
        return hit

    def _close(self, owners: np.ndarray, slots: np.ndarray) -> None:
        """Remove the pairs at ``slots`` (of ``owners``, ascending), closing
        each segment's gaps with its remaining pairs in order."""
        verts, gone = _runs(owners)
        lengths = self.length[verts]
        first = self.start[verts]
        positions = segment_positions(first, lengths)
        keep = np.ones(len(positions), dtype=bool)
        keep[np.repeat(np.cumsum(lengths) - lengths - first, gone) + slots] = False
        remaining = lengths - gone
        closed = segment_positions(first, remaining)
        kept = positions[keep]
        self.targets[closed] = self.targets[kept]
        self.weights[closed] = self.weights[kept]
        self.length[verts] = remaining


class AdjacencyListGraph(DynamicGraph):
    """Dynamic graph with per-vertex adjacency arrays, pooled.

    Args:
        num_vertices: size of the vertex id universe.
        keep_in_lists: store the in-direction's segments too.  Without them
            the graph keeps in-degrees only: :meth:`adjacency_views` and
            :meth:`in_neighbors` build in-mappings from the out-segments on
            request, with the same content but no set order.  A pipeline
            passes its algorithm's ``reads_in_lists``.
    """

    def __init__(self, num_vertices: int, keep_in_lists: bool = True):
        super().__init__(num_vertices)
        self._out = _Pool(num_vertices)
        # With in-lists, the in-pool's lengths are the in-degrees.
        self._deg_in = np.zeros(num_vertices, dtype=np.int64)
        self._in = _Pool(num_vertices, self._deg_in) if keep_in_lists else None
        # Vertices that ever had an incident edge, and their sorted list
        # (rebuilt on request after new ones appear).
        self._touched = np.zeros(num_vertices, dtype=bool)
        self._touched_sorted: list[int] | None = None

    # -- queries -----------------------------------------------------------
    def out_neighbors(self, v: int) -> dict[int, float]:
        return self._out.neighbors(v)

    def in_neighbors(self, v: int) -> dict[int, float]:
        if self._in is None:
            return self._in_from_out().get(v, {})
        return self._in.neighbors(v)

    @property
    def keeps_in_lists(self) -> bool:
        return self._in is not None

    def edge_weights(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        self.check_vertices(src, dst)
        nv = self.num_vertices
        keys = _keys(src, dst, nv)
        distinct = sorted_unique(keys)
        slots = self._out.find(distinct)
        found = slots >= 0
        weights = np.full(len(distinct), np.nan)
        weights[found] = self._out.weights[slots[found]]
        return weights[np.searchsorted(distinct, keys)]

    def out_segments(self) -> Segments:
        return self._out.segments()

    def adjacency_views(
        self,
    ) -> tuple[dict[int, dict[int, float]], dict[int, dict[int, float]]]:
        """Copies of both directions, each vertex's entries in stored order.

        Vertices without entries are left out.  Without in-lists the
        in-mapping is built from the out-segments.
        """
        out = self._out.mapping()
        return out, (self._in_from_out(out) if self._in is None else self._in.mapping())

    def _in_from_out(self, out=None) -> dict[int, dict[int, float]]:
        """The in-mapping of a graph without in-lists, from the out-segments."""
        inn: dict[int, dict[int, float]] = {}
        for u, nbrs in (self._out.mapping() if out is None else out).items():
            for v, w in nbrs.items():
                inn.setdefault(v, {})[u] = w
        return inn

    def out_degrees(self) -> np.ndarray:
        return read_only(self._out.length)

    def in_degrees(self) -> np.ndarray:
        return read_only(self._deg_in)

    def vertices_with_edges(self) -> list[int]:
        """Vertices that have ever had an incident edge (treat as read-only).

        Includes vertices whose edges were all deleted since.
        """
        if self._touched_sorted is None:
            self._touched_sorted = np.flatnonzero(self._touched).tolist()
        return self._touched_sorted

    def __setstate__(self, state: dict) -> None:
        """Load pickles of the dict-backed graph too.

        Those hold per-vertex dicts (``_out`` and, with in-lists, ``_in``),
        a set of touched vertices and the retired delta journal.  The dicts
        become segments in their own order; the journal is dropped.
        """
        if isinstance(state.get("_out"), dict):
            for name in ("_track", "_delta_invalid", "_journal_out", "_stale_out",
                         "_journal_in", "_stale_in", "_deg_out"):
                state.pop(name, None)
            nv = state["num_vertices"]
            state["_out"] = _Pool.from_mapping(state["_out"], nv)
            if state["_in"] is not None:
                state["_in"] = _Pool.from_mapping(state["_in"], nv, state["_deg_in"])
            touched = np.zeros(nv, dtype=bool)
            touched[list(state["_touched"])] = True
            state["_touched"] = touched
            state["_touched_sorted"] = None
        self.__dict__.update(state)

    # -- updates -----------------------------------------------------------
    def _touch(self, *vertex_arrays: np.ndarray) -> None:
        for vertices in vertex_arrays:
            if len(vertices):
                self._touched[vertices] = True
                self._touched_sorted = None

    def _insert(
        self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> tuple[DirectionStats, DirectionStats]:
        """Merge a batch's inserts; returns both directions' stats.

        Duplicate edges (same pair, whether already in the graph or
        repeated inside the batch) overwrite the stored weight — the paper's
        "update the weight only" semantics; for in-batch repeats the last
        arrival wins.
        """
        if len(src) == 0:
            return _empty_direction_stats(), _empty_direction_stats()
        nv = self.num_vertices
        keys = _keys(src, dst, nv)
        # One sort both deduplicates the batch and groups it by owner (a
        # stable one costs 5x more at 50K edges than reducing each run).
        order = np.argsort(keys)
        keys = keys[order]
        heads = _starts(keys)
        first = np.minimum.reduceat(order, heads)  # each distinct pair's first
        last = np.maximum.reduceat(order, heads)  # and last arrival
        owners, targets = src[first], dst[first]
        weights = weight[last].astype(np.float64, copy=False)
        verts, batch_degree = _runs(src[order])
        length_before = self._out.length[verts]
        is_new, reweighted = self._out.merge(
            keys[heads], owners, targets, weights, first
        )
        out_stats = DirectionStats(
            vertices=verts,
            batch_degree=batch_degree,
            length_before=length_before,
            new_edges=self._out.length[verts] - length_before,
        )
        in_stats = self._in_stats(dst, targets[is_new])
        if self._in is None:
            self._deg_in[in_stats.vertices] += in_stats.new_edges
        else:
            # The in-pool holds the transpose: the pairs new to the
            # out-pool are new to it, and of the stored ones only those
            # whose weight changed need finding.
            if reweighted.any():
                flipped = _keys(targets[reweighted], owners[reweighted], nv)
                flip = np.argsort(flipped)
                self._in.reweight(flipped[flip], weights[reweighted][flip])
            if is_new.any():
                self._in.append(
                    targets[is_new], owners[is_new], weights[is_new], first[is_new]
                )
        self._touch(
            verts[length_before == 0],
            in_stats.vertices[in_stats.length_before == 0],
        )
        return out_stats, in_stats

    def _in_stats(self, dst: np.ndarray, new_dst: np.ndarray) -> DirectionStats:
        """The in-direction's stats, from the out-merge.

        ``dst`` holds the batch's insert destinations, repeats included,
        and ``new_dst`` the destination of each distinct pair the out-merge
        found new: the in-direction's new entries.
        """
        verts, batch_degree = _runs(np.sort(dst))
        # Sorted queries keep the binary searches cache-friendly: 5x faster
        # than searching in pair order on 40K-edge batches.
        new_edges = np.bincount(
            np.searchsorted(verts, np.sort(new_dst)), minlength=len(verts)
        )
        return DirectionStats(
            vertices=verts,
            batch_degree=batch_degree,
            length_before=self._deg_in[verts],
            new_edges=new_edges,
        )

    def _delete(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Remove the listed edges that are present; returns how many.

        A pair listed twice is removed once, and an absent one is a no-op.
        """
        nv = self.num_vertices
        keys = sorted_unique(_keys(src, dst, nv))
        hit = self._out.delete(keys)
        if not hit.any():
            return 0
        hit_src, hit_dst = np.divmod(keys[hit], nv)
        if self._in is None:
            verts, counts = _runs(np.sort(hit_dst))
            self._deg_in[verts] -= counts
        else:
            self._in.delete(np.sort(hit_dst * nv + hit_src))
        return len(hit_src)

    def apply_batch(self, batch: Batch) -> BatchUpdateStats:
        """Ingest a batch: all insertions first, then deletions (§4.4.3)."""
        self.check_vertices(batch.src, batch.dst)
        inserts = batch.insertions
        out_stats, in_stats = self._insert(inserts.src, inserts.dst, inserts.weight)
        inserted = int(out_stats.new_edges.sum()) if len(out_stats.new_edges) else 0
        deletes = batch.deletions
        deleted = self._delete(deletes.src, deletes.dst) if deletes.size else 0
        self.num_edges += inserted - deleted
        self.batches_applied += 1
        return BatchUpdateStats(
            batch_id=batch.batch_id,
            batch_size=batch.size,
            out=out_stats,
            inn=in_stats,
            deleted_edges=deleted,
        )
