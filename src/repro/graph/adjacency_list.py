"""The adjacency-list dynamic graph structure (the paper's evaluated one).

SAGA-Bench's adjacency list keeps, per vertex, a growable array of
``<neighbor, weight>`` entries; updating an edge requires a linear duplicate-
check scan of that array (Section 4.3).  We store each vertex's adjacency as a
Python dict (neighbor -> weight) for C-speed *functional* updates, while the
modeled duplicate-check cost charged by the update engines remains that of the
linear array scan the paper's structure performs — the split between real
mutation and modeled time is the library's core substitution (DESIGN.md §2).

Batch ingestion is vectorized: edges are deduplicated and grouped with one
composite-key sort (``key * |V| + value``) and ``flatnonzero`` segment
arithmetic, per-vertex adjacency lengths live in a maintained degree array,
and the surviving per-edge dict merges run through C-level ``map`` calls —
no Python-level per-vertex loop.  Deletions are one C-level ``dict.pop``
pass per direction.  ``repro.graph.reference`` keeps the original
per-vertex implementation as the semantics oracle; the two must produce
bit-identical :class:`~repro.graph.base.DirectionStats`.

Delta tracking (:meth:`AdjacencyListGraph.track_deltas`) journals the
out-direction's edits in order (:class:`~repro.graph.base.GraphDelta`),
which is all a CSR snapshot needs.  Its merges take a composite-key sort,
insert each vertex's new targets in ascending order, and tell new pairs
from duplicates in the same ``dict.setdefault`` pass; the in-direction, and
both directions when untracked, insert in first-occurrence batch order,
exactly like the reference loop.

A graph built with ``keep_in_lists=False`` stores no in-dicts, only the
in-degree array.  In-dicts hold the transpose of the out-dicts, so the
in-direction's stats follow from the out-merge: which of the batch's
deduplicated pairs were new, grouped by destination.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress, repeat
from operator import is_, is_not

import numpy as np

from ..datasets.stream import Batch, sorted_unique
from .base import BatchUpdateStats, DirectionStats, DynamicGraph, GraphDelta, read_only

__all__ = ["AdjacencyListGraph"]

# Deletion lookups: a never-seen vertex maps to the shared empty dict, and
# ``dict.pop`` returns the sentinel for an absent entry.  A pop with a
# default never mutates the dict it misses in, so the empty dict stays empty.
_EMPTY: dict[int, float] = {}
_MISSING = object()

#: One journal entry: the ``(owners, targets, weights, kinds)`` of edits.
Edits = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _edits(
    kind: int, owners: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> Edits:
    """A journal entry of edits that all have the same ``kind``."""
    return owners, targets, weights, np.full(len(owners), kind, dtype=np.int8)


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and the length of each run."""
    starts = np.append(0, np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    return sorted_keys[starts], np.diff(np.append(starts, len(sorted_keys)))


def _empty_direction_stats() -> DirectionStats:
    empty = np.empty(0, dtype=np.int64)
    return DirectionStats(
        vertices=empty,
        batch_degree=empty.copy(),
        length_before=empty.copy(),
        new_edges=empty.copy(),
    )


class AdjacencyListGraph(DynamicGraph):
    """Dynamic graph with per-vertex adjacency arrays (modeled) / dicts (actual).

    Args:
        num_vertices: size of the vertex id universe.
        keep_in_lists: store the in-direction's per-vertex dicts.  Without
            them the graph keeps in-degrees only: :meth:`adjacency_views`
            and :meth:`in_neighbors` build in-mappings from the out-dicts
            on request, with the same content but no set order.  A
            pipeline passes its algorithm's ``reads_in_lists``.
    """

    def __init__(self, num_vertices: int, keep_in_lists: bool = True):
        super().__init__(num_vertices)
        self._out: dict[int, dict[int, float]] = {}
        self._in: dict[int, dict[int, float]] | None = {} if keep_in_lists else None
        # Maintained per-vertex adjacency lengths: len(self._out.get(v, {}))
        # et al., kept exact by _apply_direction/_delete_edges so DirectionStats
        # never needs per-vertex len() calls.
        self._deg_out = np.zeros(num_vertices, dtype=np.int64)
        self._deg_in = np.zeros(num_vertices, dtype=np.int64)
        # Delta journal for snapshot patching (see track_deltas): the
        # out-direction's edits since the last consume_delta(), in order.
        self._track = False
        self._delta_invalid = False
        self._journal_out: list[Edits] = []
        # Incrementally maintained set of vertices that ever had an incident
        # edge (with in-lists, the union of both directions' key sets), with
        # a cached sorted materialization (invalidated when vertices are added).
        self._touched: set[int] = set()
        self._touched_sorted: list[int] | None = None

    # -- queries -----------------------------------------------------------
    def out_neighbors(self, v: int) -> dict[int, float]:
        return self._out.get(v, {})

    def in_neighbors(self, v: int) -> dict[int, float]:
        if self._in is None:
            return {u: nbrs[v] for u, nbrs in self._out.items() if v in nbrs}
        return self._in.get(v, {})

    @property
    def keeps_in_lists(self) -> bool:
        return self._in is not None

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge u->v is currently present."""
        return v in self._out.get(u, {})

    def edge_weight(self, u: int, v: int) -> float | None:
        """Current weight of u->v, or None if absent."""
        return self._out.get(u, {}).get(v)

    def adjacency_views(
        self,
    ) -> tuple[dict[int, dict[int, float]], dict[int, dict[int, float]]]:
        if self._in is None:
            return self._out, self._in_from_out()
        return self._out, self._in

    def out_adjacency(self) -> dict[int, dict[int, float]]:
        return self._out

    def _in_from_out(self) -> dict[int, dict[int, float]]:
        """The in-mapping of a graph without in-lists, from the out-dicts.

        Not live, and vertices whose in-edges were all deleted have no
        entry.
        """
        inn: dict[int, dict[int, float]] = {}
        for u, nbrs in self._out.items():
            for v, w in nbrs.items():
                entry = inn.get(v)
                if entry is None:
                    inn[v] = entry = {}
                entry[u] = w
        return inn

    def out_degrees(self) -> np.ndarray:
        return read_only(self._deg_out)

    def in_degrees(self) -> np.ndarray:
        return read_only(self._deg_in)

    def vertices_with_edges(self) -> list[int]:
        """Vertices that have ever had an incident edge (treat as read-only).

        Includes vertices whose edges were all deleted since.  The sorted
        list is maintained incrementally — the union of both key sets is
        tracked as batches apply and re-sorted only when new vertices
        appeared, not O(V log V) on every call.
        """
        if self._touched_sorted is None:
            self._touched_sorted = sorted(self._touched)
        return self._touched_sorted

    def __setstate__(self, state: dict) -> None:
        """Load pickles whose journal predates the ordered edit journal.

        Their journal entries are appends only, ``(owners, targets,
        weights)``, and a set of stale owners stood for every weight change
        and delete.  Appends convert; stale owners poison the journal, so
        the next snapshot rebuilds.
        """
        if state.pop("_stale_out", None):
            state["_delta_invalid"] = True
        state["_journal_out"] = [
            entry if len(entry) == 4 else _edits(GraphDelta.APPEND, *entry)
            for entry in state.get("_journal_out", [])
        ]
        self.__dict__.update(state)

    def track_deltas(self, enabled: bool = True) -> None:
        self._track = enabled
        self._delta_invalid = False
        self._journal_out = []

    def notify_external_mutation(self) -> None:
        self.num_edges = sum(map(len, self._out.values()))
        adjacencies = [(self._deg_out, self._out)]
        if self._in is None:
            targets = np.fromiter(
                chain.from_iterable(self._out.values()),
                dtype=np.int64,
                count=self.num_edges,
            )
            self._deg_in[:] = np.bincount(targets, minlength=self.num_vertices)
            self._touched.update(self._out, targets.tolist())
        else:
            adjacencies.append((self._deg_in, self._in))
            self._touched = set(self._out).union(self._in)
        self._touched_sorted = None
        for degrees, adjacency in adjacencies:
            degrees[:] = 0
            if adjacency:
                verts = np.fromiter(adjacency.keys(), dtype=np.int64, count=len(adjacency))
                degrees[verts] = np.fromiter(
                    map(len, adjacency.values()), dtype=np.int64, count=len(adjacency)
                )
        if self._track:
            # The journal did not see these mutations; poison it so the next
            # consume_delta() forces a full snapshot rebuild.
            self._delta_invalid = True

    def consume_delta(self) -> GraphDelta | None:
        if not self._track:
            return None
        if self._delta_invalid:
            self.track_deltas(True)  # reset journal, report "unknown"
            return None
        delta = GraphDelta.from_journal(self._journal_out)
        self._journal_out = []
        return delta

    def sum_search_cost(
        self,
        batch_degree: np.ndarray,
        length_before: np.ndarray,
        new_edges: np.ndarray,
        per_element: float,
    ) -> np.ndarray:
        """Linear-scan model: each search scans the current adjacency.

        Total elements scanned per vertex is ``k * L`` for the pre-existing
        entries plus the ramp contributed by the batch's own inserts (on
        average, every search after the first sees half of the batch's new
        entries already in place).
        """
        k = batch_degree.astype(np.float64)
        scanned = (
            k * length_before.astype(np.float64)
            + np.maximum(k - 1.0, 0.0) * new_edges.astype(np.float64) / 2.0
        )
        return per_element * scanned

    # -- updates -----------------------------------------------------------
    def _entries_for(
        self,
        adjacency: dict[int, dict[int, float]],
        verts: np.ndarray,
        length_before: np.ndarray,
    ) -> list[dict[int, float]]:
        """The entry dicts of the sorted unique ``verts``, creating missing ones.

        Only a zero-degree vertex can lack one, so only those pay a
        ``setdefault`` (ascending, the order new outer keys have always
        arrived in); every vertex is then a plain lookup.
        """
        fresh = verts[length_before == 0]
        if len(fresh):
            fresh_list = fresh.tolist()
            # iter(dict, None) calls dict() lazily per consumed element,
            # avoiding an argument tuple per construction.
            deque(
                map(adjacency.setdefault, fresh_list, iter(dict, None)), maxlen=0
            )
            self._touch(fresh_list)
        return list(map(adjacency.__getitem__, verts.tolist()))

    def _touch(self, vertices: list[int]) -> None:
        touched_before = len(self._touched)
        self._touched.update(vertices)
        if len(self._touched) != touched_before:
            self._touched_sorted = None

    def _apply_direction(
        self,
        adjacency: dict[int, dict[int, float]],
        degrees: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
        journaled: bool,
    ) -> tuple[DirectionStats, np.ndarray | None]:
        """Group edges by ``keys`` and merge them into ``adjacency``.

        Duplicate edges (same key/value pair, whether already in the graph or
        repeated inside the batch) overwrite the stored weight — the paper's
        "update the weight only" semantics; for in-batch repeats the last
        arrival wins.  ``journaled`` marks the out-direction: only its merges
        are recorded while delta tracking is on.  Untracked ingest applies
        edges in stable key-sorted order, so later repeats overwrite earlier
        ones without an explicit dedup pass; the tracked path needs
        deduplicated pairs for the delta journal and pays for a
        composite-key sort instead.

        Returns:
            The direction's stats and, for the out-direction of a graph
            without in-lists, the value of each deduplicated (key, value)
            pair that was not in the graph before the batch (else None).
        """
        derive_in = journaled and self._in is None
        if len(keys) == 0:
            return _empty_direction_stats(), None
        if not (journaled and self._track):
            return self._apply_direction_fast(
                adjacency, degrees, keys, values, weights, derive_in
            )
        nv = self.num_vertices
        # One stable sort of the composite (key, value) id both deduplicates
        # in-batch repeats (keep the last occurrence) and groups by vertex;
        # every other grouping quantity derives from the sorted array with
        # flat vector ops instead of further sorts.
        comp = keys * nv + values
        order = np.argsort(comp, kind="stable")
        comp_sorted = comp[order]
        last = np.flatnonzero(comp_sorted[1:] != comp_sorted[:-1])
        last = np.append(last, len(comp_sorted) - 1)
        dedup_idx = order[last]
        owners = keys[dedup_idx]  # gathers, cheaper than decoding comp by division
        targets = values[dedup_idx]
        # float64, so tolist() below makes a fresh object per pair (Python
        # shares small ints) and the setdefault pass can tell new pairs.
        merged_weights = weights[dedup_idx].astype(np.float64, copy=False)
        verts, dedup_counts = _runs(owners)
        __, batch_degree = _runs(keys[order])
        length_before = degrees[verts]
        vert_entries = self._entries_for(adjacency, verts, length_before)
        entries = np.repeat(
            np.array(vert_entries, dtype=object), dedup_counts
        ).tolist()
        targets_list = targets.tolist()
        weights_list = merged_weights.tolist()
        # One setdefault pass inserts the new pairs and reads the stored
        # weight of the others.  Each pair occurs once with its own fresh
        # float, so a pair is new iff setdefault stored (and returned) it.
        stored = list(map(dict.setdefault, entries, targets_list, weights_list))
        is_new = np.fromiter(
            map(is_, stored, weights_list), dtype=bool, count=len(stored)
        )
        changed = (np.array(stored, dtype=np.float64) != merged_weights) & ~is_new
        if changed.any():
            flags = changed.tolist()
            deque(
                map(
                    dict.__setitem__,
                    compress(entries, flags),
                    compress(targets_list, flags),
                    compress(weights_list, flags),
                ),
                maxlen=0,
            )
        for kind, picked in ((GraphDelta.APPEND, is_new), (GraphDelta.SET, changed)):
            if picked.any():
                self._journal_out.append(_edits(
                    kind, owners[picked], targets[picked], merged_weights[picked]
                ))
        new_deg = np.fromiter(
            map(len, vert_entries), dtype=np.int64, count=len(vert_entries)
        )
        new_edges = new_deg - length_before
        degrees[verts] = new_deg
        stats = DirectionStats(
            vertices=verts,
            batch_degree=batch_degree,
            length_before=length_before,
            new_edges=new_edges,
        )
        return stats, targets[is_new] if derive_in else None

    def _apply_direction_fast(
        self,
        adjacency: dict[int, dict[int, float]],
        degrees: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
        derive_in: bool,
    ) -> tuple[DirectionStats, np.ndarray | None]:
        """Untracked merge: apply every edge in stable key-sorted order.

        Skipping the dedup pass is safe because ``dict.__setitem__`` applied
        in batch order reproduces last-occurrence-wins (and first-occurrence
        dict insertion order, matching the reference loop exactly).  Sorting
        the bare keys — downcast to int32, halving the radix passes — is
        measurably cheaper than the composite sort the tracked path needs.
        With ``derive_in``, a membership pass before the merge finds the
        absent edges, and their deduplicated values are returned.
        """
        sort_keys = keys if self.num_vertices > 0x7FFFFFFF else keys.astype(np.int32)
        order = np.argsort(sort_keys, kind="stable")
        keys_sorted = keys[order]
        verts, batch_degree = _runs(keys_sorted)
        length_before = degrees[verts]
        vert_entries = self._entries_for(adjacency, verts, length_before)
        entries = np.repeat(
            np.array(vert_entries, dtype=object), batch_degree
        ).tolist()
        values_sorted = values[order]
        values_list = values_sorted.tolist()
        new_values = None
        if derive_in:
            absent = ~np.fromiter(
                map(dict.__contains__, entries, values_list),
                dtype=bool,
                count=len(entries),
            )
            nv = self.num_vertices
            new_values = sorted_unique(
                keys_sorted[absent] * nv + values_sorted[absent]
            ) % nv
        deque(
            map(dict.__setitem__, entries, values_list, weights[order].tolist()),
            maxlen=0,
        )
        new_deg = np.fromiter(
            map(len, vert_entries), dtype=np.int64, count=len(vert_entries)
        )
        new_edges = new_deg - length_before
        degrees[verts] = new_deg
        stats = DirectionStats(
            vertices=verts,
            batch_degree=batch_degree,
            length_before=length_before,
            new_edges=new_edges,
        )
        return stats, new_values

    def _derived_in_stats(
        self, dst: np.ndarray, new_dst: np.ndarray | None
    ) -> DirectionStats:
        """The in-direction's stats on a graph without in-lists.

        ``dst`` holds the batch's insert destinations, repeats included,
        and ``new_dst`` the destination of each deduplicated pair the
        out-merge found new.  In-dicts would hold the transpose of the
        out-dicts, so these are the stats their merge would report; the
        in-degrees and touched vertices advance as that merge's would.
        """
        if len(dst) == 0:
            return _empty_direction_stats()
        verts, batch_degree = _runs(np.sort(dst))
        length_before = self._deg_in[verts]
        # Sorted queries keep the binary searches cache-friendly: 5x faster
        # than searching in pair order on 40K-edge batches.
        new_edges = np.bincount(
            np.searchsorted(verts, np.sort(new_dst)), minlength=len(verts)
        )
        self._touch(verts[length_before == 0].tolist())
        self._deg_in[verts] += new_edges
        return DirectionStats(
            vertices=verts,
            batch_degree=batch_degree,
            length_before=length_before,
            new_edges=new_edges,
        )

    def _pop_edges(
        self,
        adjacency: dict[int, dict[int, float]],
        degrees: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        journaled: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pop ``key -> value`` entries from one direction, array at a time.

        One C-level ``dict.pop`` pass in batch order: a pair repeated in
        the batch pops once, and an absent edge or never-seen vertex is a
        no-op.  Degrees drop once per hit; while tracking, the hits are
        journaled as deletes (``journaled`` marks the out-direction).

        Returns:
            The ``(keys, values)`` of the entries that existed.
        """
        entries = map(adjacency.get, keys.tolist(), repeat(_EMPTY))
        popped = map(dict.pop, entries, values.tolist(), repeat(_MISSING))
        hit = np.fromiter(
            map(is_not, popped, repeat(_MISSING)), dtype=bool, count=len(keys)
        )
        hit_keys, hit_values = keys[hit], values[hit]
        np.subtract.at(degrees, hit_keys, 1)
        if journaled and self._track and len(hit_keys):
            self._journal_out.append(_edits(
                GraphDelta.DELETE, hit_keys, hit_values,
                np.zeros(len(hit_keys), dtype=np.float64),
            ))
        return hit_keys, hit_values

    def _delete_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Remove listed edges (both directions); returns edges removed.

        The in-entry is popped, or without in-lists the in-degree dropped,
        only for edges whose out-entry existed.
        """
        hit_src, hit_dst = self._pop_edges(self._out, self._deg_out, src, dst, True)
        if len(hit_src):
            if self._in is None:
                np.subtract.at(self._deg_in, hit_dst, 1)
            else:
                self._pop_edges(self._in, self._deg_in, hit_dst, hit_src, False)
        return len(hit_src)

    def apply_batch(self, batch: Batch) -> BatchUpdateStats:
        """Ingest a batch: all insertions first, then deletions (§4.4.3)."""
        self.check_vertices(batch.src, batch.dst)
        inserts = batch.insertions
        out_stats, new_dst = self._apply_direction(
            self._out, self._deg_out, inserts.src, inserts.dst, inserts.weight, True
        )
        if self._in is None:
            in_stats = self._derived_in_stats(inserts.dst, new_dst)
        else:
            in_stats, __ = self._apply_direction(
                self._in, self._deg_in, inserts.dst, inserts.src, inserts.weight, False
            )
        inserted = int(out_stats.new_edges.sum()) if len(out_stats.new_edges) else 0
        deletes = batch.deletions
        deleted = self._delete_edges(deletes.src, deletes.dst) if deletes.size else 0
        self.num_edges += inserted - deleted
        self.batches_applied += 1
        return BatchUpdateStats(
            batch_id=batch.batch_id,
            batch_size=batch.size,
            out=out_stats,
            inn=in_stats,
            deleted_edges=deleted,
        )
