"""PageRank: static (GAP-style) and incremental (frontier-based).

Both variants compute the same fixed point::

    pr(v) = (1 - d) / N + d * sum_{u in in(v)} pr(u) / outdeg(u)

without dangling-mass redistribution (the convention of the incremental
streaming-graph computation models the paper builds on, where contributions
flow only along existing edges), so the incremental engine converges to the
static solution and tests can cross-check them.

* :class:`StaticPageRank` re-runs power iteration from scratch on a CSR
  snapshot each round ("start-from-scratch" in Section 6.1).
* :class:`IncrementalPageRank` keeps rank state across batches and, per
  round, propagates changes outward from the *affected* vertices (the
  endpoints of the batch's edges) until ranks stop moving — the incremental
  model of Kineograph/KickStarter-style systems the paper cites.  Its
  rounds run in canonical order (ascending vertex and source ids), so its
  ranks do not depend on how the graph orders its adjacency.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, repeat

import numpy as np

from ..datasets.stream import sorted_unique
from ..errors import ConfigurationError
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from ..telemetry.core import NULL_TELEMETRY, as_telemetry
from .result import ComputeCounters

__all__ = ["StaticPageRank", "IncrementalPageRank", "check_pagerank_settings"]

#: Frontier size from which a round runs the level-scheduled numpy passes;
#: smaller rounds run the per-vertex loop (measured crossover in
#: docs/MODEL.md, "Dispatch").
SCALAR_FRONTIER_MAX = 512

#: Batches of more than this many edge updates merge into the in-CSR with
#: numpy; smaller ones edit per-vertex source lists in O(batch) (measured
#: crossover in docs/MODEL.md, "The in-CSR it owns").
MERGE_MIN_PAIRS = 512

#: Vertices whose source lists may wait for a fold into the in-CSR: more
#: pending than this fold before the call's rounds, which bounds each fold
#: instead of letting the first numpy round after many small calls pay for
#: all of them (docs/MODEL.md, "The in-CSR it owns").
FOLD_MAX_PENDING = 1024

_INT32_MAX = 0x7FFFFFFF
#: Frontier-position sentinel: larger than any position, so "earlier than
#: me" tests false for vertices outside the frontier.
_NOT_IN_FRONTIER = _INT32_MAX
#: How many stored in-CSR edges a numpy scan covers in the time it takes to
#: read one pushed edge from the out-dicts (measured in docs/MODEL.md,
#: "Next frontier").
_SCAN_PER_PUSHED_EDGE = 16
#: In-CSR work counted per call (``pagerank.csr_*``).
_WORK = ("folds", "merges", "rebuilds")
_EMPTY: dict[int, float] = {}


def check_pagerank_settings(
    tolerance: float,
    max_rounds: int,
    names: tuple[str, str] = ("tolerance", "max_rounds"),
) -> None:
    """Reject a negative or non-finite tolerance and a round cap below 1.

    A negative tolerance makes every visited vertex push whether its rank
    moved or not, NaN stops every push after round 1, and a cap below 1
    never moves the ranks; all of them used to run silently.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigurationError(
            f"{names[0]} must be finite and >= 0, got {tolerance}"
        )
    if max_rounds < 1:
        raise ConfigurationError(f"{names[1]} must be >= 1, got {max_rounds}")


class StaticPageRank:
    """Power-iteration PageRank over a CSR snapshot.

    Args:
        damping: the damping factor ``d``.
        tolerance: L1 change per vertex below which iteration stops.
        max_iterations: safety cap.
    """

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-8,
        max_iterations: int = 100,
    ):
        if not 0 < damping < 1:
            raise ConfigurationError(f"damping must be in (0,1), got {damping}")
        check_pagerank_settings(
            tolerance, max_iterations, names=("tolerance", "max_iterations")
        )
        self.damping = damping
        self.tolerance = tolerance
        self.max_iterations = max_iterations

    def run(self, snapshot: CSRSnapshot) -> tuple[np.ndarray, ComputeCounters]:
        """Compute ranks; returns (values, work counters)."""
        n = snapshot.num_vertices
        base = (1.0 - self.damping) / n
        values = np.full(n, base)
        out_deg = snapshot.out_degrees()
        # A vertex without out-edges repeats zero times below, so its
        # quotient never reaches an edge.
        safe_deg = np.maximum(out_deg, 1).astype(np.float64)
        touched_edges = 0
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            per_edge = np.repeat(values / safe_deg, out_deg)
            # Without edges bincount returns int64 zeros, hence the astype.
            new_values = np.bincount(
                snapshot.out_targets, weights=per_edge, minlength=n
            ).astype(np.float64, copy=False)
            new_values *= self.damping
            new_values += base
            touched_edges += snapshot.num_edges
            values -= new_values
            delta = float(np.abs(values, out=values).sum())
            values = new_values
            if delta < self.tolerance * n:
                break
        counters = ComputeCounters(
            iterations=iterations,
            touched_vertices=iterations * n,
            touched_edges=touched_edges,
        )
        return values, counters


class IncrementalPageRank:
    """Frontier-based incremental PageRank over a dynamic graph.

    State persists across batches; each :meth:`on_batch` call localizes the
    recomputation around the affected vertices.

    Each round updates ranks in place in *canonical order*: it visits its
    frontier in ascending vertex id, and each vertex sums its in-neighbours'
    contributions in ascending source id, reading the values already updated
    in that round (Gauss–Seidel).  Neither order depends on how the graph
    stores its adjacency.  A round of fewer than :data:`SCALAR_FRONTIER_MAX`
    vertices runs that per-vertex loop (:meth:`_scalar_round`); a larger one
    runs as a few numpy passes per dependency level (:meth:`_round`) that
    perform exactly the loop's float operations, so ranks and counters are
    bit-identical whichever path a round takes.

    The engine reads only the graph's out-adjacency and degree arrays.  The
    in-direction it sums over is its own: a CSR of each vertex's sources in
    ascending order, patched from the batches each call covers.

    Args:
        graph: the dynamic graph the pipeline maintains.
        damping: damping factor.
        tolerance: per-vertex rank change below which propagation stops.
        max_rounds: frontier-round safety cap.
        telemetry: optional telemetry backend; per-call counts of rounds
            by path and of in-CSR folds, merges and rebuilds land there
            (``pagerank.*``).
    """

    #: Derived state rebuilt on demand, kept out of pickles.
    _CACHES = (
        "_ptr", "_src", "_views", "_lists", "_dirty", "_edges", "_pos", "_work"
    )

    def __init__(
        self,
        graph: DynamicGraph,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        max_rounds: int = 100,
        telemetry=None,
    ):
        if not 0 < damping < 1:
            raise ConfigurationError(f"damping must be in (0,1), got {damping}")
        check_pagerank_settings(tolerance, max_rounds)
        self.graph = graph
        self.damping = damping
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self.telemetry = as_telemetry(telemetry)
        self._base = (1.0 - damping) / graph.num_vertices
        self.values: np.ndarray = np.full(graph.num_vertices, self._base)
        # In-CSR: v's sources, ascending, at _src[_ptr[v]:_ptr[v + 1]];
        # _views are memoryviews of both, for cheap per-vertex reads.
        # _lists caches sources as sorted Python lists (what scalar rounds
        # iterate and small batches edit); _dirty holds the vertices whose
        # list is newer than their CSR segment.  _edges counts the edges the
        # state holds, _pos is the per-round frontier-position workspace and
        # _work tallies one call's in-CSR work for telemetry.
        self._ptr: np.ndarray | None = None
        self._src: np.ndarray | None = None
        self._views: tuple[memoryview, memoryview] | None = None
        self._lists: dict[int, list[int]] = {}
        self._dirty: set[int] = set()
        self._edges = 0
        self._pos: np.ndarray | None = None
        self._work = dict.fromkeys(_WORK, 0)
        self._rebuild()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._CACHES:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Checkpoints written before the vectorized kernel hold a list,
        # and those written before the dispatch carry no telemetry.
        self.values = np.asarray(self.values, dtype=np.float64)
        self.__dict__.setdefault("telemetry", NULL_TELEMETRY)
        for name in self._CACHES:
            setattr(self, name, None)

    def on_batch(self, affected, batches=None) -> ComputeCounters:
        """Propagate rank changes outward from the affected vertices.

        Args:
            affected: iterable of vertex ids whose incident edges changed
                (for OCA-aggregated rounds, the union over the covered
                batches); the first round's frontier.
            batches: the batches applied to the graph since the previous
                call (or since construction), oldest first; for an
                OCA-aggregated round, every batch it covers.  Their edges
                patch the in-CSR.  ``None``, or an engine restored from a
                pickle, rebuilds the in-CSR from the graph's out-adjacency
                instead, as does a patched state whose edge count or
                in-degrees disagree with the graph's.

        Returns:
            Work counters of this round.
        """
        self._work = dict.fromkeys(_WORK, 0)
        self._sync(batches)
        frontier = _vertex_ids(affected)
        out_adj = self.graph.out_adjacency()
        out_deg = self.graph.out_degrees()
        # Item reads give Python floats and ints, as the loop's list did.
        values_view, deg_view = memoryview(self.values), memoryview(out_deg)
        touched_vertices = 0
        touched_edges = 0
        rounds = 0
        scalar_rounds = 0
        while len(frontier) and rounds < self.max_rounds:
            rounds += 1
            # Round 1 pushes every affected vertex's out-neighbors even when
            # its own rank is unchanged: a source that gained edges has a new
            # out-degree, so its *contribution per edge* changed and all its
            # targets must re-pull (the rank delta alone cannot see this).
            force_push = rounds == 1
            touched_vertices += len(frontier)
            if len(frontier) < SCALAR_FRONTIER_MAX:
                scalar_rounds += 1
                if isinstance(frontier, np.ndarray):
                    frontier = frontier.tolist()
                frontier, edges = self._scalar_round(
                    frontier, values_view, deg_view, out_adj, force_push
                )
                touched_edges += edges
                continue
            if self._dirty:
                self._fold()
                if not self._lengths_match():
                    self._rebuild()
            pushers, in_edges = self._round(
                np.asarray(frontier, dtype=np.int64), out_deg, force_push
            )
            pushed = int(out_deg[pushers].sum())
            touched_edges += in_edges + pushed
            frontier = self._targets(pushers, pushed, out_adj)
        if self.telemetry.enabled:
            count = self.telemetry.count
            count("pagerank.scalar_rounds", scalar_rounds)
            count("pagerank.vector_rounds", rounds - scalar_rounds)
            for name, n in self._work.items():
                count(f"pagerank.csr_{name}", n)
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )

    def _scalar_round(
        self, frontier: list, values, out_deg, out_adj, force_push: bool
    ) -> tuple[list | np.ndarray, int]:
        """Recompute ``frontier`` (ascending ids) in place, one vertex at a time.

        The per-vertex loop itself: each vertex sums ``values[u] /
        outdeg(u)`` over its sources in ascending order, left to right from
        ``0.0``.  ``values`` and ``out_deg`` are memoryviews of the rank and
        out-degree arrays.

        Returns:
            (the next frontier, ascending, as a list or, when a numpy
            round comes next, an array; in-edges read plus out-edges pushed
            along).
        """
        base = self._base
        damping = self.damping
        tolerance = self.tolerance
        lists = self._lists
        next_frontier: set[int] = set()
        touched_edges = 0
        for v in frontier:
            sources = lists.get(v)
            if sources is None:
                sources = self._load(v)
            total = 0.0
            for u in sources:
                deg = out_deg[u]
                if deg:
                    total += values[u] / deg
            touched_edges += len(sources)
            new_value = base + damping * total
            if force_push or abs(new_value - values[v]) > tolerance:
                out_nbrs = out_adj.get(v, _EMPTY)
                touched_edges += len(out_nbrs)
                next_frontier.update(out_nbrs)
            values[v] = new_value
        if len(next_frontier) < SCALAR_FRONTIER_MAX:
            return sorted(next_frontier), touched_edges
        # A numpy round comes next: sort as an array.
        return np.sort(
            np.fromiter(next_frontier, dtype=np.int64, count=len(next_frontier))
        ), touched_edges

    def _round(
        self, order: np.ndarray, out_deg: np.ndarray, force_push: bool
    ) -> tuple[np.ndarray, int]:
        """Recompute the frontier ``order`` (ascending ids) in place.

        The per-vertex loop (:meth:`_scalar_round`) visits ``order[0],
        order[1], ...`` and sums ``values[u] / outdeg(u)`` over each
        vertex's sources left to right, so ``order[i]`` reads the *new*
        value of an in-neighbour at an earlier position and the pre-round
        value of any other (later, itself, or outside the frontier).  A
        vertex's dependency level is one more than the highest level among
        its earlier in-neighbours; all vertices of one level read only lower
        levels' results, so they are computed together, each sum
        accumulated column by column in source order — the loop's exact
        float operations.

        Returns:
            (the vertices that push, ascending; in-edges read).
        """
        values = self.values
        k = len(order)
        starts = self._ptr[order]
        lens = self._ptr[order + 1] - starts
        seg_off = np.cumsum(lens) - lens
        n_in = int(lens.sum())
        owner = np.repeat(np.arange(k), lens)
        src = self._src[np.arange(n_in) + np.repeat(starts - seg_off, lens)]
        pos = self._pos
        if pos is None:
            pos = self._pos = np.full(len(values), _NOT_IN_FRONTIER, np.int32)
        pos[order] = np.arange(k, dtype=np.int32)
        src_pos = pos[src]
        pos[order] = _NOT_IN_FRONTIER
        earlier = src_pos < owner
        level = _levels(owner, src_pos, earlier, k)
        del owner, src_pos
        # Contributions as the pre-round values give them; edges from an
        # earlier frontier vertex are refreshed when their level comes up.
        src_deg = out_deg[src]
        contrib = _contributions(values[src], src_deg)
        push = np.ones(k, dtype=bool)
        # Grouped by level, in-degree descending within each (the column
        # layout needs that; any order of equal keys gives the same sums).
        by_level = np.argsort(level * (int(lens.max()) + 1) - lens)
        bounds = np.cumsum(np.bincount(level)).tolist()
        first = 0
        for last in bounds:
            members = by_level[first:last]
            first = last
            deg = lens[members]
            flat, heights = _column_layout(seg_off[members], deg)
            fresh = flat[earlier[flat]]
            if len(fresh):
                contrib[fresh] = _contributions(values[src[fresh]], src_deg[fresh])
            totals = np.zeros(len(members))
            col = contrib[flat]
            at = 0
            for height in heights:
                totals[:height] += col[at : at + height]
                at += height
            new = self._base + self.damping * totals
            targets = order[members]
            if not force_push:
                push[members] = np.abs(new - values[targets]) > self.tolerance
            values[targets] = new
        return order[push], n_in

    def _targets(self, pushers: np.ndarray, pushed: int, out_adj) -> np.ndarray:
        """The next frontier: the sorted unique out-targets of ``pushers``,
        whose out-degrees sum to ``pushed``.

        Reading the out-dicts costs per pushed edge; scanning the in-CSR
        for sources that push costs per stored edge but runs in numpy, about
        :data:`_SCAN_PER_PUSHED_EDGE` times cheaper per edge.  The round
        takes the cheaper one (docs/MODEL.md, "Next frontier").
        """
        if pushed * _SCAN_PER_PUSHED_EDGE < len(self._src):
            targets = map(out_adj.get, pushers.tolist(), repeat(_EMPTY))
            return sorted_unique(
                np.fromiter(
                    chain.from_iterable(targets), dtype=np.int64, count=pushed
                )
            )
        pushes = np.zeros(len(self.values), dtype=bool)
        pushes[pushers] = True
        # Slots are ascending, so their owners come out sorted.
        owners = np.searchsorted(
            self._ptr, np.flatnonzero(pushes[self._src]), side="right"
        ) - 1
        return owners[np.r_[True, owners[1:] != owners[:-1]]] if len(owners) else owners

    # -- the in-CSR ------------------------------------------------------------

    def _sync(self, batches) -> None:
        """Bring the in-CSR state up to the graph's before a call's rounds.

        Applies ``batches`` in order.  Folds the changed lists into the CSR
        once more than :data:`FOLD_MAX_PENDING` vertices are pending, so no
        later fold grows with the number of calls since the last numpy
        round, and after a merge in this call.  Rebuilds from the graph's
        out-adjacency without batches, without a CSR (an unpickled engine),
        or when the guard fails: the state's edge count differs from the
        graph's, or a CSR this call replaced has in-lengths other than the
        graph's in-degrees.
        """
        if self._ptr is not None and batches is not None:
            replaced = False
            for batch in batches:
                replaced |= self._apply(batch)
            # A replaced CSR is checked against the graph's in-degrees, so
            # lists edited after a merge are folded into it first.
            if self._dirty and (replaced or len(self._dirty) > FOLD_MAX_PENDING):
                self._fold()
                replaced = True
            if self._edges == self.graph.num_edges and (
                not replaced or self._lengths_match()
            ):
                return
        self._rebuild()

    def _apply(self, batch) -> bool:
        """Apply one batch's inserts, then its deletes (the graph's order).

        Inserting a present edge and deleting an absent one are no-ops, as
        in the graph.  A batch of more than :data:`MERGE_MIN_PAIRS` pairs
        merges into the CSR with numpy; a smaller one edits the sorted
        lists of the vertices it changes, in O(batch).

        Returns:
            Whether the batch merged into (and so replaced) the CSR.
        """
        inserts, deletes = batch.insertions, batch.deletions
        if inserts.size + deletes.size > MERGE_MIN_PAIRS:
            self._merge(inserts, deletes)
            return True
        lists, dirty = self._lists, self._dirty
        edges = self._edges
        for u, v in zip(inserts.src.tolist(), inserts.dst.tolist()):
            sources = lists.get(v)
            if sources is None:
                sources = self._load(v)
            i = bisect_left(sources, u)
            if i == len(sources) or sources[i] != u:
                sources.insert(i, u)
                dirty.add(v)
                edges += 1
        for u, v in zip(deletes.src.tolist(), deletes.dst.tolist()):
            sources = lists.get(v)
            if sources is None:
                sources = self._load(v)
            i = bisect_left(sources, u)
            if i < len(sources) and sources[i] == u:
                del sources[i]
                dirty.add(v)
                edges -= 1
        self._edges = edges
        return False

    def _load(self, v: int) -> list[int]:
        """``v``'s sources as a cached list, read from its CSR segment."""
        ptr, src = self._views
        sources = self._lists[v] = src[ptr[v] : ptr[v + 1]].tolist()
        return sources

    def _fold(self) -> None:
        """Write the pending vertices' lists into the CSR, in O(E) numpy
        work plus O(pending): their old segments are cut out and their
        lists spliced in where those began.  The lists stay cached: they
        now equal the CSR."""
        verts = sorted(self._dirty)
        self._dirty.clear()
        lists = list(map(self._lists.__getitem__, verts))
        verts = np.array(verts, dtype=np.int64)
        starts = self._ptr[verts]
        old_len = self._ptr[verts + 1] - starts
        new_len = np.fromiter(map(len, lists), np.int64, count=len(lists))
        # Where each segment begins once the earlier ones are cut out.
        at = starts - (np.cumsum(old_len) - old_len)
        kept = np.delete(
            self._src, np.arange(int(old_len.sum())) + np.repeat(at, old_len)
        )
        self._src = np.insert(
            kept,
            np.repeat(at, new_len),
            np.fromiter(
                chain.from_iterable(lists), dtype=kept.dtype, count=int(new_len.sum())
            ),
        )
        grow = np.zeros(len(self._ptr), dtype=np.int64)
        grow[verts + 1] = new_len - old_len
        self._ptr = self._ptr + np.cumsum(grow)
        self._views = memoryview(self._ptr), memoryview(self._src)
        self._work["folds"] += 1

    def _merge(self, inserts, deletes) -> None:
        """Merge a large batch into the CSR as sorted ``dst * V + src`` keys."""
        if self._dirty:
            self._fold()
        n = self.graph.num_vertices
        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._ptr))
        keys = dst * n + self._src
        if inserts.size:
            new = sorted_unique(inserts.dst.astype(np.int64) * n + inserts.src)
            at, found = _find(keys, new)
            keys = np.insert(keys, at[~found], new[~found])
        if deletes.size:
            gone = sorted_unique(deletes.dst.astype(np.int64) * n + deletes.src)
            at, found = _find(keys, gone)
            keys = np.delete(keys, at[found])
        self._set_csr(keys)
        self._lists.clear()
        self._work["merges"] += 1

    def _rebuild(self) -> None:
        """Build the in-CSR afresh from the graph's out-adjacency."""
        out_adj = self.graph.out_adjacency()
        owners = np.fromiter(out_adj.keys(), dtype=np.int64, count=len(out_adj))
        lens = np.fromiter(
            map(len, out_adj.values()), dtype=np.int64, count=len(out_adj)
        )
        targets = np.fromiter(
            chain.from_iterable(out_adj.values()), dtype=np.int64, count=int(lens.sum())
        )
        n = self.graph.num_vertices
        self._set_csr(np.sort(targets * n + np.repeat(owners, lens)))
        self._lists = {}
        self._dirty = set()
        self._work["rebuilds"] += 1

    def _set_csr(self, keys: np.ndarray) -> None:
        """Replace the CSR by the sorted, unique ``dst * V + src`` keys."""
        n = self.graph.num_vertices
        dst = keys // n
        self._ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self._ptr[1:])
        self._src = (keys - dst * n).astype(np.int32 if n <= _INT32_MAX else np.int64)
        self._views = memoryview(self._ptr), memoryview(self._src)
        self._edges = len(keys)

    def _lengths_match(self) -> bool:
        return np.array_equal(np.diff(self._ptr), self.graph.in_degrees())

    def as_array(self) -> np.ndarray:
        """Current rank vector as a fresh numpy array."""
        return np.array(self.values, dtype=np.float64)


def _vertex_ids(affected) -> np.ndarray:
    """``affected`` (an array or any iterable of ids) as sorted unique int64."""
    if not isinstance(affected, np.ndarray):
        affected = np.fromiter(affected, dtype=np.int64)
    return sorted_unique(affected.astype(np.int64, copy=False))


def _find(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of sorted ``queries`` in sorted ``keys``, and which
    of them are present there."""
    at = np.searchsorted(keys, queries)
    found = at < len(keys)
    found[found] = keys[at[found]] == queries[found]
    return at, found


def _contributions(ranks: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """``rank / outdeg`` per in-edge, 0 where the source has no out-edges."""
    return np.divide(ranks, degrees, out=np.zeros_like(ranks), where=degrees > 0)


def _levels(owner: np.ndarray, src_pos: np.ndarray, earlier: np.ndarray, k: int):
    """Dependency level of each of the round's ``k`` frontier positions.

    ``earlier`` marks in-edges whose source sits at an earlier frontier
    position than its target ``owner``; a position's level is one more than
    the highest level among those sources (0 without any).  Relaxed to the
    fixed point, one pass per level.
    """
    level = np.zeros(k, dtype=np.int64)
    dep = np.flatnonzero(earlier)
    if not len(dep):
        return level
    dst = owner[dep]
    dep_src = src_pos[dep]
    heads = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    targets = dst[heads]
    while True:
        deeper = np.maximum.reduceat(level[dep_src], heads) + 1
        if np.array_equal(deeper, level[targets]):
            return level
        level[targets] = deeper


def _column_layout(seg_off: np.ndarray, deg: np.ndarray):
    """Edge indices of one level in column-major order.

    ``seg_off``/``deg`` give each vertex's in-edge run, vertices sorted by
    in-degree descending, so column ``c`` (every vertex's ``c``-th in-edge)
    covers a prefix of the vertices.  Returns the flat edge indices, column
    after column, and each column's height.
    """
    if not len(deg) or deg[0] == 0:
        return np.empty(0, dtype=np.int64), []
    heights = np.cumsum(np.bincount(deg)[::-1])[::-1][1:]
    col_start = np.cumsum(heights) - heights
    cols = np.repeat(np.arange(len(heights)), heights)
    rows = np.arange(len(cols)) - np.repeat(col_start, heights)
    return seg_off[rows] + cols, heights.tolist()
