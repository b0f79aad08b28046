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
  model of Kineograph/KickStarter-style systems the paper cites.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from ..errors import ConfigurationError
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from ..telemetry.core import NULL_TELEMETRY, as_telemetry
from .result import ComputeCounters

__all__ = ["StaticPageRank", "IncrementalPageRank", "check_pagerank_settings"]

#: Frontier size from which a round runs the level-scheduled numpy passes;
#: smaller rounds run the per-vertex loop.  Measured crossover on fb: a
#: numpy round costs ~0.1 ms even for a handful of vertices and wins from
#: ~128 vertices on, but a call's first numpy round also pays the in-CSR
#: sync, which moves the per-call crossover to ~512 (docs/MODEL.md,
#: "Dispatch").
SCALAR_FRONTIER_MAX = 512

_INT32_MAX = 0x7FFFFFFF
#: Frontier-position sentinel: larger than any position, so "earlier than
#: me" tests false for vertices outside the frontier.
_NOT_IN_FRONTIER = _INT32_MAX


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
        out_deg = snapshot.out_degrees().astype(np.float64)
        safe_deg = np.maximum(out_deg, 1.0)
        touched_edges = 0
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            contrib = np.where(out_deg > 0, values / safe_deg, 0.0)
            per_edge = np.repeat(contrib, snapshot.out_degrees())
            new_values = base + self.damping * np.bincount(
                snapshot.out_targets, weights=per_edge, minlength=n
            )
            touched_edges += snapshot.num_edges
            delta = float(np.abs(new_values - values).sum())
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

    Each round updates ranks in place, in the frontier set's iteration
    order, each vertex reading its in-neighbours' freshest values
    (Gauss–Seidel).  A round of fewer than :data:`SCALAR_FRONTIER_MAX`
    vertices runs that per-vertex loop (:meth:`_scalar_round`); a larger one
    runs as a few numpy passes per dependency level (:meth:`_round`) that
    perform exactly the loop's float operations, so ranks and counters are
    bit-identical whichever path a round takes.

    Args:
        graph: the dynamic graph the pipeline maintains.
        damping: damping factor.
        tolerance: per-vertex rank change below which propagation stops.
        max_rounds: frontier-round safety cap.
        telemetry: optional telemetry backend; per-call counts of rounds
            by path and of in-CSR syncs land there (``pagerank.*``).
    """

    #: Derived arrays rebuilt on demand, kept out of pickles.
    _CACHES = ("_in_ptr", "_in_src", "_pos", "_pending")

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
        # In-CSR: sources of v's in-edges, in in-adjacency (dict) order, at
        # _in_src[_in_ptr[v]:_in_ptr[v + 1]], read by numpy rounds only;
        # _pending marks the vertices whose in-lists changed since it was
        # last synced; _pos is the per-round frontier-position workspace.
        self._in_ptr: np.ndarray | None = None
        self._in_src: np.ndarray | None = None
        self._pending: np.ndarray | None = None
        self._pos: np.ndarray | None = None

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

    def on_batch(self, affected) -> ComputeCounters:
        """Propagate rank changes outward from the affected vertices.

        Args:
            affected: iterable of vertex ids whose incident edges changed
                (for OCA-aggregated rounds, the union over the covered
                batches).  It must hold every vertex whose adjacency changed
                since the previous call: the cached in-CSR re-reads only
                the in-lists of vertices passed as ``affected`` since its
                last sync (a cheap in-degree check catches a missed one and
                re-reads everything).

        Returns:
            Work counters of this round.
        """
        if isinstance(affected, np.ndarray):
            affected = affected.tolist()  # Python ints iterate far faster
        frontier = set(map(int, affected))
        order = np.fromiter(frontier, dtype=np.int64, count=len(frontier))
        if self._pending is None:
            self._pending = np.zeros(self.graph.num_vertices, dtype=bool)
        self._pending[order] = True
        out_adj, in_adj = self.graph.adjacency_views()
        out_deg = self.graph.out_degrees()
        # Item reads give Python floats and ints, as the loop's list did.
        values_view, deg_view = memoryview(self.values), memoryview(out_deg)
        empty: dict[int, float] = {}
        touched_vertices = 0
        touched_edges = 0
        rounds = 0
        scalar_rounds = 0
        synced = reread = False
        while frontier and rounds < self.max_rounds:
            rounds += 1
            # Round 1 pushes every affected vertex's out-neighbors even when
            # its own rank is unchanged: a source that gained edges has a new
            # out-degree, so its *contribution per edge* changed and all its
            # targets must re-pull (the rank delta alone cannot see this).
            force_push = rounds == 1
            touched_vertices += len(frontier)
            if len(frontier) < SCALAR_FRONTIER_MAX:
                scalar_rounds += 1
                frontier, edges = self._scalar_round(
                    frontier, values_view, deg_view, out_adj, in_adj, force_push
                )
                touched_edges += edges
                continue
            if not synced:
                reread = self._sync_in_csr(in_adj)
                synced = True
            if rounds > 1:
                order = np.fromiter(frontier, dtype=np.int64, count=len(frontier))
            pushers, in_edges = self._round(order, out_deg, force_push)
            touched_edges += in_edges + int(out_deg[pushers].sum())
            del order
            # The next frontier's iteration order depends on how the set
            # grew, so it is built by the same update(dict) calls, in
            # frontier order, that a per-vertex loop makes.
            frontier = set()
            frontier.update(*map(out_adj.get, pushers.tolist(), repeat(empty)))
        if self.telemetry.enabled:
            count = self.telemetry.count
            count("pagerank.scalar_rounds", scalar_rounds)
            count("pagerank.vector_rounds", rounds - scalar_rounds)
            count("pagerank.csr_syncs", int(synced))
            count("pagerank.csr_rereads", int(reread))
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )

    def _scalar_round(
        self, frontier: set, values, out_deg, out_adj, in_adj, force_push: bool
    ) -> tuple[set, int]:
        """Recompute ``frontier`` in place, one vertex at a time.

        The per-vertex loop itself: in set iteration order, each vertex sums
        ``values[u] / outdeg(u)`` over its in-list, left to right from
        ``0.0``.  ``values`` and ``out_deg`` are memoryviews of the rank and
        out-degree arrays.

        Returns:
            (the next frontier, in-edges read plus out-edges pushed along).
        """
        base = self._base
        damping = self.damping
        tolerance = self.tolerance
        empty: dict[int, float] = {}
        next_frontier: set[int] = set()
        touched_edges = 0
        for v in frontier:
            total = 0.0
            in_nbrs = in_adj.get(v, empty)
            for u in in_nbrs:
                deg = out_deg[u]
                if deg:
                    total += values[u] / deg
            touched_edges += len(in_nbrs)
            new_value = base + damping * total
            if force_push or abs(new_value - values[v]) > tolerance:
                out_nbrs = out_adj.get(v, empty)
                touched_edges += len(out_nbrs)
                next_frontier.update(out_nbrs)
            values[v] = new_value
        return next_frontier, touched_edges

    def _round(
        self, order: np.ndarray, out_deg: np.ndarray, force_push: bool
    ) -> tuple[np.ndarray, int]:
        """Recompute the frontier ``order`` (set iteration order) in place.

        The per-vertex loop (:meth:`_scalar_round`) visits ``order[0],
        order[1], ...`` and sums ``values[u] / outdeg(u)`` over each
        vertex's in-list left to right, so ``order[i]`` reads the *new*
        value of an in-neighbour at an earlier position and the pre-round
        value of any other (later, itself, or outside the frontier).  A
        vertex's dependency level is one more than the highest level among
        its earlier in-neighbours; all vertices of one level read only lower
        levels' results, so they are computed together, each sum
        accumulated column by column in in-list order — the loop's exact
        float operations.

        Returns:
            (the vertices that push, in frontier order; in-edges read).
        """
        values = self.values
        k = len(order)
        starts = self._in_ptr[order]
        lens = self._in_ptr[order + 1] - starts
        seg_off = np.cumsum(lens) - lens
        n_in = int(lens.sum())
        owner = np.repeat(np.arange(k), lens)
        src = self._in_src[np.arange(n_in) + np.repeat(starts - seg_off, lens)]
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

    def _sync_in_csr(self, in_adj) -> bool:
        """Bring the cached in-CSR up to date with the graph.

        Re-reads only the in-lists of the vertices marked pending since the
        last sync, then clears the marks.  On the first sync, or when the
        patched in-lengths disagree with ``in_degrees()`` — a changed vertex
        never passed as ``affected`` — every in-list is read afresh.

        Returns:
            Whether that in-degree check fired.
        """
        affected = np.flatnonzero(self._pending)
        self._pending[affected] = False
        in_deg = self.graph.in_degrees()
        if self._in_ptr is not None:
            lists = list(map(in_adj.get, affected.tolist(), repeat({})))
            new_len = np.diff(self._in_ptr)
            new_len[affected] = np.fromiter(map(len, lists), np.int64, count=len(lists))
            if np.array_equal(new_len, in_deg):
                self._patch_in_csr(affected, lists, new_len)
                return False
        reread = self._in_ptr is not None
        n = self.graph.num_vertices
        self._in_ptr = np.zeros(n + 1, dtype=np.int64)
        self._in_src = np.empty(0, dtype=np.int32 if n <= _INT32_MAX else np.int64)
        verts = np.flatnonzero(in_deg)
        lists = list(map(in_adj.__getitem__, verts.tolist()))
        new_len = np.zeros(n, dtype=np.int64)
        new_len[verts] = np.fromiter(map(len, lists), np.int64, count=len(lists))
        self._patch_in_csr(verts, lists, new_len)
        return reread

    def _patch_in_csr(
        self, verts: np.ndarray, lists: list, new_len: np.ndarray
    ) -> None:
        """Replace the in-lists of ``verts`` by ``lists`` (new lengths
        ``new_len`` for every vertex); other segments move by mask."""
        old_len = np.diff(self._in_ptr)
        keep = np.ones(len(new_len), dtype=bool)
        keep[verts] = False
        ptr = np.zeros(len(new_len) + 1, dtype=np.int64)
        np.cumsum(new_len, out=ptr[1:])
        src = np.empty(int(ptr[-1]), dtype=self._in_src.dtype)
        slots = np.repeat(keep, new_len)
        src[slots] = self._in_src[np.repeat(keep, old_len)]
        np.logical_not(slots, out=slots)
        src[slots] = np.fromiter(
            chain.from_iterable(lists), dtype=src.dtype, count=int(new_len[verts].sum())
        )
        self._in_ptr, self._in_src = ptr, src

    def as_array(self) -> np.ndarray:
        """Current rank vector as a fresh numpy array."""
        return np.array(self.values, dtype=np.float64)


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
