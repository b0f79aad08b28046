"""Degree-adaptive hybrid adjacency structure (pooled arrays + hub hashing).

The per-vertex-dict structure in :mod:`repro.graph.adjacency_list` merges
batches through C-level ``map`` calls, but still pays one dict operation per
edge.  This module stores low-degree vertices — the overwhelming majority
under power-law degree distributions — as contiguous slices of one pooled
numpy block per direction, appended in *insertion order*; vertices whose
degree crosses ``promote_threshold`` are promoted to a per-vertex hash
dict, the software analogue of the paper's degree-aware hashing (DAH,
Section 6.2.3) and of GraphTango's type-switching representation.

The batch apply path is fully vectorized and avoids per-edge work:

* one stable key argsort groups the batch by owner while preserving batch
  order within each owner — exactly the dict graph's untracked insertion
  order, so no second sort is needed to reproduce dict iteration order;
* in-batch repeats are certified absent per owner with a 64-bit signature
  (``bitwise_or.reduceat`` + popcount); only suspicious segments pay a
  local dedup sort;
* membership against existing adjacency is resolved with a scatter-probe
  into a reusable universe-sized array instead of binary searches — O(1)
  random access, a few milliseconds per 100K-edge batch;
* new edges append at slice tails (capacity-doubling, pow2 slots), so
  existing entries are never rewritten on the hot path.

Every observable contract of :class:`AdjacencyListGraph` is preserved
bit-for-bit:

* :class:`~repro.graph.base.DirectionStats` equal the dict graph's exactly
  (golden parity holds under this format);
* per-vertex *dict insertion order* is the pool storage order, so
  materialized adjacency dicts (and the CSR snapshots built from them)
  iterate identically to the dict graph's — the float-accumulating compute
  kernels depend on this;
* delta tracking journals the out-direction's appends / stale vertices
  exactly like the dict graph: tracked out-inserts land in composite
  dst-ascending order, while the in-direction (always) and untracked
  out-inserts land in first-occurrence batch order, matching the dict
  graph's two code paths;
* :meth:`sum_search_cost` stays the *modeled* linear-scan formula — the
  real structure is faster, the charged time must not move.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import compress

import numpy as np

from ..datasets.stream import Batch, sorted_unique
from ..telemetry.core import as_telemetry
from .adjacency_list import AdjacencyListGraph, _empty_direction_stats
from .base import BatchUpdateStats, DirectionStats, DynamicGraph, GraphDelta, read_only

__all__ = ["HybridAdjacencyGraph", "DEFAULT_PROMOTE_THRESHOLD"]

#: Degree above which a vertex's adjacency moves to a hash dict.  Override
#: per instance (constructor) or globally (``REPRO_ADJ_PROMOTE``).
DEFAULT_PROMOTE_THRESHOLD = 32

_INITIAL_POOL = 1 << 12
_MIN_SLOT = 4
_INT32_MAX = 0x7FFFFFFF
# keys*nv+values stays inside int64 when nv <= 2**31 (nv**2 <= 2**62).
_COMPOSITE_SAFE = 1 << 31


_SLOT_TABLE = np.array(
    [max(_MIN_SLOT, 1 << max(n - 1, 0).bit_length()) for n in range(257)],
    dtype=np.int64,
)


def _slots_for(deg: np.ndarray) -> np.ndarray:
    """Per-vertex slot capacity: next power of two, floored at ``_MIN_SLOT``.

    Table lookup for the common small degrees; float log only for the tail.
    """
    if deg.max(initial=0) <= 256:
        return _SLOT_TABLE[deg]
    exp = np.ceil(np.log2(np.maximum(deg, 1))).astype(np.int64)
    return np.maximum(_MIN_SLOT, np.left_shift(np.int64(1), exp))


def _slot_for(n: int) -> int:
    return max(_MIN_SLOT, 1 << max(n - 1, 0).bit_length())


def _dst_dtype(num_vertices: int):
    """Narrowest integer dtype that holds every vertex id.

    Target storage and the membership probe are the hottest randomly
    accessed arrays; halving their element size roughly halves the cache
    footprint of every batch apply.  Values round-trip exactly — consumers
    only ever see Python ints or compare element-wise — so the narrowing
    is invisible outside this module.
    """
    return np.int32 if num_vertices <= (1 << 31) - 1 else np.int64


def _segment_index(starts: np.ndarray, counts: np.ndarray):
    """Flat indices of the slices ``(starts[i], counts[i])``, concatenated.

    Returns ``(index, owner, within, seg_off)`` where ``owner`` maps each
    output element to its segment, ``within`` is its position inside the
    segment and ``seg_off`` the per-segment offset into the concatenation.
    """
    total = int(counts.sum())
    seg_off = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - seg_off[owner]
    return starts[owner] + within, owner, within, seg_off


def _suspect_segments(
    vs: np.ndarray, seg_start: np.ndarray, seg_len: np.ndarray
) -> np.ndarray | None:
    """Segments that *may* contain a repeated value, or None when every
    segment is provably repeat-free.

    A 64-bit membership signature per segment certifies distinctness: a
    repeated value collides with itself, so popcount(signature) equals the
    segment length only when all values are distinct.  Unsigned arithmetic
    is load-bearing — ``np.bitwise_count`` on signed ints counts bits of
    the *absolute value*, which is garbage once bit 63 is set.
    """
    bits = np.left_shift(
        np.uint64(1), np.bitwise_and(vs, 63).astype(np.uint64)
    )
    segsig = np.bitwise_or.reduceat(bits, seg_start)
    distinct = np.bitwise_count(segsig).astype(np.int64)
    suspect = distinct < seg_len
    if not suspect.any():
        return None
    return suspect


def _key_order(keys: np.ndarray, nv: int) -> np.ndarray:
    """Stable argsort by key: groups by owner, batch order within.

    Non-negative keys below ``nv`` sort as one or two 16-bit radix passes
    (numpy's stable sort on uint16 is a counting sort, ~3x faster than the
    general integer path on 100K-element batches).
    """
    if nv <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if nv <= 1 << 32:
        k = keys.astype(np.uint32)
        low = np.argsort(k.astype(np.uint16), kind="stable")  # low 16 bits
        if nv <= 1 << 24:  # high bits fit in 8: 256-bucket counting sort
            high = (k >> np.uint32(16)).astype(np.uint8)
        else:
            high = (k >> np.uint32(16)).astype(np.uint16)
        return low[np.argsort(high[low], kind="stable")]
    return np.argsort(keys, kind="stable")


def _grouped_value_order(
    group: np.ndarray, values: np.ndarray, nv: int
) -> np.ndarray:
    """Stable argsort by ``(group, value)``: two stable passes, each taking
    the radix fast path of :func:`_key_order` when its bound allows."""
    hi = int(group[-1]) + 1 if len(group) else 1
    order = _key_order(values, nv)
    return order[_key_order(group[order], hi)]


class _Direction:
    """One adjacency direction: pooled array slices plus hub hash dicts.

    Array-class vertices own the pool slice ``[start[v], start[v]+deg[v])``
    (capacity ``cap[v]``), stored in *dict insertion order* — the slice is
    the iteration order, so materialization is a straight ``zip``.  Hub
    vertices (``hub_mask``) live in ``hubs`` as authoritative
    insertion-ordered dicts and have ``cap == 0``.
    """

    def __init__(self, num_vertices: int):
        self.start = np.zeros(num_vertices, dtype=np.int64)
        self.deg = np.zeros(num_vertices, dtype=np.int64)
        self.cap = np.zeros(num_vertices, dtype=np.int64)
        self.pool_dst = np.empty(_INITIAL_POOL, dtype=_dst_dtype(num_vertices))
        self.pool_w = np.empty(_INITIAL_POOL, dtype=np.float64)
        self.used = 0  # next free pool offset
        self.live = 0  # total capacity of live array-class slots
        self.hubs: dict[int, dict[int, float]] = {}
        self.hub_mask = np.zeros(num_vertices, dtype=bool)
        # Outer-key bookkeeping, mirroring the dict graph's outer dict:
        # first-appearance order (sorted within each batch) + O(1) membership.
        self.key_order: list[int] = []
        self.key_mask = np.zeros(num_vertices, dtype=bool)
        # Lazily materialized per-vertex dicts for array-class vertices,
        # invalidated per vertex on every touch.  Handed out by the views,
        # so external mutations stay visible until the next rebuild.
        self.dict_cache: dict[int, dict[int, float]] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Trim pool slack out of checkpoints; caches rebuild on demand.
        state["pool_dst"] = self.pool_dst[: self.used].copy()
        state["pool_w"] = self.pool_w[: self.used].copy()
        state["dict_cache"] = {}
        return state


class _HybridAdjacencyView:
    """Mapping view over one direction of a :class:`HybridAdjacencyGraph`.

    Iterates outer keys in dict-graph insertion order and materializes inner
    dicts lazily (in storage = insertion order, so they compare equal —
    content *and* iteration order — to the dict graph's).  Supports the
    mutation subset the view-mutating algorithms use (``setdefault`` /
    ``__setitem__`` on the outer mapping, plain dict ops on the inner
    dicts); callers must finish with
    :meth:`DynamicGraph.notify_external_mutation`.
    """

    __slots__ = ("_graph", "_d")

    def __init__(self, graph: "HybridAdjacencyGraph", d: _Direction):
        self._graph = graph
        self._d = d

    def __len__(self) -> int:
        return len(self._d.key_order)

    def __contains__(self, v) -> bool:
        try:
            return bool(self._d.key_mask[v]) if 0 <= v else False
        except (TypeError, IndexError):
            return False

    def __iter__(self):
        return iter(self._d.key_order)

    def __getitem__(self, v) -> dict[int, float]:
        if v not in self:
            raise KeyError(v)
        return self._graph._materialize(self._d, v)

    def get(self, v, default=None):
        if v not in self:
            return default
        return self._graph._materialize(self._d, v)

    def setdefault(self, v, default=None):
        if v in self:
            return self._graph._materialize(self._d, v)
        self._graph._register_key(self._d, int(v))
        self._d.dict_cache[int(v)] = default
        return default

    def __setitem__(self, v, entry) -> None:
        v = int(v)
        if v not in self:
            self._graph._register_key(self._d, v)
        if self._d.hub_mask[v]:
            self._d.hubs[v] = entry
        else:
            self._d.dict_cache[v] = entry

    def keys(self):
        return list(self._d.key_order)

    def items(self):
        graph, d = self._graph, self._d
        for v in d.key_order:
            yield v, graph._materialize(d, v)

    def values(self):
        for _v, entry in self.items():
            yield entry


class HybridAdjacencyGraph(DynamicGraph):
    """Degree-adaptive dynamic graph with vectorized batch apply.

    Args:
        num_vertices: size of the vertex id universe.
        promote_threshold: degree above which a vertex's adjacency is
            promoted to a hash dict (demotion back to the array class
            happens at half this, giving the switch hysteresis).  Defaults
            to ``REPRO_ADJ_PROMOTE`` or :data:`DEFAULT_PROMOTE_THRESHOLD`.
        telemetry: optional telemetry backend; promotion/demotion counters,
            ledger entries and per-degree-class apply spans land there.
    """

    def __init__(
        self,
        num_vertices: int,
        promote_threshold: int | None = None,
        telemetry=None,
    ):
        super().__init__(num_vertices)
        if promote_threshold is None:
            promote_threshold = int(
                os.environ.get("REPRO_ADJ_PROMOTE", "")
                or DEFAULT_PROMOTE_THRESHOLD
            )
        if promote_threshold < 1:
            raise ValueError(
                f"promote_threshold must be >= 1, got {promote_threshold}"
            )
        self.promote_threshold = promote_threshold
        self._tel = as_telemetry(telemetry)
        self._outd = _Direction(num_vertices)
        self._ind = _Direction(num_vertices)
        # Delta journal (track_deltas), out-direction only: appended edges
        # per batch + the vertices whose existing out-slices went stale.
        self._track = False
        self._delta_invalid = False
        self._journal_out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._stale_out: set[int] = set()
        self._touched_mask = np.zeros(num_vertices, dtype=bool)
        self._touched_n = 0
        self._touched_sorted: list[int] | None = None
        # Scatter-probe scratch (shared across directions; applies are
        # sequential).  Stamps from call N are written at or above that
        # call's generation base, so older stamps read as "absent" and the
        # array never needs clearing between uses.
        self._probe = np.full(num_vertices, -1, dtype=np.int32)
        self._probe_base = 0
        self._view_out = _HybridAdjacencyView(self, self._outd)
        self._view_in = _HybridAdjacencyView(self, self._ind)

    # -- pickling -----------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_view_out"], state["_view_in"], state["_probe"]
        del state["_probe_base"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_journal_out" not in state:
            # Checkpoints from before out-only tracking kept a journal on
            # each direction; adopt the out one, ignore the in one.
            self._journal_out = self._outd.__dict__.pop("journal")
            self._stale_out = self._outd.__dict__.pop("stale")
        self._probe = np.full(self.num_vertices, -1, dtype=np.int32)
        self._probe_base = 0
        self._view_out = _HybridAdjacencyView(self, self._outd)
        self._view_in = _HybridAdjacencyView(self, self._ind)

    # -- pool management ----------------------------------------------------
    def _reserve(self, d: _Direction, extra: int) -> None:
        """Ensure ``extra`` free pool entries, compacting or growing.

        Compaction moves slices (updating ``d.start``); callers holding
        gathered *copies* of slice contents stay valid, but must re-read
        ``d.start`` afterwards.
        """
        if d.used + extra <= len(d.pool_dst):
            return
        if d.live + extra <= len(d.pool_dst) // 2:
            self._compact(d)
            if d.used + extra <= len(d.pool_dst):
                return
        new_len = max(len(d.pool_dst), _INITIAL_POOL)
        while new_len < d.used + extra:
            new_len *= 4  # steep growth: each resize copies the whole pool
        for name in ("pool_dst", "pool_w"):
            old = getattr(d, name)
            grown = np.empty(new_len, dtype=old.dtype)
            grown[: d.used] = old[: d.used]
            setattr(d, name, grown)

    def _compact(self, d: _Direction) -> None:
        """Rewrite live slices tightly, dropping dead capacity."""
        verts = np.flatnonzero(d.cap > 0)
        degs = d.deg[verts]
        gidx, gowner, within, _ = _segment_index(d.start[verts], degs)
        dsts = d.pool_dst[gidx]
        ws = d.pool_w[gidx]
        caps = _slots_for(degs) if len(degs) else degs
        starts = np.cumsum(caps) - caps
        d.start[verts] = starts
        d.cap[verts] = caps
        pos = starts[gowner] + within
        for name, contents in (("pool_dst", dsts), ("pool_w", ws)):
            fresh = np.empty(len(getattr(d, name)), dtype=contents.dtype)
            fresh[pos] = contents
            setattr(d, name, fresh)
        d.used = int(caps.sum())
        d.live = d.used
        if self._tel.enabled:
            self._tel.count("adjacency.compactions")

    # -- class transitions ---------------------------------------------------
    def _promote(self, d: _Direction, v: int) -> None:
        s = int(d.start[v])
        n = int(d.deg[v])
        d.dict_cache.pop(v, None)
        # Slices are stored in insertion order: the dict is a straight zip.
        d.hubs[v] = dict(
            zip(d.pool_dst[s : s + n].tolist(), d.pool_w[s : s + n].tolist())
        )
        d.hub_mask[v] = True
        d.live -= int(d.cap[v])
        d.cap[v] = 0

    def _demote(self, d: _Direction, v: int) -> None:
        entry = d.hubs.pop(v)
        d.hub_mask[v] = False
        n = len(entry)
        cap = _slot_for(n)
        self._reserve(d, cap)
        s = d.used
        d.used += cap
        d.live += cap
        d.start[v] = s
        d.cap[v] = cap
        d.deg[v] = n
        if n:
            d.pool_dst[s : s + n] = np.fromiter(
                entry.keys(), dtype=np.int64, count=n
            )
            d.pool_w[s : s + n] = np.fromiter(
                entry.values(), dtype=np.float64, count=n
            )
        # The demoted dict *is* the current materialization; keep it cached.
        d.dict_cache[v] = entry

    def _promote_crossed(
        self,
        d: _Direction,
        direction: str,
        verts: np.ndarray,
        degs: np.ndarray,
    ) -> None:
        """Promote candidates from ``verts`` (the vertices whose degree
        just changed — only they can newly cross the threshold; ``degs``
        holds their already-gathered post-update degrees)."""
        crossed = verts[
            (degs > self.promote_threshold)
            & ~d.hub_mask[verts]
            & (d.cap[verts] > 0)
        ]
        if not len(crossed):
            return
        for v in crossed.tolist():
            self._promote(d, v)
        if self._tel.enabled:
            self._tel.count("adjacency.promotions", len(crossed))
            self._tel.decision(
                "adjacency",
                choice="promote",
                direction=direction,
                count=len(crossed),
                threshold=self.promote_threshold,
            )

    def _demote_crossed(
        self, d: _Direction, verts: np.ndarray, direction: str
    ) -> None:
        """Demote the hubs among the unique ``verts`` that fell to half
        the promotion threshold or below."""
        floor = self.promote_threshold // 2
        crossed = verts[d.hub_mask[verts] & (d.deg[verts] <= floor)]
        if not len(crossed):
            return
        for v in crossed.tolist():
            self._demote(d, v)
        if self._tel.enabled:
            self._tel.count("adjacency.demotions", len(crossed))
            self._tel.decision(
                "adjacency",
                choice="demote",
                direction=direction,
                count=len(crossed),
                threshold=self.promote_threshold,
            )

    # -- outer-key / touched bookkeeping -------------------------------------
    def _register_key(self, d: _Direction, v: int) -> None:
        d.key_mask[v] = True
        d.key_order.append(v)
        if not self._touched_mask[v]:
            self._touched_mask[v] = True
            self._touched_n += 1
            self._touched_sorted = None

    def _note_keys(self, d: _Direction, verts: np.ndarray) -> None:
        known = d.key_mask[verts]
        if known.all():
            return
        fresh = verts[~known]
        d.key_mask[fresh] = True
        d.key_order.extend(fresh.tolist())
        newly = fresh[~self._touched_mask[fresh]]
        if len(newly):
            self._touched_mask[newly] = True
            self._touched_n += len(newly)
            self._touched_sorted = None

    # -- materialization ------------------------------------------------------
    def _materialize(self, d: _Direction, v) -> dict[int, float]:
        if d.hub_mask[v]:
            return d.hubs[v]
        entry = d.dict_cache.get(v)
        if entry is None:
            s = int(d.start[v])
            n = int(d.deg[v])
            entry = dict(
                zip(
                    d.pool_dst[s : s + n].tolist(),
                    d.pool_w[s : s + n].tolist(),
                )
            )
            d.dict_cache[v] = entry
        return entry

    # -- queries --------------------------------------------------------------
    def out_neighbors(self, v: int) -> dict[int, float]:
        return self._view_out.get(v, {})

    def in_neighbors(self, v: int) -> dict[int, float]:
        return self._view_in.get(v, {})

    def out_degree(self, v: int) -> int:
        return int(self._outd.deg[v])

    def in_degree(self, v: int) -> int:
        return int(self._ind.deg[v])

    def out_degrees(self) -> np.ndarray:
        return read_only(self._outd.deg)

    def in_degrees(self) -> np.ndarray:
        return read_only(self._ind.deg)

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge u->v is currently present."""
        return self.edge_weight(u, v) is not None

    def edge_weight(self, u: int, v: int) -> float | None:
        """Current weight of u->v, or None if absent."""
        d = self._outd
        if d.hub_mask[u]:
            return d.hubs[u].get(v)
        s, n = int(d.start[u]), int(d.deg[u])
        if n == 0:
            return None
        hits = np.flatnonzero(d.pool_dst[s : s + n] == v)
        if len(hits):
            return float(d.pool_w[s + int(hits[0])])
        return None

    def adjacency_views(self):
        return self._view_out, self._view_in

    def vertices_with_edges(self) -> list[int]:
        """Vertices that have ever had an incident edge (treat as read-only).

        Includes vertices whose edges were all deleted since, like the dict
        graph's outer keys.
        """
        if self._touched_sorted is None:
            self._touched_sorted = np.flatnonzero(self._touched_mask).tolist()
        return self._touched_sorted

    def touched_count(self) -> int:
        return self._touched_n

    # -- delta tracking (DeltaSnapshotter contract) ---------------------------
    def track_deltas(self, enabled: bool = True) -> None:
        self._track = enabled
        self._delta_invalid = False
        self._journal_out = []
        self._stale_out = set()

    def consume_delta(self) -> GraphDelta | None:
        if not self._track:
            return None
        if self._delta_invalid:
            self.track_deltas(True)  # reset journal, report "unknown"
            return None
        delta = GraphDelta.from_journal(self._journal_out, self._stale_out)
        self._journal_out = []
        self._stale_out = set()
        return delta

    def _journaled(self, d: _Direction) -> bool:
        """Whether merges into ``d`` are journaled: the out-direction while
        delta tracking is on (snapshots hold the out-CSR only)."""
        return self._track and d is self._outd

    def notify_external_mutation(self) -> None:
        for d in (self._outd, self._ind):
            entries = [self._materialize(d, v) for v in d.key_order]
            self._rebuild_direction(d, entries)
        self.num_edges = int(self._outd.deg.sum())
        self._touched_mask[:] = False
        for d in (self._outd, self._ind):
            if d.key_order:
                self._touched_mask[np.asarray(d.key_order)] = True
        self._touched_n = int(self._touched_mask.sum())
        self._touched_sorted = None
        if self._track:
            # The journal did not see these mutations; poison it so the next
            # consume_delta() forces a full snapshot rebuild.
            self._delta_invalid = True

    def _rebuild_direction(self, d: _Direction, entries) -> None:
        """Reload one direction from materialized dicts (external mutation)."""
        d.deg[:] = 0
        d.cap[:] = 0
        d.hub_mask[:] = False
        d.hubs = {}
        d.dict_cache = {}
        lens = np.fromiter(
            map(len, entries), dtype=np.int64, count=len(entries)
        )
        total_cap = int(_slots_for(lens).sum()) if len(lens) else 0
        if total_cap > len(d.pool_dst):
            size = _INITIAL_POOL
            while size < total_cap:
                size *= 2
            d.pool_dst = np.empty(size, dtype=_dst_dtype(self.num_vertices))
            d.pool_w = np.empty(size, dtype=np.float64)
        d.used = 0
        d.live = 0
        for v, entry in zip(d.key_order, entries):
            n = len(entry)
            d.deg[v] = n
            if n > self.promote_threshold:
                d.hubs[v] = entry
                d.hub_mask[v] = True
                continue
            cap = _slot_for(n)
            s = d.used
            d.used += cap
            d.live += cap
            d.start[v] = s
            d.cap[v] = cap
            if n:
                d.pool_dst[s : s + n] = np.fromiter(
                    entry.keys(), dtype=np.int64, count=n
                )
                d.pool_w[s : s + n] = np.fromiter(
                    entry.values(), dtype=np.float64, count=n
                )
            # The dict handed to callers stays the authoritative cache.
            d.dict_cache[v] = entry

    # -- modeled cost ---------------------------------------------------------
    def sum_search_cost(self, batch_degree, length_before, new_edges, per_element):
        # The *modeled* duplicate-check cost stays the adjacency list's
        # linear scan: this structure accelerates the real mutation, not the
        # evaluated structure's charged time.  DAH's modeled alternative
        # lives in repro.graph.degree_aware_hash.
        return AdjacencyListGraph.sum_search_cost(
            self, batch_degree, length_before, new_edges, per_element
        )

    # -- scatter-probe membership ---------------------------------------------
    def _probe_match(
        self,
        d: _Direction,
        owners: np.ndarray,
        targets: np.ndarray,
        pair_group: np.ndarray,
        averts: np.ndarray,
    ):
        """Locate each (owner, target) pair in the owners' pool slices.

        Returns ``(hit, gidx, gowner, gt)``: ``hit[i]`` is the position of
        pair ``i``'s existing entry *in the gathered arrays* (-1 if absent),
        ``gidx`` maps gathered positions back to pool offsets, ``gowner``
        to segment indices and ``gt`` holds the gathered targets.

        Membership is scatters + gathers into a universe-sized probe array
        instead of per-pair binary search.  The probe is stamped by target
        value, so a read below the call's generation base *proves* absence
        (stale stamps from earlier calls sit below it, so no restore pass
        is needed).  When several owners share a target, stamps shadow
        each other — so two generations are written, one in reverse
        (probe = the target's *first* stamper) and one forward (its
        *last*).  A pair matching either end resolves immediately; only
        pairs whose target was stamped by two or more *other* owners
        remain ambiguous (the owner could hide between the ends) and pay
        the sorted merge over contested slices.
        """
        degs = d.deg[averts]
        # Leaner than _segment_index: fold start and segment offset into
        # one small base array so the flat index costs a single gather.
        total = int(degs.sum())
        seg_off = np.cumsum(degs) - degs
        # int32 halves the traffic of the repeat and the safe-gather below;
        # segment counts comfortably fit (they are bounded by len(averts)).
        gowner = np.repeat(
            np.arange(len(averts), dtype=np.int32), degs
        )
        gidx = (d.start[averts] - seg_off)[gowner] + np.arange(
            total, dtype=np.int64
        )
        gt = d.pool_dst[gidx]
        probe = self._probe
        hit = np.full(len(owners), -1, dtype=np.int64)
        if not len(gt):
            return hit, gidx, gowner, gt
        base = self._probe_base
        if base + 2 * total > (1 << 31) - 1:
            # int32 stamp space exhausted: clear once, restart generations.
            # Amortized over ~2e9 stamped entries — effectively free.
            probe.fill(-1)
            base = 0
        base_l = base + total
        self._probe_base = base_l + total
        # Reversed scatter: for a repeated target the position written
        # last is the smallest one, so this generation reads back the
        # target's FIRST stamper; the forward generation reads its LAST.
        probe[gt[::-1]] = np.arange(base, base_l, dtype=np.int32)[::-1]
        cand_f = probe[targets] - np.int32(base)
        probe[gt] = np.arange(base_l, base_l + total, dtype=np.int32)
        cand_l = probe[targets] - np.int32(base_l)
        found = cand_l >= 0  # gt[cand] == target is guaranteed by stamping
        safe = np.maximum(cand_l, 0)
        # Segment index comparison == owner comparison (averts is unique).
        own = gowner[safe] == pair_group
        sure = found & own
        hit[sure] = cand_l[sure]
        rem = found & ~own
        if rem.any():
            own_f = rem.copy()
            own_f[rem] = (
                gowner[cand_f[rem]] == pair_group[rem]
            )
            hit[own_f] = cand_f[own_f]
            # Owner is neither end: ambiguous only if the target has >= 2
            # stampers (cand_f < cand_l) and the owner's slice is nonempty.
            ambig = rem & ~own_f & (cand_f < cand_l)
            if ambig.any():
                ambig &= degs[pair_group] > 0
            if ambig.any():
                self._probe_fallback(
                    hit, targets, pair_group, ambig, degs, seg_off, gt
                )
        return hit, gidx, gowner, gt

    def _probe_fallback(
        self,
        hit: np.ndarray,
        targets: np.ndarray,
        pair_group: np.ndarray,
        ambig: np.ndarray,
        degs: np.ndarray,
        seg_off: np.ndarray,
        gt: np.ndarray,
    ) -> None:
        """Resolve probe reads shadowed at both stamp generations.

        Sorted merge over just the contested owners' slices, enumerated by
        segment arithmetic so the cost scales with the contested entries,
        not the whole gathered universe; sets ``hit`` to gathered positions
        for pairs that do exist.
        """
        nv = self.num_vertices
        need = np.zeros(len(degs), dtype=bool)
        need[pair_group[ambig]] = True
        cseg = np.flatnonzero(need)
        cdeg = degs[cseg]
        total_c = int(cdeg.sum())
        if not total_c:  # every contested owner's slice is empty
            return
        clocal = np.repeat(np.arange(len(cseg), dtype=np.int64), cdeg)
        esel = (seg_off[cseg] - (np.cumsum(cdeg) - cdeg))[clocal] + np.arange(
            total_c, dtype=np.int64
        )
        sub_group = cseg[clocal]
        sub_t = gt[esel]
        if len(degs) * nv < 2**62 and nv <= _COMPOSITE_SAFE:
            ecomp = sub_group * np.int64(nv) + sub_t
            eorder = np.argsort(ecomp, kind="stable")
            ecomp = ecomp[eorder]
            qcomp = pair_group[ambig] * np.int64(nv) + targets[ambig]
            pos = np.searchsorted(ecomp, qcomp)
            lim = np.minimum(pos, len(ecomp) - 1)
            good = (pos < len(ecomp)) & (ecomp[lim] == qcomp)
            aidx = np.flatnonzero(ambig)
            hit[aidx[good]] = esel[eorder[lim[good]]]
        else:  # gigantic universe: scan each contested slice directly
            for i in np.flatnonzero(ambig).tolist():
                in_seg = sub_group == pair_group[i]
                match = np.flatnonzero(sub_t[in_seg] == targets[i])
                if len(match):
                    hit[i] = esel[np.flatnonzero(in_seg)[int(match[0])]]

    # -- batch apply ----------------------------------------------------------
    def _dedup_in_batch(
        self,
        ks: np.ndarray,
        vs: np.ndarray,
        ws: np.ndarray,
        seg_start: np.ndarray,
        seg_len: np.ndarray,
    ) -> np.ndarray | None:
        """Drop in-batch repeats of a (key, value) pair, keeping the first
        occurrence with the last occurrence's weight (dict semantics).

        Inputs are in key-grouped batch order.  Returns a keep-mask, or
        ``None`` when every pair is provably unique: a 64-bit membership
        signature per segment certifies distinctness for the overwhelmingly
        common repeat-free case, and only suspicious segments pay a local
        dedup sort.  ``ws`` is edited in place for kept repeats.
        """
        suspect = _suspect_segments(vs, seg_start, seg_len)
        if suspect is None:
            return None
        sidx, sowner, _, _ = _segment_index(
            seg_start[suspect], seg_len[suspect]
        )
        lorder = _grouped_value_order(sowner, vs[sidx], self.num_vertices)
        so = sowner[lorder]
        sv = vs[sidx][lorder]
        cut = np.flatnonzero((so[1:] != so[:-1]) | (sv[1:] != sv[:-1]))
        gfirst = np.append(0, cut + 1)
        glast = np.append(cut, len(so) - 1)
        keep = np.ones(len(ks), dtype=bool)
        keep[sidx] = False
        firsts = sidx[lorder[gfirst]]
        keep[firsts] = True
        ws[firsts] = ws[sidx[lorder[glast]]]
        return keep

    def _apply_direction(
        self,
        d: _Direction,
        direction: str,
        keys: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
    ) -> DirectionStats:
        n = len(keys)
        if n == 0:
            return _empty_direction_stats()
        korder = _key_order(keys, self.num_vertices)
        ks = keys[korder]
        vs = values[korder]
        ws = weights[korder]
        neq = ks[1:] != ks[:-1]
        cuts = np.flatnonzero(neq)
        seg_start = np.append(0, cuts + 1)
        verts = ks[seg_start]
        batch_degree = np.diff(np.append(seg_start, n))
        length_before = d.deg[verts]

        keep = self._dedup_in_batch(ks, vs, ws, seg_start, batch_degree)
        # Unique pairs are now grouped by owner in first-occurrence batch
        # order — the dict graph's *untracked* insertion order.  The dict
        # graph's tracked out-direction inserts in composite (dst-ascending)
        # order instead.
        if keep is None:
            owners, targets, w_final = ks, vs, ws
            ucounts = batch_degree
            pair_group = np.zeros(n, dtype=np.int64)
            np.cumsum(neq, out=pair_group[1:])
        else:
            owners = ks[keep]
            targets = vs[keep]
            w_final = ws[keep]
            ucounts = np.add.reduceat(keep, seg_start).astype(np.int64)
            pair_group = np.repeat(
                np.arange(len(verts), dtype=np.int64), ucounts
            )
        track = self._journaled(d)
        if track:
            porder = _grouped_value_order(pair_group, targets, self.num_vertices)
            owners = owners[porder]
            targets = targets[porder]
            w_final = w_final[porder]

        is_new = np.empty(len(owners), dtype=bool)
        tel = self._tel
        # The mask gather only pays off when hubs exist at all.
        hub_pair = d.hub_mask[owners] if d.hubs else None
        any_hub = hub_pair is not None and bool(hub_pair.any())
        if any_hub:
            with tel.span("adjacency.apply.hub"):
                self._apply_hub(
                    d, owners, targets, w_final, hub_pair, is_new, track
                )
            arr_pair = ~hub_pair
            if arr_pair.any():
                with tel.span("adjacency.apply.array"):
                    self._apply_array(
                        d,
                        owners[arr_pair],
                        targets[arr_pair],
                        w_final[arr_pair],
                        is_new,
                        arr_pair,
                        track,
                    )
        else:
            with tel.span("adjacency.apply.array"):
                # No hub split: the caller's grouping is the array grouping.
                self._apply_array(
                    d, owners, targets, w_final, is_new, None, track,
                    averts=verts, pgroup=pair_group, ucounts=ucounts,
                )
        if track and is_new.any():
            self._journal_out.append(
                (owners[is_new], targets[is_new], w_final[is_new])
            )
        if bool(is_new.all()):
            new_per_vertex = ucounts  # never mutated downstream
        else:
            new_per_vertex = np.bincount(
                pair_group[is_new], minlength=len(verts)
            ).astype(np.int64)
        new_degs = length_before + new_per_vertex
        d.deg[verts] = new_degs
        self._note_keys(d, verts)
        self._promote_crossed(d, direction, verts, new_degs)
        if tel.enabled:
            hub_count = int(hub_pair.sum()) if hub_pair is not None else 0
            tel.count(f"adjacency.{direction}.hub_pairs", hub_count)
            tel.count(
                f"adjacency.{direction}.array_pairs",
                len(owners) - hub_count,
            )
        return DirectionStats(
            vertices=verts,
            batch_degree=batch_degree,
            length_before=length_before,
            new_edges=new_per_vertex,
        )

    def _apply_hub(
        self,
        d: _Direction,
        owners: np.ndarray,
        targets: np.ndarray,
        w: np.ndarray,
        hub_pair: np.ndarray,
        is_new_out: np.ndarray,
        track: bool,
    ) -> None:
        """Merge unique pairs owned by hub vertices (hash-dict class).

        Pairs arrive in the required insertion order (composite order when
        ``track`` is set, batch order otherwise), so one C-level setitem
        sweep lands them exactly like the dict graph would.
        """
        owners_list = owners[hub_pair].tolist()
        targets_list = targets[hub_pair].tolist()
        entries = list(map(d.hubs.__getitem__, owners_list))
        contains = np.fromiter(
            map(dict.__contains__, entries, targets_list),
            dtype=bool,
            count=len(entries),
        )
        is_new_out[hub_pair] = ~contains
        wsel = w[hub_pair]
        if track and contains.any():
            flags = contains.tolist()
            old_w = np.fromiter(
                map(
                    dict.__getitem__,
                    compress(entries, flags),
                    compress(targets_list, flags),
                ),
                dtype=np.float64,
                count=int(contains.sum()),
            )
            changed = old_w != wsel[contains]
            if changed.any():
                self._stale_out.update(
                    owners[hub_pair][contains][changed].tolist()
                )
        deque(
            map(dict.__setitem__, entries, targets_list, wsel.tolist()),
            maxlen=0,
        )
        for v in dict.fromkeys(owners_list):
            d.dict_cache.pop(v, None)

    def _apply_array(
        self,
        d: _Direction,
        owners: np.ndarray,
        targets: np.ndarray,
        w: np.ndarray,
        is_new_out: np.ndarray,
        pair_mask: np.ndarray | None,
        track: bool,
        averts: np.ndarray | None = None,
        pgroup: np.ndarray | None = None,
        ucounts: np.ndarray | None = None,
    ) -> None:
        """Merge unique pairs owned by array-class vertices, vectorized.

        Existing entries are never moved: duplicate pairs update weights at
        their probed pool offsets, new pairs append at slice tails in the
        order given (which is the required dict insertion order).  Only
        vertices outgrowing their slot capacity relocate.  ``averts`` /
        ``pgroup`` / ``ucounts`` (the owner grouping and per-owner pair
        counts) are recomputed unless the caller already has them.
        """
        if averts is None:
            averts = owners[
                np.append(0, np.flatnonzero(owners[1:] != owners[:-1]) + 1)
            ]
            pgroup = np.cumsum(
                np.append(False, owners[1:] != owners[:-1])
            ).astype(np.int64)
        hit, gidx, _gowner, _gt = self._probe_match(
            d, owners, targets, pgroup, averts
        )
        new_mask = hit < 0
        if pair_mask is None:
            is_new_out[:] = new_mask
        else:
            is_new_out[pair_mask] = new_mask
        all_new = bool(new_mask.all())
        if not all_new:
            dup = ~new_mask
            pool_pos = gidx[hit[dup]]
            if track:
                changed = d.pool_w[pool_pos] != w[dup]
                if changed.any():
                    self._stale_out.update(owners[dup][changed].tolist())
            d.pool_w[pool_pos] = w[dup]
            if not new_mask.any():
                if d.dict_cache:
                    for v in averts.tolist():
                        d.dict_cache.pop(v, None)
                return
        if all_new and ucounts is not None:
            # Every pair appends (the overwhelmingly common streaming
            # case): the caller's per-owner counts are the new counts, so
            # skip the bincount and all the new-pair subsetting gathers.
            new_counts = ucounts
            nowner = pgroup
            new_targets, new_w = targets, w
        else:
            new_counts = np.bincount(
                pgroup[new_mask], minlength=len(averts)
            ).astype(np.int64)
            nsel = np.flatnonzero(new_mask)
            nowner = pgroup[nsel]
            new_targets, new_w = targets[nsel], w[nsel]
        degs = d.deg[averts]
        new_deg = degs + new_counts
        grow = new_deg > d.cap[averts]
        if grow.any():
            self._grow_slots(d, averts[grow], new_deg[grow])
        # new_pos[i] = start[o] + deg[o] + (i - ncoff[o]); folding the
        # per-owner terms into one base array costs one gather, not three.
        base = d.start[averts] + degs - (np.cumsum(new_counts) - new_counts)
        new_pos = base[nowner] + np.arange(len(nowner), dtype=np.int64)
        d.pool_dst[new_pos] = new_targets
        d.pool_w[new_pos] = new_w
        # Degrees are updated by the caller (uniformly for both classes).
        if d.dict_cache:
            for v in averts.tolist():
                d.dict_cache.pop(v, None)

    def _grow_slots(
        self, d: _Direction, verts: np.ndarray, need: np.ndarray
    ) -> None:
        """Relocate vertices whose slices outgrow their capacity."""
        degs = d.deg[verts]
        if degs.any():
            occupied = np.flatnonzero(degs)
            gidx, gowner_sub, within, _ = _segment_index(
                d.start[verts[occupied]], degs[occupied]
            )
            gowner = occupied[gowner_sub]
            moved_dst = d.pool_dst[gidx]
            moved_w = d.pool_w[gidx]
        else:
            # First-touch vertices (the common streaming case) own no
            # entries yet — pure allocation, nothing to relocate.
            gowner = within = moved_dst = moved_w = None
        caps = _slots_for(need)
        extra = int(caps.sum())
        freed = int(d.cap[verts].sum())
        self._reserve(d, extra)  # may compact; gathered copies stay valid
        starts = d.used + np.cumsum(caps) - caps
        d.start[verts] = starts
        d.cap[verts] = caps
        d.used += extra
        d.live += extra - freed
        if gowner is not None:
            pos = starts[gowner] + within
            d.pool_dst[pos] = moved_dst
            d.pool_w[pos] = moved_w

    # -- deletions ------------------------------------------------------------
    def _delete_direction(
        self, d: _Direction, direction: str, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Remove unique ``key -> value`` pairs from one direction.

        Returns the (owner, target) arrays of the pairs actually removed,
        so :meth:`_delete_edges` can mirror the dict graph's "remove the
        in-entry only when the out-entry existed" coupling exactly.
        """
        none = np.empty(0, dtype=np.int64)
        if len(keys) == 0:
            return none, none
        korder = _key_order(keys, self.num_vertices)
        ks = keys[korder]
        vs = values[korder]
        seg_start = np.append(0, np.flatnonzero(ks[1:] != ks[:-1]) + 1)
        seg_len = np.diff(np.append(seg_start, len(ks)))
        keep = self._dedup_pairs(ks, vs, seg_start, seg_len)
        if keep is None:
            owners, targets = ks, vs
        else:
            owners = ks[keep]
            targets = vs[keep]
        track = self._journaled(d)
        hub_pair = d.hub_mask[owners]
        rem_owner_parts: list[np.ndarray] = []
        rem_target_parts: list[np.ndarray] = []
        if hub_pair.any():
            ho = owners[hub_pair]
            ht = targets[hub_pair]
            hhit = np.zeros(len(ho), dtype=bool)
            for i, (u, v) in enumerate(zip(ho.tolist(), ht.tolist())):
                entry = d.hubs[u]
                if v in entry:
                    del entry[v]
                    d.deg[u] -= 1
                    hhit[i] = True
                    if track:
                        self._stale_out.add(u)
            if hhit.any():
                rem_owner_parts.append(ho[hhit])
                rem_target_parts.append(ht[hhit])
            # Demotions may compact/relocate the pool; finish before the
            # array-class gather reads slice starts.
            self._demote_crossed(d, sorted_unique(ho), direction)
        arr_pair = ~hub_pair
        if arr_pair.any():
            ao = owners[arr_pair]
            at = targets[arr_pair]
            pgroup = np.cumsum(
                np.append(False, ao[1:] != ao[:-1])
            ).astype(np.int64)
            seg = np.append(0, np.flatnonzero(ao[1:] != ao[:-1]) + 1)
            dverts = ao[seg]
            hit, gidx, gowner, gt = self._probe_match(
                d, ao, at, pgroup, dverts
            )
            present = hit >= 0
            if present.any():
                rem_owner_parts.append(ao[present])
                rem_target_parts.append(at[present])
                degs = d.deg[dverts]
                keep_old = np.ones(len(gt), dtype=bool)
                keep_old[hit[present]] = False
                rem_counts = np.bincount(
                    gowner[hit[present]], minlength=len(dverts)
                ).astype(np.int64)
                # Compact survivors to the slice prefix, preserving storage
                # (= insertion) order; sources are gathered copies.
                pref = np.cumsum(keep_old) - keep_old
                kept = degs - rem_counts
                kept_off = np.cumsum(kept) - kept
                dest = d.start[dverts][gowner] + (pref - kept_off[gowner])
                d.pool_dst[dest[keep_old]] = gt[keep_old]
                d.pool_w[dest[keep_old]] = d.pool_w[gidx][keep_old]
                d.deg[dverts] = kept
                hit_verts = dverts[rem_counts > 0]
                if track:
                    self._stale_out.update(hit_verts.tolist())
                if d.dict_cache:
                    for v in hit_verts.tolist():
                        d.dict_cache.pop(v, None)
        if rem_owner_parts:
            return (
                np.concatenate(rem_owner_parts),
                np.concatenate(rem_target_parts),
            )
        return none, none

    def _dedup_pairs(
        self,
        ks: np.ndarray,
        vs: np.ndarray,
        seg_start: np.ndarray,
        seg_len: np.ndarray,
    ) -> np.ndarray | None:
        """Keep-mask dropping repeated (key, value) pairs (weights ignored)."""
        suspect = _suspect_segments(vs, seg_start, seg_len)
        if suspect is None:
            return None
        sidx, sowner, _, _ = _segment_index(
            seg_start[suspect], seg_len[suspect]
        )
        lorder = _grouped_value_order(sowner, vs[sidx], self.num_vertices)
        so = sowner[lorder]
        sv = vs[sidx][lorder]
        first = np.empty(len(so), dtype=bool)
        first[0] = True
        first[1:] = (so[1:] != so[:-1]) | (sv[1:] != sv[:-1])
        keep = np.ones(len(ks), dtype=bool)
        keep[sidx] = False
        keep[sidx[lorder[first]]] = True
        return keep

    def _delete_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Remove listed edges (both directions); returns edges removed.

        The in-direction entry is removed only for pairs whose out-entry
        existed, matching the dict graph's coupled loop even if external
        mutation left the directions asymmetric.
        """
        rem_src, rem_dst = self._delete_direction(self._outd, "out", src, dst)
        if len(rem_src):
            self._delete_direction(self._ind, "in", rem_dst, rem_src)
        return len(rem_src)

    def apply_batch(self, batch: Batch) -> BatchUpdateStats:
        """Ingest a batch: all insertions first, then deletions."""
        self.check_vertices(batch.src, batch.dst)
        inserts = batch.insertions
        out_stats = self._apply_direction(
            self._outd, "out", inserts.src, inserts.dst, inserts.weight
        )
        in_stats = self._apply_direction(
            self._ind, "in", inserts.dst, inserts.src, inserts.weight
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
