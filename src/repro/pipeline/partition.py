"""Offline placement analysis: how many edges a vertex placement cuts.

The paper's HAU routes every update task to core ``src mod N`` (Section
4.4), so tasks that touch the same vertex land on the same core and no two
cores write the same adjacency; the HAU simulator models that mapping
(Fig. 19/20).  This module scores such a placement offline.  An *owner
map* is one integer array of length ``num_vertices`` mapping vertex id ->
owning part, and :func:`cut_edge_fraction` counts the edges whose two
endpoints land in different parts: the traffic a runtime split along the
map would pay.  Streaming-partitioning research — Le Merrer et al.'s
stream (re)partitioning, BuffCut's prioritized buffered partitioning (both
in PAPERS.md) — shows the placement moves that fraction by integer factors
under skew.

Two placements:

* :func:`mod_owner_map` — the paper's ``v mod N``;
* :func:`greedy_owner_map` — a linear deterministic greedy streaming
  partitioner (à la Fennel/LDG as used by Le Merrer et al. and BuffCut):
  edges stream once, each newly seen vertex joins the part holding its
  neighbor unless that part exceeds a balance-slack capacity, and unseen
  vertices back-fill toward perfect balance.  It cuts far fewer edges than
  ``mod`` on hub-heavy streams.

Both maps are total (every vertex owned by exactly one part, every part
nonempty whenever ``num_vertices >= num_parts``) and deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "GREEDY_SAMPLE_EDGES",
    "GREEDY_SLACK",
    "cut_edge_fraction",
    "greedy_owner_map",
    "mod_owner_map",
]

#: Edge budget the greedy pass reads from the head of the stream; beyond
#: this the assignment quality plateaus while the (Python-loop) pass cost
#: grows.
GREEDY_SAMPLE_EDGES = 200_000

#: How far above a fair share (``n/N``) the greedy pass may fill a part.
GREEDY_SLACK = 0.1


def _owner_dtype(num_parts: int) -> np.dtype:
    """Smallest integer dtype that can hold every part id (validates
    ``num_parts``)."""
    if num_parts < 1:
        raise ConfigurationError(f"num_parts must be >= 1, got {num_parts}")
    return np.min_scalar_type(num_parts - 1)


def mod_owner_map(num_vertices: int, num_parts: int) -> np.ndarray:
    """The paper's Section 4.4 mapping: part ``k`` owns ``v % N == k``."""
    dtype = _owner_dtype(num_parts)
    return (np.arange(num_vertices, dtype=np.int64) % num_parts).astype(dtype)


def greedy_owner_map(
    num_vertices: int,
    num_parts: int,
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Streaming greedy placement with a balance slack (LDG-style).

    One pass over the first :data:`GREEDY_SAMPLE_EDGES` edges, in arrival
    order:

    * both endpoints unseen  -> both join the least-loaded part (the new
      edge becomes internal for free);
    * one endpoint unseen    -> it joins its neighbor's part, unless that
      part is at its slack capacity (then least-loaded);
    * both seen              -> placement is already decided; do nothing.

    Vertices absent from the sample back-fill toward perfect balance in id
    order, least-loaded parts first.  :data:`GREEDY_SLACK` bounds skew: no
    part's sample-assigned load exceeds ``ceil(n/N * (1 + GREEDY_SLACK))``.
    """
    dtype = _owner_dtype(num_parts)
    owners = np.full(num_vertices, -1, dtype=np.int64)
    loads = [0] * num_parts
    if num_parts > 1:
        cap = max(
            1, int(np.ceil(num_vertices * (1.0 + GREEDY_SLACK) / num_parts))
        )
        n_sample = min(len(src), GREEDY_SAMPLE_EDGES)
        for u, v in zip(src[:n_sample].tolist(), dst[:n_sample].tolist()):
            ou, ov = owners[u], owners[v]
            if ou >= 0 and ov >= 0:
                continue
            if ou >= 0:  # v joins u's part if slack allows
                s = ou if loads[ou] < cap else loads.index(min(loads))
                owners[v] = s
                loads[s] += 1
            elif ov >= 0:  # u joins v's part if slack allows
                s = ov if loads[ov] < cap else loads.index(min(loads))
                owners[u] = s
                loads[s] += 1
            else:  # fresh edge: co-locate both endpoints
                s = loads.index(min(loads))
                owners[u] = s
                loads[s] += 1
                if u != v:
                    owners[v] = s
                    loads[s] += 1
    # Back-fill unseen vertices toward perfect balance: every part is
    # topped up to its fair share, least-loaded first, in vertex order.
    remaining = np.flatnonzero(owners < 0)
    if len(remaining):
        loads_arr = np.array(loads, dtype=np.int64)
        base, extra = divmod(num_vertices, num_parts)
        target = np.full(num_parts, base, dtype=np.int64)
        # Extra slots go to the least-loaded parts (stable order).
        target[np.argsort(loads_arr, kind="stable")[:extra]] += 1
        deficit = np.maximum(target - loads_arr, 0)
        fill = np.repeat(np.arange(num_parts), deficit)
        if len(fill) < len(remaining):  # greedy overfilled some part
            pad = np.arange(len(remaining) - len(fill)) % num_parts
            fill = np.concatenate([fill, pad])
        owners[remaining] = fill[: len(remaining)]
    return _fill_empty_parts(owners.astype(dtype), num_parts)


def cut_edge_fraction(
    owner_map: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> float:
    """Fraction of edges whose endpoints live in different parts.

    The communication proxy every streaming partitioner minimizes: a cut
    edge's two directions would be applied by two different workers.
    """
    if len(src) == 0:
        return 0.0
    return float(np.mean(owner_map[src] != owner_map[dst]))


def _fill_empty_parts(owners: np.ndarray, num_parts: int) -> np.ndarray:
    """Move vertices from the fullest parts into any empty ones.

    Greedy co-location can leave a part empty on a tiny universe (one
    fresh edge places both of its endpoints together).  Deterministic:
    empty parts fill in ascending id order, each taking the highest-id
    vertex of the currently fullest part (ties broken toward the lowest
    part id).
    """
    if len(owners) < num_parts:
        return owners
    loads = np.bincount(owners, minlength=num_parts)
    for empty in np.flatnonzero(loads == 0):
        donor = int(np.argmax(loads))
        victim = int(np.flatnonzero(owners == donor)[-1])
        owners[victim] = empty
        loads[donor] -= 1
        loads[empty] += 1
    return owners
