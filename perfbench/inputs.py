"""Benchmark-owned inputs: every workload's edges, made from ``--seed``.

All inputs are generated before any timed window.  The same seed gives the
same inputs; the program under test only ever sees the generated batches
(offline) or the generated submissions (serving).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.datasets.profiles import get_dataset
from repro.datasets.stream import Batch


def stream_batches(dataset: str, seed: int, batch_size: int, count: int) -> list[Batch]:
    """The first ``count`` batches of a dataset profile's stream."""
    generator = get_dataset(dataset).generator(seed=seed)
    return [generator.generate_batch(i, batch_size) for i in range(count)]


def churn_batches(
    dataset: str, seed: int, batch_size: int, count: int, delete_share: float
) -> list[Batch]:
    """A stream whose batches mix inserts with deletes of live edges.

    Batch 0 only inserts.  Every later batch holds ``delete_share`` of its
    edges as deletions of edges that are live (inserted and not yet
    deleted) before the batch, drawn uniformly, shuffled among the
    batch's fresh inserts.  Every deletion therefore removes a real edge.
    """
    nv = get_dataset(dataset).num_vertices
    generator = get_dataset(dataset).generator(seed=seed)
    rng = np.random.default_rng(seed)
    live = np.empty(0, dtype=np.int64)  # sorted unique src * nv + dst keys
    batches = []
    for i in range(count):
        n_del = int(batch_size * delete_share) if i else 0
        inserts = generator.generate_batch(i, batch_size - n_del)
        ins_keys = inserts.src * nv + inserts.dst
        del_keys = live[rng.choice(len(live), size=n_del, replace=False)]
        keys = np.concatenate([ins_keys, del_keys])
        is_delete = np.concatenate(
            [np.zeros(len(ins_keys), dtype=bool), np.ones(n_del, dtype=bool)]
        )
        order = rng.permutation(len(keys))
        keys, is_delete = keys[order], is_delete[order]
        batches.append(Batch(
            batch_id=i,
            src=keys // nv,
            dst=keys % nv,
            weight=np.ones(len(keys)),
            is_delete=is_delete if n_del else None,
        ))
        # The graph applies a batch's inserts before its deletes.  (A sort
        # and a neighbour compare: np.union1d hashes, ~10x slower here.)
        live = np.concatenate([live, ins_keys])
        live.sort()
        live = live[np.concatenate([[True], live[1:] != live[:-1]])]
        keep = np.ones(len(live), dtype=bool)
        keep[np.searchsorted(live, del_keys)] = False
        live = live[keep]
    return batches


@dataclass
class ServePlan:
    """An open-loop submission schedule for ``repro serve``.

    Attributes:
        offsets: scheduled send time of each submission, seconds from the
            start of the schedule.
        lines: each submission's pre-encoded ``edges`` request line.
        sizes: edges per submission.
        src / dst: every scheduled edge, in send order.
    """

    offsets: list[float]
    lines: list[bytes]
    sizes: list[int]
    src: np.ndarray
    dst: np.ndarray

    @property
    def edges(self) -> int:
        return len(self.src)


def serve_plan(
    dataset: str, seed: int, rate: float, seconds: float, submit: int
) -> ServePlan:
    """Submissions of ``submit`` edges, evenly spaced at ``rate`` edges/s."""
    count = max(1, int(rate * seconds) // submit)
    chunk = 10_000
    batches = stream_batches(dataset, seed, chunk, -(-count * submit // chunk))
    src = np.concatenate([b.src for b in batches])[: count * submit]
    dst = np.concatenate([b.dst for b in batches])[: count * submit]
    lines, sizes, offsets = [], [], []
    for i in range(count):
        a, b = i * submit, (i + 1) * submit
        edges = [[int(s), int(d)] for s, d in zip(src[a:b], dst[a:b])]
        lines.append(
            json.dumps({"op": "edges", "edges": edges}, separators=(",", ":"))
            .encode() + b"\n"
        )
        sizes.append(b - a)
        offsets.append(i * submit / rate)
    return ServePlan(offsets, lines, sizes, src, dst)
