"""Stream and batch containers.

A streaming graph workload is a sequence of :class:`Batch` objects, each a
block of ``<source, destination, weight>`` tuples (plus an optional deletion
flag).  :class:`EdgeStream` adapts any batch iterator with bookkeeping
(batch ids, edge accounting) and enforces the configured batch size.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Batch", "EdgeStream", "batches_from_arrays", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted unique elements of a 1-D array: a sort plus an adjacent diff.

    Use this instead of a plain ``np.unique(x)`` or ``np.union1d(a, b)``
    (``sorted_unique(np.concatenate([a, b]))``): NumPy 2.4 runs those
    through a hash-based path that is over 10x slower than sorting on 100K
    integer ids.
    """
    out = np.sort(values)
    keep = np.empty(len(out), dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _dtype_kind(column) -> str:
    """NumPy dtype kind of ``column`` ("O" for non-arrays)."""
    dtype = getattr(column, "dtype", None)
    return dtype.kind if isinstance(dtype, np.dtype) else "O"


@dataclass(frozen=True)
class Batch:
    """One input batch of edge updates.

    Attributes:
        batch_id: 0-based position in the stream.
        src: integer array of source vertex ids (int64 by convention).
        dst: integer array of destination vertex ids.
        weight: float64 array of edge weights (all 1.0 for unweighted input).
        is_delete: optional bool array; True marks an edge deletion.  ``None``
            means the batch is insert-only (the common streaming case).

    Raises:
        ConfigurationError: the columns differ in length, ``src``/``dst``
            are not integer arrays, or ``is_delete`` is not a bool array.
            Other dtypes are rejected, never coerced: a 0/1 ``is_delete``
            would index rows instead of masking them.
    """

    batch_id: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    is_delete: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (len(self.src) == len(self.dst) == len(self.weight)):
            raise ConfigurationError(
                "src, dst and weight must have equal length, got "
                f"{len(self.src)}/{len(self.dst)}/{len(self.weight)}"
            )
        for name, column in (("src", self.src), ("dst", self.dst)):
            if _dtype_kind(column) not in "iu":
                raise ConfigurationError(
                    f"{name} must be an integer array, got "
                    f"{getattr(column, 'dtype', type(column).__name__)}"
                )
        flags = self.is_delete
        if flags is not None:
            if _dtype_kind(flags) != "b":
                raise ConfigurationError(
                    "is_delete must be a bool array, got "
                    f"{getattr(flags, 'dtype', type(flags).__name__)}"
                )
            if len(flags) != len(self.src):
                raise ConfigurationError("is_delete length must match edge count")
        if self.batch_id < 0:
            raise ConfigurationError(f"batch_id must be >= 0, got {self.batch_id}")

    def __len__(self) -> int:
        return len(self.src)

    @property
    def size(self) -> int:
        """Number of edge updates in the batch."""
        return len(self.src)

    @property
    def insertions(self) -> "Batch":
        """The insert-only view of this batch (same batch id)."""
        if self.is_delete is None:
            return self
        keep = ~self.is_delete
        return Batch(
            batch_id=self.batch_id,
            src=self.src[keep],
            dst=self.dst[keep],
            weight=self.weight[keep],
        )

    @property
    def deletions(self) -> "Batch":
        """The delete-only view of this batch (same batch id)."""
        if self.is_delete is None:
            empty = np.empty(0, dtype=np.int64)
            return Batch(self.batch_id, empty, empty.copy(), np.empty(0))
        keep = self.is_delete
        return Batch(
            batch_id=self.batch_id,
            src=self.src[keep],
            dst=self.dst[keep],
            weight=self.weight[keep],
        )

    def unique_vertices(self) -> np.ndarray:
        """Sorted unique vertex ids touched by the batch (either endpoint)."""
        return sorted_unique(np.concatenate([self.src, self.dst]))

    def in_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex in-degree inside the batch.

        Returns:
            ``(vertices, counts)`` where ``counts[i]`` is the number of batch
            edges whose destination is ``vertices[i]``.
        """
        return np.unique(self.dst, return_counts=True)

    def out_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex out-degree inside the batch (see :meth:`in_degrees`)."""
        return np.unique(self.src, return_counts=True)

    def max_degree(self) -> int:
        """Maximum of the batch's in- and out-degrees (Fig. 3 right axis)."""
        if self.size == 0:
            return 0
        __, in_counts = self.in_degrees()
        __, out_counts = self.out_degrees()
        return int(max(in_counts.max(), out_counts.max()))


class EdgeStream:
    """A finite stream of equally sized batches.

    Args:
        batches: iterable producing :class:`Batch` objects in order.
        batch_size: nominal batch size (the final batch may be shorter).
        name: label used in reports.
    """

    def __init__(self, batches: Iterable[Batch], batch_size: int, name: str = "stream"):
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self._batches = iter(batches)
        self.batch_size = batch_size
        self.name = name
        self.batches_emitted = 0
        self.edges_emitted = 0

    def __iter__(self) -> Iterator[Batch]:
        for batch in self._batches:
            if batch.size > self.batch_size:
                raise ConfigurationError(
                    f"batch {batch.batch_id} has {batch.size} edges, exceeding "
                    f"the configured batch size {self.batch_size}"
                )
            self.batches_emitted += 1
            self.edges_emitted += batch.size
            yield batch


def batches_from_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    batch_size: int,
    weight: np.ndarray | None = None,
) -> list[Batch]:
    """Split flat edge arrays into consecutive batches.

    Args:
        src: source vertex ids for the whole stream, in arrival order.
        dst: destination vertex ids.
        batch_size: edges per batch (last batch may be shorter).
        weight: optional weights; defaults to all-ones.

    Returns:
        List of :class:`Batch` objects covering the stream.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if len(src) != len(dst):
        raise ConfigurationError("src and dst must have equal length")
    if weight is None:
        weight = np.ones(len(src), dtype=np.float64)
    elif len(weight) != len(src):
        raise ConfigurationError("weight length must match edge count")
    batches = []
    for bid, start in enumerate(range(0, len(src), batch_size)):
        stop = start + batch_size
        batches.append(
            Batch(
                batch_id=bid,
                src=np.asarray(src[start:stop], dtype=np.int64),
                dst=np.asarray(dst[start:stop], dtype=np.int64),
                weight=np.asarray(weight[start:stop], dtype=np.float64),
            )
        )
    return batches
