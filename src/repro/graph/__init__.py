"""Dynamic graph data structures and batch statistics."""

from .base import BatchUpdateStats, DirectionStats, DynamicGraph, Segments
from .adjacency_list import AdjacencyListGraph
from .degree_aware_hash import DegreeAwareHashGraph
from .edge_log import EdgeLogGraph
from .reference import ReferenceAdjacencyListGraph
from .snapshot import CSRSnapshot, DeltaSnapshotter, take_snapshot
from .stats import (
    FIG5_BUCKETS,
    DegreeMix,
    degree_counts,
    degree_histogram,
    degree_mix,
    top_degrees,
)

__all__ = [
    "BatchUpdateStats",
    "DirectionStats",
    "DynamicGraph",
    "Segments",
    "AdjacencyListGraph",
    "ReferenceAdjacencyListGraph",
    "DegreeAwareHashGraph",
    "EdgeLogGraph",
    "CSRSnapshot",
    "DeltaSnapshotter",
    "take_snapshot",
    "FIG5_BUCKETS",
    "DegreeMix",
    "degree_counts",
    "degree_histogram",
    "degree_mix",
    "top_degrees",
]
