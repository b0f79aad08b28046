"""Streaming pipeline: run configs, modes, metrics, the staged runner and
the workload matrix."""

from .checkpoint import PipelineCheckpoint, latest_checkpoint
from .config import RunConfig
from .executor import CellExecutionError, CellResult, CellSpec, run_matrix
from .latency import LatencyStats, latency_stats, reaction_latencies
from .metrics import BatchMetrics, RunMetrics
from .modes import MODE_ALIASES, MODES, resolve_mode
from .runner import ALGORITHMS, BatchContext, StreamingPipeline
from .tracing import TraceEvent, TraceWriter, read_trace
from .workloads import DEFAULT_BATCH_CAPS, Workload, workload_matrix

__all__ = [
    "PipelineCheckpoint",
    "latest_checkpoint",
    "RunConfig",
    "CellExecutionError",
    "CellResult",
    "CellSpec",
    "run_matrix",
    "LatencyStats",
    "latency_stats",
    "reaction_latencies",
    "BatchMetrics",
    "RunMetrics",
    "MODE_ALIASES",
    "MODES",
    "resolve_mode",
    "ALGORITHMS",
    "BatchContext",
    "StreamingPipeline",
    "TraceEvent",
    "TraceWriter",
    "read_trace",
    "DEFAULT_BATCH_CAPS",
    "Workload",
    "workload_matrix",
]
