"""Checkpoint/resume for long-running streaming pipelines.

A :class:`PipelineCheckpoint` freezes *everything* a
:class:`~repro.pipeline.runner.StreamingPipeline` needs to continue a run
bit-identically after a crash: the graph (adjacency dicts, degree arrays,
delta journal), the update engine's ABR cadence/decision state and per-batch
results, the OCA controller's ``latest_bid`` overlap state and pending
deferral, the compute algorithm's incremental engine (ranks/distances/CSR
snapshot cache), the stream cursor, the accumulated
:class:`~repro.pipeline.metrics.RunMetrics`, and the live telemetry backend.
All of it is captured in **one** pickle so shared references (the graph the
engine, snapshotter, and algorithm context all point at) stay shared after
restore.

Stream generation is a pure function of ``(seed, batch_id)`` (see
:class:`~repro.datasets.generators.StreamGenerator`), so no RNG state needs
saving: a restored pipeline regenerates batch ``k`` exactly as the crashed
process would have.

On-disk format (version 1)::

    REPRO-CKPT\\n
    {json header: version, cursor, batches_done, config, summary,
     payload_bytes, payload_crc32}\\n
    <pickle payload>

Files are written to a temporary name and atomically renamed into place
(write-then-rename with fsync), so a crash mid-write never leaves a torn
checkpoint under the final name; the header's CRC32 rejects torn or
bit-rotted payloads at load time, and :func:`latest_checkpoint` falls back
to the newest *loadable* file in a directory.  The JSON header doubles as a
human-readable manifest (``head -2 ckpt-*.ckpt``).
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import CheckpointError, ConfigurationError
from .config import drop_retired_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import StreamingPipeline

__all__ = [
    "CHECKPOINT_VERSION",
    "PipelineCheckpoint",
    "checkpoint_path",
    "checkpoint_cursor",
    "latest_checkpoint",
]

#: Bump when the on-disk layout or the captured state set changes shape.
CHECKPOINT_VERSION = 1

_MAGIC = b"REPRO-CKPT\n"

#: Pipeline attributes never captured: the trace writer holds an open file
#: handle (the resuming process keeps its own), and ``run_config`` is the
#: *identity* of the run — it lives in the header for validation instead.
_EXCLUDED_STATE = frozenset({"trace", "run_config"})


def checkpoint_path(directory: str | Path, cursor: int) -> Path:
    """Canonical file name for a checkpoint taken at stream ``cursor``."""
    return Path(directory) / f"ckpt-{cursor:08d}.ckpt"


def checkpoint_cursor(path: str | Path) -> int | None:
    """The stream cursor encoded in a canonical checkpoint file name.

    Returns None for names that do not carry a decimal cursor.  Recency
    ordering must use this parsed value, never the raw file name: the
    canonical name pads cursors to 8 digits, so a cursor >= 10**8 produces
    a 9-digit name that sorts lexicographically *before* older 8-digit
    ones (``"1..." < "9..."``) — a purely textual sort would resume from a
    stale checkpoint and prune the newest.
    """
    stem = Path(path).name
    if not (stem.startswith("ckpt-") and stem.endswith(".ckpt")):
        return None
    digits = stem[len("ckpt-"):-len(".ckpt")]
    return int(digits) if digits.isdigit() else None


def _by_cursor(directory: Path) -> list[Path]:
    """``ckpt-*.ckpt`` entries ordered oldest-cursor-first (numeric)."""
    entries = [
        (cursor, path)
        for path in directory.glob("ckpt-*.ckpt")
        if (cursor := checkpoint_cursor(path)) is not None
    ]
    return [path for _, path in sorted(entries, key=lambda e: (e[0], e[1].name))]


@dataclass(frozen=True)
class PipelineCheckpoint:
    """One frozen pipeline state, loadable in any process.

    Attributes:
        cursor: the stream position the pipeline will consume next.
        batches_done: batches recorded in the captured ``RunMetrics``.
        config: the originating :class:`~repro.pipeline.config.RunConfig`
            as a plain dict (None when the pipeline was built by hand).
        summary: small human-readable state digest (graph size, ABR/OCA
            state) written into the file header for inspection.
        payload: the pickled pipeline state.
        version: checkpoint format version.
    """

    cursor: int
    batches_done: int
    config: dict | None
    summary: dict
    payload: bytes
    version: int = CHECKPOINT_VERSION

    # -- capture / restore ---------------------------------------------------
    @classmethod
    def capture(cls, pipeline: "StreamingPipeline") -> "PipelineCheckpoint":
        """Freeze the pipeline's current state.

        Call between batches (the :meth:`~StreamingPipeline.run` loop does,
        every ``checkpoint_every`` batches) — mid-stage state is never
        captured because :meth:`~StreamingPipeline.step` is atomic from the
        caller's perspective.
        """
        state = {
            name: value
            for name, value in pipeline.__dict__.items()
            if name not in _EXCLUDED_STATE
        }
        try:
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"pipeline state is not picklable: {exc}"
            ) from exc
        config = pipeline.run_config
        engine = pipeline.engine
        summary = {
            "dataset": pipeline.profile.name,
            "batch_size": pipeline.batch_size,
            "algorithm": pipeline.algorithm,
            "mode": engine.policy_name,
            "num_edges": pipeline.graph.num_edges,
            "batches_applied": pipeline.graph.batches_applied,
            "abr": engine.abr.describe_state(),
            "oca": pipeline.oca.describe_state() if pipeline.oca else None,
        }
        return cls(
            cursor=pipeline._cursor,
            batches_done=pipeline.metrics.num_batches,
            config=config.to_dict() if config is not None else None,
            summary=summary,
            payload=payload,
        )

    def restore(self, pipeline: "StreamingPipeline") -> "StreamingPipeline":
        """Apply this checkpoint's state onto ``pipeline`` (in place).

        The pipeline must have been built the same way as the captured one
        (same config); when both sides carry a
        :class:`~repro.pipeline.config.RunConfig` the dicts are compared
        and a mismatch raises, because silently continuing a stream under
        different parameters is exactly the corruption checkpoints exist
        to prevent.  Older headers carry retired fields (the sharded
        runtime's three, ``adjacency``); a one-shard, dict-format header
        still resumes, and a sharded or hybrid one is refused here, before
        its payload is unpickled.

        Returns:
            The same ``pipeline`` object, for chaining.
        """
        checkpointed = self.config
        if checkpointed is not None:
            try:
                checkpointed = drop_retired_keys(checkpointed)
            except ConfigurationError as exc:
                raise CheckpointError(f"cannot resume: {exc}") from exc
        current = pipeline.run_config
        if current is not None and checkpointed is not None:
            if current.to_dict() != checkpointed:
                raise CheckpointError(
                    "checkpoint was taken under a different run config; "
                    f"checkpointed={self.config!r} current={current.to_dict()!r}"
                )
        try:
            state = pickle.loads(self.payload)
        except Exception as exc:  # unpickling raises wildly varied types
            raise CheckpointError(
                f"checkpoint payload is corrupt or unreadable: {exc}"
            ) from exc
        trace = pipeline.trace
        pipeline.__dict__.update(state)
        pipeline.trace = trace
        if trace is not None:
            # The writer snapshots the run's telemetry on close; point it at
            # the restored backend, not the pre-restore one.
            trace.telemetry = pipeline.telemetry
        return pipeline

    # -- serialization -------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Atomically write this checkpoint to ``path``.

        Write-then-rename with fsync: concurrent readers and crashed
        writers never observe a torn file under the final name.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "version": self.version,
                "cursor": self.cursor,
                "batches_done": self.batches_done,
                "config": self.config,
                "summary": self.summary,
                "payload_bytes": len(self.payload),
                "payload_crc32": zlib.crc32(self.payload),
            },
            sort_keys=True,
        ).encode()
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(header)
                handle.write(b"\n")
                handle.write(self.payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def save_to_dir(self, directory: str | Path, keep: int = 0) -> Path:
        """Write under the canonical per-cursor name; prune old files.

        Args:
            directory: checkpoint directory (created if missing).
            keep: if > 0, retain only the ``keep`` newest checkpoints after
                this write (older ones are deleted best-effort).
        """
        path = self.save(checkpoint_path(directory, self.cursor))
        if keep > 0:
            # Numeric cursor order, not file-name order: past the 8-digit
            # padding boundary the newest checkpoint sorts first textually,
            # and pruning "oldest" entries would delete it.  Files without a
            # parseable cursor are never pruned (they are not ours to age).
            entries = _by_cursor(Path(directory))
            for stale in entries[:-keep]:
                try:
                    stale.unlink()
                except OSError:
                    pass
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PipelineCheckpoint":
        """Read and validate one checkpoint file.

        Raises:
            CheckpointError: missing/torn/corrupt file, bad magic, an
                unsupported version, or a payload failing its checksum.
        """
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not blob.startswith(_MAGIC):
            raise CheckpointError(f"{path} is not a repro checkpoint (bad magic)")
        try:
            header_end = blob.index(b"\n", len(_MAGIC))
            header = json.loads(blob[len(_MAGIC):header_end])
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path} is checkpoint version {version}; this build reads "
                f"version {CHECKPOINT_VERSION}"
            )
        payload = blob[header_end + 1:]
        if len(payload) != header.get("payload_bytes"):
            raise CheckpointError(
                f"{path} is truncated: expected {header.get('payload_bytes')} "
                f"payload bytes, found {len(payload)}"
            )
        if zlib.crc32(payload) != header.get("payload_crc32"):
            raise CheckpointError(f"{path} failed its payload checksum")
        return cls(
            cursor=int(header["cursor"]),
            batches_done=int(header["batches_done"]),
            config=header.get("config"),
            summary=header.get("summary", {}),
            payload=payload,
            version=version,
        )


def latest_checkpoint(
    directory: str | Path,
) -> tuple[PipelineCheckpoint, Path] | None:
    """The newest loadable checkpoint in ``directory``, or None.

    Scans ``ckpt-*.ckpt`` newest-cursor-first and skips files that fail
    validation — a run killed *while* writing (before the atomic rename) or
    a corrupted file silently falls back to the previous good checkpoint
    instead of wedging the restart.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = list(reversed(_by_cursor(directory)))
    # Non-canonical names (no parseable cursor) are still attempted, after
    # every cursor-ordered file, so a hand-saved checkpoint remains usable.
    candidates += sorted(
        (
            path
            for path in directory.glob("ckpt-*.ckpt")
            if checkpoint_cursor(path) is None
        ),
        reverse=True,
    )
    for path in candidates:
        try:
            return PipelineCheckpoint.load(path), path
        except CheckpointError:
            continue
    return None
