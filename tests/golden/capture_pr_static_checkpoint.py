"""Write the ``pr_static`` checkpoint fixture that tests/test_checkpoint.py resumes.

The committed ``pr_static_checkpoint_stale_journal.ckpt.gz`` was written by
commit bf02981, the last one whose tracked graphs journaled appended edges
only and marked the owners of re-weighted and deleted edges stale; the test
checks that such a checkpoint still resumes bit-identically.  To write one
from another tree, run with that tree's ``src``::

    PYTHONPATH=<tree>/src:tests python tests/golden/capture_pr_static_checkpoint.py OUT

The pipeline runs ``pr_static`` with OCA on, on the small ``mini-flat``
profile of tests/conftest.py, fed the hand-made :func:`fixture_batches`:
inserts on a few dozen vertices with few distinct weights, so repeats
re-weight edges and deleted edges come back, and deletes of edges from the
previous batch and from the batch itself.  It is checkpointed after
:data:`CAPTURED_BATCHES` batches: the fourth is deferred, so the graph's
pending journal holds its appends and a non-empty set of stale owners.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.datasets.profiles import DatasetProfile, SideProfile
from repro.datasets.stream import Batch
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.runner import StreamingPipeline

GOLDEN_PATH = (
    Path(__file__).resolve().parent / "pr_static_checkpoint_stale_journal.ckpt.gz"
)
CAPTURED_BATCHES = 4
TOTAL_BATCHES = 9
#: Vertices the hand-made batches draw from, and edges each inserts.
UNIVERSE = 40
INSERTS = 300


def fixture_pipeline() -> StreamingPipeline:
    """The pipeline the fixture was captured from (``flat_profile``)."""
    flat = SideProfile(hub_mass=0.0, hub_count=0, hub_alpha=0.0, tail_size=4_000)
    profile = DatasetProfile(
        name="mini-flat", full_name="Mini Flat", kind="shuffled",
        paper_vertices=1000, paper_edges=10000, num_vertices=4_000,
        stream_edges=50_000, src_profile=flat, dst_profile=flat,
    )
    return StreamingPipeline(profile, INSERTS, "pr_static", "abr_usc", use_oca=True)


def fixture_batches() -> list[Batch]:
    """Every batch of the run, checkpointed or not."""
    rng = np.random.default_rng(29)
    batches, previous = [], None
    for batch_id in range(TOTAL_BATCHES):
        src = rng.integers(0, UNIVERSE, INSERTS)
        dst = rng.integers(0, UNIVERSE, INSERTS)
        weight = rng.integers(1, 4, INSERTS).astype(np.float64)
        # A fifth of the previous batch's edges and a tenth of this one's.
        cut_src, cut_dst = src[: INSERTS // 10], dst[: INSERTS // 10]
        if previous is not None:
            cut_src = np.concatenate([previous[0][: INSERTS // 5], cut_src])
            cut_dst = np.concatenate([previous[1][: INSERTS // 5], cut_dst])
        is_delete = np.concatenate([
            np.zeros(INSERTS, dtype=bool), np.ones(len(cut_src), dtype=bool)
        ])
        batches.append(Batch(
            batch_id=batch_id,
            src=np.concatenate([src, cut_src]),
            dst=np.concatenate([dst, cut_dst]),
            weight=np.concatenate([weight, np.ones(len(cut_src))]),
            is_delete=is_delete,
        ))
        previous = src, dst
    return batches


def feed(pipeline: StreamingPipeline, batches: list[Batch]) -> None:
    """Step ``pipeline`` through ``batches``, from its cursor to the end."""
    for batch in batches[pipeline.cursor:]:
        pipeline.step(final=batch.batch_id == TOTAL_BATCHES - 1, batch=batch)


def main(out: Path) -> None:
    pipeline = fixture_pipeline()
    feed(pipeline, fixture_batches()[:CAPTURED_BATCHES])
    assert pipeline.metrics.batches[-1].deferred
    with tempfile.TemporaryDirectory() as tmp:
        raw = PipelineCheckpoint.capture(pipeline).save(Path(tmp) / "c.ckpt")
        out.write_bytes(gzip.compress(raw.read_bytes(), mtime=0))
    print(f"wrote {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH)
