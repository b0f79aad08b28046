"""Write the ``pr`` checkpoint fixture that tests/test_checkpoint.py resumes.

The committed ``pr_checkpoint_in_dicts.ckpt.gz`` was written by commit
aca9665, the last one whose ``pr`` pipelines kept in-dicts and summed them
in dict order; the test checks that such a checkpoint still resumes and
continues.  To write one from another tree, run with that tree's ``src``::

    PYTHONPATH=<tree>/src:tests python tests/golden/capture_pr_checkpoint.py OUT

The pipeline is hand-built on the small ``mini-flat`` profile of
tests/conftest.py (:func:`fixture_pipeline`), with OCA on, and checkpointed
by ``run`` after :data:`CAPTURED_BATCHES` batches: the fourth is deferred,
so the checkpoint holds it for the next round to cover.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

from repro.datasets.profiles import DatasetProfile, SideProfile
from repro.pipeline.checkpoint import checkpoint_path
from repro.pipeline.runner import StreamingPipeline

GOLDEN_PATH = Path(__file__).resolve().parent / "pr_checkpoint_in_dicts.ckpt.gz"
CAPTURED_BATCHES = 4
TOTAL_BATCHES = 10


def fixture_pipeline() -> StreamingPipeline:
    """The pipeline the fixture was captured from (``flat_profile``)."""
    flat = SideProfile(hub_mass=0.0, hub_count=0, hub_alpha=0.0, tail_size=4_000)
    profile = DatasetProfile(
        name="mini-flat", full_name="Mini Flat", kind="shuffled",
        paper_vertices=1000, paper_edges=10000, num_vertices=4_000,
        stream_edges=50_000, src_profile=flat, dst_profile=flat,
    )
    return StreamingPipeline(profile, 1_000, "pr", "abr_usc", use_oca=True)


def main(out: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fixture_pipeline().run(
            TOTAL_BATCHES, checkpoint_dir=tmp, checkpoint_every=CAPTURED_BATCHES
        )
        raw = checkpoint_path(tmp, CAPTURED_BATCHES).read_bytes()
    out.write_bytes(gzip.compress(raw, mtime=0))
    print(f"wrote {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH)
