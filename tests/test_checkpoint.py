"""Checkpoint/resume tests: atomic persistence, validation, bit-identity.

The load-bearing property is the acceptance criterion: kill a checkpointed
run mid-stream, resume from the newest checkpoint in a fresh process-like
pipeline, and the final :class:`RunMetrics` — exact float comparisons, no
tolerance — equal the uninterrupted run's.  That holds because stream
generation is a pure function of the cursor and every piece of adaptive
state (graph, ABR, OCA, incremental compute engines, metrics) travels in
the checkpoint payload.
"""

import dataclasses
import multiprocessing

import pytest

import faultinject
from repro.errors import CheckpointError
from repro.pipeline import PipelineCheckpoint, RunConfig, latest_checkpoint
from repro.pipeline.checkpoint import checkpoint_path

pytestmark = pytest.mark.faults

CONFIG = RunConfig(
    dataset="wiki", batch_size=200, num_batches=12,
    algorithm="pr", mode="dynamic", use_oca=True,
)


def _run_uninterrupted(config=CONFIG):
    return config.build_pipeline().run(config.num_batches)


# -- file format ------------------------------------------------------------
def test_checkpoint_file_round_trip(tmp_path):
    pipeline = CONFIG.build_pipeline()
    pipeline.run(5)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    path = checkpoint.save(tmp_path / "one.ckpt")
    loaded = PipelineCheckpoint.load(path)
    assert loaded.cursor == 5
    assert loaded.batches_done == 5
    assert loaded.config == CONFIG.to_dict()
    assert loaded.payload == checkpoint.payload
    assert loaded.summary["dataset"] == "wiki"
    assert loaded.summary["abr"]["decisions_made"] >= 1


def test_checkpoint_summary_is_json_header(tmp_path):
    """The header line is human-readable JSON (inspectable sans unpickling)."""
    import json

    pipeline = CONFIG.build_pipeline()
    pipeline.run(3)
    path = PipelineCheckpoint.capture(pipeline).save(tmp_path / "one.ckpt")
    with open(path, "rb") as handle:
        assert handle.readline() == b"REPRO-CKPT\n"
        header = json.loads(handle.readline())
    assert header["cursor"] == 3
    assert header["config"]["dataset"] == "wiki"


def test_corrupt_payload_rejected(tmp_path):
    pipeline = CONFIG.build_pipeline()
    pipeline.run(3)
    path = PipelineCheckpoint.capture(pipeline).save(tmp_path / "one.ckpt")
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip a payload bit; the CRC must catch it
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        PipelineCheckpoint.load(path)


def test_truncated_file_rejected(tmp_path):
    pipeline = CONFIG.build_pipeline()
    pipeline.run(3)
    path = PipelineCheckpoint.capture(pipeline).save(tmp_path / "one.ckpt")
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(CheckpointError, match="truncated"):
        PipelineCheckpoint.load(path)


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"hello world\n" * 10)
    with pytest.raises(CheckpointError, match="magic"):
        PipelineCheckpoint.load(path)


def test_latest_checkpoint_skips_corrupt_newest(tmp_path):
    """A file corrupted (or torn) after rename falls back to the previous one."""
    pipeline = CONFIG.build_pipeline()
    pipeline.run(3)
    pipeline.save_checkpoint(tmp_path)
    pipeline.run(6, resume_from=PipelineCheckpoint.capture(pipeline))
    pipeline.save_checkpoint(tmp_path)
    newest = checkpoint_path(tmp_path, 6)
    blob = bytearray(newest.read_bytes())
    blob[-1] ^= 0xFF
    newest.write_bytes(bytes(blob))
    found = latest_checkpoint(tmp_path)
    assert found is not None
    checkpoint, path = found
    assert checkpoint.cursor == 3
    assert path == checkpoint_path(tmp_path, 3)


def test_latest_checkpoint_empty_dir(tmp_path):
    assert latest_checkpoint(tmp_path) is None
    assert latest_checkpoint(tmp_path / "missing") is None


def test_retention_prunes_old_checkpoints(tmp_path):
    pipeline = CONFIG.build_pipeline()
    pipeline.run(
        10, checkpoint_dir=tmp_path, checkpoint_every=2, checkpoint_keep=2
    )
    names = sorted(p.name for p in tmp_path.glob("ckpt-*.ckpt"))
    assert names == ["ckpt-00000006.ckpt", "ckpt-00000008.ckpt"]


def _checkpoint_at_cursor(cursor):
    """A valid checkpoint object whose header claims stream ``cursor``."""
    pipeline = CONFIG.build_pipeline()
    pipeline.run(2)
    base = PipelineCheckpoint.capture(pipeline)
    return dataclasses.replace(base, cursor=cursor)


def test_latest_checkpoint_numeric_past_padding_boundary(tmp_path):
    """Cursor ordering is numeric: a 9-digit cursor sorts lexicographically
    *before* 8-digit ones (``"1..." < "9..."``), which used to make resume
    pick the stale checkpoint once a stream crossed 10**8 edges."""
    old = _checkpoint_at_cursor(99_999_999)
    new = dataclasses.replace(old, cursor=100_000_000)
    old.save_to_dir(tmp_path)
    new.save_to_dir(tmp_path)
    found = latest_checkpoint(tmp_path)
    assert found is not None
    checkpoint, path = found
    assert checkpoint.cursor == 100_000_000
    assert path.name == "ckpt-100000000.ckpt"


def test_retention_past_padding_boundary_keeps_newest(tmp_path):
    """keep-pruning must never delete the numerically newest checkpoint,
    even when its longer name sorts first textually."""
    base = _checkpoint_at_cursor(99_999_998)
    for cursor in (99_999_998, 99_999_999, 100_000_000):
        dataclasses.replace(base, cursor=cursor).save_to_dir(tmp_path, keep=2)
    names = sorted(p.name for p in tmp_path.glob("ckpt-*.ckpt"))
    assert names == ["ckpt-100000000.ckpt", "ckpt-99999999.ckpt"]


def test_retention_never_prunes_non_canonical_names(tmp_path):
    """Files matching the glob but without a parseable cursor are not ours
    to age out; they also stay loadable (after all canonical candidates)."""
    base = _checkpoint_at_cursor(4)
    foreign = tmp_path / "ckpt-manual.ckpt"
    base.save(foreign)
    for cursor in (5, 6, 7):
        dataclasses.replace(base, cursor=cursor).save_to_dir(tmp_path, keep=1)
    names = sorted(p.name for p in tmp_path.glob("ckpt-*.ckpt"))
    assert names == ["ckpt-00000007.ckpt", "ckpt-manual.ckpt"]
    checkpoint, path = latest_checkpoint(tmp_path)
    assert path.name == "ckpt-00000007.ckpt"
    for canonical in tmp_path.glob("ckpt-0*.ckpt"):
        canonical.unlink()
    checkpoint, path = latest_checkpoint(tmp_path)
    assert path == foreign and checkpoint.cursor == 4


# -- validation -------------------------------------------------------------
def test_config_mismatch_rejected(tmp_path):
    pipeline = CONFIG.build_pipeline()
    pipeline.run(4)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    other = dataclasses.replace(CONFIG, batch_size=500).build_pipeline()
    with pytest.raises(CheckpointError, match="different run config"):
        checkpoint.restore(other)


def test_cursor_outside_window_rejected(tmp_path):
    pipeline = CONFIG.build_pipeline()
    pipeline.run(8)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    fresh = CONFIG.build_pipeline()
    with pytest.raises(CheckpointError, match="outside the requested"):
        fresh.run(4, resume_from=checkpoint)


# -- headers written by older versions ---------------------------------------
def _legacy_checkpoint(tmp_path, **legacy):
    """A cursor-5 checkpoint whose saved header carries the retired
    sharding and adjacency-format fields, as every header written before
    their removal does."""
    pipeline = CONFIG.build_pipeline()
    pipeline.run(5)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    config = {
        **checkpoint.config,
        "num_shards": 1, "shard_transport": "shm", "shard_policy": "mod",
        "adjacency": "dict",
        **legacy,
    }
    checkpoint = dataclasses.replace(checkpoint, config=config)
    return PipelineCheckpoint.load(checkpoint.save(tmp_path / "legacy.ckpt"))


def test_legacy_single_shard_header_resumes_identically(tmp_path):
    checkpoint = _legacy_checkpoint(tmp_path)
    resumed = CONFIG.build_pipeline()
    metrics = resumed.run(CONFIG.num_batches, resume_from=checkpoint)
    assert metrics == _run_uninterrupted()


def test_legacy_sharded_header_refused_before_unpickling(tmp_path):
    # A sharded payload pickles classes that no longer exist, so the header
    # check must fire before the payload is read at all.
    checkpoint = dataclasses.replace(
        _legacy_checkpoint(tmp_path, num_shards=2), payload=b"not a pickle"
    )
    with pytest.raises(CheckpointError, match="sharded runtime was removed"):
        checkpoint.restore(CONFIG.build_pipeline())
    hand_built = CONFIG.build_pipeline()
    hand_built.run_config = None
    with pytest.raises(CheckpointError, match="sharded runtime was removed"):
        checkpoint.restore(hand_built)


def test_legacy_hybrid_header_refused_before_unpickling(tmp_path):
    # A hybrid payload pickles a graph class that no longer exists.
    checkpoint = dataclasses.replace(
        _legacy_checkpoint(tmp_path, adjacency="hybrid"), payload=b"not a pickle"
    )
    with pytest.raises(CheckpointError, match="cannot resume: .*hybrid"):
        checkpoint.restore(CONFIG.build_pipeline())
    hand_built = CONFIG.build_pipeline()
    hand_built.run_config = None
    with pytest.raises(CheckpointError, match="cannot resume: .*hybrid"):
        checkpoint.restore(hand_built)


# -- resume bit-identity ----------------------------------------------------
def test_resume_bit_identical_in_process(tmp_path):
    expected = _run_uninterrupted()
    interrupted = CONFIG.build_pipeline()
    interrupted.run(7, checkpoint_dir=tmp_path, checkpoint_every=3)
    checkpoint, _ = latest_checkpoint(tmp_path)
    assert checkpoint.cursor == 6
    resumed = CONFIG.build_pipeline()
    metrics = resumed.run(CONFIG.num_batches, resume_from=checkpoint)
    assert metrics == expected  # frozen dataclass equality: exact floats


@pytest.mark.parametrize("algorithm,mode,use_oca", [
    ("pr", "sw_only", False),
    ("sssp", "abr_usc", False),
    ("none", "dynamic", True),
])
def test_resume_bit_identical_across_cells(tmp_path, algorithm, mode, use_oca):
    config = dataclasses.replace(
        CONFIG, algorithm=algorithm, mode=mode, use_oca=use_oca, num_batches=10
    )
    expected = _run_uninterrupted(config)
    pipeline = config.build_pipeline()
    pipeline.run(5)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    resumed = config.build_pipeline()
    assert resumed.run(10, resume_from=checkpoint) == expected


def test_pr_checkpoint_with_in_dicts_resumes_and_continues(tmp_path):
    """A ``pr`` checkpoint written before the canonical order (its graph
    keeps in-dicts, and it holds an OCA-deferred batch) resumes in this
    tree: the graph keeps its in-dicts and maintains them, the engine
    rebuilds its in-CSR from the restored graph, which already holds the
    deferred batch, and the ranks end within the exact-order bound of an
    uninterrupted run (tests/test_pagerank_differential.py)."""
    import gzip
    import importlib.util
    from pathlib import Path

    import numpy as np

    golden = Path(__file__).resolve().parent / "golden"
    spec = importlib.util.spec_from_file_location(
        "capture_pr_checkpoint", golden / "capture_pr_checkpoint.py"
    )
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    path = tmp_path / "old.ckpt"
    path.write_bytes(gzip.decompress(capture.GOLDEN_PATH.read_bytes()))
    checkpoint = PipelineCheckpoint.load(path)
    resumed = capture.fixture_pipeline()
    metrics = resumed.run(capture.TOTAL_BATCHES, resume_from=checkpoint)
    graph = resumed.graph
    assert graph.keeps_in_lists
    __, in_view = graph.adjacency_views()
    assert graph.in_degrees().tolist() == [
        len(in_view.get(v, {})) for v in range(graph.num_vertices)
    ]
    assert len(metrics.batches) == capture.TOTAL_BATCHES
    assert metrics.batches[capture.CAPTURED_BATCHES - 1].deferred
    continued = metrics.batches[capture.CAPTURED_BATCHES:]
    assert all(b.compute_time > 0 for b in continued if not b.deferred)
    engine = resumed.compute.engine
    assert engine._edges == graph.num_edges
    fresh = capture.fixture_pipeline()
    fresh.run(capture.TOTAL_BATCHES)
    got, want = engine.as_array(), fresh.compute.engine.as_array()
    assert np.abs(got - want).max() <= 10 * engine.tolerance


@pytest.mark.parametrize("keep_in_lists", [True, False],
                         ids=["with-in-dicts", "without-in-dicts"])
def test_pr_static_checkpoint_resumes_with_or_without_in_dicts(keep_in_lists):
    """A ``pr_static`` graph keeps no in-dicts now; one written before that
    holds them (``with-in-dicts``).  Both resume to the uninterrupted run's
    metrics, and a resumed graph keeps whichever layout it was saved in."""
    import pickle

    from repro.datasets.profiles import get_dataset
    from repro.graph.adjacency_list import AdjacencyListGraph

    config = dataclasses.replace(
        CONFIG, algorithm="pr_static", mode="abr_usc", use_oca=False,
        num_batches=10,
    )
    expected = _run_uninterrupted(config)
    graph = AdjacencyListGraph(get_dataset(config.dataset).num_vertices)
    pipeline = config.build_pipeline(graph=graph if keep_in_lists else None)
    pipeline.run(5)
    checkpoint = PipelineCheckpoint.capture(pipeline)
    assert pickle.loads(checkpoint.payload)["graph"].keeps_in_lists == keep_in_lists
    resumed = config.build_pipeline()
    assert resumed.run(10, resume_from=checkpoint) == expected
    assert resumed.graph.keeps_in_lists == keep_in_lists
    if keep_in_lists:
        __, in_view = resumed.graph.adjacency_views()
        assert resumed.graph.in_degrees().tolist() == [
            len(in_view.get(v, {})) for v in range(resumed.graph.num_vertices)
        ]


def test_checkpoint_telemetry_counters(tmp_path):
    config = dataclasses.replace(CONFIG, telemetry="full")
    pipeline = config.build_pipeline()
    pipeline.run(6, checkpoint_dir=tmp_path, checkpoint_every=2)
    snapshot = pipeline.telemetry.snapshot()
    assert snapshot.counters["checkpoint.saves"] == 2.0  # after batch 2 and 4
    assert snapshot.counters["checkpoint.bytes"] > 0
    resumed = config.build_pipeline()
    resumed.run(6, resume_from=latest_checkpoint(tmp_path)[0])
    snapshot = resumed.telemetry.snapshot()
    assert snapshot.counters["checkpoint.resumes"] == 1.0
    assert any(d.kind == "checkpoint" for d in snapshot.decisions)


# -- the acceptance criterion: kill, resume, compare ------------------------
def test_kill_and_resume_bit_identical(tmp_path):
    """Hard-kill a checkpointed run mid-stream (os._exit in a child
    process), resume from the newest on-disk checkpoint in a fresh
    pipeline, and the final RunMetrics equal the uninterrupted run's."""
    expected = _run_uninterrupted()

    checkpoint_dir = tmp_path / "ckpts"
    child = multiprocessing.Process(
        target=faultinject.run_checkpointed_and_die,
        args=(CONFIG.to_json(), str(checkpoint_dir), 2, 7),
    )
    child.start()
    child.join(timeout=120)
    assert child.exitcode == 17  # died at batch 7, as injected

    found = latest_checkpoint(checkpoint_dir)
    assert found is not None
    checkpoint, _ = found
    assert checkpoint.cursor == 6  # checkpoints at 2, 4, 6; died before 7

    resumed = CONFIG.build_pipeline()
    metrics = resumed.run(CONFIG.num_batches, resume_from=checkpoint)
    assert metrics == expected
    assert metrics.batches == expected.batches  # per-batch rows, exact


# -- per-cell checkpoint namespacing in run_matrix --------------------------
def test_run_matrix_namespaces_checkpoints_per_cell(tmp_path):
    """Every matrix cell checkpoints into its own subdirectory; results
    match the checkpoint-free run exactly, and no cell's retention pass
    can see (let alone prune) another cell's files."""
    from repro.pipeline.executor import run_matrix

    configs = [
        dataclasses.replace(CONFIG, num_batches=6),
        dataclasses.replace(CONFIG, batch_size=300, num_batches=6),
    ]
    plain = run_matrix(configs, jobs=1)
    root = tmp_path / "trials"
    checkpointed = run_matrix(
        configs,
        jobs=1,
        checkpoint_root=str(root),
        checkpoint_every=2,
        checkpoint_names=["trial-000000", "trial-000001"],
    )
    assert checkpointed == plain
    for name in ("trial-000000", "trial-000001"):
        found = latest_checkpoint(root / name)
        assert found is not None
        assert found[0].cursor == 6


def test_run_matrix_two_concurrent_writers_keep_pruning(tmp_path):
    """Two cells checkpointing concurrently (jobs=2, keep=1, every batch)
    under one root each end with their *own* newest checkpoint alive —
    the failure mode of a shared directory is one writer's keep-pruning
    deleting the other's live checkpoint."""
    from repro.pipeline.executor import run_matrix

    configs = [
        dataclasses.replace(CONFIG, num_batches=8),
        dataclasses.replace(CONFIG, seed=11, num_batches=8),
    ]
    root = tmp_path / "shared-root"
    results = run_matrix(
        configs,
        jobs=2,
        checkpoint_root=str(root),
        checkpoint_every=1,
        checkpoint_keep=1,
    )
    assert all(r.ok for r in results)
    for index in range(2):
        directory = root / f"cell-{index:04d}"
        files = sorted(directory.glob("ckpt-*.ckpt"))
        assert len(files) == 1  # keep=1 honoured within the namespace
        checkpoint, _ = latest_checkpoint(directory)
        assert checkpoint.cursor == 8  # the newest state survived


def test_run_matrix_auto_resumes_from_namespace(tmp_path):
    """A rerun over an already-checkpointed root restores each cell's
    final state instead of recomputing, and returns identical results."""
    from repro.pipeline.executor import run_matrix

    configs = [dataclasses.replace(CONFIG, num_batches=6)]
    root = tmp_path / "resume-root"
    first = run_matrix(
        configs, jobs=1, checkpoint_root=str(root), checkpoint_every=2
    )
    # The rerun resumes from cursor 6 == num_batches: zero batches execute,
    # and the restored metrics reproduce the first run bit-identically.
    again = run_matrix(
        configs, jobs=1, checkpoint_root=str(root), checkpoint_every=2
    )
    assert again == first


def test_run_matrix_rejects_duplicate_checkpoint_names(tmp_path):
    from repro.errors import ConfigurationError
    from repro.pipeline.executor import run_matrix

    with pytest.raises(ConfigurationError, match="unique"):
        run_matrix(
            [CONFIG, CONFIG],
            checkpoint_root=str(tmp_path),
            checkpoint_names=["same", "same"],
        )


def test_cli_checkpoint_resume(tmp_path, capsys):
    """`repro run --checkpoint DIR` resumes automatically and reproduces
    the uninterrupted run's printed totals."""
    from repro.cli import main

    args = [
        "run", "wiki", "--batch-size", "200", "--num-batches", "10",
        "--checkpoint", str(tmp_path / "ckpts"), "--every", "3",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "resuming from" in second
    # Identical metrics block (strip the resume banner line).
    body = "\n".join(
        line for line in second.splitlines() if not line.startswith("resuming")
    )
    assert body.strip() == first.strip()


def test_pr_static_checkpoint_with_a_stale_journal_resumes_bit_identically(
    tmp_path,
):
    """A ``pr_static`` checkpoint written before the ordered edit journal
    resumes to the uninterrupted run's exact ``RunMetrics``.  Its graph's
    pending journal holds an OCA-deferred batch as appends plus a set of
    stale owners (the batch re-weights and deletes edges), and its
    snapshotter carries the retired ``rebuild_fraction``.  The stale owners
    make the first snapshot after the resume a full rebuild; the batches
    after it journal edits and splice."""
    import gzip
    import importlib.util
    from pathlib import Path

    import numpy as np

    from repro.graph.snapshot import take_snapshot

    golden = Path(__file__).resolve().parent / "golden"
    spec = importlib.util.spec_from_file_location(
        "capture_pr_static_checkpoint", golden / "capture_pr_static_checkpoint.py"
    )
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    path = tmp_path / "old.ckpt"
    path.write_bytes(gzip.decompress(capture.GOLDEN_PATH.read_bytes()))
    batches = capture.fixture_batches()
    resumed = capture.fixture_pipeline()
    PipelineCheckpoint.load(path).restore(resumed)
    assert resumed.cursor == capture.CAPTURED_BATCHES
    assert resumed.metrics.batches[-1].deferred
    snapper = resumed.compute.snapshotter
    assert hasattr(snapper, "rebuild_fraction")
    rebuilds, patches = snapper.full_rebuilds, snapper.delta_patches
    capture.feed(resumed, batches)
    rounds = sum(
        not b.deferred for b in resumed.metrics.batches[capture.CAPTURED_BATCHES:]
    )
    assert rounds > 1
    assert snapper.full_rebuilds == rebuilds + 1
    assert snapper.delta_patches == patches + rounds - 1
    last = snapper.snapshot()
    want = take_snapshot(resumed.graph)
    for name in ("out_offsets", "out_targets", "out_weights"):
        assert np.array_equal(getattr(last, name), getattr(want, name)), name
    fresh = capture.fixture_pipeline()
    capture.feed(fresh, batches)
    assert resumed.metrics == fresh.metrics
