"""Golden parity: the staged/registry pipeline reproduces the pre-refactor
record bit-for-bit.

``tests/golden/pipeline_parity.json`` was captured from the pipeline
*before* the RunConfig / registry / staged-runner refactor.  Every cell of
the fixed-seed mini-matrix (all execution modes on two dataset profiles,
plus OCA, static-algorithm and SSSP cells) must still serialize to exactly
the recorded floats — any refactor of the dispatch or staging layers that
perturbs modeled results, even in the last bit, fails here.

Regenerate the record only when an intentional model change lands::

    PYTHONPATH=src:tests python tests/golden/capture_parity.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.compute.oca import OCAConfig
from repro.pipeline.config import RunConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "capture_parity", GOLDEN_DIR / "capture_parity.py"
)
capture_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture_parity)

GOLDEN = json.loads((GOLDEN_DIR / "pipeline_parity.json").read_text())
CELLS = capture_parity.cell_definitions()


def config_for(cell: dict) -> RunConfig:
    """The RunConfig equivalent of one golden cell definition."""
    kwargs = {
        key: cell[key]
        for key in ("pr_tolerance", "pr_max_rounds")
        if key in cell
    }
    if cell.get("use_oca"):
        kwargs["use_oca"] = True
        kwargs["oca"] = OCAConfig(overlap_threshold=0.01, n=2)
    return RunConfig(
        dataset=cell["dataset"],
        batch_size=cell["batch_size"],
        algorithm=cell["algorithm"],
        mode=cell["mode"],
        num_batches=cell["num_batches"],
        **kwargs,
    )


def serialize(metrics) -> dict:
    """RunMetrics in the golden record's exact shape."""
    return {
        "mode": metrics.mode,
        "batches": [
            {
                "batch_id": b.batch_id,
                "update_time": b.update_time,
                "compute_time": b.compute_time,
                "strategy": b.strategy,
                "deferred": b.deferred,
                "aggregated_batches": b.aggregated_batches,
                "cad": b.cad,
                "overlap": b.overlap,
            }
            for b in metrics.batches
        ],
    }


def test_golden_covers_every_cell():
    assert set(GOLDEN) == {capture_parity.cell_key(cell) for cell in CELLS}


# -- configs and checkpoints written by older versions -----------------------
#
# Every RunConfig dict written before the hybrid adjacency format was
# removed (checkpoint headers, ``best_config.json``) carries ``adjacency``,
# and every one written by the sharded era also carries
# ``num_shards``/``shard_transport``/``shard_policy``.  ``adjacency="dict"``
# and one shard name the run that still exists, so such a dict must
# reproduce the golden floats; ``"hybrid"`` and more than one shard name
# runs nothing can honour any more, and are refused by name.


@pytest.mark.parametrize("adjacency", ["dict", "hybrid"])
@pytest.mark.parametrize(
    "cell", CELLS, ids=[capture_parity.cell_key(c) for c in CELLS]
)
def test_cell_matches_golden(cell, adjacency):
    """Each cell's config as a dict naming an adjacency format, as every
    config written while the format was selectable does: ``"dict"`` loads to
    the same config and serializes to the exact golden floats; ``"hybrid"``
    is refused, and without the key it is the same config (the golden
    floats were equal on both formats)."""
    from repro.errors import ConfigurationError

    config = config_for(cell)
    legacy = {**config.to_dict(), "adjacency": adjacency}
    if adjacency == "hybrid":
        with pytest.raises(ConfigurationError, match="hybrid .* was removed"):
            RunConfig.from_dict(legacy)
        del legacy["adjacency"]
        assert RunConfig.from_dict(legacy) == config
        return
    loaded = RunConfig.from_dict(legacy)
    assert loaded == config
    metrics = loaded.run()
    expected = GOLDEN[capture_parity.cell_key(cell)]
    # JSON round-trip our side too so float comparison is repr-exact on
    # both: identical modeled results serialize to identical documents.
    assert json.loads(json.dumps(serialize(metrics))) == expected


_FB_CELLS = [c for c in CELLS if c["dataset"] == "fb"]


@pytest.mark.parametrize("adjacency", ["dict", "hybrid"])
@pytest.mark.parametrize(
    "cell", _FB_CELLS,
    ids=[capture_parity.cell_key(c) for c in _FB_CELLS],
)
def test_cell_matches_golden_sharded(cell, adjacency, tmp_path):
    """A run split at a checkpoint whose header was written by the sharded
    era (one shard, the era's default transport and policy, and an
    adjacency format): with ``"dict"`` it serializes to the exact golden
    floats, for every mode; with ``"hybrid"`` resume is refused before the
    payload is unpickled."""
    import dataclasses

    from repro.errors import CheckpointError
    from repro.pipeline import PipelineCheckpoint

    config = config_for(cell)
    num_batches = cell["num_batches"]
    pipeline = config.build_pipeline()
    for _ in range(num_batches // 2):  # mid-stream: no batch is final
        pipeline.step()
    checkpoint = PipelineCheckpoint.capture(pipeline)
    legacy = {
        **checkpoint.config,
        "num_shards": 1, "shard_transport": "shm", "shard_policy": "mod",
        "adjacency": adjacency,
    }
    if adjacency == "hybrid":
        # A hybrid payload pickles a class that no longer exists.
        checkpoint = dataclasses.replace(checkpoint, payload=b"not a pickle")
    path = dataclasses.replace(checkpoint, config=legacy).save(
        tmp_path / "legacy.ckpt"
    )
    resumed = config.build_pipeline()
    if adjacency == "hybrid":
        with pytest.raises(CheckpointError, match="cannot resume: .*hybrid"):
            resumed.run(num_batches, resume_from=PipelineCheckpoint.load(path))
        return
    metrics = resumed.run(num_batches, resume_from=PipelineCheckpoint.load(path))
    expected = GOLDEN[capture_parity.cell_key(cell)]
    assert json.loads(json.dumps(serialize(metrics))) == expected


@pytest.mark.parametrize("policy", ["mod", "hash", "greedy"])
@pytest.mark.parametrize("transport", ["inproc", "shm", "tcp"])
def test_matrix_gate_transport_policy_four_shards(transport, policy):
    """Every transport and policy the sharded era accepted: at one shard
    the dict loads to the serial config and reproduces the golden floats;
    at the acceptance shard count of four it is refused by name."""
    from repro.errors import ConfigurationError

    cell = CELLS[3]  # fb / abr_usc — the representative acceptance cell
    config = config_for(cell)
    legacy = {
        **config.to_dict(),
        "num_shards": 1, "shard_transport": transport, "shard_policy": policy,
        "adjacency": "dict",
    }
    loaded = RunConfig.from_json(json.dumps(legacy))
    assert loaded == config
    expected = GOLDEN[capture_parity.cell_key(cell)]
    assert json.loads(json.dumps(serialize(loaded.run()))) == expected
    with pytest.raises(ConfigurationError, match="sharded runtime was removed"):
        RunConfig.from_dict({**legacy, "num_shards": 4})


@pytest.mark.parametrize(
    "cell",
    [CELLS[3], CELLS[9]],  # fb/abr_usc and fb/abr_usc+OCA
    ids=["abr_usc_telemetry", "abr_usc_oca_telemetry"],
)
def test_full_telemetry_never_perturbs_modeled_results(cell):
    """Instrumentation is observation-only: a fully-instrumented run must
    serialize to the exact golden floats of the uninstrumented record."""
    import dataclasses

    config = dataclasses.replace(config_for(cell), telemetry="full")
    metrics = config.run()
    expected = GOLDEN[capture_parity.cell_key(cell)]
    assert json.loads(json.dumps(serialize(metrics))) == expected


@pytest.mark.parametrize(
    "cell",
    [CELLS[3], CELLS[9]],  # fb/abr_usc and fb/abr_usc+OCA
    ids=["abr_usc", "abr_usc_oca"],
)
def test_step_loop_matches_run(cell):
    """Driving the public step() API by hand reproduces run() exactly."""
    config = config_for(cell)
    via_run = serialize(config.run())
    pipeline = config.build_pipeline()
    nb = cell["num_batches"]
    for index in range(nb):
        pipeline.step(final=index == nb - 1)
    assert serialize(pipeline.metrics) == via_run
