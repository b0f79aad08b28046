"""The benchmark's own tests (run: ``python3 -m pytest perfbench -q``)."""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import inputs, offline, run, serving
from repro.datasets.stream import Batch

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_LJ = {"dataset": "lj", "algorithm": "pr", "batch_size": 2_000,
           "batches": 3, "replays": 7}


def _main(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["pr-lj", "serve-fb"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_prints_with_its_unit(monkeypatch, workload, trace):
    monkeypatch.setitem(run.WORKLOADS, "pr-lj", TINY_LJ)
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    result = _main(["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_depend_only_on_the_seed():
    a = inputs.churn_batches("friendster", 5, 1_000, 3, 0.2)
    b = inputs.churn_batches("friendster", 5, 1_000, 3, 0.2)
    c = inputs.churn_batches("friendster", 6, 1_000, 3, 0.2)
    assert all(np.array_equal(x.src, y.src) for x, y in zip(a, b))
    assert not all(np.array_equal(x.src, y.src) for x, y in zip(a, c))


def test_churn_deletes_only_live_edges():
    nv = 400_000
    live: set = set()
    for batch in inputs.churn_batches("friendster", 2, 2_000, 5, 0.2):
        keys = (batch.src * nv + batch.dst).tolist()
        flags = (
            [False] * len(keys) if batch.is_delete is None
            else batch.is_delete.tolist()
        )
        deletes = {k for k, d in zip(keys, flags) if d}
        assert len(deletes) == (400 if batch.batch_id else 0)
        assert deletes <= live
        live |= {k for k, d in zip(keys, flags) if not d}
        live -= deletes


def _tiny_replay(spec):
    batches = inputs.stream_batches(
        spec["dataset"], 1, spec["batch_size"], spec["batches"]
    )
    return offline.replay(offline.config_for(spec), batches), batches


def test_checks_pass_on_a_faithful_replay():
    result, batches = _tiny_replay(TINY_LJ)
    assert offline.check(TINY_LJ, result, batches, [7, 7]) == []


def test_replays_ending_apart_fail_the_check():
    result, batches = _tiny_replay(TINY_LJ)
    problems = offline.check(TINY_LJ, result, batches, [7, 8])
    assert problems and "different num_edges" in problems[0]


def test_a_failed_check_fails_every_batch(monkeypatch):
    monkeypatch.setattr(offline, "check_graph", lambda graph, batches: ["wrong"])
    batches = inputs.stream_batches("lj", 1, 2_000, 3)
    result = offline.run_untraced(TINY_LJ, batches, 2)
    assert result["problems"] == ["wrong"]
    assert result["failed"] == result["attempted"] == 6


def test_one_dropped_edge_fails_the_graph_check():
    result, batches = _tiny_replay(TINY_LJ)
    graph = result.pipeline.graph
    u, v = int(batches[0].src[0]), int(batches[0].dst[0])
    graph.apply_batch(Batch(
        batch_id=99, src=np.array([u]), dst=np.array([v]),
        weight=np.ones(1), is_delete=np.array([True]),
    ))
    problems = offline.check_graph(graph, batches)
    assert problems and "1 edges missing" in problems[0]


def test_wrong_ranks_fail_the_pr_check():
    result, __ = _tiny_replay(TINY_LJ)
    engine = result.pipeline.compute.engine
    engine.values = [2.0 * x for x in engine.values]
    assert offline.check_pr(result.pipeline)


def test_a_stale_snapshot_fails_the_pr_static_check():
    spec = {"dataset": "friendster", "algorithm": "pr_static",
            "batch_size": 2_000, "batches": 3, "replays": 1}
    batches = inputs.churn_batches("friendster", 1, 2_000, 3, 0.2)
    result = offline.replay(offline.config_for(spec), batches)
    assert offline.check(spec, result, batches, []) == []
    stale = result.last_snapshot
    result.pipeline.graph.apply_batch(
        Batch(99, np.array([1]), np.array([2]), np.ones(1))
    )
    assert offline.check_pr_static(result.pipeline, stale)


def test_serve_check_catches_an_edge_never_sent():
    from repro.pipeline.config import RunConfig
    from repro.serve.server import ServeSettings, start_server_thread

    plan = inputs.serve_plan("fb", 4, 2_000, 0.5, 50)
    short = inputs.serve_plan("fb", 4, 2_000, 0.5, 50)
    short.lines.pop()
    short.offsets.pop()
    short.src, short.dst = short.src[:-50], short.dst[:-50]
    handle = start_server_thread(
        RunConfig(dataset="fb", batch_size=10_000), ServeSettings()
    )
    try:
        asyncio.run(serving.drive(handle.host, handle.port, short))
        problems = asyncio.run(
            serving.check_server(handle.host, handle.port, plan, 4)
        )
    finally:
        handle.stop()
    assert any("admitted" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr-lj", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
