"""Pipeline wiring of the extension algorithms and compute options."""

from unittest import mock

import numpy as np
import pytest

from repro.compute.oca import OCAConfig
from repro.datasets.profiles import get_dataset
from repro.datasets.stream import Batch
from repro.pipeline.config import RunConfig
from repro.pipeline.runner import ALGORITHMS, StreamingPipeline
from repro.update.engine import UpdatePolicy


def test_algorithm_list_includes_extensions():
    assert "bfs" in ALGORITHMS and "cc" in ALGORITHMS


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_no_timed_reader_materializes_dicts(algorithm):
    """Every registered algorithm steps through a stream with deletes while
    the pipeline graph's ``adjacency_views`` and ``out_neighbors`` raise:
    the dict mappings are untimed copies for checks and tests, and no
    timed reader may build them (a format whose kernels did lost pr-lj
    2x, docs/MODEL.md)."""
    generator = get_dataset("fb").generator(seed=11)
    pipeline = RunConfig(
        dataset="fb", batch_size=300, algorithm=algorithm, num_batches=4
    ).build_pipeline()
    previous = None
    with mock.patch.object(
        pipeline.graph, "adjacency_views", side_effect=AssertionError("views")
    ), mock.patch.object(
        pipeline.graph, "out_neighbors", side_effect=AssertionError("dict")
    ):
        for i in range(4):
            batch = generator.generate_batch(i, 300)
            if previous is not None:  # delete a fifth of the previous batch
                batch = Batch(
                    i, np.concatenate([batch.src, previous.src[:60]]),
                    np.concatenate([batch.dst, previous.dst[:60]]),
                    np.concatenate([batch.weight, previous.weight[:60]]),
                    np.arange(360) >= 300,
                )
            pipeline.step(final=i == 3, batch=batch)
            previous = batch
    assert len(pipeline.metrics.batches) == 4
    assert pipeline.graph.batches_applied == 4


def test_bfs_pipeline_runs(flat_profile):
    metrics = StreamingPipeline(flat_profile, 200, "bfs", UpdatePolicy.ABR).run(3)
    assert metrics.total_compute_time > 0
    assert metrics.algorithm == "bfs"


def test_cc_pipeline_runs(flat_profile):
    pipeline = StreamingPipeline(flat_profile, 200, "cc", UpdatePolicy.ABR)
    metrics = pipeline.run(3)
    assert metrics.total_compute_time > 0
    # The CC engine tracked every applied edge's endpoints.
    cc = pipeline._incremental_cc
    batch = flat_profile.generator(seed=7).generate_batch(0, 200)
    u, v = int(batch.src[0]), int(batch.dst[0])
    assert cc.same_component(u, v)


def test_cc_with_oca_aggregation(skewed_profile):
    pipeline = StreamingPipeline(
        skewed_profile, 1_000, "cc", UpdatePolicy.BASELINE,
        use_oca=True, oca_config=OCAConfig(overlap_threshold=0.01, n=2),
    )
    metrics = pipeline.run(5)
    assert any(b.deferred for b in metrics.batches)
    assert metrics.batches[-1].compute_time > 0


def test_pr_tolerance_forwarded(flat_profile):
    pipeline = StreamingPipeline(
        flat_profile, 200, "pr", UpdatePolicy.BASELINE,
        pr_tolerance=1e-3, pr_max_rounds=7,
    )
    pipeline.run(1)
    assert pipeline._incremental_pr.tolerance == 1e-3
    assert pipeline._incremental_pr.max_rounds == 7


def test_sssp_source_override(flat_profile):
    pipeline = StreamingPipeline(
        flat_profile, 200, "sssp", UpdatePolicy.BASELINE, sssp_source=5
    )
    pipeline.run(1)
    assert pipeline._incremental_sssp.source == 5


def test_bfs_levels_consistent_with_static(flat_profile):
    from repro.compute.bfs import StaticBFS
    from repro.graph.snapshot import take_snapshot

    pipeline = StreamingPipeline(
        flat_profile, 300, "bfs", UpdatePolicy.BASELINE
    )
    pipeline.run(3)
    source = pipeline._incremental_bfs.source
    static, __ = StaticBFS(source).run(take_snapshot(pipeline.graph))
    assert pipeline._incremental_bfs.levels() == static.tolist()


def test_triangles_pipeline_runs(skewed_profile):
    pipeline = StreamingPipeline(
        skewed_profile, 500, "triangles", UpdatePolicy.BASELINE
    )
    metrics = pipeline.run(3)
    assert metrics.algorithm == "triangles"
    assert metrics.total_compute_time > 0
    # The adapter's count is exact: a fresh static count over the final
    # graph agrees.
    from repro.compute.triangles import StaticTriangleCount
    from repro.graph.snapshot import take_snapshot

    expected, __ = StaticTriangleCount().run(take_snapshot(pipeline.graph))
    assert pipeline.compute.count == expected
    assert expected > 0


def test_pr_static_honours_convergence_settings(skewed_profile):
    """Regression: pr_static once hard-coded tolerance=1e-7/max_iterations=50,
    silently ignoring the pipeline's pr_tolerance/pr_max_rounds."""

    def run(**kwargs):
        return StreamingPipeline(
            skewed_profile, 500, "pr_static", UpdatePolicy.BASELINE, **kwargs
        ).run(2)

    capped = run(pr_tolerance=1e-12, pr_max_rounds=1)
    free = run(pr_tolerance=1e-12, pr_max_rounds=100)
    # At an unreachable tolerance the rounds cap is what stops iteration, so
    # it must change the modeled compute work.
    assert capped.total_compute_time < free.total_compute_time

    loose = run(pr_tolerance=1e-1, pr_max_rounds=100)
    assert loose.total_compute_time < free.total_compute_time
