"""PageRank: static power iteration and incremental frontier propagation."""

import numpy as np
import pytest

from conftest import make_batch
from repro.compute.pagerank import IncrementalPageRank, StaticPageRank
from repro.errors import ConfigurationError
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.snapshot import take_snapshot
from repro.pipeline.config import RunConfig


def _chain_graph(n=6):
    """0 -> 1 -> 2 -> ... -> n-1."""
    graph = AdjacencyListGraph(n)
    graph.apply_batch(make_batch(list(range(n - 1)), list(range(1, n))))
    return graph


def test_damping_validation():
    with pytest.raises(ConfigurationError):
        StaticPageRank(damping=1.0)
    with pytest.raises(ConfigurationError):
        IncrementalPageRank(AdjacencyListGraph(4), damping=0.0)


# Each of these used to run silently: a round cap below 1 never moved the
# ranks (every batch charged only the bare round overhead), a negative
# tolerance pushed every visited vertex whether its rank changed or not,
# and NaN failed every comparison so changes never travelled past one hop.
BAD_SETTINGS = [
    pytest.param(1e-7, 0, id="rounds=0"),
    pytest.param(1e-7, -3, id="rounds=-3"),
    pytest.param(-1.0, 100, id="tolerance=-1"),
    pytest.param(float("nan"), 100, id="tolerance=nan"),
    pytest.param(float("inf"), 100, id="tolerance=inf"),
]


@pytest.mark.parametrize("tolerance, rounds", BAD_SETTINGS)
def test_run_config_rejects_bad_pagerank_settings(tolerance, rounds):
    with pytest.raises(ConfigurationError, match="pr_"):
        RunConfig(
            "fb", 200, num_batches=2, algorithm="pr",
            pr_tolerance=tolerance, pr_max_rounds=rounds,
        )


@pytest.mark.parametrize("tolerance, rounds", BAD_SETTINGS)
def test_engines_reject_bad_pagerank_settings(tolerance, rounds):
    with pytest.raises(ConfigurationError):
        IncrementalPageRank(
            AdjacencyListGraph(4), tolerance=tolerance, max_rounds=rounds
        )
    with pytest.raises(ConfigurationError):
        StaticPageRank(tolerance=tolerance, max_iterations=rounds)


def test_zero_tolerance_and_one_round_are_valid():
    RunConfig("fb", 200, algorithm="pr", pr_tolerance=0.0, pr_max_rounds=1)
    IncrementalPageRank(AdjacencyListGraph(4), tolerance=0.0, max_rounds=1)
    StaticPageRank(tolerance=0.0, max_iterations=1)


def test_static_two_vertex_analytic():
    """0 -> 1: pr(0) = base; pr(1) = base + d * pr(0)."""
    graph = AdjacencyListGraph(2)
    graph.apply_batch(make_batch([0], [1]))
    values, counters = StaticPageRank(damping=0.85, tolerance=1e-12).run(
        take_snapshot(graph)
    )
    base = 0.15 / 2
    assert values[0] == pytest.approx(base)
    assert values[1] == pytest.approx(base + 0.85 * base)
    assert counters.iterations >= 2
    assert counters.touched_edges > 0


def test_static_ranks_sink_of_chain_highest():
    graph = _chain_graph()
    values, __ = StaticPageRank(tolerance=1e-12).run(take_snapshot(graph))
    assert np.argmax(values) == 5
    assert (np.diff(values) > 0).all()


def test_incremental_matches_static_after_batches(small_generator):
    graph = AdjacencyListGraph(500)
    incremental = IncrementalPageRank(graph, tolerance=1e-12)
    for batch in small_generator.batches(500, 4):
        graph.apply_batch(batch)
        incremental.on_batch(batch.unique_vertices())
    static_values, __ = StaticPageRank(tolerance=1e-13, max_iterations=300).run(
        take_snapshot(graph)
    )
    np.testing.assert_allclose(incremental.as_array(), static_values, atol=1e-6)


def test_incremental_aggregated_round_matches_per_batch(small_generator):
    """OCA-aggregated recomputation reaches the same fixed point."""
    graph_a = AdjacencyListGraph(500)
    inc_a = IncrementalPageRank(graph_a, tolerance=1e-12)
    graph_b = AdjacencyListGraph(500)
    inc_b = IncrementalPageRank(graph_b, tolerance=1e-12)
    batches = [small_generator.generate_batch(i, 400) for i in range(2)]
    for batch in batches:
        graph_a.apply_batch(batch)
        inc_a.on_batch(batch.unique_vertices())
    for batch in batches:
        graph_b.apply_batch(batch)
    union = np.union1d(batches[0].unique_vertices(), batches[1].unique_vertices())
    inc_b.on_batch(union)
    np.testing.assert_allclose(inc_a.as_array(), inc_b.as_array(), atol=1e-6)


def test_aggregated_round_touches_less_than_two_rounds(small_generator):
    """The work saving OCA banks on: one union round < two rounds."""
    batches = [small_generator.generate_batch(i, 2_000) for i in range(2)]
    graph_a = AdjacencyListGraph(500)
    inc_a = IncrementalPageRank(graph_a)
    touched_separate = 0
    for batch in batches:
        graph_a.apply_batch(batch)
        touched_separate += inc_a.on_batch(batch.unique_vertices()).touched_edges
    graph_b = AdjacencyListGraph(500)
    inc_b = IncrementalPageRank(graph_b)
    for batch in batches:
        graph_b.apply_batch(batch)
    union = np.union1d(batches[0].unique_vertices(), batches[1].unique_vertices())
    touched_union = inc_b.on_batch(union).touched_edges
    assert touched_union < touched_separate


def test_incremental_counters_empty_frontier():
    graph = AdjacencyListGraph(10)
    incremental = IncrementalPageRank(graph)
    counters = incremental.on_batch([])
    assert counters.iterations == 0
    assert counters.touched_vertices == 0


def test_static_counts_iterations_and_work():
    graph = _chain_graph()
    __, counters = StaticPageRank(tolerance=1e-10).run(take_snapshot(graph))
    assert counters.touched_vertices == counters.iterations * graph.num_vertices
    assert counters.touched_edges == counters.iterations * graph.num_edges
