"""Extensibility: algorithms and update strategies plug in from user code.

The acceptance bar for the registries: a new compute algorithm and a new
update strategy must be registrable *from test code* — no edits to
``pipeline/runner.py`` or ``update/engine.py`` — and immediately usable as
pipeline/engine/CLI names.  Registrations here are removed again on
teardown so the live views (``ALGORITHMS``, ``MODES``) return to their
built-in state.
"""

import pytest

from repro.cli import build_parser
from repro.compute.registry import (
    ALGORITHM_REGISTRY,
    ALGORITHMS,
    ComputeAlgorithm,
    algorithm_names,
    get_algorithm,
    register_algorithm,
)
from repro.compute.result import ComputeCounters
from repro.errors import ConfigurationError
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.pipeline.config import RunConfig
from repro.pipeline.modes import MODE_ALIASES, MODES
from repro.pipeline.runner import StreamingPipeline
from repro.update.engine import UpdateEngine, UpdatePolicy
from repro.update.result import STRATEGY_BASELINE, STRATEGY_RO
from repro.update.strategies import (
    STRATEGY_REGISTRY,
    StrategySelector,
    register_strategy,
    resolve_strategy,
    strategy_names,
)


@pytest.fixture
def touch_counter_algorithm():
    """A custom algorithm registered for the duration of one test."""

    @register_algorithm("touch_counter")
    class TouchCounter(ComputeAlgorithm):
        """Counts affected vertices each round — one iteration, no edges."""

        instances = []

        def __init__(self, ctx):
            super().__init__(ctx)
            self.rounds = []
            TouchCounter.instances.append(self)

        def on_round(self, batch, affected, covered):
            self.rounds.append((batch.batch_id, len(covered)))
            return ComputeCounters(
                iterations=1, touched_vertices=len(affected), touched_edges=0
            )

    yield TouchCounter
    del ALGORITHM_REGISTRY["touch_counter"]


@pytest.fixture
def parity_selector():
    """A custom update strategy registered for the duration of one test."""

    @register_strategy
    class ParitySelector(StrategySelector):
        name = "parity"

        def select(self, engine, stats, timings):
            chosen = STRATEGY_RO if stats.batch_id % 2 else STRATEGY_BASELINE
            return chosen, None

    yield ParitySelector
    del STRATEGY_REGISTRY["parity"]


# -- compute-algorithm registry -----------------------------------------------

def test_builtin_algorithms_registered_in_order():
    assert tuple(ALGORITHMS) == (
        "pr", "sssp", "pr_static", "sssp_static", "bfs", "cc", "none",
        "triangles",
    )
    assert algorithm_names() == tuple(ALGORITHMS)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigurationError):
        get_algorithm("nope")


def test_builtin_pipelines_keep_in_lists_iff_their_algorithm_reads_them(
    flat_profile,
):
    readers = {name for name in ALGORITHMS if get_algorithm(name).reads_in_lists}
    assert readers == {"sssp", "bfs"}
    for name in ALGORITHMS:
        pipeline = StreamingPipeline(flat_profile, 300, name, UpdatePolicy.BASELINE)
        assert pipeline.graph.keeps_in_lists == (name in readers), name


def test_graph_without_in_lists_refused_for_an_algorithm_that_reads_them(
    flat_profile,
):
    bare = AdjacencyListGraph(flat_profile.num_vertices, keep_in_lists=False)
    for name in ("sssp", "bfs"):
        with pytest.raises(ConfigurationError, match="reads in-lists"):
            StreamingPipeline(flat_profile, 300, name, graph=bare)
    for name in ("pr", "pr_static", "cc"):
        assert StreamingPipeline(flat_profile, 300, name, graph=bare).graph is bare


def test_custom_algorithm_drives_pipeline(flat_profile, touch_counter_algorithm):
    assert "touch_counter" in ALGORITHMS  # live view picked it up
    pipeline = StreamingPipeline(
        flat_profile, 300, "touch_counter", UpdatePolicy.BASELINE
    )
    metrics = pipeline.run(3)
    instance = touch_counter_algorithm.instances[-1]
    assert [bid for bid, __ in instance.rounds] == [0, 1, 2]
    assert all(b.compute_time > 0 for b in metrics.batches)


def test_custom_algorithm_usable_via_run_config(flat_profile, touch_counter_algorithm):
    config = RunConfig("custom", 300, algorithm="touch_counter",
                       mode="baseline", num_batches=2)
    metrics = config.build_pipeline(profile=flat_profile).run(2)
    assert len(metrics.batches) == 2


# -- update-strategy registry -------------------------------------------------

def test_builtin_strategies_cover_update_policies():
    assert {p.value for p in UpdatePolicy} <= set(strategy_names())


def test_custom_strategy_drives_engine(parity_selector):
    graph = AdjacencyListGraph(64)
    engine = UpdateEngine(graph, "parity")
    assert engine.policy is None  # not one of the paper's enum policies
    assert engine.policy_name == "parity"
    assert resolve_strategy("parity") is STRATEGY_REGISTRY["parity"]


def test_custom_strategy_drives_pipeline(flat_profile, parity_selector):
    assert "parity" in MODES  # live view picked it up
    metrics = StreamingPipeline(flat_profile, 250, "none", "parity").run(4)
    assert metrics.mode == "parity"
    assert [b.strategy for b in metrics.batches] == [
        STRATEGY_BASELINE, STRATEGY_RO, STRATEGY_BASELINE, STRATEGY_RO,
    ]


def test_hau_strategy_without_simulator_rejected():
    graph = AdjacencyListGraph(64)
    with pytest.raises(ConfigurationError):
        UpdateEngine(graph, UpdatePolicy.ALWAYS_HAU)


# -- CLI consistency: choices derive from the registries ----------------------

def _argument_choices(parser, command, option):
    run = next(
        action for action in parser._subparsers._group_actions[0].choices.items()
        if action[0] == command
    )[1]
    return next(
        a.choices for a in run._actions
        if option in getattr(a, "option_strings", ())
        or getattr(a, "dest", None) == option
    )


def test_cli_algorithm_choices_are_the_registry():
    choices = _argument_choices(build_parser(), "run", "--algorithm")
    assert list(choices) == list(ALGORITHMS)


def test_cli_mode_choices_are_the_registry():
    choices = _argument_choices(build_parser(), "run", "--mode")
    assert sorted(choices) == sorted(MODES)
    assert set(MODE_ALIASES) <= set(choices)


def test_cli_choices_track_new_registrations(
    touch_counter_algorithm, parity_selector
):
    parser = build_parser()
    assert "touch_counter" in _argument_choices(parser, "run", "--algorithm")
    assert "parity" in _argument_choices(parser, "run", "--mode")
