"""RunConfig: serialization round-trips, validation, and factory behavior."""

import argparse
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.compute.oca import OCAConfig
from repro.compute.registry import ALGORITHMS
from repro.costs import ComputeCostParameters, CostParameters
from repro.datasets.profiles import dataset_names
from repro.errors import ConfigurationError
from repro.exec_model.machine import HOST_MACHINE, SIMULATED_MACHINE
from repro.pipeline.config import MACHINE_NAMES, RunConfig, drop_retired_keys
from repro.pipeline.executor import CellSpec
from repro.pipeline.modes import MODES
from repro.update.abr import ABRConfig

# -- config strategy ----------------------------------------------------------

abr_configs = st.builds(
    ABRConfig,
    n=st.integers(1, 32),
    lam=st.sampled_from([64, 256, 1024]),
    threshold=st.floats(1.0, 50_000.0, allow_nan=False),
    default_reorder=st.booleans(),
)

oca_configs = st.builds(
    OCAConfig,
    overlap_threshold=st.floats(0.01, 1.0, allow_nan=False),
    n=st.integers(1, 32),
)

configs = st.builds(
    RunConfig,
    dataset=st.sampled_from(dataset_names()),
    batch_size=st.integers(1, 1_000_000),
    algorithm=st.sampled_from(list(ALGORITHMS)),
    mode=st.sampled_from(sorted(MODES)),
    use_oca=st.booleans(),
    machine=st.sampled_from(["auto", *sorted(MACHINE_NAMES)]),
    seed=st.integers(0, 2**31 - 1),
    num_batches=st.none() | st.integers(1, 1_000),
    pr_tolerance=st.floats(1e-12, 1e-2, allow_nan=False),
    pr_max_rounds=st.integers(1, 500),
    sssp_source=st.none() | st.integers(0, 100_000),
    costs=st.none() | st.just(CostParameters()),
    compute_costs=st.none() | st.just(ComputeCostParameters()),
    abr=st.none() | abr_configs,
    oca=st.none() | oca_configs,
    telemetry=st.sampled_from(["off", "basic", "full"]),
)


# -- round trips --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(configs)
def test_json_round_trip(config):
    assert RunConfig.from_json(config.to_json()) == config


@settings(max_examples=60, deadline=None)
@given(configs)
def test_to_dict_is_plain_json_data(config):
    # No dataclass instances survive to_dict: the document is pure JSON.
    json.dumps(config.to_dict())


@settings(max_examples=60, deadline=None)
@given(configs)
def test_pickle_round_trip(config):
    # Workers receive configs through a process pool; equality and hash
    # must survive the trip.
    restored = pickle.loads(pickle.dumps(config))
    assert restored == config
    assert hash(restored) == hash(config)


@settings(max_examples=40, deadline=None)
@given(configs)
def test_cell_spec_round_trip_preserves_shared_fields(config):
    lifted = RunConfig.from_cell_spec(config.to_cell_spec())
    for field in ("dataset", "batch_size", "algorithm", "mode", "use_oca",
                  "num_batches", "seed"):
        assert getattr(lifted, field) == getattr(config, field)


def test_from_cell_spec_defaults_extras():
    spec = CellSpec(dataset="fb", batch_size=500, algorithm="pr",
                    mode="baseline", use_oca=False, num_batches=3, seed=11)
    config = RunConfig.from_cell_spec(spec)
    assert config.to_cell_spec() == spec
    assert config.pr_tolerance == RunConfig("fb", 500).pr_tolerance


# -- validation ---------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"algorithm": "no_such_algorithm"},
        {"mode": "no_such_mode"},
        {"machine": "tpu"},
        {"batch_size": 0},
        {"telemetry": "verbose"},
        {"pr_tolerance": float("nan")},
        {"pr_tolerance": -1e-9},
        {"pr_max_rounds": 0},
    ],
)
def test_invalid_fields_raise(kwargs):
    with pytest.raises(ConfigurationError):
        RunConfig(**{"dataset": "fb", "batch_size": 100, **kwargs})


def test_frozen():
    config = RunConfig("fb", 100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.batch_size = 200


# -- derived views ------------------------------------------------------------

def test_machine_auto_resolution():
    assert RunConfig("fb", 100, mode="abr_usc").resolved_machine() is HOST_MACHINE
    for mode in ("hw_only", "dynamic", "always_hau", "abr_usc_hau"):
        config = RunConfig("fb", 100, algorithm="none", mode=mode)
        assert config.requires_hau
        assert config.resolved_machine() is SIMULATED_MACHINE
    forced = RunConfig("fb", 100, machine="simulated")
    assert forced.resolved_machine() is SIMULATED_MACHINE


def test_from_cli_args():
    args = argparse.Namespace(
        dataset=["wiki", "fb"], batch_size=2_000, algorithm="sssp",
        mode="baseline", oca=True, num_batches=4,
    )
    config = RunConfig.from_cli_args(args)
    assert config == RunConfig(
        dataset="wiki", batch_size=2_000, algorithm="sssp", mode="baseline",
        use_oca=True, num_batches=4,
    )
    assert RunConfig.from_cli_args(args, dataset="fb").dataset == "fb"
    # Namespaces without a --telemetry attribute (older callers) default off.
    assert config.telemetry == "off"
    args.telemetry = "basic"
    assert RunConfig.from_cli_args(args).telemetry == "basic"


# -- configs written by older versions ----------------------------------------

_LEGACY_ONE_SHARD = {
    "num_shards": 1, "shard_transport": "tcp", "shard_policy": "greedy",
    "adjacency": "dict",
}


def test_from_dict_drops_retired_single_shard_keys():
    config = RunConfig("fb", 500, algorithm="pr", num_batches=3)
    legacy = {**config.to_dict(), **_LEGACY_ONE_SHARD}
    assert RunConfig.from_dict(legacy) == config
    assert RunConfig.from_json(json.dumps(legacy)) == config
    assert drop_retired_keys(legacy) == config.to_dict()


def test_from_dict_refuses_sharded_config():
    legacy = {**RunConfig("fb", 500).to_dict(), **_LEGACY_ONE_SHARD,
              "num_shards": 2}
    with pytest.raises(ConfigurationError, match="sharded runtime was removed"):
        RunConfig.from_dict(legacy)


def test_from_dict_refuses_hybrid_config():
    legacy = {**RunConfig("fb", 500).to_dict(), **_LEGACY_ONE_SHARD,
              "adjacency": "hybrid"}
    with pytest.raises(
        ConfigurationError,
        match="hybrid adjacency format was removed.*deleting the 'adjacency' key",
    ):
        RunConfig.from_dict(legacy)
    del legacy["adjacency"]
    assert RunConfig.from_dict(legacy) == RunConfig("fb", 500)


def test_build_pipeline_creates_telemetry_backend(flat_profile):
    from repro.telemetry.core import NULL_TELEMETRY, Telemetry

    off = RunConfig("custom", 200, algorithm="none", mode="baseline")
    assert off.build_pipeline(profile=flat_profile).telemetry is NULL_TELEMETRY
    full = dataclasses.replace(off, telemetry="full")
    backend = full.build_pipeline(profile=flat_profile).telemetry
    assert isinstance(backend, Telemetry)
    assert backend.level == "full"


def test_build_pipeline_honours_config(flat_profile):
    config = RunConfig(
        "custom", 200, algorithm="pr", mode="baseline",
        pr_tolerance=1e-3, pr_max_rounds=7, num_batches=1,
    )
    pipeline = config.build_pipeline(profile=flat_profile)
    pipeline.run(1)
    assert pipeline._incremental_pr.tolerance == 1e-3
    assert pipeline._incremental_pr.max_rounds == 7
    assert pipeline.engine.policy_name == "baseline"
