"""Declarative run construction: :class:`RunConfig` and its factory.

Every knob of :class:`~repro.pipeline.runner.StreamingPipeline` — dataset,
batch size, algorithm, mode, OCA, machine, cost models, convergence
settings — in one frozen, picklable dataclass with a JSON round-trip.  All
run construction in the repo (CLI, the parallel executor's workers,
benchmarks, examples) goes through :meth:`RunConfig.build_pipeline`, so a
run is describable as data: serialize it, ship it to a worker process,
store it next to results, rebuild the identical pipeline later.

    config = RunConfig(dataset="wiki", batch_size=10_000, mode="abr_usc")
    metrics = config.build_pipeline().run(config.num_batches)
    restored = RunConfig.from_json(config.to_json())   # == config
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..compute.oca import OCAConfig
from ..compute.pagerank import check_pagerank_settings
from ..compute.registry import get_algorithm
from ..costs import ComputeCostParameters, CostParameters
from ..errors import ConfigurationError
from ..exec_model.machine import HOST_MACHINE, SIMULATED_MACHINE, MachineConfig
from ..telemetry.core import TELEMETRY_LEVELS, make_telemetry
from ..update.abr import ABRConfig
from ..update.strategies import resolve_strategy
from .modes import resolve_mode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.profiles import DatasetProfile
    from .executor import CellSpec
    from .runner import StreamingPipeline

__all__ = ["RunConfig", "MACHINE_NAMES", "drop_retired_keys"]

#: Named machines ``RunConfig.machine`` may reference.  ``"auto"`` resolves
#: to the simulated CMP for HAU-capable modes (Table 3's normalization) and
#: the evaluation host otherwise.
MACHINE_NAMES: dict[str, MachineConfig] = {
    "host": HOST_MACHINE,
    "simulated": SIMULATED_MACHINE,
}

_NESTED_FIELDS: dict[str, type] = {
    "costs": CostParameters,
    "compute_costs": ComputeCostParameters,
    "abr": ABRConfig,
    "oca": OCAConfig,
}

#: Fields of retired runtimes that older checkpoint headers and
#: ``best_config.json`` files still carry: the sharded runtime's three and
#: the adjacency-format choice.
_RETIRED_KEYS = ("num_shards", "shard_transport", "shard_policy", "adjacency")


def drop_retired_keys(data: dict) -> dict:
    """``data`` without the retired fields of older configs.

    At one shard the sharding fields changed nothing (transport and policy
    were ignored), and ``adjacency="dict"`` names the only graph format
    left, so such a config still names a valid serial run.

    Raises:
        ConfigurationError: the config asked for more than one shard, or
            for an adjacency format other than ``"dict"``, which no
            runtime can honour any more.
    """
    num_shards = data.get("num_shards", 1)
    if num_shards != 1:
        raise ConfigurationError(
            f"config has num_shards={num_shards!r}, but the sharded runtime "
            "was removed; only serial (num_shards=1) configs still load"
        )
    adjacency = data.get("adjacency", "dict")
    if adjacency != "dict":
        raise ConfigurationError(
            f"config has adjacency={adjacency!r}, but the hybrid adjacency "
            "format was removed; its results were always equal to the dict "
            "format's, so deleting the 'adjacency' key runs the same config"
        )
    return {k: v for k, v in data.items() if k not in _RETIRED_KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to (re)construct one pipeline run, as plain data.

    Attributes:
        dataset: dataset profile name (see ``repro datasets``).
        batch_size: edges per input batch.
        algorithm: registered compute-algorithm name.
        mode: execution mode / update-strategy name (see
            :data:`~repro.pipeline.modes.MODES`).
        use_oca: enable overlap-based compute aggregation.
        machine: ``"auto"``, ``"host"`` or ``"simulated"``.
        seed: stream generator seed.
        num_batches: batches to stream (None = the profile's full stream).
        pr_tolerance / pr_max_rounds: PageRank convergence settings.
        sssp_source: SSSP/BFS source vertex (None = first batch's first
            source endpoint).
        costs / compute_costs: cost-model overrides (None = defaults).
        abr / oca: ABR / OCA parameter overrides (None = defaults).
        telemetry: instrumentation level — ``"off"`` (no-op backend),
            ``"basic"`` (counters/gauges/decision ledger) or ``"full"``
            (adds wall-clock spans and histograms).
    """

    dataset: str
    batch_size: int
    algorithm: str = "pr"
    mode: str = "abr_usc"
    use_oca: bool = False
    machine: str = "auto"
    seed: int = 7
    num_batches: int | None = None
    pr_tolerance: float = 1e-7
    pr_max_rounds: int = 100
    sssp_source: int | None = None
    costs: CostParameters | None = None
    compute_costs: ComputeCostParameters | None = None
    abr: ABRConfig | None = None
    oca: OCAConfig | None = None
    telemetry: str = "off"

    def __post_init__(self) -> None:
        get_algorithm(self.algorithm)  # raises ConfigurationError if unknown
        resolve_mode(self.mode)
        check_pagerank_settings(
            self.pr_tolerance,
            self.pr_max_rounds,
            names=("pr_tolerance", "pr_max_rounds"),
        )
        if self.telemetry not in TELEMETRY_LEVELS:
            raise ConfigurationError(
                f"telemetry must be one of {TELEMETRY_LEVELS}, "
                f"got {self.telemetry!r}"
            )
        if self.machine not in MACHINE_NAMES and self.machine != "auto":
            raise ConfigurationError(
                f"machine must be 'auto' or one of {sorted(MACHINE_NAMES)}, "
                f"got {self.machine!r}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    # -- derived views --------------------------------------------------------
    @property
    def requires_hau(self) -> bool:
        """True if this config's mode offloads batches to the accelerator."""
        return resolve_strategy(resolve_mode(self.mode)).requires_hau

    def resolved_machine(self) -> MachineConfig:
        """The machine the run executes on (``"auto"`` resolved)."""
        if self.machine == "auto":
            return SIMULATED_MACHINE if self.requires_hau else HOST_MACHINE
        return MACHINE_NAMES[self.machine]

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (nested config dataclasses become dicts)."""
        out = dataclasses.asdict(self)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`; validates like the constructor.

        Older dicts with retired fields load when they ask for one shard
        and the dict adjacency format (see :func:`drop_retired_keys`).
        """
        kwargs = drop_retired_keys(data)
        for name, config_cls in _NESTED_FIELDS.items():
            value = kwargs.get(name)
            if isinstance(value, dict):
                kwargs[name] = config_cls(**value)
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "RunConfig":
        return cls.from_dict(json.loads(payload))

    # -- interop --------------------------------------------------------------
    @classmethod
    def from_cli_args(cls, args, dataset: str | None = None) -> "RunConfig":
        """Build a config from ``repro run`` argparse arguments."""
        return cls(
            dataset=dataset if dataset is not None else args.dataset[0],
            batch_size=args.batch_size,
            algorithm=args.algorithm,
            mode=args.mode,
            use_oca=args.oca,
            num_batches=args.num_batches,
            telemetry=getattr(args, "telemetry", None) or "off",
        )

    @classmethod
    def from_serve_args(cls, args) -> "RunConfig":
        """Build the open-ended live-ingest config for ``repro serve``.

        Serving has no pre-materialized workload: ``num_batches`` stays
        None and the profile's stream generator is never consulted — the
        service feeds externally built batches through
        :meth:`~repro.pipeline.runner.StreamingPipeline.step`'s ``batch``
        argument.  The dataset only contributes the vertex universe.
        """
        return cls(
            dataset=args.dataset,
            batch_size=args.batch_size,
            algorithm=args.algorithm,
            mode=args.mode,
            num_batches=None,
            telemetry=getattr(args, "telemetry", None) or "basic",
        )

    @classmethod
    def from_cell_spec(cls, spec: "CellSpec") -> "RunConfig":
        """Lift a workload-matrix cell spec into a full run config."""
        return cls(
            dataset=spec.dataset,
            batch_size=spec.batch_size,
            algorithm=spec.algorithm,
            mode=spec.mode,
            use_oca=spec.use_oca,
            num_batches=spec.num_batches,
            seed=spec.seed,
        )

    def to_cell_spec(self) -> "CellSpec":
        """Project onto the workload-matrix cell spec (extras dropped)."""
        from .executor import CellSpec

        return CellSpec(
            dataset=self.dataset,
            batch_size=self.batch_size,
            algorithm=self.algorithm,
            mode=self.mode,
            use_oca=self.use_oca,
            num_batches=self.num_batches,
            seed=self.seed,
        )

    # -- factory --------------------------------------------------------------
    def build_pipeline(
        self,
        profile: "DatasetProfile | None" = None,
        graph=None,
        hau=None,
        trace=None,
        telemetry=None,
    ) -> "StreamingPipeline":
        """Construct the configured :class:`StreamingPipeline`.

        Args:
            profile: dataset profile override (defaults to resolving
                :attr:`dataset` by name — pass one for custom datasets).
            graph: pre-built graph to reuse.
            hau: accelerator simulator override; HAU-capable modes get a
                fresh default :class:`~repro.hau.simulator.HAUSimulator`
                automatically when omitted.
            trace: optional :class:`~repro.pipeline.tracing.TraceWriter`.
            telemetry: explicit telemetry backend override; by default a
                backend is created from the config's :attr:`telemetry`
                level via :func:`~repro.telemetry.core.make_telemetry`.
        """
        from ..datasets.profiles import get_dataset
        from .runner import StreamingPipeline

        if profile is None:
            profile = get_dataset(self.dataset)
        if hau is None and self.requires_hau:
            from ..hau.simulator import HAUSimulator

            hau = HAUSimulator()
        if telemetry is None:
            telemetry = make_telemetry(self.telemetry)
        kwargs = {}
        if self.costs is not None:
            kwargs["costs"] = self.costs
        if self.compute_costs is not None:
            kwargs["compute_costs"] = self.compute_costs
        pipeline = StreamingPipeline(
            profile,
            self.batch_size,
            algorithm=self.algorithm,
            policy=resolve_mode(self.mode),
            use_oca=self.use_oca,
            machine=self.resolved_machine(),
            abr_config=self.abr,
            oca_config=self.oca,
            hau=hau,
            graph=graph,
            seed=self.seed,
            pr_tolerance=self.pr_tolerance,
            pr_max_rounds=self.pr_max_rounds,
            sssp_source=self.sssp_source,
            trace=trace,
            telemetry=telemetry,
            **kwargs,
        )
        # Checkpoints embed the originating config so resume can reject a
        # pipeline built under different parameters.
        pipeline.run_config = self
        return pipeline

    def run(self, num_batches: int | None = None):
        """Build the pipeline and run it (``num_batches`` overrides the
        config's); returns the run's RunMetrics."""
        return self.build_pipeline().run(
            self.num_batches if num_batches is None else num_batches
        )
