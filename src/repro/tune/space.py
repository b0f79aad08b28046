"""Typed, bounded search spaces over :class:`~repro.pipeline.config.RunConfig`.

A :class:`SearchSpace` declares which run-config knobs an auto-tuning search
may move and within which bounds, as plain data with a JSON round-trip (so a
space ships in a file next to its results).  Each :class:`Dimension` names a
dotted path into ``RunConfig`` — top-level fields (``batch_size``,
``mode``) or fields of the nested parameter dataclasses
(``abr.threshold``, ``oca.overlap_threshold``, ``costs.usc_hash_insert``) —
and the space's :meth:`~SearchSpace.apply` turns an assignment (a plain
``{dimension name: value}`` dict) into a fully validated ``RunConfig``.

Dimension kinds:

* ``continuous`` — a float in ``[low, high]``, optionally log-scaled
  (samples uniform in ``ln`` space, natural for thresholds spanning
  decades such as ABR's TH);
* ``integer`` — an int in ``[low, high]``, optionally log-scaled
  (ABR's n and lambda, batch_size);
* ``categorical`` — one of ``choices`` (e.g. ``mode``; no built-in space
  has one).

An integer dimension may additionally declare ``transform="pow2"``: the
searched value is an *exponent* and the config receives ``2**value``.  The
built-in ``usc_hash_bits`` dimension uses this to tune the modeled USC
hash-structure width — the per-insert cost ``costs.usc_hash_insert`` scales
as a power of two of the searched bit count, so the optimizer walks a small
integer range while the config sees the exponential cost it implies.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import TuneError
from ..pipeline.config import RunConfig, _NESTED_FIELDS

__all__ = ["Dimension", "SearchSpace", "BUILTIN_SPACES", "load_space"]

DIMENSION_KINDS = ("continuous", "integer", "categorical")
TRANSFORMS = ("none", "pow2")


@dataclass(frozen=True)
class Dimension:
    """One tunable knob: a bounded region of one ``RunConfig`` field.

    Attributes:
        name: assignment key (unique within a space).
        field: dotted path into ``RunConfig`` (``"batch_size"``,
            ``"abr.threshold"``, ``"costs.usc_hash_insert"``).
        kind: one of :data:`DIMENSION_KINDS`.
        low / high: inclusive bounds (numeric kinds only).
        log: sample/grid in log space (numeric kinds; requires ``low > 0``).
        choices: the value set (categorical only).
        transform: ``"none"`` or ``"pow2"`` (integer only) — how a searched
            value maps onto the config field.
    """

    name: str
    field: str
    kind: str
    low: float | None = None
    high: float | None = None
    log: bool = False
    choices: tuple = ()
    transform: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in DIMENSION_KINDS:
            raise TuneError(
                f"dimension {self.name!r}: kind must be one of "
                f"{DIMENSION_KINDS}, got {self.kind!r}"
            )
        if self.transform not in TRANSFORMS:
            raise TuneError(
                f"dimension {self.name!r}: transform must be one of "
                f"{TRANSFORMS}, got {self.transform!r}"
            )
        object.__setattr__(self, "choices", tuple(self.choices))
        if self.kind == "categorical":
            if not self.choices:
                raise TuneError(
                    f"categorical dimension {self.name!r} needs choices"
                )
            if self.low is not None or self.high is not None or self.log:
                raise TuneError(
                    f"categorical dimension {self.name!r} takes no bounds"
                )
            if self.transform != "none":
                raise TuneError(
                    f"categorical dimension {self.name!r} takes no transform"
                )
            return
        if self.choices:
            raise TuneError(
                f"numeric dimension {self.name!r} takes no choices"
            )
        if self.low is None or self.high is None or not self.low < self.high:
            raise TuneError(
                f"dimension {self.name!r} needs bounds with low < high, "
                f"got low={self.low!r} high={self.high!r}"
            )
        if self.log and self.low <= 0:
            raise TuneError(
                f"log dimension {self.name!r} needs low > 0, got {self.low}"
            )
        if self.transform == "pow2" and self.kind != "integer":
            raise TuneError(
                f"dimension {self.name!r}: pow2 transform requires an "
                f"integer dimension"
            )

    # -- search-side operations ----------------------------------------------
    def sample(self, rng) -> object:
        """One uniformly drawn in-bounds value (log-uniform when ``log``)."""
        if self.kind == "categorical":
            return self.choices[rng.randrange(len(self.choices))]
        if self.log:
            raw = math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        else:
            raw = rng.uniform(self.low, self.high)
        return self.clip(round(raw)) if self.kind == "integer" else raw

    def clip(self, value):
        """Force a numeric value back into bounds (identity for categorical)."""
        if self.kind == "categorical":
            return value
        value = min(max(value, self.low), self.high)
        return int(round(value)) if self.kind == "integer" else float(value)

    def grid(self, levels: int) -> list:
        """``levels`` evenly spaced in-bounds values (deduplicated ints)."""
        if self.kind == "categorical":
            return list(self.choices)
        levels = max(2, levels)
        if self.log:
            lo, hi = math.log(self.low), math.log(self.high)
            points = [
                math.exp(lo + (hi - lo) * i / (levels - 1))
                for i in range(levels)
            ]
        else:
            points = [
                self.low + (self.high - self.low) * i / (levels - 1)
                for i in range(levels)
            ]
        values = [self.clip(p) for p in points]
        if self.kind == "integer":  # rounding can collide adjacent levels
            values = list(dict.fromkeys(values))
        return values

    def config_value(self, value):
        """Map a searched value onto the config field's value."""
        value = self.validated(value)
        if self.transform == "pow2":
            return float(2 ** int(value))
        return value

    def validated(self, value):
        """Check an assignment value against this dimension's domain."""
        if self.kind == "categorical":
            if value not in self.choices:
                raise TuneError(
                    f"dimension {self.name!r}: {value!r} is not one of "
                    f"{self.choices}"
                )
            return value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TuneError(
                f"dimension {self.name!r}: expected a number, got {value!r}"
            )
        if not self.low <= value <= self.high:
            raise TuneError(
                f"dimension {self.name!r}: {value!r} outside "
                f"[{self.low}, {self.high}]"
            )
        return int(value) if self.kind == "integer" else float(value)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["choices"] = list(self.choices)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Dimension":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise TuneError(
                f"dimension has unknown keys: {sorted(unknown)}"
            )
        return cls(**{k: tuple(v) if k == "choices" else v
                      for k, v in data.items()})


def _check_field_path(dimension: Dimension) -> None:
    """Eagerly reject dimensions whose field path cannot reach RunConfig."""
    top, _, leaf = dimension.field.partition(".")
    config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    if top not in config_fields:
        raise TuneError(
            f"dimension {dimension.name!r}: {top!r} is not a RunConfig field"
        )
    if not leaf:
        return
    if top not in _NESTED_FIELDS:
        raise TuneError(
            f"dimension {dimension.name!r}: {top!r} is not a nested config "
            f"(nested: {sorted(_NESTED_FIELDS)})"
        )
    nested_fields = {f.name for f in dataclasses.fields(_NESTED_FIELDS[top])}
    if leaf not in nested_fields:
        raise TuneError(
            f"dimension {dimension.name!r}: {leaf!r} is not a field of "
            f"{_NESTED_FIELDS[top].__name__}"
        )


@dataclass(frozen=True)
class SearchSpace:
    """A named, ordered collection of dimensions with a JSON round-trip."""

    name: str
    dimensions: tuple[Dimension, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if not self.dimensions:
            raise TuneError(f"search space {self.name!r} has no dimensions")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise TuneError(
                f"search space {self.name!r} has duplicate dimension names"
            )
        for dimension in self.dimensions:
            _check_field_path(dimension)

    def __iter__(self):
        return iter(self.dimensions)

    def __len__(self) -> int:
        return len(self.dimensions)

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise TuneError(
            f"space {self.name!r} has no dimension {name!r} "
            f"(has: {[d.name for d in self.dimensions]})"
        )

    # -- search-side operations ----------------------------------------------
    def sample(self, rng) -> dict:
        """One full random assignment (every dimension drawn)."""
        return {d.name: d.sample(rng) for d in self.dimensions}

    def grid_assignments(self, budget: int) -> list[dict]:
        """The smallest full-factorial grid covering ``budget`` assignments.

        Per-dimension level counts grow together until the cartesian
        product reaches ``budget`` (or stops growing — integer and
        categorical dimensions saturate), then the product is enumerated
        in dimension-major order.
        """
        levels = 2
        sizes = [len(d.grid(levels)) for d in self.dimensions]
        while math.prod(sizes) < budget:
            levels += 1
            grown = [len(d.grid(levels)) for d in self.dimensions]
            if grown == sizes:  # every dimension saturated
                break
            sizes = grown
        grids = [d.grid(levels) for d in self.dimensions]
        assignments: list[dict] = [{}]
        for dimension, values in zip(self.dimensions, grids):
            assignments = [
                {**partial, dimension.name: value}
                for partial in assignments
                for value in values
            ]
        return assignments

    def apply(self, base: RunConfig, assignment: dict) -> RunConfig:
        """Materialize an assignment as a run config derived from ``base``.

        Unassigned dimensions keep the base's values; nested fields
        (``abr.threshold``) instantiate the nested config from its defaults
        when the base carries None.  The result passes full ``RunConfig``
        validation, so an in-bounds assignment always yields a buildable
        run.
        """
        known = {d.name for d in self.dimensions}
        unknown = set(assignment) - known
        if unknown:
            raise TuneError(
                f"assignment has unknown dimensions: {sorted(unknown)}"
            )
        updates: dict = {}
        nested_updates: dict[str, dict] = {}
        for dimension in self.dimensions:
            if dimension.name not in assignment:
                continue
            value = dimension.config_value(assignment[dimension.name])
            top, _, leaf = dimension.field.partition(".")
            if leaf:
                nested_updates.setdefault(top, {})[leaf] = value
            else:
                updates[top] = value
        for top, fields in nested_updates.items():
            current = getattr(base, top)
            if current is None:
                current = _NESTED_FIELDS[top]()
            updates[top] = dataclasses.replace(current, **fields)
        return dataclasses.replace(base, **updates)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dimensions": [d.to_dict() for d in self.dimensions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        try:
            name = data["name"]
            rows = data["dimensions"]
        except (TypeError, KeyError) as exc:
            raise TuneError(
                f"search space needs 'name' and 'dimensions': {exc}"
            ) from exc
        return cls(
            name=name,
            dimensions=tuple(Dimension.from_dict(row) for row in rows),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SearchSpace":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise TuneError(f"search space is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _abr_dimensions() -> tuple[Dimension, ...]:
    return (
        Dimension("abr_threshold", "abr.threshold", "continuous",
                  low=50.0, high=2000.0, log=True),
        Dimension("abr_lambda", "abr.lam", "integer",
                  low=32, high=1024, log=True),
        Dimension("abr_n", "abr.n", "integer", low=2, high=40, log=True),
    )


def _builtin_spaces() -> dict[str, SearchSpace]:
    abr = _abr_dimensions()
    batch = Dimension("batch_size", "batch_size", "integer",
                      low=200, high=5000, log=True)
    oca = Dimension("oca_threshold", "oca.overlap_threshold", "continuous",
                    low=0.05, high=0.9)
    usc_bits = Dimension("usc_hash_bits", "costs.usc_hash_insert", "integer",
                         low=1, high=5, transform="pow2")
    return {
        "abr": SearchSpace("abr", abr),
        "demo": SearchSpace("demo", (abr[0], abr[2], batch)),
        "full": SearchSpace("full", abr + (oca, usc_bits, batch)),
    }


#: Named spaces shipped with the library: ``"abr"`` (the paper's §6.2.3
#: design parameters alone), ``"demo"`` (a small, cheap space exercising
#: ABR plus the batch-size axis — the default for ``repro tune``),
#: ``"full"`` (every tunable policy axis at once).
BUILTIN_SPACES: dict[str, SearchSpace] = _builtin_spaces()


def load_space(name_or_path: str) -> SearchSpace:
    """Resolve a built-in space name or a JSON space file path."""
    if name_or_path in BUILTIN_SPACES:
        return BUILTIN_SPACES[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return SearchSpace.from_json(path.read_text())
    raise TuneError(
        f"unknown search space {name_or_path!r}: not a built-in "
        f"({sorted(BUILTIN_SPACES)}) and no such file"
    )
