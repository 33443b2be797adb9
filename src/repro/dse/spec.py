"""Declarative sweep specifications for design-space exploration.

A :class:`SweepSpec` names the parameter space ROADMAP item 4 asks to
search: target constants, flow-cache capacity, top-k, memory/update-rate
budgets, traffic mixes and Zipf skews, and the runtime's own knobs
(engine tier, worker count). The spec is *composable data* —
axes times a base config minus exclusion rules — so it round-trips
through JSON (``repro dse --spec sweep.json``) and two invocations of
the same spec enumerate byte-identical cell lists.

Each cell is a full config dict: declared axes override ``base``, which
overrides :data:`CELL_DEFAULTS`. Validation is strict (unknown keys and
off-menu values fail at spec build time, not mid-sweep).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from repro.nic.emulator import ENGINES

#: Every knob a cell may set, with its default. ``app`` is an
#: example-app name or ``"synth"`` (random program of ``synth_pn`` x
#: ``synth_pl`` shape); ``memory_budget``/``update_budget`` of ``None``
#: mean unconstrained (Equation 5 budgets disabled).
CELL_DEFAULTS: dict = {
    "app": "l2l3_acl",
    "target": "bluefield2",
    "engine": "auto",
    "jobs": 1,
    "packets": 4000,
    "flows": 128,
    "locality": "uniform",
    "zipf_skew": 1.2,
    "batch": 256,
    "optimize": True,
    "topk": 0.2,
    "cache_capacity": 4096,
    "memory_budget": None,
    "update_budget": None,
    "synth_pn": 6,
    "synth_pl": 2,
}

_TARGETS = ("bluefield2", "agilio_cx", "emulated_nic")
_LOCALITIES = ("uniform", "zipf", "round_robin")


def _known_apps() -> tuple[str, ...]:
    from repro.apps import EXAMPLE_APPS

    return tuple(sorted(EXAMPLE_APPS)) + ("synth",)


def validate_config(config: Mapping) -> dict:
    """Normalise one cell config: defaults filled, values checked."""
    unknown = sorted(set(config) - set(CELL_DEFAULTS))
    if unknown:
        raise ValueError(f"Unknown cell keys: {', '.join(unknown)}")
    cell = {**CELL_DEFAULTS, **dict(config)}
    apps = _known_apps()
    checks = (
        ("app", apps),
        ("target", _TARGETS),
        ("engine", ENGINES),
        ("locality", _LOCALITIES),
    )
    for key, menu in checks:
        if cell[key] not in menu:
            raise ValueError(
                f"{key}={cell[key]!r} not one of {', '.join(menu)}"
            )
    for key in ("jobs", "packets", "flows", "batch"):
        if int(cell[key]) < 1:
            raise ValueError(f"{key} must be >= 1, got {cell[key]}")
        cell[key] = int(cell[key])
    for key in ("synth_pn", "synth_pl", "cache_capacity"):
        if int(cell[key]) < 1:
            raise ValueError(f"{key} must be >= 1, got {cell[key]}")
        cell[key] = int(cell[key])
    if not 0.0 < float(cell["topk"]) <= 1.0:
        raise ValueError(f"topk must be in (0, 1], got {cell['topk']}")
    cell["topk"] = float(cell["topk"])
    cell["zipf_skew"] = float(cell["zipf_skew"])
    cell["optimize"] = bool(cell["optimize"])
    for key in ("memory_budget", "update_budget"):
        if cell[key] is not None:
            cell[key] = float(cell[key])
            if cell[key] <= 0:
                raise ValueError(f"{key} must be > 0 or null")
    return cell


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a cell key and the values it takes."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if self.name not in CELL_DEFAULTS:
            raise ValueError(f"Unknown axis {self.name!r}")
        if not self.values:
            raise ValueError(f"Axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class SweepSpec:
    """Axes x base config, minus exclusion rules.

    ``exclude`` entries are partial configs: a cell matching *every*
    key of any rule is dropped (e.g. ``{"engine": "interp", "jobs":
    4}`` to skip the pointless interpreter fleet). Cells enumerate in
    row-major declaration order — the first axis varies slowest — so
    the cell list, and therefore the run database's append order, is a
    pure function of the spec.
    """

    name: str
    seed: int = 0
    axes: tuple[Axis, ...] = ()
    base: Mapping = field(default_factory=dict)
    exclude: tuple[Mapping, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "exclude", tuple(self.exclude))
        names = [axis.name for axis in self.axes]
        if len(names) != len(set(names)):
            raise ValueError(f"Duplicate axes in spec {self.name!r}")
        for rule in self.exclude:
            unknown = sorted(set(rule) - set(CELL_DEFAULTS))
            if unknown:
                raise ValueError(
                    f"Unknown exclude keys: {', '.join(unknown)}"
                )
        # Fail fast on bad base/axis values: validate one synthetic
        # cell per axis value instead of deferring to mid-sweep.
        for config in self._raw_cells():
            validate_config(config)

    def _raw_cells(self) -> Iterable[dict]:
        value_lists = [
            [(axis.name, value) for value in axis.values]
            for axis in self.axes
        ]
        for combo in product(*value_lists):
            yield {**dict(self.base), **dict(combo)}

    def _excluded(self, cell: Mapping) -> bool:
        return any(
            all(cell.get(key) == value for key, value in rule.items())
            for rule in self.exclude
        )

    def cells(self) -> list[dict]:
        """The normalised config dict of every cell, in matrix order."""
        return [
            cell
            for cell in map(validate_config, self._raw_cells())
            if not self._excluded(cell)
        ]

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "axes": [
                {"name": axis.name, "values": list(axis.values)}
                for axis in self.axes
            ],
            "base": dict(self.base),
            "exclude": [dict(rule) for rule in self.exclude],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SweepSpec":
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            axes=tuple(
                Axis(axis["name"], tuple(axis["values"]))
                for axis in data.get("axes", ())
            ),
            base=dict(data.get("base", {})),
            exclude=tuple(
                dict(rule) for rule in data.get("exclude", ())
            ),
        )

    @classmethod
    def load(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    def with_seed(self, seed: int) -> "SweepSpec":
        return SweepSpec(
            name=self.name,
            seed=seed,
            axes=self.axes,
            base=self.base,
            exclude=self.exclude,
        )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def smoke_spec(seed: int = 0) -> SweepSpec:
    """The CI 2x2x2 sweep: tiny cells, both cache extremes."""
    return SweepSpec(
        name="smoke",
        seed=seed,
        axes=(
            Axis("cache_capacity", (256, 4096)),
            Axis("locality", ("uniform", "zipf")),
            Axis("target", ("bluefield2", "emulated_nic")),
        ),
        base={"packets": 1500, "flows": 64},
    )


def pareto_spec(seed: int = 0) -> SweepSpec:
    """The 24-cell bench sweep behind ``BENCH_dse.json``.

    The ``cache_capacity`` axis spans 512 vs 4096 at 64 flows: both
    capacities hold every flow, so the pair replays identically (cells
    differing only in non-traffic knobs share a traffic seed — see
    :mod:`repro.dse.matrix`) and the 4096 cell predicts strictly more
    cache memory for the same latency and update rate. Every sweep
    therefore contains strictly dominated configurations, which is what
    the Pareto acceptance bar exercises.
    """
    return SweepSpec(
        name="pareto",
        seed=seed,
        axes=(
            Axis("app", ("l2l3_acl", "acl_chain", "nf_composition")),
            Axis("locality", ("uniform", "zipf")),
            Axis("cache_capacity", (512, 4096)),
            Axis("target", ("bluefield2", "emulated_nic")),
        ),
        base={"packets": 2000, "flows": 64},
    )


PRESETS = {
    "smoke": smoke_spec,
    "pareto": pareto_spec,
}


def preset_spec(name: str, seed: int = 0) -> SweepSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"Unknown preset {name!r} "
            f"(choose from {', '.join(sorted(PRESETS))})"
        ) from None
    return factory(seed)
