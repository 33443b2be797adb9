"""Timed workload scenarios for runtime-adaptation experiments (§5.3).

A scenario is a sequence of phases; each phase supplies a packet stream
factory and optional control-plane activity (e.g. an entry-insertion
burst). The controller benches — and the always-on adaptation service
(``repro serve``) — step the scenario second by second, re-profiling
and re-optimizing as the paper's runtime does.

Phase boundaries are precomputed **once** as exactly-rounded cumulative
sums (``math.fsum`` prefixes), so long multi-phase scenarios cannot
misattribute ticks near phase edges to per-call float accumulation
drift. The end boundary is explicit: ``phase_at(total_duration_s)``
returns the final (positive-duration) phase instead of ``None``, and
interior boundaries belong to the *following* phase (half-open
``[start, end)`` intervals). Zero-duration phases never own any time.

The module also ships a **scenario library**: named, string-seeded
builders for the fleet-scale workload shapes ROADMAP item 5 calls for
— diurnal Zipf drift, flash crowds, DDoS-style drop-heavy bursts,
tenant churn, and rolling control-plane update storms. Like
:class:`~repro.nic.faults.FaultPlan`, every builder derives all of its
randomness from ``random.Random`` seeded with a *string* key (string
seeding hashes with SHA-512), so a scenario is a pure function of
``(name, seed, parameters)`` — identical across processes and
``PYTHONHASHSEED`` values, which is what the serve-mode bit-identity
tests pin.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.nic.packet import Packet

#: Called once per emulated second with (control_plane_like, time_s).
ControlAction = Callable[[object, float], None]
#: The packets offered during one emulated second. The library's
#: builders return the generator's :class:`~repro.traffic.generator.
#: PacketStream` as is — never listed — so a fleet ships its flow set
#: as drawn; any other ``Packet`` iterable is accepted, and a fleet
#: reads it whole into one flow set first.
StreamFactory = Callable[[int], Iterable[Packet]]

#: Epsilon guard for tick-vs-boundary comparisons in :meth:`Scenario.
#: ticks` (fractional durations only; boundaries themselves are exact).
_TICK_EPS = 1e-9


@dataclass
class Phase:
    """One period of stable workload behaviour."""

    name: str
    duration_s: float
    stream_factory: StreamFactory
    control_action: Optional[ControlAction] = None


@dataclass
class Scenario:
    """An ordered list of phases plus bookkeeping helpers."""

    name: str
    phases: list[Phase] = field(default_factory=list)
    #: Memoized (durations, cumulative fsum boundaries); invalidated
    #: whenever the phase durations change.
    _bounds_cache: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = (
        field(default=None, repr=False, compare=False)
    )

    def add_phase(
        self,
        name: str,
        duration_s: float,
        stream_factory: StreamFactory,
        control_action: Optional[ControlAction] = None,
    ) -> "Scenario":
        if duration_s < 0:
            raise ValueError(
                f"Phase {name!r} duration must be >= 0, got {duration_s}"
            )
        self.phases.append(
            Phase(name, duration_s, stream_factory, control_action)
        )
        return self

    # -- boundaries ----------------------------------------------------------

    def boundaries(self) -> tuple[float, ...]:
        """Cumulative phase end times, exactly rounded.

        ``boundaries()[i]`` is ``fsum`` of the first ``i+1`` durations —
        each prefix is independently exactly-rounded, so boundary ``k``
        carries no accumulated error from boundaries before it, and the
        last boundary equals :attr:`total_duration_s` bit for bit.
        Computed once and memoized against the duration tuple.
        """
        durations = tuple(p.duration_s for p in self.phases)
        cached = self._bounds_cache
        if cached is not None and cached[0] == durations:
            return cached[1]
        bounds = tuple(
            math.fsum(durations[: i + 1])
            for i in range(len(durations))
        )
        self._bounds_cache = (durations, bounds)
        return bounds

    @property
    def total_duration_s(self) -> float:
        bounds = self.boundaries()
        return bounds[-1] if bounds else 0.0

    def phase_index_at(self, time_s: float) -> Optional[int]:
        """Index of the phase owning ``time_s``, or ``None`` outside.

        Intervals are half-open ``[start, end)``: an interior boundary
        belongs to the phase that *starts* there, and zero-duration
        phases (empty intervals) never own any time. The end boundary
        is explicit: exactly ``total_duration_s`` maps to the last
        positive-duration phase, so the final tick of an
        end-inclusive driver is never silently dropped.
        """
        bounds = self.boundaries()
        if not bounds or time_s < 0.0:
            return None
        if time_s == bounds[-1]:
            for index in range(len(self.phases) - 1, -1, -1):
                if self.phases[index].duration_s > 0:
                    return index
            return None
        index = bisect_right(bounds, time_s)
        return index if index < len(self.phases) else None

    def phase_at(self, time_s: float) -> Optional[Phase]:
        index = self.phase_index_at(time_s)
        return None if index is None else self.phases[index]

    def ticks(self) -> Iterator[tuple[float, Phase]]:
        """Yield ``(time_s, phase)`` once per emulated second.

        Tick times are exact integers — the counter is an int, so
        there is no float accumulation across phases. A phase whose
        predecessor ended mid-second starts at the next whole tick and
        still receives its full duration's worth of ticks (each
        phase's end is ``start_tick + duration_s``, one addition).
        """
        tick = 0
        for phase in self.phases:
            end = tick + phase.duration_s
            while tick < end - _TICK_EPS:
                yield float(tick), phase
                tick += 1

    def describe(self) -> list[str]:
        return [
            f"{phase.name}:{phase.duration_s:g}s"
            + ("+ctl" if phase.control_action is not None else "")
            for phase in self.phases
        ]


# ---------------------------------------------------------------------------
# Scenario library: named, string-seeded workload shapes
# ---------------------------------------------------------------------------


def _seeded_generator(name: str, seed: str, part: str):
    """A TrafficGenerator keyed by a string-hashed scenario seed."""
    import random

    from repro.traffic.generator import TrafficGenerator

    rng = random.Random(f"scenario:{name}:{seed}:{part}")
    return TrafficGenerator(seed=rng.randrange(2**31))


def _tenant_flows(tenant: int, count: int, dport: int = 80):
    """Deterministic, disjoint per-tenant flow blocks."""
    from repro.traffic.flows import synth_flow

    base = (tenant + 1) * 100_000
    return [synth_flow(base + i, dport=dport) for i in range(count)]


def rolling_update_action(
    entries_per_tick: int = 8,
    table: Optional[str] = None,
) -> ControlAction:
    """A control action that rides a rolling update storm.

    Each invocation replaces ``entries_per_tick`` existing entries of
    the target table (the most populated table when ``table`` is not
    given) in place: delete, then reinsert a clone. Every replacement
    is two control-plane updates, so the table's measured update rate
    climbs and covering caches are invalidated, while match semantics
    and table occupancy never change — and no match engine ever sees a
    duplicate key, so this is safe on exact, ternary and LPM tables
    alike. Because replaced entries re-enter at the back of the
    table's iteration order, successive ticks naturally rotate through
    the whole table.
    """

    def action(deployment, time_s: float) -> None:
        control_plane = getattr(
            deployment, "control_plane", deployment
        )
        snapshot = control_plane.snapshot()
        candidates = {
            name: entries
            for name, entries in snapshot.items()
            if entries and (table is None or name == table)
        }
        if not candidates:
            return
        target = max(candidates, key=lambda n: len(candidates[n]))
        from repro.errors import TableFullError

        for entry in candidates[target][:entries_per_tick]:
            control_plane.delete_entry(target, entry.entry_id)
            try:
                control_plane.insert_entry(target, entry.clone())
            except TableFullError:
                break

    return action


def diurnal_zipf(
    seed: str = "0",
    hours: int = 6,
    hour_s: float = 4.0,
    n_flows: int = 192,
) -> Scenario:
    """Zipf skew drifting through an emulated day.

    Traffic locality swings sinusoidally between near-uniform
    (overnight, cold caches) and heavily concentrated (peak hours, hot
    caches): the workload shift §5.3's periodic re-optimization is
    built to chase.
    """
    if hours < 1:
        raise ValueError("hours must be >= 1")
    from repro.traffic.flows import synth_flows

    flows = synth_flows(n_flows)
    scenario = Scenario(f"diurnal_zipf[{seed}]")
    for hour in range(hours):
        swing = math.sin(math.pi * hour / max(1, hours - 1))
        skew = round(0.4 + 1.2 * swing, 3)
        generator = _seeded_generator(
            "diurnal_zipf", seed, f"h{hour}"
        )

        def stream(n: int, g=generator, s=skew):
            return g.stream(flows, n, locality="zipf", zipf_skew=s)

        scenario.add_phase(f"h{hour:02d}(skew={skew})", hour_s, stream)
    return scenario


def flash_crowd(
    seed: str = "0",
    steady_s: float = 6.0,
    spike_s: float = 4.0,
    decay_s: float = 4.0,
    n_flows: int = 256,
    hot_flows: int = 8,
) -> Scenario:
    """A sudden crowd: uniform baseline, then 90% of traffic on a
    handful of flows, then a half-decayed tail."""
    from repro.traffic.flows import synth_flows

    flows = synth_flows(n_flows)
    hot = flows[:hot_flows]
    steady_gen = _seeded_generator("flash_crowd", seed, "steady")
    spike_gen = _seeded_generator("flash_crowd", seed, "spike")
    decay_gen = _seeded_generator("flash_crowd", seed, "decay")
    return (
        Scenario(f"flash_crowd[{seed}]")
        .add_phase(
            "steady", steady_s, lambda n: steady_gen.stream(flows, n)
        )
        .add_phase(
            "spike",
            spike_s,
            lambda n: spike_gen.mixed_stream(
                [(hot, 0.9), (flows, 0.1)], n
            ),
        )
        .add_phase(
            "decay",
            decay_s,
            lambda n: decay_gen.mixed_stream(
                [(hot, 0.45), (flows, 0.55)], n
            ),
        )
    )


def ddos_burst(
    seed: str = "0",
    pre_s: float = 5.0,
    attack_s: float = 5.0,
    post_s: float = 4.0,
    attack_drop_rate: float = 0.8,
) -> Scenario:
    """A drop-heavy attack burst between clean periods.

    Attack traffic rides the conventional deny port (6666, the port
    the example apps' ACL stages deny), so the drop rate the data
    plane observes tracks ``attack_drop_rate`` — the drop-rate shift
    that makes ACL reordering profitable mid-run.
    """
    from repro.traffic.generator import drop_rate_stream

    pre_gen = _seeded_generator("ddos_burst", seed, "pre")
    attack_gen = _seeded_generator("ddos_burst", seed, "attack")
    post_gen = _seeded_generator("ddos_burst", seed, "post")
    return (
        Scenario(f"ddos_burst[{seed}]")
        .add_phase(
            "pre",
            pre_s,
            lambda n: drop_rate_stream(pre_gen, n, 0.05),
        )
        .add_phase(
            "attack",
            attack_s,
            lambda n: drop_rate_stream(
                attack_gen, n, attack_drop_rate
            ),
        )
        .add_phase(
            "post",
            post_s,
            lambda n: drop_rate_stream(post_gen, n, 0.1),
        )
    )


def tenant_churn(
    seed: str = "0",
    tenants: int = 6,
    rounds: int = 3,
    round_s: float = 4.0,
    flows_per_tenant: int = 48,
    churn: bool = False,
) -> Scenario:
    """Hot tenants rotating round-robin across the fleet's flow space.

    Each round concentrates 70% of traffic on one tenant's flow block
    (string-seeded rotation order) with the rest spread across every
    tenant. ``churn=True`` additionally rides a
    :func:`rolling_update_action` on every odd round — tenant
    onboarding as control-plane churn, not just traffic drift.
    """
    import random

    if tenants < 1 or rounds < 1:
        raise ValueError("tenants and rounds must be >= 1")
    blocks = [
        _tenant_flows(tenant, flows_per_tenant)
        for tenant in range(tenants)
    ]
    everyone = [flow for block in blocks for flow in block]
    order = list(range(tenants))
    random.Random(f"scenario:tenant_churn:{seed}:order").shuffle(order)
    scenario = Scenario(f"tenant_churn[{seed}]")
    for round_index in range(rounds):
        hot = blocks[order[round_index % tenants]]
        generator = _seeded_generator(
            "tenant_churn", seed, f"r{round_index}"
        )

        def stream(n: int, g=generator, h=hot):
            return g.mixed_stream([(h, 0.7), (everyone, 0.3)], n)

        scenario.add_phase(
            f"tenant{order[round_index % tenants]}",
            round_s,
            stream,
            control_action=(
                rolling_update_action()
                if churn and round_index % 2 == 1
                else None
            ),
        )
    return scenario


def update_storm(
    seed: str = "0",
    calm_s: float = 4.0,
    storm_s: float = 6.0,
    settle_s: float = 4.0,
    n_flows: int = 192,
    entries_per_tick: int = 12,
) -> Scenario:
    """A rolling control-plane update storm under steady traffic.

    The storm phase re-installs and deletes entries every tick (see
    :func:`rolling_update_action`), driving the measured update rate
    through Equation 5's budget and thrashing any covering cache —
    the churn signal that makes the controller drop caches.
    """
    from repro.traffic.flows import synth_flows

    flows = synth_flows(n_flows)
    calm_gen = _seeded_generator("update_storm", seed, "calm")
    storm_gen = _seeded_generator("update_storm", seed, "storm")
    settle_gen = _seeded_generator("update_storm", seed, "settle")
    return (
        Scenario(f"update_storm[{seed}]")
        .add_phase(
            "calm",
            calm_s,
            lambda n: calm_gen.stream(
                flows, n, locality="zipf", zipf_skew=1.1
            ),
        )
        .add_phase(
            "storm",
            storm_s,
            lambda n: storm_gen.stream(
                flows, n, locality="zipf", zipf_skew=1.1
            ),
            control_action=rolling_update_action(
                entries_per_tick=entries_per_tick
            ),
        )
        .add_phase(
            "settle",
            settle_s,
            lambda n: settle_gen.stream(
                flows, n, locality="zipf", zipf_skew=1.1
            ),
        )
    )


#: Named builders the service's replay jobs resolve by name. Every
#: builder takes ``seed`` first plus shape keywords and returns a
#: deterministic :class:`Scenario`.
SCENARIO_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "diurnal_zipf": diurnal_zipf,
    "flash_crowd": flash_crowd,
    "ddos_burst": ddos_burst,
    "tenant_churn": tenant_churn,
    "update_storm": update_storm,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIO_BUILDERS)


def build_scenario(name: str, seed: str = "0", **kwargs) -> Scenario:
    """Resolve a library scenario by name (see :data:`SCENARIO_BUILDERS`)."""
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"Unknown scenario {name!r}; "
            f"expected one of {', '.join(scenario_names())}"
        ) from None
    return builder(seed=str(seed), **kwargs)
