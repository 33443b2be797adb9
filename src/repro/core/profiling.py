"""Runtime profiles: what Pipeleon knows about the live workload.

A :class:`RuntimeProfile` captures everything §3.1's cost model needs:
per-table action probabilities (hence drop rates), branch probabilities,
entry counts and measured ``m`` values, entry-update rates, and cache hit
rates. Profiles are always expressed against the *original* program;
:class:`CounterMap` translates counters read from the optimized program
back to original-program coordinates (§4.1.2's "counter map").
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Mapping, Optional

from repro.ir.entries import (
    distinct_masks,
    distinct_prefix_lengths,
)
from repro.ir.program import Program
from repro.ir.tables import MatchType, TableKind, TableNode
from repro.nic.counters import CounterKey

#: Default ``m`` assumed per match type before any entries are observed
#: (the paper measured with 3 LPM prefixes and 5 ternary masks).
DEFAULT_M: Mapping[MatchType, int] = {
    MatchType.EXACT: 1,
    MatchType.LPM: 3,
    MatchType.TERNARY: 5,
    MatchType.RANGE: 4,
}


@dataclass
class RuntimeProfile:
    """Workload knowledge used by the cost model and the optimizer."""

    action_probs: dict[str, dict[str, float]] = field(default_factory=dict)
    branch_probs: dict[str, float] = field(default_factory=dict)
    entry_counts: dict[str, int] = field(default_factory=dict)
    update_rates: dict[str, float] = field(default_factory=dict)
    table_m: dict[str, int] = field(default_factory=dict)
    cache_hit_rates: dict[str, float] = field(default_factory=dict)
    #: Offered load estimate, used to bound cache-insertion overheads.
    offered_pps: float = 1e6

    # -- reads with sensible defaults ---------------------------------------

    def action_prob(self, table: TableNode, action_name: str) -> float:
        probs = self.action_probs.get(table.name)
        if probs is None or not probs:
            return 1.0 / max(1, len(table.actions))
        return probs.get(action_name, 0.0)

    def branch_prob(self, conditional_name: str) -> float:
        return self.branch_probs.get(conditional_name, 0.5)

    def drop_rate(self, table: TableNode) -> float:
        """P(packet dropped | packet reaches the table)."""
        return sum(
            self.action_prob(table, name)
            for name, action in table.actions.items()
            if action.drops
        )

    def hit_prob(self, table: TableNode) -> float:
        """P(an installed entry matched) = 1 - P(default action).

        Used to estimate merged-table hit rates (all covered tables must
        hit for the merged cross-product entry to exist).
        """
        return max(
            0.0, 1.0 - self.action_prob(table, table.default_action)
        )

    def m_for(self, table: TableNode) -> int:
        measured = self.table_m.get(table.name)
        if measured is not None:
            return measured
        return DEFAULT_M[table.worst_match_type]

    def entry_count(self, table_name: str) -> int:
        return self.entry_counts.get(table_name, 0)

    def update_rate(self, table_name: str) -> float:
        return self.update_rates.get(table_name, 0.0)

    def cache_hit_rate(self, cache_name: str, default: float) -> float:
        return self.cache_hit_rates.get(cache_name, default)

    # -- mutation helpers -----------------------------------------------------

    def copy(self) -> "RuntimeProfile":
        return replace(self, **asdict(self))  # every map copied

    def set_action_probs(
        self, table_name: str, probs: Mapping[str, float]
    ) -> None:
        total = sum(probs.values())
        if total <= 0:
            raise ValueError(
                f"Action probabilities for {table_name!r} sum to 0"
            )
        self.action_probs[table_name] = {
            name: p / total for name, p in probs.items()
        }

    def distance(self, other: "RuntimeProfile") -> float:
        """L1-style drift between two profiles (re-optimization trigger)."""
        drift = 0.0
        tables = set(self.action_probs) | set(other.action_probs)
        for table in tables:
            mine = self.action_probs.get(table, {})
            theirs = other.action_probs.get(table, {})
            for action in set(mine) | set(theirs):
                drift += abs(
                    mine.get(action, 0.0) - theirs.get(action, 0.0)
                )
        branches = set(self.branch_probs) | set(other.branch_probs)
        for branch in branches:
            drift += abs(
                self.branch_probs.get(branch, 0.5)
                - other.branch_probs.get(branch, 0.5)
            )
        return drift


def uniform_profile(program: Program, **overrides: object) -> RuntimeProfile:
    """A neutral profile: uniform actions, 50/50 branches, empty tables."""
    profile = RuntimeProfile()
    for table in program.tables():
        if table.kind is not TableKind.PLAIN:
            continue
        n = max(1, len(table.actions))
        profile.action_probs[table.name] = {
            name: 1.0 / n for name in table.actions
        }
    for conditional in program.conditionals():
        profile.branch_probs[conditional.name] = 0.5
    for key, value in overrides.items():
        setattr(profile, key, value)
    return profile


# ---------------------------------------------------------------------------
# Counter translation
# ---------------------------------------------------------------------------


class CounterMap:
    """Maps optimized-program counters back to original-program counters.

    ``mapping[optimized_key] = [(original_key, weight), ...]``; counters
    absent from the mapping translate as identity. Weights support merged
    tables where one composite-action counter contributes to several
    original action counters.
    """

    def __init__(self) -> None:
        self.mapping: dict[
            CounterKey, list[tuple[CounterKey, float]]
        ] = {}

    def map_counter(
        self,
        optimized: CounterKey,
        originals: Iterable[tuple[CounterKey, float]],
    ) -> None:
        self.mapping[optimized] = list(originals)

    def drop_counter(self, optimized: CounterKey) -> None:
        """Exclude an optimized counter from translation entirely."""
        self.mapping[optimized] = []

    def translate(
        self, snapshot: Mapping[CounterKey, int]
    ) -> dict[CounterKey, float]:
        translated: dict[CounterKey, float] = {}
        for key, count in snapshot.items():
            targets = self.mapping.get(key)
            if targets is None:
                translated[key] = translated.get(key, 0.0) + count
                continue
            for original, weight in targets:
                translated[original] = (
                    translated.get(original, 0.0) + count * weight
                )
        return translated

    def merge(self, other: "CounterMap") -> None:
        self.mapping.update(other.mapping)


# ---------------------------------------------------------------------------
# Profile collection
# ---------------------------------------------------------------------------


def profile_from_counts(
    program: Program,
    counts: Mapping[CounterKey, float],
    offered_pps: float = 1e6,
) -> RuntimeProfile:
    """Build probabilities from (translated) counter readings."""
    profile = RuntimeProfile(offered_pps=offered_pps)
    per_table: dict[str, dict[str, float]] = {}
    per_branch: dict[str, dict[str, float]] = {}
    for key, count in counts.items():
        if key[0] == "action":
            _, table, action = key
            per_table.setdefault(table, {})[action] = (
                per_table.get(table, {}).get(action, 0.0) + count
            )
        elif key[0] == "branch":
            _, cond, leg = key
            per_branch.setdefault(cond, {})[leg] = (
                per_branch.get(cond, {}).get(leg, 0.0) + count
            )
        elif key[0] == "cache":
            _, cache, leg = key
            bucket = per_branch.setdefault(f"__cache__{cache}", {})
            bucket[leg] = bucket.get(leg, 0.0) + count

    # Zero-total records (keys present, all counts 0 — e.g. a snapshot
    # taken before traffic) keep their keys at probability 0.0.
    for table_name, action_counts in per_table.items():
        if table_name not in program.nodes:
            continue
        total = sum(action_counts.values())
        if total > 0:
            profile.action_probs[table_name] = {
                a: c / total for a, c in action_counts.items()
            }
        else:
            profile.action_probs[table_name] = {
                a: 0.0 for a in action_counts
            }
    for cond_name, legs in per_branch.items():
        if cond_name.startswith("__cache__"):
            cache = cond_name[len("__cache__"):]
            total = legs.get("hit", 0.0) + legs.get("miss", 0.0)
            profile.cache_hit_rates[cache] = (
                legs.get("hit", 0.0) / total if total > 0 else 0.0
            )
            continue
        total = legs.get("true", 0.0) + legs.get("false", 0.0)
        profile.branch_probs[cond_name] = (
            legs.get("true", 0.0) / total if total > 0 else 0.0
        )
    return profile


def measure_table_m(
    node: TableNode, entries: list
) -> int:
    """Derive the probe count ``m`` from a table's installed entries."""
    if not entries:
        return DEFAULT_M[node.worst_match_type]
    worst = node.worst_match_type
    if worst is MatchType.EXACT:
        return 1
    if worst is MatchType.LPM:
        return distinct_prefix_lengths(entries)
    if worst is MatchType.TERNARY:
        return distinct_masks(entries)
    return min(8, max(1, len(entries)))


def collect_profile(
    original_program: Program,
    counter_snapshot: Mapping[CounterKey, int],
    counter_map: Optional[CounterMap] = None,
    control_plane: Optional[object] = None,
    cache_hit_rates: Optional[Mapping[str, float]] = None,
    update_window_s: float = 10.0,
    offered_pps: float = 1e6,
) -> RuntimeProfile:
    """Assemble a full profile from live deployment state.

    ``control_plane`` duck-types :class:`repro.nic.ControlPlane` (shadow
    entries, update rates); ``cache_hit_rates`` come from the emulator's
    flow-cache stats keyed by cache-node name.
    """
    counts = (
        counter_map.translate(counter_snapshot)
        if counter_map is not None
        else dict(counter_snapshot)
    )
    profile = profile_from_counts(
        original_program, counts, offered_pps=offered_pps
    )
    if control_plane is not None:
        snapshot = control_plane.snapshot()
        for table_name, entries in snapshot.items():
            if table_name not in original_program.nodes:
                continue
            node = original_program.table(table_name)
            profile.entry_counts[table_name] = len(entries)
            profile.table_m[table_name] = measure_table_m(node, entries)
        profile.update_rates = control_plane.update_rates(
            window_s=update_window_s
        )
    if cache_hit_rates:
        profile.cache_hit_rates.update(cache_hit_rates)
    return profile


def profile_to_json(profile: RuntimeProfile) -> dict:
    """Serializable snapshot of a profile (CLI persistence): every
    field, its maps copied."""
    return asdict(profile)


def profile_from_json(data: Mapping) -> RuntimeProfile:
    """Inverse of :func:`profile_to_json` (unknown keys — the
    ``*_support`` maps older files carry — are ignored)."""
    return RuntimeProfile(
        action_probs={
            str(t): {str(a): float(v) for a, v in probs.items()}
            for t, probs in data.get("action_probs", {}).items()
        },
        branch_probs={
            str(c): float(v)
            for c, v in data.get("branch_probs", {}).items()
        },
        entry_counts={
            str(t): int(v)
            for t, v in data.get("entry_counts", {}).items()
        },
        update_rates={
            str(t): float(v)
            for t, v in data.get("update_rates", {}).items()
        },
        table_m={
            str(t): int(v) for t, v in data.get("table_m", {}).items()
        },
        cache_hit_rates={
            str(c): float(v)
            for c, v in data.get("cache_hit_rates", {}).items()
        },
        offered_pps=float(data.get("offered_pps", 1e6)),
    )


def profile_entropy(pipelet_probs: Iterable[float]) -> float:
    """Shannon entropy of the pipelet traffic distribution (§5.4.3).

    Probabilities are normalised first; zero-probability pipelets
    contribute nothing.
    """
    probs = [p for p in pipelet_probs if p > 0]
    total = sum(probs)
    if total <= 0:
        return 0.0
    normalised = [p / total for p in probs]
    return -sum(p * math.log2(p) for p in normalised)
