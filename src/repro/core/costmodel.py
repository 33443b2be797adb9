"""The approximate P4 performance model (§3.1).

Implements Equations 1-4 of the paper:

    L(G)      = sum over paths pi of P(pi) * L(pi)
    L(pi)     = sum of node costs along the path
    L(table)  = Lmatch + Laction
    Lmatch    = m * Lmat              (Equation 4a)
    Laction   = sum_a P(a) * n_a * Lact   (Equation 4b)

Rather than enumerating paths (exponential), :meth:`CostModel.expected_latency`
propagates reach probabilities through the DAG and sums
``P(reach v) * cost(v)`` — algebraically identical for additive costs.
The model also prices Pipeleon's special nodes (flow caches, merged
tables, navigation/migration) so optimization candidates can be compared,
and answers the memory/update-rate questions of the search constraints
(Equation 5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

from repro.ir.conditionals import ConditionalNode
from repro.ir.entries import ENTRY_OVERHEAD_BYTES, FIELD_BYTES
from repro.ir.program import Program
from repro.ir.tables import (
    MatchType,
    MemoryTier,
    Pipeline,
    TableKind,
    TableNode,
)
from repro.core.profiling import RuntimeProfile
from repro.nic.targets import CoreModel, TargetModel

_UNIT = {t: 1.0 for t in MatchType}


@dataclass(frozen=True)
class CostParams:
    """Cost constants for one core type, as fitted by calibration."""

    lmat_ns: float = 36.0
    lact_ns: float = 4.0
    branch_ns: float = 2.0
    counter_ns: float = 0.0
    insert_ns: float = 0.0  # cache-insertion datapath cost
    match_multiplier: Mapping[MatchType, float] = field(
        default_factory=lambda: dict(_UNIT)
    )
    tier_multiplier: Mapping[MemoryTier, float] = field(
        default_factory=lambda: {
            MemoryTier.EMEM: 1.0,
            MemoryTier.IMEM: 0.5,
            MemoryTier.LMEM: 0.25,
        }
    )
    use_entry_m: bool = True

    @classmethod
    def from_core(
        cls, core: CoreModel, include_counters: bool = False
    ) -> "CostParams":
        return cls(
            lmat_ns=core.lookup_ns,
            lact_ns=core.action_ns,
            branch_ns=core.branch_ns,
            counter_ns=core.counter_update_ns if include_counters else 0.0,
            insert_ns=core.table_insert_ns,
            match_multiplier=dict(core.match_multiplier),
            tier_multiplier=dict(core.tier_multiplier),
            use_entry_m=core.use_entry_m,
        )


class CostModel:
    """Prices programs under a profile; target-independent methodology."""

    def __init__(
        self,
        params: Optional[CostParams] = None,
        cpu_params: Optional[CostParams] = None,
    ):
        self.params = params or CostParams()
        self.cpu_params = cpu_params or self.params
        #: Extra cost charged whenever execution crosses pipelines.
        self.migration_ns: float = 0.0

    @classmethod
    def for_target(
        cls,
        target: TargetModel,
        include_counters: bool = False,
    ) -> "CostModel":
        asic = (
            CostParams.from_core(target.asic, include_counters)
            if target.asic
            else None
        )
        cpu = (
            CostParams.from_core(target.cpu, include_counters)
            if target.cpu
            else None
        )
        model = cls(asic or cpu, cpu or asic)
        model.migration_ns = target.migration_ns
        return model

    def params_for(self, pipeline: Pipeline) -> CostParams:
        return self.params if pipeline is Pipeline.ASIC else self.cpu_params

    # -- per-node pricing -------------------------------------------------------

    def match_cost(
        self, table: TableNode, profile: RuntimeProfile
    ) -> float:
        """Equation 4a: ``m * Lmat`` with target match-type policy."""
        params = self.params_for(table.pipeline)
        match_type = table.worst_match_type
        multiplier = params.match_multiplier.get(match_type, 1.0)
        tier = params.tier_multiplier.get(table.memory_tier, 1.0)
        m = profile.m_for(table) if params.use_entry_m else 1
        return params.lmat_ns * multiplier * max(1, m) * tier

    def action_cost(
        self, table: TableNode, profile: RuntimeProfile
    ) -> float:
        """Equation 4b: probability-weighted primitive count."""
        params = self.params_for(table.pipeline)
        return sum(
            profile.action_prob(table, name) * action.primitive_count
            for name, action in table.actions.items()
        ) * params.lact_ns

    def table_cost(
        self, table: TableNode, profile: RuntimeProfile
    ) -> float:
        params = self.params_for(table.pipeline)
        return (
            self.match_cost(table, profile)
            + self.action_cost(table, profile)
            + params.counter_ns
        )

    def branch_cost(self, node: ConditionalNode) -> float:
        params = self.params_for(node.pipeline)
        return params.branch_ns + params.counter_ns

    def cache_node_cost(
        self,
        program: Program,
        cache: TableNode,
        profile: RuntimeProfile,
    ) -> float:
        """Flow cache: one exact lookup plus replayed effects on a hit."""
        info = cache.cache_info
        params = self.params_for(cache.pipeline)
        assert info is not None
        hit_rate = profile.cache_hit_rate(
            cache.name, info.estimated_hit_rate
        )
        replay = sum(
            self.action_cost(program.table(covered), profile)
            for covered in info.covers
            if covered in program.nodes
        )
        # Misses re-install entries, consuming insertion bandwidth.
        miss_insert = (1.0 - hit_rate) * params.insert_ns
        return (
            params.lmat_ns
            + hit_rate * replay
            + miss_insert
            + params.counter_ns
        )

    def merged_node_cost(
        self,
        program: Program,
        merged: TableNode,
        profile: RuntimeProfile,
    ) -> float:
        """Merged exact cache: one lookup plus combined actions on hit."""
        info = merged.cache_info
        params = self.params_for(merged.pipeline)
        hit_rate = self._merged_hit_rate(program, merged, profile)
        combined = 0.0
        if info is not None:
            combined = sum(
                self.action_cost(program.table(covered), profile)
                for covered in info.covers
                if covered in program.nodes
            )
        return (
            params.lmat_ns + hit_rate * combined + params.counter_ns
        )

    def _merged_hit_rate(
        self,
        program: Program,
        merged: TableNode,
        profile: RuntimeProfile,
    ) -> float:
        measured = profile.cache_hit_rates.get(merged.name)
        if measured is not None:
            return measured
        info = merged.cache_info
        if info is None:
            return 1.0
        hit = 1.0
        for covered in info.covers:
            if covered in program.nodes:
                hit *= profile.hit_prob(program.table(covered))
        return hit

    def node_cost(
        self, program: Program, name: str, profile: RuntimeProfile
    ) -> float:
        node = program.node(name)
        if isinstance(node, ConditionalNode):
            return self.branch_cost(node)
        if node.kind is TableKind.CACHE and node.cache_info:
            if node.cache_info.mode == "flow":
                return self.cache_node_cost(program, node, profile)
            return self.merged_node_cost(program, node, profile)
        if node.kind is TableKind.MERGED:
            return self.merged_node_cost(program, node, profile)
        if node.kind is TableKind.NAVIGATION:
            return self.params_for(node.pipeline).lmat_ns
        if node.kind is TableKind.MIGRATION:
            return self.params_for(node.pipeline).lact_ns
        return self.table_cost(node, profile)

    # -- reach probabilities --------------------------------------------------------

    def reach_probs(
        self, program: Program, profile: RuntimeProfile
    ) -> dict[str, float]:
        """P(a packet reaches each node), accounting for drops."""
        probs: dict[str, float] = {name: 0.0 for name in program.nodes}
        if program.root is None:
            return probs
        probs[program.root] = 1.0
        for name in program.topological_order():
            p = probs.get(name, 0.0)
            if p <= 0:
                continue
            node = program.node(name)
            for succ, weight in self._out_distribution(
                program, node, profile
            ):
                if succ is not None and succ in probs:
                    probs[succ] += p * weight
        return probs

    def _out_distribution(
        self, program: Program, node, profile: RuntimeProfile
    ) -> list[tuple[Optional[str], float]]:
        """(next_node, probability) pairs; dropped mass goes nowhere."""
        if isinstance(node, ConditionalNode):
            p_true = profile.branch_prob(node.name)
            return [
                (node.true_next, p_true),
                (node.false_next, 1.0 - p_true),
            ]
        table: TableNode = node
        info = table.cache_info
        if table.kind is TableKind.CACHE and info and info.mode == "flow":
            hit = profile.cache_hit_rate(
                table.name, info.estimated_hit_rate
            )
            survive = self._covers_survival(program, info, profile)
            return [
                (info.hit_next, hit * survive),
                (info.miss_next, 1.0 - hit),
            ]
        if table.kind is TableKind.MERGED or (
            table.kind is TableKind.CACHE and info and info.mode == "merge"
        ):
            hit = self._merged_hit_rate(program, table, profile)
            survive = self._covers_survival(program, info, profile)
            return [
                (info.hit_next if info else None, hit * survive),
                (info.miss_next if info else None, 1.0 - hit),
            ]
        if table.kind in (TableKind.NAVIGATION, TableKind.MIGRATION):
            # A navigation jump resolves dynamically; treat its static
            # next as the common case.
            return [(table.next_map[table.default_action], 1.0)]
        out: dict[Optional[str], float] = {}
        for action_name, action in table.actions.items():
            p = profile.action_prob(table, action_name)
            if action.drops:
                continue
            succ = table.next_map[action_name]
            out[succ] = out.get(succ, 0.0) + p
        return list(out.items())

    def _covers_survival(
        self, program: Program, info, profile: RuntimeProfile
    ) -> float:
        """P(not dropped | cache hit): covered tables may have cached a drop."""
        if info is None:
            return 1.0
        survive = 1.0
        for covered in info.covers:
            if covered in program.nodes:
                survive *= 1.0 - profile.drop_rate(
                    program.table(covered)
                )
        return survive

    # -- program-level quantities ---------------------------------------------------

    def expected_latency(
        self,
        program: Program,
        profile: RuntimeProfile,
        include_migration: bool = True,
    ) -> float:
        """Equation 1: expected per-packet latency in ns."""
        probs = self.reach_probs(program, profile)
        total = 0.0
        for name, p in probs.items():
            if p <= 0:
                continue
            total += p * self.node_cost(program, name, profile)
        if include_migration and self.migration_ns > 0:
            total += self.migration_ns * self._expected_migrations(
                program, profile, probs
            )
        return total

    def _expected_migrations(
        self,
        program: Program,
        profile: RuntimeProfile,
        probs: dict[str, float],
    ) -> float:
        expected = 0.0
        for name, p in probs.items():
            if p <= 0:
                continue
            node = program.node(name)
            for succ, weight in self._out_distribution(
                program, node, profile
            ):
                if succ is None or succ not in program.nodes:
                    continue
                if program.node(succ).pipeline is not node.pipeline:
                    expected += p * weight
        return expected

    # -- resource accounting (Equation 5 inputs) ----------------------------------------

    def entry_bytes(self, table: TableNode) -> int:
        return ENTRY_OVERHEAD_BYTES + FIELD_BYTES * max(
            1, len(table.keys)
        )

    def table_memory_bytes(
        self, table: TableNode, profile: RuntimeProfile
    ) -> float:
        """M(v): entries x entry size x m (the paper's approximation)."""
        if table.kind is TableKind.CACHE and table.cache_info:
            # Reserved budget: capacity, not current occupancy.
            return float(
                table.cache_info.capacity * self.entry_bytes(table)
            )
        count = profile.entry_count(table.name)
        m = profile.m_for(table) if self.params.use_entry_m else 1
        return float(count * self.entry_bytes(table) * m)

    def program_memory_bytes(
        self, program: Program, profile: RuntimeProfile
    ) -> float:
        return sum(
            self.table_memory_bytes(t, profile) for t in program.tables()
        )

    def predict(
        self,
        program: Program,
        profile: RuntimeProfile,
        plan=None,
    ) -> "CostPrediction":
        """All three Equation 5 quantities for one deployed config.

        The design-space-exploration harness records this next to the
        measured telemetry of the same cell, so predicted-vs-measured
        ranking reports come from one call site. ``plan`` (when given)
        supplies the control-update demand its caches/merges impose;
        without one the deployment makes no optimizer-driven updates.
        """
        return CostPrediction(
            latency_ns=self.expected_latency(program, profile),
            memory_bytes=self.program_memory_bytes(program, profile),
            update_pps=(
                float(plan.total_update_pps) if plan is not None else 0.0
            ),
        )


@dataclass(frozen=True)
class CostPrediction:
    """The model's answer for one configuration (Equations 1 and 5)."""

    latency_ns: float
    memory_bytes: float
    update_pps: float

    def to_json(self) -> dict:
        return asdict(self)
