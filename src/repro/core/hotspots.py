"""Hot pipelet detection (§4.1.2).

The cost of a pipelet is ``L(G') * P(G')`` — its expected latency as a
subgraph, weighted by the probability that a packet reaches it. Pipeleon
optimizes only the top-k such pipelets to keep runtime optimization
timely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.costmodel import CostModel
from repro.core.pipelets import Pipelet, pipelet_probability
from repro.core.profiling import RuntimeProfile, profile_entropy
from repro.ir.program import Program


@dataclass(frozen=True)
class PipeletCost:
    pipelet: Pipelet
    latency_ns: float  # L(G')
    probability: float  # P(G')

    @property
    def weighted_cost(self) -> float:
        return self.latency_ns * self.probability


def pipelet_latency(
    program: Program,
    pipelet: Pipelet,
    profile: RuntimeProfile,
    model: CostModel,
) -> float:
    """L(G') for a branch-free run: reach-weighted node costs.

    Traffic thins as it flows through dropping tables, so each table's
    cost is weighted by the survival probability of its predecessors.
    """
    survive = 1.0
    total = 0.0
    for name in pipelet.table_names:
        table = program.table(name)
        total += survive * model.node_cost(program, name, profile)
        survive *= 1.0 - profile.drop_rate(table)
    return total


def rank_pipelets(
    program: Program,
    pipelets: Sequence[Pipelet],
    profile: RuntimeProfile,
    model: CostModel,
    reach: Optional[dict[str, float]] = None,
) -> list[PipeletCost]:
    """All pipelets ranked by weighted cost, hottest first.

    ``reach`` is ``model.reach_probs(program, profile)`` when the caller
    already holds it (a search walks the graph once, not twice).
    """
    if reach is None:
        reach = model.reach_probs(program, profile)
    costs = [
        PipeletCost(
            pipelet=pipelet,
            latency_ns=pipelet_latency(program, pipelet, profile, model),
            probability=pipelet_probability(program, pipelet, reach),
        )
        for pipelet in pipelets
    ]
    costs.sort(key=lambda c: (-c.weighted_cost, c.pipelet.pipelet_id))
    return costs


def top_k(
    program: Program,
    pipelets: Sequence[Pipelet],
    profile: RuntimeProfile,
    model: CostModel,
    k: float = 0.2,
    reach: Optional[dict[str, float]] = None,
) -> list[PipeletCost]:
    """The top fraction ``k`` (0 < k <= 1) of pipelets by cost."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k must be in (0, 1], got {k}")
    ranked = rank_pipelets(program, pipelets, profile, model, reach)
    count = max(1, math.ceil(len(ranked) * k)) if ranked else 0
    return ranked[:count]


def traffic_entropy(
    program: Program,
    pipelets: Sequence[Pipelet],
    profile: RuntimeProfile,
    model: CostModel,
) -> float:
    """Entropy of the pipelet traffic distribution (Figure 18)."""
    reach = model.reach_probs(program, profile)
    return profile_entropy(
        pipelet_probability(program, p, reach) for p in pipelets
    )
