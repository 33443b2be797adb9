"""Pipeleon core: cost model, pipelets, transforms, search, runtime."""

from repro.core.calibration import (
    CalibrationPoint,
    FittedModel,
    calibrate,
    fit,
    measure_throughput,
    run_suite,
    validate,
)
from repro.core.controller import (
    ControllerOptions,
    PipeleonController,
    TimePoint,
    plan_signature,
)
from repro.core.costmodel import CostModel, CostParams
from repro.core.deployment import Deployment
from repro.core.hotspots import (
    PipeletCost,
    pipelet_latency,
    rank_pipelets,
    top_k,
    traffic_entropy,
)
from repro.core.pipelets import (
    Pipelet,
    PipeletGroup,
    find_groups,
    partition,
)
from repro.core.pipeleon import Pipeleon
from repro.core.placement import (
    PlacementPlan,
    TierBudget,
    apply_placement,
    plan_placement,
    placement_within_budget,
)
from repro.core.plan import (
    Candidate,
    OptimizationPlan,
    ResourceBudget,
    Segment,
    apply_plan,
)
from repro.core.profiling import (
    CounterMap,
    RuntimeProfile,
    collect_profile,
    profile_entropy,
    profile_from_counts,
    profile_from_json,
    profile_to_json,
    uniform_profile,
)
from repro.core.search import (
    SearchOptions,
    enumerate_segmentations,
    exhaustive_search,
    global_search,
    local_candidates,
    optimize,
)

__all__ = [
    "CalibrationPoint",
    "Candidate",
    "ControllerOptions",
    "CostModel",
    "CostParams",
    "CounterMap",
    "Deployment",
    "FittedModel",
    "OptimizationPlan",
    "PlacementPlan",
    "Pipelet",
    "PipeletCost",
    "PipeletGroup",
    "Pipeleon",
    "PipeleonController",
    "ResourceBudget",
    "RuntimeProfile",
    "SearchOptions",
    "Segment",
    "TimePoint",
    "TierBudget",
    "apply_placement",
    "apply_plan",
    "calibrate",
    "collect_profile",
    "enumerate_segmentations",
    "exhaustive_search",
    "find_groups",
    "fit",
    "global_search",
    "local_candidates",
    "measure_throughput",
    "optimize",
    "partition",
    "pipelet_latency",
    "placement_within_budget",
    "plan_placement",
    "plan_signature",
    "profile_entropy",
    "profile_from_counts",
    "profile_from_json",
    "profile_to_json",
    "rank_pipelets",
    "run_suite",
    "top_k",
    "traffic_entropy",
    "uniform_profile",
    "validate",
]
