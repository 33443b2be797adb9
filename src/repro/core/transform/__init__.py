"""Pipeleon's program transformations (§3.2)."""

from repro.core.transform.base import (
    TransformResult,
    action_arity,
    composite_action,
    require_linear_run,
    union_match_fields,
)
from repro.core.transform.cache import (
    apply_cache,
    apply_group_cache,
    cache_name_for,
)
from repro.core.transform.copy import apply_copies, apply_copy
from repro.core.transform.merge import (
    apply_merge,
    apply_naive_merge,
    merged_cache_entries,
    merged_name_for,
    naive_merged_entries,
)
from repro.core.transform.partition import (
    apply_partition,
    count_crossings,
    migration_name,
    navigation_name,
)
from repro.core.transform.reorder import apply_reorder, drop_rate_order

__all__ = [
    "TransformResult",
    "action_arity",
    "apply_cache",
    "apply_copies",
    "apply_copy",
    "apply_group_cache",
    "apply_merge",
    "apply_naive_merge",
    "apply_partition",
    "apply_reorder",
    "cache_name_for",
    "composite_action",
    "count_crossings",
    "drop_rate_order",
    "merged_cache_entries",
    "merged_name_for",
    "migration_name",
    "naive_merged_entries",
    "navigation_name",
    "require_linear_run",
    "union_match_fields",
]
