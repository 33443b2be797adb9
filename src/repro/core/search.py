"""The best-optimization search (§4.2, Figure 16).

Two steps, as in the paper:

1. **Local search** — for each top-k pipelet, enumerate all valid
   combinations of the three techniques: dependency-respecting table
   orders x segmentations of the ordered run into cache / merge / plain
   segments (merge and cache never touch the same table by construction:
   segments are disjoint). Each combination is priced with the cost
   model: performance gain, memory cost, entry-update cost.
2. **Global search** — a grouped knapsack over (memory, update-rate)
   budgets picks at most one combination per pipelet maximising total
   gain (the dynamic program of Figure 16, with capacities discretised
   onto a grid).
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.costmodel import CostModel
from repro.core.hotspots import pipelet_latency, top_k
from repro.core.pipelets import (
    Pipelet,
    PipeletGroup,
    find_groups,
    partition,
)
from repro.core.plan import (
    Candidate,
    OptimizationPlan,
    ResourceBudget,
    Segment,
)
from repro.core.profiling import RuntimeProfile
from repro.core.transform.reorder import drop_rate_order
from repro.errors import SearchError
from repro.ir.dependency import movable_to_front, valid_orders
from repro.ir.entries import ENTRY_OVERHEAD_BYTES, FIELD_BYTES
from repro.ir.program import Program
from repro.ir.tables import MatchType, TableKind, TableNode


@dataclass(frozen=True)
class SearchOptions:
    """Tuning knobs for the optimizer search."""

    k: float = 0.2  # top-k pipelet fraction (1.0 = exhaustive, ESearch)
    max_orders: int = 12  # reorderings considered per pipelet
    merge_max_tables: int = 2  # paper restricts merges to 2 tables
    cache_capacity: int = 4096
    cache_insertion_limit_pps: float = 10000.0
    default_hit_rate: float = 0.9
    #: Fraction of cache misses assumed to be *new* flows (insertion churn).
    flow_churn: float = 0.05
    #: Seconds of lost cache warmth per covered-table update: a cache
    #: whose covered tables are updated u times/s has its estimated hit
    #: rate divided by (1 + penalty * u) — the cache-invalidation
    #: problem of §3.2.2 made quantitative.
    invalidation_penalty_s: float = 0.5
    enable_reorder: bool = True
    enable_cache: bool = True
    enable_merge: bool = True
    enable_groups: bool = True
    max_candidates_per_pipelet: int = 128
    max_pipelet_len: int = 6
    memory_grid: int = 64
    update_grid: int = 32


# ---------------------------------------------------------------------------
# Segment enumeration
# ---------------------------------------------------------------------------


#: Run length beyond which full segmentation enumeration (O(3^n)) is
#: replaced with a curated candidate set.
FULL_ENUMERATION_LIMIT = 8


def _curated_segmentations(
    n: int, options: SearchOptions
) -> list[tuple[tuple[str, int], ...]]:
    """A small, high-value labelling set for long runs."""
    results: list[tuple[tuple[str, int], ...]] = [(("none", 1),) * n]
    if options.enable_cache:
        results.append((("cache", n),))  # one big cache
        half = n // 2
        results.append((("cache", half), ("cache", n - half)))
        # Cache only one half (the other half may churn or be cheap).
        results.append(
            (("cache", half),) + (("none", 1),) * (n - half)
        )
        results.append(
            (("none", 1),) * half + (("cache", n - half),)
        )
        for quarter in (n // 4,):
            if 0 < quarter < half:
                results.append(
                    (
                        ("cache", quarter),
                        ("cache", half - quarter),
                        ("cache", n - half),
                    )
                )
    if options.enable_merge and options.merge_max_tables >= 2:
        results.append((("merge", 2),) + (("none", 1),) * (n - 2))
        if n >= 4:
            results.append(
                (("merge", 2), ("merge", 2)) + (("none", 1),) * (n - 4)
            )
    return results


def enumerate_segmentations(
    n: int, options: SearchOptions
) -> list[tuple[tuple[str, int], ...]]:
    """All canonical labellings ((op, length), ...) covering n tables.

    Canonical means "none" segments have length 1 (so unlabelled runs
    have a unique representation). Merge segments respect
    ``merge_max_tables``. Beyond ``FULL_ENUMERATION_LIMIT`` tables the
    exponential enumeration is replaced with a curated set.
    """
    if n > FULL_ENUMERATION_LIMIT:
        return _curated_segmentations(n, options)
    results: list[tuple[tuple[str, int], ...]] = []

    def recurse(pos: int, acc: list[tuple[str, int]]) -> None:
        if pos == n:
            results.append(tuple(acc))
            return
        for length in range(1, n - pos + 1):
            ops = []
            # 'none' segments are canonically length 1, so a run of
            # unlabelled tables has exactly one representation.
            if length == 1:
                ops.append("none")
            if options.enable_cache:
                ops.append("cache")
            if (
                options.enable_merge
                and 2 <= length <= options.merge_max_tables
            ):
                ops.append("merge")
            for op in ops:
                acc.append((op, length))
                recurse(pos + length, acc)
                acc.pop()

    recurse(0, [])
    return results


def _spans(
    labels: tuple[tuple[str, int], ...]
) -> tuple[tuple[str, int, int], ...]:
    """A labelling as ``(op, start, end)`` slices of the ordered run."""
    spans = []
    position = 0
    for op, length in labels:
        spans.append((op, position, position + length))
        position += length
    return tuple(spans)


# ---------------------------------------------------------------------------
# Candidate evaluation (virtual pipelet pricing — no program construction)
# ---------------------------------------------------------------------------


def _entry_bytes(n_fields: int) -> float:
    return float(ENTRY_OVERHEAD_BYTES + FIELD_BYTES * max(1, n_fields))


@dataclass(frozen=True, slots=True)
class _SegmentPrice:
    """What one ``(op, tables)`` segment costs, wherever it sits.

    Everything here depends only on the segment and the profile; the
    survival probability of the segments before it and the pipelet's
    reach probability are applied by :func:`_extend`.
    """

    op: str
    #: P(a packet entering the segment leaves it undropped).
    survival: float
    #: ``none``: one ``(inner survival, table cost)`` term per table.
    none_terms: tuple[tuple[float, float], ...] = ()
    #: ``cache``/``merge``: latency per packet entering the segment.
    latency: float = 0.0
    memory: float = 0.0
    #: ``cache``: 1 - estimated hit rate (scales the insertion churn).
    miss_share: float = 0.0
    #: ``merge``: ``I(t_i) * prod_{j != i} N(t_j)`` per table (§3.2.3).
    update_terms: tuple[float, ...] = ()


class _SegmentPricer:
    """Prices segments once per (program, profile, model, options).

    One lives for one local search (or one candidate re-pricing), so
    nothing outlives the profile it read; the prices are keyed by
    ``(op, table names)`` (a :class:`Segment`'s fields, without building
    one per lookup) and never stored on a :class:`TableNode` (mutable).
    """

    def __init__(
        self,
        program: Program,
        profile: RuntimeProfile,
        model: CostModel,
        options: SearchOptions,
    ):
        self.program = program
        self.profile = profile
        self.model = model
        self.options = options
        self.prices: dict[
            tuple[str, tuple[str, ...]], Optional[_SegmentPrice]
        ] = {}
        #: name -> (table cost, action cost, 1 - drop rate): a table
        #: sits in many segments.
        self._tables: dict[str, tuple[float, float, float]] = {}

    def _table(self, table: TableNode) -> tuple[float, float, float]:
        numbers = self._tables.get(table.name)
        if numbers is None:
            model, profile = self.model, self.profile
            numbers = self._tables[table.name] = (
                model.table_cost(table, profile),
                model.action_cost(table, profile),
                1.0 - profile.drop_rate(table),
            )
        return numbers

    def price(
        self, op: str, names: tuple[str, ...]
    ) -> Optional[_SegmentPrice]:
        """The price of segment ``(op, names)``; None if it is an
        invalid merge."""
        key = (op, names)
        if key not in self.prices:
            self.prices[key] = self._price(op, names)
        return self.prices[key]

    def _price(
        self, op: str, names: tuple[str, ...]
    ) -> Optional[_SegmentPrice]:
        program, profile = self.program, self.profile
        options = self.options
        tables = [program.table(name) for name in names]
        numbers = [self._table(table) for table in tables]
        seg_survival = 1.0
        for _cost, _action, survival in numbers:
            seg_survival *= survival
        # Per-table (inner survival, table cost): the 'none' terms, and
        # the miss path of a cache or merge (covered tables run in full).
        terms = []
        inner = 1.0
        for cost, _action, survival in numbers:
            terms.append((inner, cost))
            inner *= survival
        if op == "none":
            return _SegmentPrice("none", seg_survival, tuple(terms))
        if op == "merge" and not all(
            key.match_type is MatchType.EXACT
            for table in tables
            for key in table.keys
        ):
            return None
        params = self.model.params_for(tables[0].pipeline)
        seg_action_cost = sum(action for _cost, action, _s in numbers)
        miss_cost = 0.0
        for inner, cost in terms:
            miss_cost += inner * cost
        n_fields = len({key.field for t in tables for key in t.keys})
        if op == "cache":
            update_sum = sum(profile.update_rate(t.name) for t in tables)
            hit = options.default_hit_rate / (
                1.0 + options.invalidation_penalty_s * update_sum
            )
            return _SegmentPrice(
                "cache",
                seg_survival,
                latency=(
                    params.lmat_ns
                    + hit * seg_action_cost
                    + (1.0 - hit) * (miss_cost + params.insert_ns)
                ),
                memory=options.cache_capacity * _entry_bytes(n_fields),
                miss_share=1.0 - hit,
            )
        hit = 1.0
        for table in tables:
            hit *= profile.hit_prob(table)
        entries = [max(1, profile.entry_count(t.name)) for t in tables]
        entry_product = 1.0
        for count in entries:
            entry_product *= count
        update_terms = []
        for i, table in enumerate(tables):
            others = 1.0
            for j, count in enumerate(entries):
                if j != i:
                    others *= count
            update_terms.append(profile.update_rate(table.name) * others)
        return _SegmentPrice(
            "merge",
            seg_survival,
            latency=(
                params.lmat_ns
                + hit * seg_action_cost
                + (1.0 - hit) * miss_cost
            ),
            memory=entry_product * _entry_bytes(n_fields),
            update_terms=tuple(update_terms),
        )


#: ``(latency, memory, update rate, survival)`` of a layout with no
#: segment yet: where every pipelet layout's pricing starts.
_EMPTY_LAYOUT = (0.0, 0.0, 0.0, 1.0)


def _extend(
    state: tuple[float, float, float, float],
    price: _SegmentPrice,
    reach_p: float,
    offered_pps: float,
    options: SearchOptions,
) -> tuple[float, float, float, float]:
    """A layout's ``(latency, memory, update rate, survival)`` with one
    more segment appended.

    The one definition of the per-segment arithmetic: a layout is
    priced by folding this over its segments from
    :data:`_EMPTY_LAYOUT`, so layouts sharing a prefix share its state
    to the last bit.
    """
    latency, memory, update, survive = state
    op = price.op
    if op == "none":
        for inner, cost in price.none_terms:
            latency += survive * inner * cost
    else:
        latency += survive * price.latency
        memory += price.memory
        if op == "cache":
            miss_pps = reach_p * survive * price.miss_share
            update += min(
                options.cache_insertion_limit_pps,
                miss_pps * offered_pps * options.flow_churn,
            )
        else:
            for term in price.update_terms:
                update += term
    return latency, memory, update, survive * price.survival


@dataclass(frozen=True)
class _LabellingTree:
    """Every labelling of an n-table run as one prefix tree.

    Node ``i + 1`` extends node ``nodes[i][0]`` (node 0 is the root, the
    empty layout) by the span ``spans[nodes[i][1]]``, so a parent comes
    before its children. Labelling ``li`` (in
    :func:`enumerate_segmentations` order) ends at node ``leaves[li]``
    through the spans ``paths[li]``. Nothing here depends on a program
    or a profile.
    """

    spans: tuple[tuple[str, int, int], ...]
    nodes: tuple[tuple[int, int], ...]
    leaves: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    #: The all-``none`` labelling: the no-op in the current order.
    no_op: int


@functools.lru_cache(maxsize=64)
def _labelling_tree(
    n: int, enable_cache: bool, enable_merge: bool, merge_max_tables: int
) -> _LabellingTree:
    """The prefix tree of ``enumerate_segmentations(n, ...)``, keyed by
    the only option fields that shape it (a replan that adapts
    ``default_hit_rate`` builds fresh options but reuses the tree)."""
    labellings = enumerate_segmentations(
        n,
        SearchOptions(
            enable_cache=enable_cache,
            enable_merge=enable_merge,
            merge_max_tables=merge_max_tables,
        ),
    )
    span_ids: dict[tuple[str, int, int], int] = {}
    child_of: dict[tuple[int, int], int] = {}
    nodes: list[tuple[int, int]] = []
    leaves = []
    paths = []
    for labels in labellings:
        node = 0
        path = []
        for span in _spans(labels):
            span_id = span_ids.setdefault(span, len(span_ids))
            path.append(span_id)
            child = child_of.get((node, span_id))
            if child is None:
                nodes.append((node, span_id))
                child = child_of[node, span_id] = len(nodes)
            node = child
        leaves.append(node)
        paths.append(tuple(path))
    return _LabellingTree(
        tuple(span_ids),
        tuple(nodes),
        tuple(leaves),
        tuple(paths),
        labellings.index((("none", 1),) * n),
    )


def _candidate_orders(
    tables: Sequence[TableNode],
    profile: RuntimeProfile,
    options: SearchOptions,
) -> list[tuple[str, ...]]:
    """Orders worth evaluating for a run.

    Always contains the identity and the paper's drop-rate-greedy order
    (§3.2.1: promote tables with higher dropping rates), plus per-table
    hoists and — for short runs — a slice of the full valid-order
    enumeration.
    """
    identity = tuple(t.name for t in tables)
    orders: list[tuple[str, ...]] = [identity]

    def add(order: Optional[tuple[str, ...]]) -> None:
        if order is not None and order not in orders:
            orders.append(order)

    add(drop_rate_order(tables, profile))
    droppers = sorted(
        (t for t in tables if profile.drop_rate(t) > 0),
        key=lambda t: -profile.drop_rate(t),
    )
    for table in droppers[:3]:
        add(movable_to_front(tables, table.name))
    if len(tables) <= 7:
        for order in valid_orders(tables, options.max_orders):
            if len(orders) >= options.max_orders:
                break
            add(order)
    return orders[: options.max_orders]


def local_candidates(
    program: Program,
    pipelet: Pipelet,
    profile: RuntimeProfile,
    model: CostModel,
    options: SearchOptions,
    reach_p: float,
) -> tuple[list[Candidate], int, int]:
    """All priced optimization combinations for one pipelet.

    Each candidate order walks the labelling prefix tree once: a node's
    state is its parent's extended by one segment (:func:`_extend`), so
    a prefix many labellings share is priced once, and an invalid merge
    prunes its whole subtree. Only the best
    ``max_candidates_per_pipelet`` become :class:`Candidate` objects.

    Returns (candidates sorted by gain, combos evaluated, segment steps
    taken).
    """
    run = tuple(pipelet.table_names)
    baseline = pipelet_latency(program, pipelet, profile, model)
    if options.enable_reorder and len(run) > 1:
        tables = [program.table(name) for name in run]
        orders = _candidate_orders(tables, profile, options)
    else:
        orders = [run]
    tree = _labelling_tree(
        len(run),
        options.enable_cache,
        options.enable_merge,
        options.merge_max_tables,
    )
    pricer = _SegmentPricer(program, profile, model, options)
    offered_pps = profile.offered_pps
    # Equal gains rank the current order first, then by order, then by
    # labelling: (order != run, order) is distinct per order, so this
    # rank and the labelling index break every tie.
    by_rank = sorted(orders, key=lambda order: (order != run, order))
    ranked = []
    evaluated = steps = 0
    for rank, order in enumerate(by_rank):
        prices = [
            pricer.price(op, order[start:end])
            for op, start, end in tree.spans
        ]
        states: list = [_EMPTY_LAYOUT]
        for parent, span in tree.nodes:
            state = states[parent]
            price = prices[span]
            states.append(
                None
                if state is None or price is None
                else _extend(state, price, reach_p, offered_pps, options)
            )
        steps += len(states) - 1 - states.count(None)
        evaluated += len(tree.leaves)
        if order == run:
            states[tree.leaves[tree.no_op]] = None  # the no-op
            evaluated -= 1
        for li, state in enumerate([states[node] for node in tree.leaves]):
            if state is None:
                continue
            gain = (baseline - state[0]) * reach_p
            if gain <= 0:
                continue
            ranked.append((-gain, rank, li, state))
    candidates = []
    for neg_gain, rank, li, state in heapq.nsmallest(
        options.max_candidates_per_pipelet, ranked
    ):
        order = by_rank[rank]
        candidates.append(
            Candidate(
                pipelet_id=pipelet.pipelet_id,
                run=run,
                order=order,
                segments=tuple(
                    Segment(op, order[start:end])
                    for op, start, end in (
                        tree.spans[span] for span in tree.paths[li]
                    )
                ),
                gain_ns=-neg_gain,
                memory_bytes=state[1],
                update_pps=state[2],
            )
        )
    return candidates, evaluated, steps


#: Local searches a :class:`SearchMemo` keeps, least recently used out.
SEARCH_MEMO_CAPACITY = 16


class SearchMemo(OrderedDict):
    """Local searches keyed by all that :func:`local_candidates` reads.

    Tables are mutable, so the key stamps what the search reads of
    them; the cost model is keyed by identity, so a model must not be
    edited once searched with. A hit is a cold search field for field:
    its frozen candidates sit in a tuple no caller can write back into.
    A bounded LRU; a run with a table that is not plain (priced from
    other nodes) is searched cold and not kept.
    """

    def search(
        self,
        program: Program,
        pipelet: Pipelet,
        profile: RuntimeProfile,
        model: CostModel,
        options: SearchOptions,
        reach_p: float,
    ) -> tuple[tuple[Candidate, ...], int, int, bool]:
        """:func:`local_candidates` through the memo, and whether it hit."""
        tables = pipelet.tables(program)
        key = None
        if all(t.kind is TableKind.PLAIN for t in tables):
            key = (
                pipelet.pipelet_id,
                pipelet.table_names,
                tuple(
                    (
                        t.keys,
                        tuple(t.actions.items()),
                        t.default_action,
                        t.pipeline,
                        t.memory_tier,
                        tuple(profile.action_probs.get(t.name, {}).items()),
                        profile.entry_counts.get(t.name),
                        profile.update_rates.get(t.name),
                        profile.table_m.get(t.name),
                    )
                    for t in tables
                ),
                profile.offered_pps,
                options,
                reach_p,
                model,
            )
            # A fresh memo (a cold search's) has nothing to look up.
            found = self.get(key) if self else None
            if found is not None:
                self.move_to_end(key)
                return found + (True,)
        cands, evaluated, walked = local_candidates(
            program, pipelet, profile, model, options, reach_p
        )
        found = (tuple(cands), evaluated, walked)
        if key is not None:
            self[key] = found
            if len(self) > SEARCH_MEMO_CAPACITY:
                self.popitem(last=False)
        return found + (False,)


def group_candidates(
    program: Program,
    group: PipeletGroup,
    profile: RuntimeProfile,
    model: CostModel,
    options: SearchOptions,
    reach_p: float,
) -> list[Candidate]:
    """Cache-the-diamond candidates for a pipelet group (§4.1.1)."""
    if not options.enable_cache:
        return []
    branch = program.node(group.branch)
    p_true = profile.branch_prob(group.branch)
    weighted_members = list(
        zip(group.members, (p_true, 1.0 - p_true))
    )
    if group.join is not None:
        weighted_members.append((group.join, 1.0))
    base = model.branch_cost(branch)
    for member, weight in weighted_members:
        base += weight * pipelet_latency(
            program, member, profile, model
        )
    update_sum = sum(
        profile.update_rate(name) for name in group.table_names()
    )
    hit = options.default_hit_rate / (
        1.0 + options.invalidation_penalty_s * update_sum
    )
    action_cost = 0.0
    for member, weight in weighted_members:
        action_cost += weight * sum(
            model.action_cost(program.table(name), profile)
            for name in member.table_names
        )
    params = model.params_for(branch.pipeline)
    optimized = (
        params.lmat_ns
        + hit * action_cost
        + (1.0 - hit) * (base + params.insert_ns)
    )
    gain = (base - optimized) * reach_p
    if gain <= 0:
        return []
    all_tables = group.table_names()
    n_fields = len(
        {
            f
            for name in all_tables
            for f in program.table(name).match_fields
        }
        | branch.read_fields()
    )
    memory = options.cache_capacity * _entry_bytes(n_fields)
    update = min(
        options.cache_insertion_limit_pps,
        reach_p
        * (1.0 - hit)
        * profile.offered_pps
        * options.flow_churn,
    )
    return [
        Candidate(
            pipelet_id=group.group_id,
            run=all_tables,
            order=all_tables,
            segments=(Segment("cache", all_tables),),
            gain_ns=gain,
            memory_bytes=memory,
            update_pps=update,
            group=group,
        )
    ]


# ---------------------------------------------------------------------------
# Global search: grouped knapsack (Figure 16)
# ---------------------------------------------------------------------------


def global_search(
    candidates_by_pipelet: dict[str, list[Candidate]],
    budget: ResourceBudget,
    options: SearchOptions,
) -> list[Candidate]:
    """Pick at most one candidate per pipelet within the budgets."""
    groups = [c for c in candidates_by_pipelet.values() if c]
    if not groups:
        return []
    if not budget.bounded:
        return [
            max(group, key=lambda c: c.gain_ns) for group in groups
        ]

    memory_units = options.memory_grid
    update_units = options.update_grid
    memory_unit = (
        budget.memory_bytes / memory_units
        if math.isfinite(budget.memory_bytes)
        else None
    )
    update_unit = (
        budget.update_pps / update_units
        if math.isfinite(budget.update_pps)
        else None
    )

    def mem_cost(candidate: Candidate) -> int:
        if memory_unit is None:
            return 0
        if memory_unit == 0:
            # Zero budget: anything that consumes memory is infeasible.
            return 0 if candidate.memory_bytes <= 0 else memory_units + 1
        return math.ceil(candidate.memory_bytes / memory_unit)

    def upd_cost(candidate: Candidate) -> int:
        if update_unit is None:
            return 0
        if update_unit == 0:
            return 0 if candidate.update_pps <= 0 else update_units + 1
        return math.ceil(candidate.update_pps / update_unit)

    m_dim = memory_units + 1 if memory_unit is not None else 1
    e_dim = update_units + 1 if update_unit is not None else 1

    # gain[m][e], choice[m][e] per group layer (classic grouped knapsack:
    # each layer reads the previous layer's table).
    gains = [[0.0] * e_dim for _ in range(m_dim)]
    choices: list[list[list[Optional[Candidate]]]] = []

    for group in groups:
        previous = [row[:] for row in gains]
        layer: list[list[Optional[Candidate]]] = [
            [None] * e_dim for _ in range(m_dim)
        ]
        for m in range(m_dim):
            for e in range(e_dim):
                best_gain = previous[m][e]
                best_choice: Optional[Candidate] = None
                for candidate in group:
                    cm = mem_cost(candidate)
                    ce = upd_cost(candidate)
                    if cm > m or ce > e:
                        continue
                    gain = previous[m - cm][e - ce] + candidate.gain_ns
                    if gain > best_gain:
                        best_gain = gain
                        best_choice = candidate
                gains[m][e] = best_gain
                layer[m][e] = best_choice
        choices.append(layer)

    # Backtrack from the full budget cell.
    selected: list[Candidate] = []
    m, e = m_dim - 1, e_dim - 1
    for layer in reversed(choices):
        chosen = layer[m][e]
        if chosen is not None:
            selected.append(chosen)
            m -= mem_cost(chosen)
            e -= upd_cost(chosen)
    selected.reverse()
    return selected


# ---------------------------------------------------------------------------
# End-to-end optimization
# ---------------------------------------------------------------------------


def optimize(
    program: Program,
    profile: RuntimeProfile,
    model: CostModel,
    budget: Optional[ResourceBudget] = None,
    options: Optional[SearchOptions] = None,
    pipelets: Optional[Sequence[Pipelet]] = None,
    memo: Optional[SearchMemo] = None,
) -> OptimizationPlan:
    """Full Pipeleon search: partition, top-k, local + global search.

    ``memo`` answers each hot pipelet's local search it has seen; it is
    fresh per call by default, and the controller keeps one for life.
    """
    memo = SearchMemo() if memo is None else memo
    budget = budget or ResourceBudget()
    options = options or SearchOptions()
    started = time.perf_counter()
    if pipelets is None:
        pipelets = partition(program, max_len=options.max_pipelet_len)
    reach = model.reach_probs(program, profile)
    hot = top_k(program, pipelets, profile, model, k=options.k, reach=reach)
    candidates_by_pipelet: dict[str, list[Candidate]] = {}
    combos = steps = hits = misses = 0
    hot_pipelets = [cost.pipelet for cost in hot]
    # Per-pipelet local search first.
    for cost in hot:
        pipelet = cost.pipelet
        if pipelet.is_switch_case:
            continue  # single special table; nothing to transform
        cands, evaluated, walked, hit = memo.search(
            program, pipelet, profile, model, options, cost.probability
        )
        hits += hit
        misses += not hit
        combos += evaluated
        steps += walked
        if cands:
            candidates_by_pipelet[pipelet.pipelet_id] = list(cands)
    # Cross-pipelet groups: a group cache replaces its members'
    # individual optimizations, so adopt it only when it beats their
    # combined best gain (otherwise keep the per-pipelet candidates).
    if options.enable_groups:
        for group in find_groups(program, hot_pipelets):
            reach_p = reach.get(group.branch, 0.0)
            group_cands = group_candidates(
                program, group, profile, model, options, reach_p
            )
            combos += len(group_cands)
            if not group_cands:
                continue
            member_ids = [m.pipelet_id for m in group.members]
            if group.join is not None:
                member_ids.append(group.join.pipelet_id)
            member_best = sum(
                candidates_by_pipelet[mid][0].gain_ns
                for mid in member_ids
                if mid in candidates_by_pipelet
            )
            if group_cands[0].gain_ns > member_best:
                candidates_by_pipelet[group.group_id] = group_cands
                for mid in member_ids:
                    candidates_by_pipelet.pop(mid, None)
    selected = global_search(candidates_by_pipelet, budget, options)
    elapsed = time.perf_counter() - started
    return OptimizationPlan(
        candidates=selected,
        search_time_s=elapsed,
        pipelets_considered=len(hot),
        combos_evaluated=combos,
        segment_steps=steps,
        search_memo_hits=hits,
        search_memo_misses=misses,
    )


def evaluate_candidate_gain(
    program: Program,
    candidate: Candidate,
    profile: RuntimeProfile,
    model: CostModel,
    options: SearchOptions,
    reach_probs: Optional[dict[str, float]] = None,
) -> float:
    """Re-price an existing candidate under a (newer) profile.

    Used by the controller to decide whether a freshly-searched plan is
    genuinely better than the deployed one or just noise.
    """
    if candidate.group is not None:
        reach = reach_probs or model.reach_probs(program, profile)
        fresh = group_candidates(
            program,
            candidate.group,
            profile,
            model,
            options,
            reach.get(candidate.group.branch, 0.0),
        )
        return fresh[0].gain_ns if fresh else 0.0
    run = candidate.run
    if any(name not in program.nodes for name in run):
        return 0.0
    pipelet = Pipelet(
        pipelet_id=candidate.pipelet_id,
        table_names=tuple(run),
        entry=run[0],
        exit_next=None,
    )
    baseline = pipelet_latency(program, pipelet, profile, model)
    pricer = _SegmentPricer(program, profile, model, options)
    state = _EMPTY_LAYOUT
    for segment in candidate.segments:
        price = pricer.price(segment.op, segment.tables)
        if price is None:
            return 0.0
        state = _extend(state, price, 1.0, profile.offered_pps, options)
    reach = reach_probs or model.reach_probs(program, profile)
    reach_p = reach.get(run[0], 0.0)
    return (baseline - state[0]) * reach_p


def evaluate_plan_gain(
    program: Program,
    plan: OptimizationPlan,
    profile: RuntimeProfile,
    model: CostModel,
    options: SearchOptions,
) -> float:
    """Total gain of an existing plan under the given profile."""
    reach = model.reach_probs(program, profile)
    return sum(
        evaluate_candidate_gain(
            program, candidate, profile, model, options, reach
        )
        for candidate in plan.candidates
    )


def exhaustive_search(
    program: Program,
    profile: RuntimeProfile,
    model: CostModel,
    budget: Optional[ResourceBudget] = None,
    options: Optional[SearchOptions] = None,
) -> OptimizationPlan:
    """ESearch baseline: the same machinery at k = 100%."""
    options = options or SearchOptions()
    return optimize(
        program,
        profile,
        model,
        budget,
        replace(options, k=1.0),
    )
