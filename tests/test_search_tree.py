"""The labelling prefix tree against the per-combination reference.

:func:`repro.core.search.local_candidates` walks each order's
labellings as one prefix tree, extending a shared prefix's state once.
:func:`reference_local_candidates` below is the loop it replaced: every
combination is priced from its first segment. The two must agree on
every candidate (not just the best few), on the number of combinations
evaluated, and the tree's segment steps must equal the number of
distinct valid prefixes — on shapes the golden apps never reach: the
Fig. 13 synthesized corpus, full enumeration up to
``FULL_ENUMERATION_LIMIT``, the curated labellings of longer runs,
merges that prune a subtree, and each technique turned off.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import CostModel, partition, uniform_profile
from repro.core.hotspots import pipelet_latency
from repro.core.pipelets import pipelet_probability
from repro.core.plan import Candidate, Segment
from repro.core.search import (
    _EMPTY_LAYOUT,
    FULL_ENUMERATION_LIMIT,
    SearchOptions,
    _candidate_orders,
    _extend,
    _labelling_tree,
    _SegmentPricer,
    _spans,
    enumerate_segmentations,
    local_candidates,
)
from repro.ir.actions import noop_action
from repro.ir.builder import ProgramBuilder
from repro.ir.tables import MatchType
from repro.nic.targets import BLUEFIELD2
from repro.synthesis import synthesize_corpus, synthesize_profile

MODEL = CostModel.for_target(BLUEFIELD2)


def reference_local_candidates(
    program, pipelet, profile, model, options, reach_p
):
    """Every (order, labelling) combination priced on its own.

    Returns (candidates, combos evaluated, distinct valid prefixes): a
    prefix is valid when none of its segments is an invalid merge, and
    the tree extends each valid prefix exactly once per order.
    """
    run = tuple(pipelet.table_names)
    baseline = pipelet_latency(program, pipelet, profile, model)
    if options.enable_reorder and len(run) > 1:
        tables = [program.table(name) for name in run]
        orders = _candidate_orders(tables, profile, options)
    else:
        orders = [run]
    labellings = [
        (_spans(labels), all(op == "none" for op, _n in labels))
        for labels in enumerate_segmentations(len(run), options)
    ]
    pricer = _SegmentPricer(program, profile, model, options)
    candidates = []
    evaluated = 0
    prefixes = set()
    for order in orders:
        for spans, all_none in labellings:
            state = _EMPTY_LAYOUT
            for depth, (op, start, end) in enumerate(spans):
                price = pricer.price(op, order[start:end])
                if price is None:
                    state = None
                    break
                prefixes.add((order, spans[: depth + 1]))
                state = _extend(
                    state, price, reach_p, profile.offered_pps, options
                )
            if order == run and all_none:
                continue  # the no-op
            evaluated += 1
            if state is None:
                continue
            gain = (baseline - state[0]) * reach_p
            if gain <= 0:
                continue
            candidates.append(
                Candidate(
                    pipelet_id=pipelet.pipelet_id,
                    run=run,
                    order=order,
                    segments=tuple(
                        Segment(op, order[start:end])
                        for op, start, end in spans
                    ),
                    gain_ns=gain,
                    memory_bytes=state[1],
                    update_pps=state[2],
                )
            )
    candidates.sort(
        key=lambda c: (-c.gain_ns, c.order != run, c.order)
    )
    return (
        candidates[: options.max_candidates_per_pipelet],
        evaluated,
        len(prefixes),
    )


def assert_agrees(
    program, profile, options, reach_p=None, model=MODEL
) -> int:
    """Tree == reference for every pipelet, with the default candidate
    cap, a cap that cuts through tied gains, and none; returns the
    segment steps taken."""
    reach = model.reach_probs(program, profile)
    steps = 0
    for pipelet in partition(program, max_len=options.max_pipelet_len):
        if pipelet.is_switch_case:
            continue
        p = (
            pipelet_probability(program, pipelet, reach)
            if reach_p is None
            else reach_p
        )
        for opts in (
            options,
            replace(options, max_candidates_per_pipelet=5),
            replace(options, max_candidates_per_pipelet=10**9),
        ):
            tree = local_candidates(program, pipelet, profile, model, opts, p)
            expected = reference_local_candidates(
                program, pipelet, profile, model, opts, p
            )
            assert tree == expected, pipelet.pipelet_id
        steps += tree[2]
    return steps


def single_run(length: int, seed: int, **kwargs):
    """A one-pipelet synthesized program of ``length`` tables with a
    synthesized profile (drops, entry counts, update rates)."""
    kwargs.setdefault("drop_table_fraction", 0.5)
    (program,) = synthesize_corpus(
        1,
        n_pipelets=1,
        pipelet_len_min=length,
        pipelet_len_max=length,
        base_seed=seed,
        **kwargs,
    )
    return program, synthesize_profile(program, seed=seed, hit_bias=0.8)


@pytest.mark.parametrize(
    "shape",
    [
        dict(n_pipelets=12, pipelet_len_min=2, pipelet_len_max=2),
        dict(n_pipelets=12, pipelet_len_min=3, pipelet_len_max=3),
        dict(n_pipelets=15, pipelet_len_min=3, pipelet_len_max=3),
    ],
    ids=["PN=12,PL=2", "PN=12,PL=3", "PN=15,PL=3"],
)
def test_fig13_corpus(shape):
    for i, program in enumerate(synthesize_corpus(2, base_seed=91, **shape)):
        profile = synthesize_profile(program, seed=500 + i)
        assert_agrees(program, profile, SearchOptions(k=1.0))


@pytest.mark.parametrize("length", range(1, FULL_ENUMERATION_LIMIT + 1))
def test_full_enumeration(length):
    program, profile = single_run(length, seed=length)
    options = SearchOptions(max_pipelet_len=length)
    assert assert_agrees(program, profile, options, reach_p=0.8) > 0


@pytest.mark.parametrize("length", [9, 10])
def test_curated_labellings(length):
    program, profile = single_run(length, seed=length)
    options = SearchOptions(max_pipelet_len=length)
    assert len(enumerate_segmentations(length, options)) < 20
    assert_agrees(program, profile, options, reach_p=0.8)


def test_invalid_merges_prune_their_subtree():
    """Ternary and LPM tables make some merges invalid: the tree skips
    everything below them, yet counts every combination."""
    program, profile = single_run(
        6, seed=3, ternary_fraction=0.4, lpm_fraction=0.2
    )
    options = SearchOptions(max_pipelet_len=6)
    steps = assert_agrees(program, profile, options, reach_p=0.8)
    (pipelet,) = partition(program, max_len=6)
    orders = _candidate_orders(
        [program.table(name) for name in pipelet.table_names],
        profile,
        options,
    )
    tree = _labelling_tree(6, True, True, 2)
    assert 0 < steps < len(orders) * len(tree.nodes)
    _cands, evaluated, _steps = local_candidates(
        program, pipelet, profile, MODEL, options, 0.8
    )
    assert evaluated == len(orders) * len(tree.leaves) - 1


@pytest.mark.parametrize(
    "disabled", ["enable_cache", "enable_merge", "enable_reorder"]
)
def test_technique_turned_off(disabled):
    program, profile = single_run(6, seed=11)
    options = SearchOptions(max_pipelet_len=6, **{disabled: False})
    assert_agrees(program, profile, options, reach_p=0.8)


def test_equal_gains_across_orders_keep_the_reference_order():
    """Identical tables price every order of a layout alike, so equal
    gains span orders: the current order first, then by order (named
    against the run's order, so that is not the enumeration's order)."""
    builder = ProgramBuilder("p")
    names = ["t3", "t1", "t2", "t0"]
    for name in names:
        builder.table(
            name,
            [(f"hdr.{name}", MatchType.TERNARY)],
            [noop_action(f"{name}_a0"), noop_action(f"{name}_a1")],
        )
    builder.chain(names)
    program = builder.build(root=names[0])
    profile = uniform_profile(program)
    options = SearchOptions(max_pipelet_len=4)
    assert_agrees(program, profile, options, reach_p=1.0)
    (pipelet,) = partition(program, max_len=4)
    candidates, _evaluated, _steps = local_candidates(
        program,
        pipelet,
        profile,
        MODEL,
        replace(options, max_candidates_per_pipelet=10**9),
        1.0,
    )
    orders_by_gain: dict[float, set] = {}
    for candidate in candidates:
        orders_by_gain.setdefault(candidate.gain_ns, set()).add(
            candidate.order
        )
    assert any(len(orders) > 1 for orders in orders_by_gain.values())


def test_the_no_op_is_never_a_candidate(monkeypatch):
    """The current order with every segment ``none`` is what is
    deployed, even where the baseline prices it higher than its
    segments do (as for a pipelet holding a native cache node)."""
    program, profile = single_run(4, seed=4)
    model = CostModel.for_target(BLUEFIELD2)
    node_cost = model.node_cost
    monkeypatch.setattr(
        model, "node_cost", lambda *args: node_cost(*args) + 1.0
    )
    options = SearchOptions(max_pipelet_len=4)
    assert_agrees(program, profile, options, reach_p=1.0, model=model)
    (pipelet,) = partition(program, max_len=4)
    candidates, _evaluated, _steps = local_candidates(
        program,
        pipelet,
        profile,
        model,
        replace(options, max_candidates_per_pipelet=10**9),
        1.0,
    )
    assert candidates and not any(c.is_noop for c in candidates)
    # Every other order's all-``none`` layout is a reorder: it stays.
    assert any(
        all(s.op == "none" for s in c.segments) for c in candidates
    )


def test_three_table_merges():
    program, profile = single_run(5, seed=5)
    options = SearchOptions(max_pipelet_len=5, merge_max_tables=3)
    assert_agrees(program, profile, options, reach_p=0.8)


def test_tree_spells_every_labelling_in_enumeration_order():
    for n in (1, 4, FULL_ENUMERATION_LIMIT, 10):
        options = SearchOptions()
        tree = _labelling_tree(n, True, True, 2)
        labellings = enumerate_segmentations(n, options)
        assert len(tree.leaves) == len(labellings)
        for li, labels in enumerate(labellings):
            assert tuple(
                tree.spans[span] for span in tree.paths[li]
            ) == _spans(labels)
            # The leaf's ancestry is the labelling's path.
            node, path = tree.leaves[li], []
            while node:
                parent, span = tree.nodes[node - 1]
                path.append(span)
                node = parent
            assert tuple(reversed(path)) == tree.paths[li]
        assert labellings[tree.no_op] == (("none", 1),) * n
