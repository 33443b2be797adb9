"""Differential tests for the specialised cache step.

A cache step finds a known flow's key row, and the slot the row was
last found in, in its key memo (``repro.nic.columnar._KeyMemo``); a
step whose insertion limiter can admit no insert is read-only: present
keys hit, absent keys are rejected misses booked at once, and nothing
is simulated (``FlowCache.insert_bound``, ``FlowCache.reject``). Every
case replays one flow set's stream through an interpreter twin and an
``auto`` twin and asks for identical per-packet outcomes, stats,
counters, cache contents in LRU order, ``CacheStats`` and token-bucket
floats.

The program corners the step:

* ``pre`` writes ``hdr.a``, a match field of the cache, so in the
  guarded variant a packet's key need not be its flow's row;
* the cache covers ``t1`` and ``t2``, and entry edits on them between
  replays invalidate it (every memoised slot goes stale at once);
* ``t2`` ages ``ipv4.ttl``, and a flow at the int64 edge overflows,
  which demotes its packet mid-batch and re-walks the rest;
* small capacities evict between and within batches, and the clock
  stands still, advances per packet, or follows timestamps, with a
  bucket that is off, dry, partly spent or refilling mid-step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nic.columnar as columnar
from repro.core import Deployment
from repro.core.transform.cache import apply_cache
from repro.ir.actions import Action, Param, drop_action, noop_action, prim
from repro.ir.builder import ProgramBuilder
from repro.ir.entries import exact_entry
from repro.nic.flow_cache import FlowCache, TokenBucket
from repro.nic.stats import RunStats
from repro.nic.targets import AGILIO_CX, BLUEFIELD2
from repro.service.session import stats_payload
from repro.telemetry import MetricsRegistry, export_emulator
from repro.traffic.flows import FlowSpec
from repro.traffic.generator import TrafficGenerator
from tests.test_column_source import batches

I64_MIN = -(2**63)
KEYS = range(6)
CACHE = "cache__t1__t2"


def build_program(guarded: bool, capacity: int, limit: float):
    """``[pre ->] t1 -> t2`` with a flow cache over ``t1, t2``."""
    builder = ProgramBuilder("cache_memo")
    if guarded:
        builder.table(
            "pre",
            ["hdr.m"],
            [
                Action("rewrite", (prim("set_field", "hdr.a", Param(0)),)),
                noop_action("pre_pass"),
            ],
            default_action="pre_pass",
            next_node="t1",
        )
    builder.table(
        "t1",
        ["hdr.a"],
        [
            Action(
                "mark",
                (
                    prim("set_field", "hdr.c", Param(0)),
                    prim("forward", Param(1)),
                ),
            ),
            drop_action("t1_drop"),
            noop_action("t1_pass"),
        ],
        default_action="t1_pass",
        next_node="t2",
    )
    builder.table(
        "t2",
        ["hdr.b"],
        [
            Action("age", (prim("add_to_field", "ipv4.ttl", Param(0)),)),
            noop_action("t2_pass"),
        ],
        default_action="t2_pass",
    )
    return apply_cache(
        builder.build(root="pre" if guarded else "t1"),
        ["t1", "t2"],
        capacity=capacity,
        insertion_limit_pps=limit,
        name=CACHE,
    ).program


def flow(i: int, a: int, b: int, m: int = 0, ttl: int = 64) -> FlowSpec:
    return FlowSpec(
        src=i + 1,
        dst=100 + i,
        extra=(
            ("hdr.m", m),
            ("hdr.a", a),
            ("hdr.b", b),
            ("hdr.c", 0),
            ("ipv4.ttl", ttl),
        ),
    )


def action_for(table: str):
    if table == "pre":
        return st.tuples(st.just("rewrite"), st.tuples(st.sampled_from(KEYS)))
    if table == "t1":
        return st.one_of(
            st.tuples(
                st.just("mark"),
                st.tuples(st.integers(0, 9), st.integers(0, 3)),
            ),
            st.just(("t1_drop", ())),
        )
    return st.tuples(st.just("age"), st.tuples(st.sampled_from([-1, 1])))


@st.composite
def entry(draw, tables=("pre", "t1", "t2")):
    table = draw(st.sampled_from(tables))
    name, data = draw(action_for(table))
    return table, draw(st.sampled_from(KEYS)), name, data


class Installed:
    """The entries every twin holds, as shared ``TableEntry`` objects,
    so each edit names the same entry id everywhere."""

    def __init__(self, deployments):
        self.deployments = deployments
        self.by_key: dict = {}

    def apply(self, kind: str, spec) -> None:
        """Insert a key not held yet; delete or modify a held one (an
        op on any other key does nothing)."""
        table, key, name, data = spec
        held = self.by_key.pop((table, key), None)
        new = exact_entry(key, name, data)
        if (kind == "insert") != (held is None):
            if held is not None:
                self.by_key[table, key] = held
            return
        for deployment in self.deployments:
            if kind == "insert":
                deployment.insert_entry(table, new)
            elif kind == "delete":
                deployment.delete_entry(table, held.entry_id)
            else:
                deployment.modify_entry(table, held.entry_id, new)
        if kind != "delete":
            self.by_key[table, key] = new


#: Off, dry from the start, a small burst, a refilling one.
BUCKETS = [None, (50.0, 0.5), (50.0, 1.0), (50.0, 3.0), (2000.0, 4.0)]


@st.composite
def scenarios(draw):
    n_flows = draw(st.integers(1, 30))
    flows = [
        flow(
            i,
            draw(st.sampled_from(KEYS)),
            draw(st.sampled_from(KEYS)),
            draw(st.sampled_from(KEYS)),
            draw(st.sampled_from([64, 64, 64, I64_MIN])),
        )
        for i in range(n_flows)
    ]
    return {
        "guarded": draw(st.booleans()),
        "capacity": draw(st.integers(1, 12)),
        "bucket": draw(st.sampled_from(BUCKETS)),
        "flows": flows,
        "entries": draw(st.lists(entry(), min_size=1, max_size=8)),
        # Interpreted first: spends part or all of the burst.
        "warm": draw(st.integers(0, 40)),
        # Static, a packet rate, or gaps between timestamps.
        "clock": draw(
            st.one_of(
                st.just(None),
                st.tuples(st.just("pps"), st.sampled_from([100.0, 5e4])),
                st.tuples(
                    st.just("ts"), st.sampled_from([0.0, 0.001, 0.02])
                ),
            )
        ),
        # Replays over the one flow set, each after its edits.
        "replays": draw(
            st.lists(
                st.tuples(
                    st.lists(
                        st.tuples(
                            st.sampled_from(["insert", "delete", "modify"]),
                            entry(("t1", "t2")),
                        ),
                        max_size=2,
                    ),
                    st.integers(1, 80),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        "batch": draw(st.sampled_from([7, 32, 4096])),
        "seed": draw(st.integers(0, 2**16)),
    }


# -- driving ---------------------------------------------------------------


class Clock:
    """One scenario clock, for both twins: the timestamps of the next
    ``n`` packets (None: the clock stands still). Each replay's packet
    ``k`` runs ``k`` steps after the last one's end, a step being
    ``1 / pps`` or the given interval, as a paced replay clocks it."""

    def __init__(self, spec):
        self.spec = spec
        self.at = 0.0

    def next(self, n: int):
        if self.spec is None:
            return None
        kind, value = self.spec
        step = 1.0 / value if kind == "pps" else value
        times = [self.at + step * (i + 1) for i in range(n)]
        self.at = times[-1]
        return times


def replay_interp(deployment, packets, times):
    """One ``process`` per packet: ``(stats, outcome columns)``."""
    emulator = deployment.emulator
    clock = emulator.clock
    stats = RunStats()
    latencies, dropped, egress = [], [], []
    for i, packet in enumerate(packets):
        if times is not None:
            clock.now_s = times[i]
        result = emulator.process(packet)
        stats.record(result, packet.size_bytes)
        latencies.append(result.latency_ns)
        dropped.append(result.dropped)
        egress.append(-1 if result.egress_port is None else result.egress_port)
    return stats, [np.array(latencies), np.array(dropped), np.array(egress)]


def replay_auto(deployment, stream, batch, times):
    """``auto`` on the stream's own batches (flow set attached)."""
    emulator = deployment.emulator
    stats = RunStats()
    columns = []
    done = 0
    for chunk in batches(stream, batch):
        n = len(chunk) if isinstance(chunk, list) else chunk.n
        outcome = emulator.replay_batch(
            chunk,
            stats,
            timestamps=None if times is None else times[done : done + n],
            engine="auto",
        )
        done += n
        columns.append((outcome.latencies, outcome.dropped, outcome.egress))
    return stats, [np.concatenate(c) for c in zip(*columns)]


def cache_state(cache: FlowCache) -> tuple:
    limiter = cache._limiter
    return (
        list(cache.items()),
        cache.stats,
        None if limiter is None else (limiter._tokens, limiter._last),
    )


def assert_twins_agree(interp, auto, expect, got) -> None:
    (expect_stats, expect_columns), (stats, columns) = expect, got
    for want, have in zip(expect_columns, columns):
        np.testing.assert_array_equal(have, want)
    assert stats_payload(stats)["fingerprint"] == (
        stats_payload(expect_stats)["fingerprint"]
    )
    one, two = interp.emulator, auto.emulator
    assert one.counters.snapshot() == two.counters.snapshot()
    assert one.explicit_counters == two.explicit_counters
    for name, cache in one.flow_caches.items():
        assert cache_state(cache) == cache_state(two.flow_caches[name])
    if one.native_cache is not None:
        assert cache_state(one.native_cache) == cache_state(
            two.native_cache
        )


def assert_memo_counts_every_arrival(emulator) -> None:
    for name, arrived in emulator.columnar_cache_arrivals.items():
        assert arrived == sum(
            counts.get(name, 0)
            for counts in (
                emulator.columnar_memo_hits,
                emulator.columnar_memo_misses,
                emulator.columnar_memo_guard_failures,
            )
        ), name


def twins(case, target=BLUEFIELD2, native_cache=False):
    deployments = [
        Deployment(
            build_program(case["guarded"], case["capacity"], 10_000.0),
            target,
            native_cache=native_cache,
        )
        for _ in range(2)
    ]
    installed = Installed(deployments)
    for spec in case["entries"]:
        if spec[0] != "pre" or case["guarded"]:
            installed.apply("insert", spec)
    for deployment in deployments:
        cache = deployment.emulator.flow_caches[CACHE]
        bucket = case["bucket"]
        cache._limiter = None if bucket is None else TokenBucket(*bucket)
    return deployments, installed


def run_case(case, target=BLUEFIELD2, native_cache=False, prepare=None):
    (interp, auto), installed = twins(case, target, native_cache)
    if prepare is not None:
        for deployment in (interp, auto):
            prepare(deployment)
    warm = [case["flows"][i % len(case["flows"])] for i in range(case["warm"])]
    for deployment in (interp, auto):
        for spec in warm:
            deployment.emulator.process(spec.packet())
    clock = Clock(case["clock"])
    generators = [TrafficGenerator(case["seed"]) for _ in range(2)]
    for edits, packets in case["replays"]:
        for kind, spec in edits:
            installed.apply(kind, spec)
        times = clock.next(packets)
        one, two = (
            g.stream(case["flows"], packets, locality="zipf")
            for g in generators
        )
        expect = replay_interp(interp, list(one), times)
        got = replay_auto(auto, two, case["batch"], times)
        assert_twins_agree(interp, auto, expect, got)
    assert_memo_counts_every_arrival(auto.emulator)
    return interp, auto


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=scenarios())
def test_cache_step_matches_the_interpreter(case):
    run_case(case)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=scenarios())
def test_native_cache_matches_the_interpreter(case):
    """The Agilio whole-program cache, small enough to evict, in front
    of the flow cache: the same step serves both, keyed by the
    five-tuple."""

    def small_native_cache(deployment):
        deployment.emulator.native_cache = FlowCache(capacity=5)

    run_case(case, AGILIO_CX, native_cache=True, prepare=small_native_cache)


# -- the regimes, one by one ---------------------------------------------


def regime(bucket, clock=None, capacity=8, guarded=False, warm=0, **more):
    flows = [flow(i, i % 6, (i // 6) % 6) for i in range(24)]
    case = {
        "guarded": guarded,
        "capacity": capacity,
        "bucket": bucket,
        "flows": flows,
        "entries": [("t1", k, "mark", (k, k % 4)) for k in KEYS]
        + [("t2", k, "age", (-1,)) for k in KEYS],
        "warm": warm,
        "clock": clock,
        "replays": [((), 600), ((), 600)],
        "batch": 256,
        "seed": 7,
    }
    case.update(more)
    return case


def test_a_drained_limiter_at_a_static_clock_replays_nothing(monkeypatch):
    """The burst is spent during warm-up and the clock stands still:
    every later step is read-only — misses are rejected in bulk and no
    packet enters the ordered replay."""

    def poisoned(*args):  # pragma: no cover - must not run
        raise AssertionError("a read-only step simulated")

    monkeypatch.setattr(columnar, "_simulate", poisoned)
    interp, auto = run_case(regime((50.0, 2.0), warm=48))
    stats = auto.emulator.flow_caches[CACHE].stats
    assert stats.insertions == 2
    assert stats.rejected_insertions > 500
    assert auto.emulator.columnar_cache_replayed == {}
    assert auto.emulator.columnar_demotions == {}


@pytest.mark.parametrize(
    "clock", [("pps", 100.0), ("ts", 0.005)], ids=["pps", "timestamps"]
)
def test_tokens_crossing_one_mid_step_take_the_simulation(clock):
    """A dry bucket that refills half a token per packet: inserts are
    admitted mid-step, so the step must simulate."""
    interp, auto = run_case(regime((50.0, 1.0), clock, warm=24))
    stats = auto.emulator.flow_caches[CACHE].stats
    assert stats.insertions > 20 and stats.rejected_insertions > 20
    assert auto.emulator.columnar_cache_replayed[CACHE] > 0


def test_a_partly_spent_burst_then_a_dry_one():
    """Three tokens left for the first step, none after it."""
    interp, auto = run_case(regime((50.0, 3.0)))
    stats = auto.emulator.flow_caches[CACHE].stats
    assert stats.insertions == 3
    assert stats.rejected_insertions > 500


def test_invalidation_and_evictions_between_batches_stale_the_memo():
    """An entry edit on a covered table empties the cache between two
    replays, and a 16-slot cache under 24 keys evicts within each: the
    memoised slots must be re-asked, not trusted."""
    case = regime(
        None,
        capacity=16,
        replays=[
            ((), 400),
            ((("modify", ("t1", 0, "mark", (9, 1))),), 600),
            ((("delete", ("t2", 1, "age", (-1,))),), 600),
        ],
    )
    interp, auto = run_case(case)
    stats = auto.emulator.flow_caches[CACHE].stats
    assert stats.invalidations == 2 and stats.evictions > 20
    assert auto.emulator.columnar_memo_hits[CACHE] > 0
    assert auto.emulator.columnar_memo_misses[CACHE] > 0


def test_a_demotion_mid_batch_is_rewalked():
    """Flow 5's ttl overflows in ``t2``: its packets demote one by one,
    and the rest of each batch is walked again from the cache as the
    demoted packet left it, on both the read-only and the simulating
    path."""
    flows = [
        flow(i, i % 6, i % 6, ttl=I64_MIN if i == 5 else 64)
        for i in range(12)
    ]
    for bucket in (None, (50.0, 1.0)):
        case = regime(bucket, capacity=4, flows=flows, batch=64)
        interp, auto = run_case(case)
        assert auto.emulator.columnar_demotions.get("unsupported", 0) > 0


def test_guard_failures_fall_back_and_are_counted():
    """``pre`` rewrites ``hdr.a`` for ``hdr.m == 1``: those packets'
    keys are not their flows' rows."""
    case = regime(
        (50.0, 4.0),
        guarded=True,
        flows=[flow(i, i % 6, i % 3, m=i % 2) for i in range(24)],
    )
    case["entries"] = case["entries"] + [("pre", 1, "rewrite", (5,))]
    interp, auto = run_case(case)
    assert auto.emulator.columnar_memo_guard_failures[CACHE] > 0


def test_one_flow_set_through_a_two_worker_fleet():
    """A fleet ships the flow set once; each worker's read-only and
    simulating steps agree with an interpreting fleet, cache by cache
    and in LRU order."""
    flows = [flow(i, i % 6, (i // 6) % 6) for i in range(48)]
    fleets = [
        Deployment(
            build_program(False, 6, 3.0),
            BLUEFIELD2,
            native_cache=False,
            jobs=2,
            engine=engine,
        )
        for engine in ("interp", "auto")
    ]
    try:
        installed = Installed(fleets)
        for k in KEYS:
            installed.apply("insert", ("t1", k, "mark", (k, k % 4)))
        generators = [TrafficGenerator(3) for _ in fleets]
        for pps in (None, None, 50.0):
            expect, got = (
                fleet.replay(
                    g.stream(flows, 2000, locality="zipf"),
                    offered_pps=pps,
                    batch=128,
                )
                for fleet, g in zip(fleets, generators)
            )
            assert stats_payload(got)["fingerprint"] == (
                stats_payload(expect)["fingerprint"]
            )
        interp, auto = (fleet.emulator for fleet in fleets)
        interp.collect()
        auto.collect()
        assert auto.cache_stats == interp.cache_stats
        assert auto.cache_stats[CACHE].rejected_insertions > 0
        assert auto.counters.snapshot() == interp.counters.snapshot()
        assert [dump[:2] for dump in auto.dump_caches()] == [
            dump[:2] for dump in interp.dump_caches()
        ]
        assert auto.transport_stats()["totals"]["flow_sets_shipped"] <= 2
        assert_memo_counts_every_arrival(auto)
        assert_memo_counts_exported(auto)
    finally:
        for fleet in fleets:
            fleet.close()


def assert_memo_counts_exported(emulator) -> None:
    registry = MetricsRegistry()
    export_emulator(registry, emulator)
    for metric, counts in (
        ("pipeleon_columnar_memo_hits_total", emulator.columnar_memo_hits),
        ("pipeleon_columnar_memo_misses_total", emulator.columnar_memo_misses),
        (
            "pipeleon_columnar_memo_guard_failures_total",
            emulator.columnar_memo_guard_failures,
        ),
    ):
        for node, count in counts.items():
            assert registry.value(metric, node=node) == count
    assert emulator.columnar_memo_hits[CACHE] > 0


def test_memo_counts_are_exported_per_node():
    """Cache steps count their key memo beside the match nodes' plan
    memos, one series per node (a fleet's merged state above)."""
    interp, auto = run_case(regime((50.0, 2.0), warm=48, guarded=True))
    assert {"t1", "t2", CACHE} <= set(auto.emulator.columnar_memo_hits)
    assert_memo_counts_exported(auto.emulator)
