"""The column source seam: a traffic stream is columns from the seed
to the summary.

``TrafficGenerator.stream`` / ``mixed_stream`` / ``drop_rate_stream``
return one lazy stream with two views off one cursor — ``Packet``
objects for the per-packet engines and the tests, ``ColumnBatch`` es
for the columnar tier and the shard dispatcher. These tests pin that
the two views are the same packets, that the flow matrix is never
stale, that non-SoA traffic is decided exactly as before (golden values
from the commit before the seam), that the column dispatcher shards,
paces, reroutes and respawns exactly as the per-packet one did, that a
``Packet`` list reaches a fleet as one flow set (``PacketFlows``) and
replays like the stream it came from, and that a replay from a stream
builds no ``Packet`` at all.
"""

import copy
import hashlib
import pickle
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import EXAMPLE_APPS, migration
from repro.core import Deployment, Pipeleon
from repro.errors import EmulationError
from repro.nic import columnar, sharding
from repro.nic.faults import FaultPlan, FaultSpec
from repro.nic.columnar import (
    ColumnBatch,
    ColumnSource,
    FlowColumns,
    PacketFlows,
    batched,
)
from repro.nic.packet import FIVE_TUPLE, Packet
from repro.nic.sharding import (
    FLOW_SETS_KEPT,
    ShardedEmulator,
    SupervisorOptions,
    _FlowSet,
    _route_indices,
    _shard_table,
    _ShardBuffer,
    flow_shard,
)
from repro.nic.stats import RunStats
from repro.nic.targets import EMULATED_NIC
from repro.service.session import stats_payload
from repro.traffic import (
    SCENARIO_BUILDERS,
    TrafficGenerator,
    build_scenario,
    drop_rate_stream,
    synth_flows,
)
from repro.traffic.flows import FlowSpec
from tests.test_faults import fast_options, make_sharded, make_single
from tests.test_core_sharded import worker_caches
from tests.test_nic_sharding import (
    assert_sharded_identical,
    stats_fingerprint,
)


def shape(packet: Packet) -> tuple:
    """Everything a source decides about a packet, field order included."""
    return (
        list(packet.fields.items()),
        packet.metadata,
        packet.size_bytes,
        packet.dropped,
        packet.egress_port,
    )


def from_batches_once(batch) -> list[Packet]:
    """One batch of either form as ``Packet`` objects."""
    if isinstance(batch, ColumnBatch):
        return [batch.make_packet(i) for i in range(batch.n)]
    return batch


def from_batches(stream, size: int) -> list[Packet]:
    """The rest of ``stream`` read through its column view."""
    packets = []
    for batch in stream.batches(size):
        if isinstance(batch, ColumnBatch):
            assert batch.packets is None
            assert batch.values.flags["C_CONTIGUOUS"]
        packets.extend(from_batches_once(batch))
    return packets


# ---------------------------------------------------------------------------
# (1) Two views, one stream
# ---------------------------------------------------------------------------

MIXED_FLOWS = synth_flows(12) + [
    flow.with_fields(**{"vlan.id": 7}) for flow in synth_flows(6, dport=443)
]


def _locality(locality):
    return lambda g: g.stream(
        synth_flows(40), 333, locality=locality, size_bytes=256
    )


SOURCES = {
    "uniform": _locality("uniform"),
    "zipf": _locality("zipf"),
    "round_robin": _locality("round_robin"),
    "mixed_stream": lambda g: g.mixed_stream(
        [(synth_flows(5, dport=1111), 0.7), (synth_flows(9), 0.3), ([], 1)],
        333,
        size_bytes=128,
    ),
    "drop_rate_stream": lambda g: drop_rate_stream(g, 333, 0.25),
    "two_field_sets": lambda g: g.stream(MIXED_FLOWS, 333),
}


class TestTwoViews:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("size", [1, 64, 1000])
    def test_views_agree(self, source, size):
        make = SOURCES[source]
        listed = list(make(TrafficGenerator(11)))
        stream = make(TrafficGenerator(11))
        assert isinstance(stream, ColumnSource)
        assert len(listed) == 333
        assert [shape(p) for p in from_batches(stream, size)] == [
            shape(p) for p in listed
        ]
        # One-shot on both views.
        assert list(stream) == [] and list(stream.batches(size)) == []

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_scenario_phases_agree(self, name):
        listed = build_scenario(name, seed="5")
        columns = build_scenario(name, seed="5")
        assert listed.phases
        for as_packets, as_columns in zip(listed.phases, columns.phases):
            expected = list(as_packets.stream_factory(150))
            assert len(expected) == 150
            assert [
                shape(p)
                for p in from_batches(as_columns.stream_factory(150), 64)
            ] == [shape(p) for p in expected]

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_views_share_one_cursor(self, source):
        make = SOURCES[source]
        listed = [shape(p) for p in make(TrafficGenerator(4))]
        stream = make(TrafficGenerator(4))
        seen = [shape(next(stream))]
        seen += [shape(p) for p in islice(stream, 9)]
        batches = stream.batches(50)
        seen += [shape(p) for p in from_batches_once(next(batches))]
        # Back to packets while the batch iterator is still open...
        seen += [shape(p) for p in islice(stream, 7)]
        # ...and the batch iterator picks up where the packets stopped.
        for batch in batches:
            seen += [shape(p) for p in from_batches_once(batch)]
        assert seen == listed
        assert list(stream) == []

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_next_stream_draws_alike_whichever_view_ran(self, source):
        make = SOURCES[source]
        by_packets, by_columns = TrafficGenerator(8), TrafficGenerator(8)
        list(make(by_packets))
        from_batches(make(by_columns), 100)
        assert [shape(p) for p in make(by_columns)] == [
            shape(p) for p in make(by_packets)
        ]

    def test_nothing_is_drawn_before_first_use(self):
        touched, untouched = TrafficGenerator(2), TrafficGenerator(2)
        flows = synth_flows(10)
        touched.stream(flows, 50)  # never consumed: no RNG call
        touched.mixed_stream([(flows, 1.0)], 50)
        assert [shape(p) for p in touched.stream(flows, 20)] == [
            shape(p) for p in untouched.stream(flows, 20)
        ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda g: g.stream([], 10),
            lambda g: g.stream([], 10, locality="fractal"),
            lambda g: g.stream(synth_flows(3), 0),
            lambda g: g.mixed_stream([([], 0.5), ([], 0.5)], 10),
            lambda g: g.mixed_stream([], 10),
            lambda g: g.mixed_stream([(synth_flows(3), 1.0)], 0),
        ],
    )
    def test_empty_streams_on_both_views(self, make):
        generator = TrafficGenerator(0)
        assert list(make(generator)) == []
        assert list(make(generator).batches(8)) == []
        with pytest.raises(StopIteration):
            next(make(generator))

    def test_unknown_locality_raises_on_first_use_of_either_view(self):
        generator = TrafficGenerator(0)
        stream = generator.stream(synth_flows(2), 5, locality="fractal")
        with pytest.raises(ValueError, match="fractal"):
            next(stream)
        stream = generator.stream(synth_flows(2), 5, locality="fractal")
        with pytest.raises(ValueError, match="fractal"):
            next(stream.batches(4))

    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("skew", [0.0, 0.8, 1.2, 2.5])
    def test_memoized_zipf_weights_draw_what_the_formula_draws(
        self, seed, skew
    ):
        """The kept CDF moves no index: a twin RNG's ``choice`` handed
        weights recomputed from the formula on every call draws the
        same, also when another shape is drawn in between. A numpy
        whose ``choice`` changes its arithmetic fails here."""

        def formula(n_flows):
            weights = np.arange(1, n_flows + 1, dtype=float) ** (-skew)
            return weights / weights.sum()

        generator = TrafficGenerator(seed)
        twin = np.random.default_rng(seed)
        for n_flows, n_packets in (
            (2000, 64), (2000, 0), (2000, 500), (1, 9), (50, 40), (2000, 70),
            (20000, 4096), (1, 1), (3, 1000), (20000, 4096),
        ):  # fmt: skip
            expected = twin.choice(n_flows, size=n_packets, p=formula(n_flows))
            drawn = generator.zipf_indices(n_flows, n_packets, skew)
            assert drawn.tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("locality", ["uniform", "zipf", "round_robin"])
    def test_index_stream_is_the_one_before_the_seam(self, seed, locality):
        """The RNG call sequence of a stream, restated: one draw of
        ``n_packets`` indices per stream, on first use."""
        flows = synth_flows(64)
        twin = np.random.default_rng(seed)
        weights = np.arange(1, 65, dtype=float) ** (-1.2)
        weights /= weights.sum()
        generator = TrafficGenerator(seed)
        for n_packets in (100, 1, 300):
            expected = {
                "uniform": lambda: twin.integers(
                    0, 64, size=n_packets, dtype=np.int64
                ),
                "zipf": lambda: twin.choice(64, size=n_packets, p=weights),
                "round_robin": lambda: np.arange(n_packets) % 64,
            }[locality]()
            got = generator.stream(flows, n_packets, locality=locality)
            assert [p.flow_key() for p in got] == [
                flows[i].flow_key() for i in expected.tolist()
            ]


# ---------------------------------------------------------------------------
# (2) The flow matrix is never stale
# ---------------------------------------------------------------------------


class TestFlowMatrixReuse:
    @staticmethod
    def columns_equal_packets(generator, flows, seed_twin):
        """The next stream over ``flows``: columns vs. a fresh twin's
        packets."""
        got = from_batches(generator.stream(flows, 200), 64)
        want = list(seed_twin.stream(list(flows), 200))
        assert [shape(p) for p in got] == [shape(p) for p in want]

    def test_same_flow_set_reuses_one_matrix(self):
        generator = TrafficGenerator(1)
        flows = synth_flows(30)
        first = generator.flow_columns(flows)
        assert generator.flow_columns(flows) is first
        # Equal content in another container is the same flow set.
        assert generator.flow_columns(tuple(flows)) is first
        assert generator.flow_columns(synth_flows(30)) is first

    def test_mutated_list_is_rebuilt(self):
        generator, twin = TrafficGenerator(6), TrafficGenerator(6)
        flows = synth_flows(20)
        self.columns_equal_packets(generator, flows, twin)
        flows[3] = flows[3].with_fields(**{"ipv4.tos": 9})
        self.columns_equal_packets(generator, flows, twin)
        flows.append(synth_flows(21)[-1])
        self.columns_equal_packets(generator, flows, twin)
        del flows[:5]
        self.columns_equal_packets(generator, flows, twin)
        flows.reverse()
        self.columns_equal_packets(generator, flows, twin)

    def test_replaced_list_is_rebuilt_and_old_one_still_served(self):
        generator, twin = TrafficGenerator(7), TrafficGenerator(7)
        web, dns = synth_flows(16), synth_flows(16, dport=53)
        for flows in (web, dns, web, dns + web, web):
            self.columns_equal_packets(generator, flows, twin)

    def test_more_flow_sets_than_are_kept(self):
        generator, twin = TrafficGenerator(9), TrafficGenerator(9)
        sets = [synth_flows(8, dport=1000 + i) for i in range(7)]
        for flows in sets + sets[::-1]:
            self.columns_equal_packets(generator, flows, twin)

    def test_build_spans_chunks_and_field_sets(self, monkeypatch):
        """Chunked build, several field sets, one field order per set,
        and a flow with no SoA form: every flow's column is its own
        packet's fields."""
        monkeypatch.setattr(columnar, "_BUILD_CHUNK", 7)
        plain = synth_flows(10)
        tagged = [f.with_fields(**{"vlan.id": 5, "vlan.pcp": 1}) for f in plain]
        # Same field set as ``tagged``, listed in the other order.
        swapped = [
            type(f)(f.src, f.dst, f.proto, f.sport, f.dport, f.extra[::-1])
            for f in tagged
        ]
        huge = plain[0].with_fields(**{"ipv4.ttl": 2**63})
        flows = plain[:9] + tagged + swapped + [huge] + plain[9:]
        columns = FlowColumns(flows)
        assert not columns.uniform
        assert len(columns.names) == 2
        assert columns.group[flows.index(huge)] == -1
        for index, flow in enumerate(flows):
            batch = columns.batch(np.array([index]), 99)
            if flow is huge:
                assert [shape(p) for p in batch] == [shape(flow.packet(99))]
                continue
            assert dict(zip(batch.names, batch.values[:, 0].tolist())) == (
                flow.packet().fields
            )
            assert batch.sizes.tolist() == [99]
        # A batch is columns exactly when from_packets would make one.
        for picks in ([0, 1, 2], [0, 9], [9, 19], [19, 20], [0, 29], [29]):
            batch = columns.batch(np.array(picks), 64)
            packets = [flows[i].packet(64) for i in picks]
            encoded = ColumnBatch.from_packets(packets)
            assert isinstance(batch, ColumnBatch) == (encoded is not None)
            # (Field *order* within a set is the set's, as in
            # from_packets, where it is the first packet's.)
            assert [
                (p.fields, p.size_bytes) for p in from_batches_once(batch)
            ] == [(p.fields, p.size_bytes) for p in packets]

    def test_uniform_set_is_one_matrix(self):
        columns = FlowColumns(synth_flows(2500))
        assert columns.uniform
        assert columns.values[0].shape == (10, 2500)


# ---------------------------------------------------------------------------
# (3) Non-SoA traffic: decided as before the seam (golden values)
# ---------------------------------------------------------------------------

#: Recorded at 05c1031 (the commit before the column source) with
#: ``python tests/test_column_source.py``: this very scenario through
#: ``Deployment.replay`` (one core and ``jobs=2``) fed by
#: ``TrafficGenerator.stream``'s per-packet generator.
def _golden_counters(misses: int) -> list:
    return [
        (("action", "l2l3_acl", "acl_permit"), 1660),
        (("action", "l2l3_route", "set_nhop"), misses),
        (("action", "l2l3_smac", "smac_known"), 1660),
        (("branch", "l2l3_is_ipv4", "true"), 1660),
        (("cache", "cache__l2l3_route", "hit"), 1660 - misses),
        (("cache", "cache__l2l3_route", "miss"), misses),
    ]


_GOLDEN_FLEET = {
    "demotions": {"input": 498},
    "columnar_packets": 1162,
    "columnar_partitions": 286,
    "fingerprint": (
        "1d89ba3c093cc3606fb514abe9dcbae83fa48a85381495460df74e556309df45"
    ),
    "packets": 1660,
    "dropped": 0,
    "counters": _golden_counters(28),
    "caches": "600ac27911db7316",
}
GOLDEN = {
    "jobs1": {
        "demotions": {"input": 656},
        "columnar_packets": 1004,
        "columnar_partitions": 330,
        "fingerprint": (
            "db0b69fc2bb8b97b7dd27225cdf110bce5dbd747b51665aa66de9ffd993e6d8d"
        ),
        "packets": 1660,
        "dropped": 0,
        "counters": _golden_counters(25),
        "caches": "d5f71624fa01e85b",
    },
    "fleet": _GOLDEN_FLEET,
}
#: The fleet's ring totals, same scenario. Every batch of a stream
#: rides the ring as flow indices, non-SoA ones included: at that
#: commit 9 of these 31 batches (498 packets) went inline.
GOLDEN_SHM_TOTALS = {
    "pushed_batches": 31,
    "pushed_packets": 1660,
    "fallback_encoding": 0,
    "fallback_capacity": 0,
}


def non_soa_scenario(deployment) -> dict:
    """Four replays over flow sets SoA can and cannot express.

    Uniform plain flows; uniform flows of another field set; plain
    flows round-robin with one carrying a value outside int64 (every
    batch of 16+ holds it); the two field sets mixed at random.
    """
    plain = synth_flows(24)
    tagged = [f.with_fields(**{"vlan.id": 7}) for f in synth_flows(12, 443)]
    huge = synth_flows(25)[-1].with_fields(**{"ipv4.tos": 2**63})
    generator = TrafficGenerator(31)
    merged = RunStats()
    for stream in (
        generator.stream(plain, 500, locality="zipf"),
        generator.stream(tagged, 300),
        generator.stream(plain[:15] + [huge], 260, locality="round_robin"),
        generator.mixed_stream([(plain, 0.5), (tagged, 0.5)], 400),
        generator.stream(plain, 200),
    ):
        merged.merge(deployment.replay(stream, batch=64))
    emulator = deployment.emulator
    if isinstance(emulator, ShardedEmulator):
        caches = [
            {name: list(store) for name, store in stores.items()}
            for stores, _native, _tables in emulator.dump_caches()
        ]
    else:
        caches = [
            {
                name: [key for key, _ in cache.items()]
                for name, cache in emulator.flow_caches.items()
            }
        ]
    return {
        "demotions": dict(emulator.columnar_demotions),
        "columnar_packets": emulator.columnar_packets,
        "columnar_partitions": emulator.columnar_partitions,
        "fingerprint": stats_payload(merged, EMULATED_NIC)["fingerprint"],
        "packets": merged.packets,
        "dropped": merged.dropped,
        "counters": sorted(emulator.counters.snapshot().items()),
        # Per worker, every cache's keys in LRU order.
        "caches": hashlib.sha256(repr(caches).encode()).hexdigest()[:16],
    }


def non_soa_deployment(jobs: int):
    build, install = EXAMPLE_APPS["l2l3_acl"]
    program = build()
    plan = Pipeleon(EMULATED_NIC).optimize(program)
    if jobs == 1:
        deployment = Deployment(program, EMULATED_NIC, plan=plan)
    else:
        deployment = Deployment(
            program,
            EMULATED_NIC,
            jobs=jobs,
            plan=plan,
            batch=64,
        )
    install(deployment.control_plane)
    return deployment


class TestNonSoaTrafficAsBefore:
    def test_one_core(self):
        deployment = non_soa_deployment(1)
        try:
            got = non_soa_scenario(deployment)
        finally:
            deployment.close()
        assert got["demotions"].get("input", 0) > 0
        assert got["columnar_packets"] > 0
        assert got == GOLDEN["jobs1"]

    def test_two_worker_fleet(self):
        deployment = non_soa_deployment(2)
        try:
            got = non_soa_scenario(deployment)
            totals = deployment.emulator.transport_stats()["totals"]
        finally:
            deployment.close()
        assert got["demotions"].get("input", 0) > 0
        assert got == GOLDEN["fleet"]
        assert {
            key: totals[key] for key in GOLDEN_SHM_TOTALS
        } == GOLDEN_SHM_TOTALS


# ---------------------------------------------------------------------------
# (4) A Packet list is one flow set; row -> shard is flow_shard on packets
# ---------------------------------------------------------------------------

_VALUES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**31, 2**40),
    st.integers(-5, 5),
)


@st.composite
def uniform_packets(draw):
    """Packets of one field set holding any subset of the five-tuple."""
    names = draw(
        st.lists(
            st.sampled_from(FIVE_TUPLE + ("eth.type", "ipv4.ttl")),
            unique=True,
        )
    )
    n = draw(st.integers(1, 40))
    # Few distinct keys, so unique-key resolution has repeats to fold.
    pool = draw(
        st.lists(
            st.lists(_VALUES, min_size=len(names), max_size=len(names)),
            min_size=1,
            max_size=6,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return [Packet(fields=dict(zip(names, row))) for row in rows]


@st.composite
def flow_sets(draw):
    """Flows over a few repeated five-tuples; some carry another field
    set, some a value outside int64 (no SoA form), in or out of the
    five-tuple."""
    pool = draw(
        st.lists(st.tuples(*[_VALUES] * 5), min_size=1, max_size=6)
    )
    n = draw(st.integers(1, 40))
    flows = []
    for row in draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)):
        flow = FlowSpec(*row)
        kind = draw(st.sampled_from(["plain", "plain", "tagged", "huge"]))
        if kind == "tagged":
            flow = flow.with_fields(**{"vlan.id": 7})
        elif kind == "huge":
            field = draw(st.sampled_from(["ipv4.tos", "ipv4.src"]))
            flow = flow.with_fields(**{field: 2**64})
        flows.append(flow)
    return flows


def _variants() -> list[Packet]:
    """Packets that differ in one way each from the first."""
    base = Packet(fields={"ipv4.src": 3, "l4.sport": 1})
    swapped = Packet(fields={"l4.sport": 1, "ipv4.src": 3})
    variants = [base, swapped]
    for change in (
        lambda p: p.fields.update({"l4.sport": 2}),
        lambda p: p.fields.update({"vlan.id": 7}),
        lambda p: p.fields.update({"ipv4.src": 2**64}),
        lambda p: p.metadata.update({"meta.mark": 0}),
        lambda p: setattr(p, "dropped", True),
        lambda p: setattr(p, "egress_port", 0),
    ):
        variant = base.clone()
        change(variant)
        variants.append(variant)
    return variants


def _content(packet: Packet) -> tuple:
    """What a flow set keeps of a packet: all but the field order."""
    return (
        packet.fields,
        packet.metadata,
        packet.size_bytes,
        packet.dropped,
        packet.egress_port,
    )


class TestPacketFlows:
    @settings(max_examples=80, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from([64, 512])),
            max_size=40,
        ),
        size=st.integers(1, 9),
    )
    def test_chunks_are_the_packets(self, picks, size):
        """A list read back through its flow set is the list, in
        order; a chunk holds at most ``size`` packets of one
        ``size_bytes``; one flow per distinct packet (field order, a
        preset 0 and a preset ``False`` included), and the caller's
        packets are left as they were."""
        variants = _variants()
        packets = []
        for index, size_bytes in picks:
            packet = variants[index].clone()
            packet.size_bytes = size_bytes
            packets.append(packet)
        before = [shape(packet) for packet in packets]
        chunks = list(PacketFlows(packets).flow_batches(size))
        read = []
        for columns, chosen, size_bytes in chunks:
            assert 0 < len(chosen) <= size
            for packet in from_batches_once(columns.batch(chosen, size_bytes)):
                assert packet.size_bytes == size_bytes
                read.append(packet)
        assert [_content(p) for p in read] == [_content(p) for p in packets]
        assert [shape(packet) for packet in packets] == before
        assert len({id(columns) for columns, _c, _s in chunks}) <= 1
        distinct = {repr(shape(variants[index])) for index, _s in picks}
        assert len(chunks[0][0].flows if chunks else []) == len(distinct)


class TestColumnDispatchShards:
    @settings(max_examples=120, deadline=None)
    @given(packets=uniform_packets(), n=st.sampled_from([1, 2, 3, 4, 7]))
    def test_row_shard_equals_flow_shard(self, packets, n):
        batch = ColumnBatch.from_packets(packets)
        assert batch is not None
        keys, key_of_row = batch.flow_keys()
        assert [keys[k] for k in key_of_row.tolist()] == [
            p.flow_key() for p in packets
        ]
        # A Packet list reaches the dispatcher as one flow set.
        [(columns, chosen, size_bytes)] = PacketFlows(packets).flow_batches(
            len(packets)
        )
        assert columns.uniform
        ts = np.arange(len(packets), dtype=np.float64)
        listed = [_ShardBuffer() for _ in range(n)]
        table = _shard_table(columns, lambda key: flow_shard(key, n))
        _route_indices(chosen, ts, listed, table)
        for shard in range(n):
            expected = [
                (shape(p), float(i))
                for i, p in enumerate(packets)
                if flow_shard(p.flow_key(), n) == shard
            ]
            buffer = listed[shard]
            assert buffer.rows == len(expected)
            if not expected:
                continue
            part, part_ts = buffer.cut(buffer.rows)
            batch = columns.batch(part, size_bytes)
            assert isinstance(batch, ColumnBatch)
            assert [
                (shape(p), t)
                for p, t in zip(from_batches_once(batch), part_ts.tolist())
            ] == expected

    @settings(max_examples=120, deadline=None)
    @given(
        flows=flow_sets(),
        n=st.sampled_from([1, 2, 3, 4, 7]),
        data=st.data(),
    )
    def test_flow_set_table_equals_flow_shard(self, flows, n, data):
        """A flow set's routing table is :func:`flow_shard` of each
        flow's packet, and routing drawn indices through it buffers
        each index, in stream order, where its flow's packet goes."""
        table = _shard_table(
            FlowColumns(flows), lambda key: flow_shard(key, n)
        )
        assert table.tolist() == [
            flow_shard(flow.packet().flow_key(), n) for flow in flows
        ]
        chosen = np.array(
            data.draw(
                st.lists(
                    st.integers(0, len(flows) - 1), min_size=1, max_size=60
                )
            ),
            dtype=np.int64,
        )
        ts = np.arange(len(chosen), dtype=np.float64)
        indexed = [_ShardBuffer() for _ in range(n)]
        _route_indices(chosen, ts, indexed, table)
        for shard in range(n):
            expected = [
                (i, float(t))
                for t, i in enumerate(chosen.tolist())
                if table[i] == shard
            ]
            assert indexed[shard].rows == len(expected)
            if not expected:
                continue
            part, part_ts = indexed[shard].cut(len(expected))
            assert list(zip(part.tolist(), part_ts.tolist())) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(st.integers(0, 99), min_size=1, max_size=40),
            min_size=1,
            max_size=5,
        ),
        size=st.integers(1, 25),
    )
    def test_buffer_cuts_exact_batches_in_stream_order(self, chunks, size):
        """``cut`` hands back exactly the next ``size`` flow indices,
        with their timestamps."""
        buffer = _ShardBuffer()
        expected = []
        stamp = 0
        for rows in chunks:
            ts = np.arange(stamp, stamp + len(rows), dtype=np.float64)
            stamp += len(rows)
            expected += list(zip(rows, ts.tolist()))
            buffer.append(np.array(rows, dtype=np.int64), ts)
        seen = []
        while buffer.rows:
            rows = min(size, buffer.rows)
            part, ts = buffer.cut(rows)
            assert len(ts) == rows
            assert part.dtype == np.int64 and len(part) == rows
            seen += list(zip(part.tolist(), ts.tolist()))
        assert seen == expected


# ---------------------------------------------------------------------------
# (5) Paced replay: per-packet clock values from columns
# ---------------------------------------------------------------------------


def record_dispatches(monkeypatch, sharded, kill_before=None) -> list:
    """Every ``(shard, packets, timestamps)`` the fleet dispatches, the
    packets being what the worker's ``flow_set.batch`` makes of the
    indices. ``kill_before=(shard, k)`` SIGKILLs that shard's worker
    (and waits for it to be gone) just before its ``k``-th batch is
    dispatched, so which batches died with it does not depend on how
    fast the parent notices."""
    real_indices = ShardedEmulator._dispatch_indices
    seen = []

    def spying_indices(fleet, shard, flow_set, chosen, ts):
        assert ts is None or len(ts) == len(chosen)
        if kill_before == (shard, sum(1 for s, *_ in seen if s == shard)):
            victim = fleet._procs[shard]
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
        batch = flow_set.columns.batch(chosen, flow_set.size_bytes)
        seen.append(
            (
                shard,
                from_batches_once(batch),
                None if ts is None else [float(t) for t in ts],
            )
        )
        return real_indices(fleet, shard, flow_set, chosen, ts)

    monkeypatch.setattr(ShardedEmulator, "_dispatch_indices", spying_indices)
    return seen


class TestPacedFleetReplay:
    def test_column_stream_and_list_replay_alike(self, monkeypatch):
        flows = synth_flows(48) + synth_flows(16, dport=6666)
        make = lambda: TrafficGenerator(13).stream(  # noqa: E731
            flows, 700, locality="zipf"
        )
        single = make_single("l2l3_acl")
        reference = single.replay(make(), offered_pps=2.5e5, batch=32)
        runs = []
        for feed in (make, lambda: list(make()), lambda: iter(list(make()))):
            sharded = make_sharded(
                "l2l3_acl",
                2,
                options=SupervisorOptions(recv_timeout_s=10.0),
                batch=32,
            )
            try:
                with monkeypatch.context() as patch:
                    seen = record_dispatches(patch, sharded)
                    t0 = sharded.emulator.clock.now_s
                    stats = sharded.replay(
                        feed(), offered_pps=2.5e5, batch=32
                    )
                assert stats_fingerprint(stats) == stats_fingerprint(
                    reference
                )
                assert_sharded_identical(single, sharded)
                totals = sharded.emulator.transport_stats()["totals"]
                runs.append(
                    (
                        seen,
                        # (Stalls and occupancy follow the wall clock.)
                        {
                            key: totals[key]
                            for key in (
                                "pushed_batches",
                                "pushed_packets",
                                "pushed_bytes",
                                "flow_sets_shipped",
                            )
                        },
                        sorted(sharded.emulator.counters.snapshot().items()),
                    )
                )
            finally:
                sharded.close()
        # A Packet iterable becomes one flow set: the stream's batches,
        # cut and stamped the same, all on the ring.
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1]["pushed_batches"] == len(runs[0][0])
        # Against the scalar definition: packet ``count`` (1-based, in
        # stream order) is stamped ``t0 + dt * count``, and a shard's
        # batches are its packets in order, 32 at a time.
        dt = 1.0 / 2.5e5
        expected: dict[int, list] = {0: [], 1: []}
        for count, packet in enumerate(make(), start=1):
            shard = flow_shard(packet.flow_key(), 2)
            expected[shard].append((shape(packet), t0 + dt * count))
        for shard in (0, 1):
            dispatched = [
                (shape(packet), t)
                for s, packets, ts in runs[0][0]
                if s == shard
                for packet, t in zip(packets, ts)
            ]
            assert dispatched == expected[shard]
            sizes = [len(ps) for s, ps, _ts in runs[0][0] if s == shard]
            assert all(size == 32 for size in sizes[:-1])


# ---------------------------------------------------------------------------
# (6) Kills mid-replay, fed from a column stream
# ---------------------------------------------------------------------------


class TestFaultsFromAColumnStream:
    TOTAL = 900
    BATCH = 32

    def stream(self):
        flows = synth_flows(48) + synth_flows(16, dport=6666)
        return TrafficGenerator(23).stream(flows, self.TOTAL, locality="zipf")

    def run(self, monkeypatch, feed, recovery):
        sharded = make_sharded(
            "l2l3_acl",
            3,
            options=fast_options(recovery=recovery),
            batch=self.BATCH,
        )
        try:
            with monkeypatch.context() as patch:
                seen = record_dispatches(patch, sharded, kill_before=(1, 4))
                stats = sharded.replay(
                    feed(), offered_pps=1e6, batch=self.BATCH
                )
            emulator = sharded.emulator
            totals = emulator.transport_stats()["totals"]
            return {
                "stats": stats_fingerprint(stats),
                "lost": stats.lost_packets,
                "dispatches": seen,
                "pushed": totals["pushed_batches"],
                "respawns": list(emulator.respawns),
                "degraded": sharded.emulator.degraded_shards,
                "counters": sorted(emulator.counters.snapshot().items()),
                "states": [
                    sorted(state["counters"].snapshot().items())
                    for state in emulator.worker_states
                ],
            }
        finally:
            sharded.close()

    @staticmethod
    def assert_alike(from_columns, from_list):
        """Same dispatches, stats and counters, every batch on the
        ring for both."""
        assert from_columns["pushed"] > 0
        assert from_columns == from_list

    def test_degraded_reroutes_alike(self, monkeypatch):
        from_columns = self.run(monkeypatch, self.stream, "degraded")
        from_list = self.run(
            monkeypatch, lambda: list(self.stream()), "degraded"
        )
        self.assert_alike(from_columns, from_list)
        assert from_columns["degraded"] == [1]
        assert from_columns["lost"] == 4 * self.BATCH
        assert (
            from_columns["stats"][0] == self.TOTAL - from_columns["lost"]
        )
        # Reroute targets: after the kill, shard 1's flows go where
        # ``hash(key) % len(survivors)`` sends them, and nowhere else.
        survivors = [0, 2]
        for shard, packets, _ts in from_columns["dispatches"]:
            for key in map(Packet.flow_key, packets):
                home = flow_shard(key, 3)
                assert shard == home or (
                    home == 1
                    and shard == survivors[hash(key) % len(survivors)]
                )
        delivered = sum(
            len(packets) for _s, packets, _t in from_columns["dispatches"]
        )
        # The batch whose send found the worker dead is dispatched
        # twice: once to shard 1, once rerouted.
        assert delivered == self.TOTAL + self.BATCH

    @pytest.mark.parametrize("app", ["l2l3_acl", "migration_partitioned"])
    @pytest.mark.parametrize("mode", ["healthy", "respawn", "degraded"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_hostile_lists(self, monkeypatch, jobs, mode, app):
        """:func:`hostile_packets` on a fleet, fed as a list: healthy
        or with the last shard killed before its fourth batch. The
        fleet's ``auto`` and ``interp`` workers agree on stats,
        counters and caches; without a degraded shard so do one core's
        two engines."""
        kill = None if mode == "healthy" else (jobs - 1, 3)
        recovery = "degraded" if mode == "degraded" else "respawn"
        runs = {}
        for engine in ("auto", "interp"):
            fleet = hostile_deployment(
                app, jobs, engine=engine, recovery=recovery
            )
            try:
                with monkeypatch.context() as patch:
                    seen = record_dispatches(patch, fleet, kill_before=kill)
                    if mode == "degraded" and jobs == 1:
                        with pytest.raises(EmulationError, match="survivors"):
                            fleet.replay(
                                hostile_packets(47, self.TOTAL),
                                offered_pps=1e6,
                                batch=self.BATCH,
                            )
                        return
                    stats = fleet.replay(
                        hostile_packets(47, self.TOTAL),
                        offered_pps=1e6,
                        batch=self.BATCH,
                    )
                emulator = fleet.emulator
                runs[engine] = {
                    "dispatches": seen,
                    "stats": stats_fingerprint(stats),
                    "lost": stats.lost_packets,
                    "respawns": list(emulator.respawns),
                    "degraded": emulator.degraded_shards,
                    "counters": sorted(emulator.counters.snapshot().items()),
                    "caches": worker_caches(fleet),
                }
                if mode == "degraded":
                    continue
                for one_core in ("auto", "interp"):
                    single = hostile_deployment(app)
                    reference = single.replay(
                        hostile_packets(47, self.TOTAL),
                        offered_pps=1e6,
                        batch=self.BATCH,
                        engine=one_core,
                    )
                    assert stats_fingerprint(stats) == stats_fingerprint(
                        reference
                    )
                    assert_sharded_identical(single, fleet)
            finally:
                fleet.close()
        assert runs["auto"] == runs["interp"]
        got = runs["auto"]
        if mode == "degraded":
            # What the doomed shard took before the kill died with it.
            taken = [
                len(packets)
                for shard, packets, _ts in got["dispatches"]
                if shard == jobs - 1
            ]
            assert got["degraded"] == [jobs - 1]
            assert got["lost"] == sum(taken[:3]) > 0
            assert got["stats"][0] == self.TOTAL - got["lost"]
        else:
            assert got["lost"] == 0 and got["degraded"] == []
            assert got["respawns"][-1] == int(mode == "respawn")

    def test_respawn_rebuilds_alike(self, monkeypatch):
        from_columns = self.run(monkeypatch, self.stream, "respawn")
        from_list = self.run(
            monkeypatch, lambda: list(self.stream()), "respawn"
        )
        self.assert_alike(from_columns, from_list)
        assert from_columns["respawns"] == [0, 1, 0]
        assert from_columns["lost"] == 0
        # Bit-identical to a fleet nobody killed, shard 1 included.
        clean = make_sharded(
            "l2l3_acl",
            3,
            options=fast_options(recovery="respawn"),
            batch=self.BATCH,
        )
        try:
            stats = clean.replay(
                self.stream(), offered_pps=1e6, batch=self.BATCH
            )
            assert stats_fingerprint(stats) == from_columns["stats"]
            assert [
                sorted(state["counters"].snapshot().items())
                for state in clean.emulator.worker_states
            ] == from_columns["states"]
        finally:
            clean.close()


# ---------------------------------------------------------------------------
# (7) No Packet between the seed and the summary
# ---------------------------------------------------------------------------


class TestNoMaterialisation:
    PACKETS = 3000
    BATCH = 256

    @staticmethod
    def poisoned(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("replay from a stream materialised a Packet")

    def stream(self, generator, flows):
        return generator.stream(
            flows, self.PACKETS, locality="zipf", zipf_skew=1.2
        )

    def test_one_core_replay_builds_no_packet(self, monkeypatch):
        flows = synth_flows(128)
        reference = make_single("l2l3_acl").replay(
            self.stream(TrafficGenerator(3), flows),
            batch=self.BATCH,
            engine="interp",
        )
        deployment = make_single("l2l3_acl")
        warm, generator = TrafficGenerator(4), TrafficGenerator(3)
        # Warm both what replay compiles lazily and the flow matrix,
        # the one place a flow set's packets are made (once per flow).
        deployment.replay(self.stream(warm, flows), batch=self.BATCH)
        generator.flow_columns(flows)
        monkeypatch.setattr(Packet, "__init__", self.poisoned)
        before = deployment.emulator.columnar_packets
        stats = deployment.replay(
            self.stream(generator, flows), batch=self.BATCH, engine="auto"
        )
        monkeypatch.undo()
        assert deployment.emulator.columnar_packets - before == self.PACKETS
        assert deployment.emulator.columnar_demotions == {}
        assert stats_fingerprint(stats) == stats_fingerprint(reference)

    def test_shm_fleet_replay_builds_no_packet(self, monkeypatch):
        flows = synth_flows(128)
        reference = make_single("l2l3_acl").replay(
            self.stream(TrafficGenerator(3), flows),
            batch=self.BATCH,
            engine="interp",
        )
        generator = TrafficGenerator(3)
        generator.flow_columns(flows)
        # Workers fork with the poison in place; the parent keeps it
        # for the whole replay.
        monkeypatch.setattr(Packet, "__init__", self.poisoned)
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=SupervisorOptions(recv_timeout_s=10.0),
            batch=self.BATCH,
        )
        try:
            stats = sharded.replay(
                self.stream(generator, flows), batch=self.BATCH
            )
            monkeypatch.undo()
            emulator = sharded.emulator
            totals = emulator.transport_stats()["totals"]
            assert emulator.columnar_packets == self.PACKETS
            assert emulator.columnar_demotions == {}
            assert totals["pushed_packets"] == self.PACKETS
            assert stats_fingerprint(stats) == stats_fingerprint(reference)
        finally:
            monkeypatch.undo()
            sharded.close()

    def test_per_packet_engines_read_the_packet_view(self, monkeypatch):
        """``interp`` never asks a stream for columns, so an
        interpreter twin checks the column source against
        ``FlowSpec.packet`` and not against itself."""
        flows = synth_flows(32)

        def refuse(self, size):  # pragma: no cover - must not run
            raise AssertionError("a per-packet engine asked for columns")

        stream = TrafficGenerator(5).stream(flows, 300)
        assert [type(c) for c in batched(stream, 128, columns=True)] == [
            ColumnBatch
        ] * 3
        monkeypatch.setattr(type(stream), "batches", refuse)
        deployment = make_single("l2l3_acl")
        stats = deployment.replay(
            TrafficGenerator(5).stream(flows, 300),
            batch=128,
            engine="interp",
        )
        assert stats.packets == 300


# ---------------------------------------------------------------------------
# (8) Flow indices to the fleet: the flow set once, then 8 B per packet
# ---------------------------------------------------------------------------

#: A flow no SoA form can hold: every batch holding it is the
#: Packet-list batch, on one core and in a worker alike.
HUGE_FLOW = synth_flows(41)[-1].with_fields(**{"ipv4.tos": 2**64})

#: The packet sizes of :func:`hostile_packets`, in runs of 50.
HOSTILE_SIZES = (512, 128, 1500)


def hostile_packets(seed: int, n: int) -> list[Packet]:
    """A ``Packet`` list no stream makes: a value outside int64 (one
    flow), two header-field sets, preset metadata, ``dropped`` and
    ``egress_port``, and runs of three ``size_bytes``. The odd flows
    are the rarest and the presets are in one run size of three, so
    plenty of batches are still SoA. Flows of one five-tuple share a
    destination and no other flow does, so every cache key stays on
    one shard."""
    tagged = [
        flow.with_fields(**{"vlan.id": 7}) for flow in synth_flows(49)[41:]
    ]
    flows = synth_flows(40) + [HUGE_FLOW] + tagged
    packets = list(TrafficGenerator(seed).stream(flows, n, locality="zipf"))
    for index, packet in enumerate(packets):
        run = index // 50 % len(HOSTILE_SIZES)
        packet.size_bytes = HOSTILE_SIZES[run]
        if run != 1:
            continue
        if index % 7 == 3:
            packet.metadata["meta.mark"] = index % 3
        if index % 29 == 5:
            packet.dropped = True
        if index % 31 == 6:
            packet.egress_port = 3
    return packets


#: ``(make the traffic, offered_pps)`` of each source a fleet must
#: replay like one core.
FLEET_SOURCES = {
    "uniform": (
        lambda: TrafficGenerator(41).stream(
            synth_flows(64), 900, locality="zipf"
        ),
        None,
    ),
    # (Disjoint flows: a cache key two shards share warms once per
    # shard, the documented edge of the fleet's equivalence contract.)
    "mixed_stream": (
        lambda: drop_rate_stream(
            TrafficGenerator(42),
            900,
            0.25,
            dropped_flows=synth_flows(64, dport=6666)[32:],
            passing_flows=synth_flows(32),
        ),
        None,
    ),
    "non_uniform": (
        lambda: TrafficGenerator(43).stream(
            synth_flows(40) + [HUGE_FLOW], 900
        ),
        None,
    ),
    "paced": (
        lambda: TrafficGenerator(44).stream(
            synth_flows(64), 900, locality="zipf"
        ),
        2.5e5,
    ),
    "packet_list": (
        lambda: list(
            TrafficGenerator(45).stream(synth_flows(64), 900, locality="zipf")
        ),
        None,
    ),
    "hostile_list": (lambda: hostile_packets(46, 900), 2.5e5),
}


def one_worker_fleet(deployment, **options):
    """A fleet of one forked from a one-core ``deployment``, as
    something with an ``emulator``: ``Deployment(jobs=1)`` is one core,
    not a fleet."""
    fleet = ShardedEmulator(deployment.emulator, 1, **options)
    return SimpleNamespace(
        emulator=fleet, replay=fleet.replay, close=fleet.close
    )


def fleet_of(jobs: int):
    """A fleet of ``jobs`` workers on the optimized ``l2l3_acl`` plan
    (its flow cache makes order visible)."""
    if jobs > 1:
        return non_soa_deployment(jobs)
    return one_worker_fleet(
        non_soa_deployment(1),
        batch=64,
        options=SupervisorOptions(recv_timeout_s=10.0),
    )


def hostile_deployment(app: str, jobs: int = 0, **fleet):
    """``app`` on one core (``jobs=0``) or on a fleet of ``jobs``
    workers built with ``fleet`` (``engine``, ``recovery``): the
    optimized ``l2l3_acl`` plan, whose flow cache makes order visible,
    or ``migration``'s naive split, whose every packet migrates."""
    if app == "l2l3_acl":
        build, install = EXAMPLE_APPS[app]
        program = build()
        plan = Pipeleon(EMULATED_NIC).optimize(program)
    else:
        program, install, plan = migration.partitioned_program(), None, None
    engine = fleet.get("engine", "auto")
    options = fast_options(recovery=fleet.get("recovery", "fail"))
    if jobs > 1:
        deployment = Deployment(
            program,
            EMULATED_NIC,
            plan=plan,
            jobs=jobs,
            batch=32,
            supervisor=options,
            engine=engine,
        )
    else:
        deployment = Deployment(program, EMULATED_NIC, plan=plan)
    if install is not None:
        install(deployment.control_plane)
    if jobs == 1:
        return one_worker_fleet(
            deployment, batch=32, options=options, engine=engine
        )
    return deployment


class TestFlowIndexDispatch:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("source", sorted(FLEET_SOURCES))
    def test_fleet_equals_one_core(self, source, jobs):
        make, offered_pps = FLEET_SOURCES[source]
        single = non_soa_deployment(1)
        fleet = fleet_of(jobs)
        try:
            reference = single.replay(
                make(), offered_pps=offered_pps, batch=64
            )
            replayed = fleet.replay(make(), offered_pps=offered_pps, batch=64)
            assert stats_fingerprint(replayed) == stats_fingerprint(reference)
            assert_sharded_identical(single, fleet)
            totals = fleet.emulator.transport_stats()["totals"]
        finally:
            fleet.close()
            single.close()
        # A list is one flow set, registered once per ``size_bytes``.
        sizes = len(HOSTILE_SIZES) if source == "hostile_list" else 1
        assert totals["flow_sets_shipped"] == jobs * sizes
        assert totals["pushed_packets"] == 900
        per_packet = 16 if offered_pps else 8
        assert totals["pushed_bytes"] == per_packet * 900

    def test_caller_packets_are_snapshots(self):
        """Replay a list, mutate every packet in it, kill a worker and
        replay again: the respawn rebuilds the shard from the flows the
        first replay snapshotted, so stats, counters and caches are an
        unmutated run's, and the replay left the caller's packets as
        they were."""

        def run(mutate: bool):
            fleet = hostile_deployment("l2l3_acl", 2, recovery="respawn")
            try:
                packets = hostile_packets(48, 600)
                pristine = [shape(packet) for packet in packets]
                first = fleet.replay(packets, offered_pps=1e6, batch=32)
                assert [shape(packet) for packet in packets] == pristine
                if mutate:
                    for packet in packets:
                        packet.fields["ipv4.dst"] += 1
                        packet.metadata["meta.mark"] = 9
                        packet.dropped = not packet.dropped
                        packet.egress_port = 1
                        packet.size_bytes = 64
                    victim = fleet.emulator._procs[0]
                    victim.kill()
                    victim.join(timeout=10.0)
                    assert not victim.is_alive()
                second = fleet.replay(
                    hostile_packets(48, 600), offered_pps=1e6, batch=32
                )
                return (
                    list(fleet.emulator.respawns),
                    [stats_fingerprint(first), stats_fingerprint(second)],
                    fleet.emulator.counters.snapshot(),
                    worker_caches(fleet),
                )
            finally:
                fleet.close()

        mutated, clean = run(True), run(False)
        assert mutated[0] == [1, 0] and clean[0] == [0, 0]
        assert mutated[1:] == clean[1:]

    def test_one_flows_message_per_shard_per_flow_set(self, monkeypatch):
        """A flow set crosses to each shard once while the shards hold
        it; past :data:`FLOW_SETS_KEPT` newer ones the oldest is
        evicted on both sides, and shipped again when it comes back."""
        shipped = []
        real_send = ShardedEmulator._guarded_send

        def spying_send(self, shard, message, **kwargs):
            if message[0] == "flows":
                shipped.append((shard, message[1]))
            return real_send(self, shard, message, **kwargs)

        monkeypatch.setattr(ShardedEmulator, "_guarded_send", spying_send)
        generators = [TrafficGenerator(seed) for seed in range(6)]
        flows = synth_flows(32)
        fleet = make_sharded("l2l3_acl", 2, options=fast_options(), batch=64)
        try:
            for _ in range(3):  # one flow set, three replays
                fleet.replay(generators[0].stream(flows, 200), batch=64)
            assert shipped == [(0, 0), (1, 0)]
            # Each generator keeps its own matrix: another flow set.
            for generator in generators[1:]:
                fleet.replay(generator.stream(flows, 200), batch=64)
            assert len(shipped) == 2 * len(generators)
            engine = fleet.emulator
            held = [flow_set.id for flow_set in engine._flow_sets]
            assert held == [2, 3, 4, 5] and FLOW_SETS_KEPT == 4
            engine.collect()
            for state in engine.worker_states:
                assert state["flow_sets"] == held
            # Set 0 was evicted, so it ships again, under a new id.
            fleet.replay(generators[0].stream(flows, 200), batch=64)
            assert shipped[-2:] == [(0, 6), (1, 6)]
            totals = engine.transport_stats()["totals"]
            assert totals["flow_sets_shipped"] == 14
        finally:
            fleet.close()

    def test_uniform_flow_set_ships_without_its_specs(self):
        """Only the ``flows`` message drops a uniform set's specs; the
        set itself pickles and copies whole, and the shipped copy
        makes the batches the set makes."""
        uniform = FlowColumns(synth_flows(8))
        assert uniform.uniform
        assert pickle.loads(pickle.dumps(uniform)).flows == uniform.flows
        assert copy.deepcopy(uniform).flows == uniform.flows
        shipped = _FlowSet(0, uniform, 64).message()[2]
        assert shipped.flows is None and uniform.flows is not None
        chosen = np.array([3, 0, 7, 3], dtype=np.int64)
        ours, theirs = uniform.batch(chosen, 64), shipped.batch(chosen, 64)
        assert ours.names == theirs.names
        assert np.array_equal(ours.values, theirs.values)
        assert np.array_equal(ours.sizes, theirs.sizes)
        # A non-uniform set needs its specs for the Packet-list batch.
        mixed = FlowColumns(
            synth_flows(3) + [synth_flows(4)[3].with_fields(**{"vlan.id": 7})]
        )
        assert not mixed.uniform
        assert _FlowSet(1, mixed, 64).message()[2].flows == mixed.flows

    def test_respawn_after_a_checkpoint_that_holds_the_flow_set(
        self, monkeypatch
    ):
        """The flow set ships in the first replay, whose ``end``
        checkpoints; shard 0 dies in the second, whose journal names
        the set but does not carry it. The respawn re-registers it from
        the checkpoint and the fleet ends where a fault-free twin
        does."""
        monkeypatch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", 1)
        flows = synth_flows(64)

        def run(fault_plan=None):
            build, install = EXAMPLE_APPS["l2l3_acl"]
            program = build()
            fleet = Deployment(
                program,
                EMULATED_NIC,
                jobs=2,
                plan=Pipeleon(EMULATED_NIC).optimize(program),
                batch=32,
                supervisor=fast_options(recovery="respawn"),
                fault_plan=fault_plan,
            )
            install(fleet.control_plane)
            generator = TrafficGenerator(9)
            first = fleet.replay(generator.stream(flows, 600), batch=32)
            engine = fleet.emulator
            base = engine._journals[0].checkpoint
            assert [message[0] for message in base.flow_sets] == ["flows"]
            first_batches = engine.ring_stats[0]["pushed_batches"]
            second = fleet.replay(
                generator.stream(flows, 600, locality="zipf"), batch=32
            )
            return fleet, first_batches, [first, second]

        clean, first_batches, clean_stats = run()
        try:
            clean_caches = worker_caches(clean)
            clean_counters = clean.emulator.counters.snapshot()
        finally:
            clean.close()
        killed, _, killed_stats = run(
            FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=first_batches + 2),)
            )
        )
        try:
            engine = killed.emulator
            assert engine.respawns == [1, 0]
            # Shipped once per shard: the respawn did not need a resend.
            assert engine.transport_stats()["totals"]["flow_sets_shipped"] == 2
            for replayed, reference in zip(killed_stats, clean_stats):
                assert stats_fingerprint(replayed) == stats_fingerprint(
                    reference
                )
            assert engine.counters.snapshot() == clean_counters
            assert worker_caches(killed) == clean_caches
        finally:
            killed.close()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_degraded_reroute(self, monkeypatch, jobs):
        """Shard ``jobs - 1`` dies before its third batch: its flows
        reroute over the survivors' table (``hash(key) % survivors``),
        the batches it took are lost, and a fleet of one has no
        survivor to reroute to."""
        doomed = jobs - 1
        options = fast_options(recovery="degraded")
        if jobs == 1:
            fleet = one_worker_fleet(
                make_single("l2l3_acl"), batch=32, options=options
            )
        else:
            fleet = make_sharded("l2l3_acl", jobs, options=options, batch=32)
        try:
            stream = TrafficGenerator(23).stream(
                synth_flows(64), 900, locality="zipf"
            )
            seen = record_dispatches(
                monkeypatch, fleet, kill_before=(doomed, 2)
            )
            if jobs == 1:
                with pytest.raises(EmulationError, match="no survivors"):
                    fleet.replay(stream, offered_pps=1e6, batch=32)
                return
            stats = fleet.replay(stream, offered_pps=1e6, batch=32)
            assert fleet.emulator.degraded_shards == [doomed]
            assert stats.lost_packets == 2 * 32
            assert stats.packets == 900 - stats.lost_packets
            survivors = [s for s in range(jobs) if s != doomed]
            for shard, packets, _ts in seen:
                for key in map(Packet.flow_key, packets):
                    home = flow_shard(key, jobs)
                    assert shard == home or (
                        home == doomed
                        and shard == survivors[hash(key) % len(survivors)]
                    )
        finally:
            fleet.close()

    def test_registry_and_journal_stay_bounded_over_a_rotation(
        self, monkeypatch
    ):
        """60 replays over scenario phases, each scenario built afresh
        (new generators, so new flow sets): every worker holds exactly
        the parent's at most :data:`FLOW_SETS_KEPT` flow sets, and a
        shard's journal never holds more than the checkpoint threshold
        plus one replay."""
        threshold = 64 << 10
        monkeypatch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", threshold)
        rotation = ("update_storm", "ddos_burst", "flash_crowd")
        build, install = EXAMPLE_APPS["dash_routing"]
        fleet = Deployment(
            build(),
            EMULATED_NIC,
            jobs=2,
            supervisor=fast_options(recovery="respawn"),
        )
        install(fleet.control_plane)
        try:
            engine = fleet.emulator
            bases = []  # held, so that no two ids can coincide
            for replay in range(60):
                scenario = build_scenario(
                    rotation[replay % 3], seed=str(replay // 3)
                )
                phase = scenario.phases[(replay // 3) % len(scenario.phases)]
                before = [journal.bytes for journal in engine._journals]
                fleet.replay(phase.stream_factory(300))
                held = [flow_set.id for flow_set in engine._flow_sets]
                assert len(held) <= FLOW_SETS_KEPT
                for state in engine.worker_states:
                    assert state["flow_sets"] == held
                for shard, journal in enumerate(engine._journals):
                    grown = max(journal.bytes - before[shard], 0)
                    assert journal.bytes <= threshold + grown
                    bases.append(journal.checkpoint)
            assert len({id(base) for base in bases}) > 4  # checkpointed
            shipped = engine.transport_stats()["totals"]["flow_sets_shipped"]
            assert shipped >= 2 * 20  # new flow sets kept arriving
        finally:
            fleet.close()


if __name__ == "__main__":  # pragma: no cover - golden recording
    import pprint

    for label, jobs in (("jobs1", 1), ("fleet", 2)):
        deployment = non_soa_deployment(jobs)
        try:
            print(f'"{label}":')
            pprint.pprint(non_soa_scenario(deployment), width=78)
        finally:
            deployment.close()
