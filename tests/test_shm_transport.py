"""The zero-copy shared-memory transport (DESIGN.md §13).

Three layers of proof:

* **Ring mechanics** — hypothesis drives random push/peek/advance
  schedules against a plain deque model: wraparound, full/empty
  boundaries and variable payload sizes all behave identically, and a
  corrupted slot surfaces as :class:`TornRecordError`, never as a
  silently decoded batch.
* **Codec** — a ``ColumnBatch``'s columns round-trip through a ring
  slot bit-exactly (values, sizes, timestamps, field names).
* **Transport semantics** — a sharded replay is bit-identical to
  single-core, sends **zero** pickled batch messages over the pipe for
  batches that fit a slot (the acceptance criterion: ``pickle.dumps``
  is monkeypatched to raise mid-replay), inlines — counted — the SoA
  batches a slot cannot hold, materialises no ``Packet`` in a worker
  whichever carried the batch, cleans up every ``/dev/shm`` segment,
  and — the supervision bugfix — a worker slowly draining a full ring
  resets the hung deadline via its consumer cursor.
"""

import pickle
import re
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import EXAMPLE_APPS
from repro.core import Deployment
from repro.core.sharded import ShardedDeployment
from repro.errors import EmulationError
from repro.nic import shm_transport
from repro.nic.columnar import ColumnBatch
from repro.nic.faults import FaultPlan, FaultSpec
from repro.nic.packet import Packet, make_packet
from repro.nic.sharding import ShardedEmulator, SupervisorOptions
from repro.nic.targets import EMULATED_NIC
from repro.nic.shm_transport import (
    BATCH_RECORD,
    COMMIT_MAGIC,
    DEFAULT_RING_SLOTS,
    RECORD_HEADER_BYTES,
    ShardChannel,
    ShmRing,
    TornRecordError,
    batch_record_bytes,
    data_slot_bytes,
    decode_names,
    read_batch_record,
)
from repro.telemetry import Telemetry
from tests.test_faults import make_sharded, make_single
from repro.traffic import TrafficGenerator, synth_flows
from tests.test_nic_sharding import (
    app_packets,
    assert_sharded_identical,
    make_twins,
    stats_fingerprint,
)

SLOTS = 4
PAYLOAD_CAP = 64


def small_ring() -> ShmRing:
    return ShmRing(SLOTS, RECORD_HEADER_BYTES + PAYLOAD_CAP)


# ---------------------------------------------------------------------------
# Ring mechanics
# ---------------------------------------------------------------------------


class TestRingModel:
    """Random schedules against a deque model of an SPSC ring."""

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.integers(0, PAYLOAD_CAP),
                    st.integers(0, 255),
                ),
                st.just(("pop",)),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_ring_matches_deque_model(self, ops):
        ring = small_ring()
        try:
            model: deque = deque()
            pushed = 0
            for op in ops:
                if op[0] == "push":
                    _, length, fill = op
                    payload = bytes([fill]) * length

                    def writer(view, payload=payload, length=length):
                        view[:length] = payload

                    ok = ring.try_push(
                        BATCH_RECORD,
                        (length, fill, pushed, 0, 0),
                        length,
                        writer,
                    )
                    # Full/empty boundary: accepted iff a slot is free.
                    assert ok == (len(model) < SLOTS)
                    if ok:
                        model.append((pushed, length, fill))
                        pushed += 1
                else:
                    record = ring.peek()
                    if not model:
                        assert record is None
                        continue
                    index, length, fill = model.popleft()
                    assert record.index == index
                    assert record.kind == BATCH_RECORD
                    assert record.meta == (length, fill, index, 0, 0)
                    assert (
                        bytes(record.payload[:length])
                        == bytes([fill]) * length
                    )
                    del record  # drop payload view before close()
                    ring.advance()
            assert len(ring) == len(model)
            assert ring.free_slots == SLOTS - len(model)
            assert ring.occupancy() == len(model) / SLOTS
        finally:
            ring.close(unlink=True)

    def test_long_wraparound_preserves_every_record(self):
        ring = small_ring()
        try:
            for index in range(50 * SLOTS):
                fill = index % 251

                def writer(view, fill=fill):
                    view[:8] = bytes([fill]) * 8

                assert ring.try_push(
                    BATCH_RECORD, (fill, 0, 0, 0, 0), 8, writer
                )
                record = ring.peek()
                assert record.index == index
                assert bytes(record.payload[:8]) == bytes([fill]) * 8
                del record
                ring.advance()
            assert ring.peek() is None
            assert ring.produced == ring.consumed == 50 * SLOTS
        finally:
            ring.close(unlink=True)

    @pytest.mark.parametrize("word", [0, 7])
    def test_corrupted_header_raises_torn_record(self, word):
        ring = small_ring()
        try:
            assert ring.try_push(
                BATCH_RECORD, (1, 2, 3, 4, 5), 8, lambda view: None
            )
            header = np.ndarray(
                (8,),
                dtype=np.int64,
                buffer=ring._slot(0)[:RECORD_HEADER_BYTES],
            )
            header[word] = header[word] ^ 0x1  # single bit flip
            with pytest.raises(TornRecordError, match="integrity"):
                ring.peek()
            # Repair: peek must succeed again (detection, not poison).
            header[0] = 0
            header[7] = 0 ^ COMMIT_MAGIC
            assert ring.peek() is not None
            del header
        finally:
            ring.close(unlink=True)

    def test_push_validates_payload_and_meta(self):
        ring = small_ring()
        try:
            with pytest.raises(ValueError, match="exceeds slot"):
                ring.try_push(
                    BATCH_RECORD,
                    (0,) * 5,
                    PAYLOAD_CAP + 1,
                    lambda view: None,
                )
            with pytest.raises(ValueError, match="5 int64"):
                ring.try_push(
                    BATCH_RECORD, (1, 2, 3), 8, lambda view: None
                )
        finally:
            ring.close(unlink=True)

    def test_closed_ring_rejects_all_operations(self):
        ring = small_ring()
        ring.close(unlink=True)
        ring.close(unlink=True)  # idempotent
        with pytest.raises(EmulationError, match="closed"):
            ring.try_push(BATCH_RECORD, (0,) * 5, 8, lambda view: None)
        with pytest.raises(EmulationError, match="closed"):
            ring.peek()

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="slots"):
            ShmRing(0, RECORD_HEADER_BYTES + 8)
        with pytest.raises(ValueError, match="slot_bytes"):
            ShmRing(2, RECORD_HEADER_BYTES)  # no payload room
        with pytest.raises(ValueError, match="slot_bytes"):
            ShmRing(2, RECORD_HEADER_BYTES + 9)  # unaligned


# ---------------------------------------------------------------------------
# SoA codec
# ---------------------------------------------------------------------------


def uniform_packets(n: int = 7) -> list:
    return [
        make_packet(sport=1000 + i, dport=80 + (i % 3)) for i in range(n)
    ]


class TestSoaCodec:
    def test_round_trip_through_ring(self):
        packets = uniform_packets()
        batch = ColumnBatch.from_packets(packets)
        names, sizes = batch.names, batch.sizes
        channel = ShardChannel(batch=len(packets))
        try:
            timestamps = [0.5 * i for i in range(len(packets))]
            assert channel.try_push_batch(
                names, batch.values, sizes, timestamps
            )
            record = channel.data.peek()
            # The header describes the payload and nothing else.
            assert record.meta == (
                len(packets),
                len(names),
                1,
                len(channel.names_blob(names)),
                0,
            )
            blob, values, out_sizes, ts = read_batch_record(record)
            assert decode_names(blob) == names
            # Field-major: every field one contiguous int64 row.
            assert values.shape == (len(names), len(packets))
            assert values.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(values, batch.values)
            np.testing.assert_array_equal(out_sizes, sizes)
            np.testing.assert_allclose(ts, timestamps)
            for field, row in zip(names, values):
                assert row.tolist() == [
                    p.fields[field] for p in packets
                ]
            del record, values, out_sizes, ts
            channel.data.advance()
        finally:
            channel.close()

    def test_round_trip_without_timestamps(self):
        batch = ColumnBatch.from_packets(uniform_packets(3))
        channel = ShardChannel(batch=4)
        try:
            assert channel.try_push_batch(
                batch.names, batch.values, batch.sizes, None
            )
            record = channel.data.peek()
            _blob, values, _sizes, ts = read_batch_record(record)
            assert ts is None
            np.testing.assert_array_equal(values, batch.values)
            del record, values, _sizes
            channel.data.advance()
        finally:
            channel.close()

    def test_names_blob_memoized_and_decoded(self):
        channel = ShardChannel(batch=2)
        try:
            names = ("a.b", "c.d")
            assert channel.names_blob(names) is channel.names_blob(
                names
            )
            assert decode_names(channel.names_blob(names)) == names
            assert decode_names(b"") == ()
        finally:
            channel.close()

    def test_batch_fits_matches_geometry(self):
        channel = ShardChannel(batch=32)
        try:
            assert channel.batch_fits(32, 5, 64)
            # Far past the sizing assumptions: cannot fit.
            assert not channel.batch_fits(32, 2 * channel.max_fields, 64)
            assert batch_record_bytes(1, 1, 0, False) == 16
            assert data_slot_bytes(32) % 8 == 0
        finally:
            channel.close()


# ---------------------------------------------------------------------------
# Segment lifecycle
# ---------------------------------------------------------------------------


class TestSegmentCleanup:
    def test_channel_close_unlinks_segments(self):
        channel = ShardChannel(batch=8)
        name = channel.data.name
        assert name in shm_transport._CREATED
        channel.close()
        assert name not in shm_transport._CREATED
        shm_dir = Path("/dev/shm")
        if shm_dir.is_dir():
            assert not (shm_dir / name).exists()

    def test_fleet_close_leaves_no_segments(self):
        _single, sharded = make_twins("l2l3_acl", 2)
        engine = sharded.emulator
        names = [channel.data.name for channel in engine._channels]
        sharded.replay(app_packets(2, 100), offered_pps=1e6)
        sharded.close()
        shm_dir = Path("/dev/shm")
        for name in names:
            assert name not in shm_transport._CREATED
            if shm_dir.is_dir():
                assert not (shm_dir / name).exists()


# ---------------------------------------------------------------------------
# Transport semantics over a real fleet
# ---------------------------------------------------------------------------


def wide_stream(seed: int, n: int):
    """``app_packets`` traffic carrying 35 header fields no table
    reads: 45 columns, so a full batch exceeds a slot sized for
    ``DEFAULT_MAX_FIELDS`` and only a short one fits."""
    extra = {f"opt.w{i:02d}": i for i in range(35)}
    flows = [
        flow.with_fields(**extra)
        for flow in synth_flows(48) + synth_flows(16, dport=6666)
    ]
    return TrafficGenerator(seed).stream(flows, n, locality="zipf")


class TestShmReplaySemantics:
    def test_no_pickled_batches_on_shm_path(self, monkeypatch):
        """Acceptance: a shm replay pickles no packet data, ever.

        ``pickle.dumps`` is poisoned for the whole replay, and every
        pipe send is spied on: only control ops may cross the pipe and
        every batch must travel the ring.
        """
        single, sharded = make_twins("l2l3_acl", 2)
        try:
            reference = single.replay(app_packets(9), offered_pps=1e6)
            sent_ops = []
            real_send = ShardedEmulator._guarded_send

            def spying_send(self, shard, message, **kwargs):
                sent_ops.append(message[0])
                return real_send(self, shard, message, **kwargs)

            monkeypatch.setattr(
                ShardedEmulator, "_guarded_send", spying_send
            )

            def poisoned_dumps(*args, **kwargs):
                raise AssertionError(
                    "pickle.dumps called on the shm hot path"
                )

            monkeypatch.setattr(pickle, "dumps", poisoned_dumps)
            replayed = sharded.replay(app_packets(9), offered_pps=1e6)
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert "batch" not in sent_ops
            totals = sharded.emulator.transport_stats()["totals"]
            assert totals["pushed_batches"] > 0
            assert totals["pushed_packets"] == 300
            assert totals["fallback_encoding"] == 0
            assert totals["fallback_capacity"] == 0
        finally:
            sharded.close()

    def test_non_encodable_batches_fall_back_to_pipe(self):
        """Mixed-header traffic rides the pipe — counted, not dropped."""
        telemetry = Telemetry()
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=SupervisorOptions(recv_timeout_s=10.0),
            telemetry=telemetry,
        )
        try:
            packets = app_packets(4, 120)
            for packet in packets[::3]:
                packet.metadata["meta.mark"] = 1  # defeats the SoA form
            stats = sharded.replay(packets, offered_pps=1e6, batch=16)
            assert stats.packets == 120
            totals = sharded.emulator.transport_stats()["totals"]
            assert totals["fallback_encoding"] > 0
            assert totals["pushed_batches"] == 0
            registry = telemetry.registry
            fallbacks = sum(
                registry.value(
                    "pipeleon_pipe_fallback_total",
                    shard=shard,
                    reason="encoding",
                )
                for shard in (0, 1)
            )
            assert fallbacks == totals["fallback_encoding"]
        finally:
            sharded.close()

    @pytest.mark.parametrize(
        "kill", [False, True], ids=["healthy", "kill-respawn"]
    )
    def test_wide_batches_go_inline_bit_identical(self, kill):
        """A SoA batch a slot cannot hold is inlined as SoA — counted,
        journaled and replayed like any other — while each shard's
        short last batch, which does fit, still rides the ring."""
        batch, n = 64, 1000
        kill_plan = FaultPlan((FaultSpec("kill", shard=0, at_batch=5),))
        single = make_single("l2l3_acl")
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=SupervisorOptions(
                recv_timeout_s=10.0, recovery="respawn"
            ),
            fault_plan=kill_plan if kill else None,
            batch=batch,
        )
        try:
            reference = single.replay(
                wide_stream(21, n), offered_pps=1e6, batch=batch
            )
            replayed = sharded.replay(
                wide_stream(21, n), offered_pps=1e6, batch=batch
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
            totals = sharded.emulator.transport_stats()["totals"]
            # 15 full batches inlined, one short ring batch per shard.
            assert totals["fallback_capacity"] == 15
            assert totals["fallback_encoding"] == 0
            assert totals["pushed_batches"] == 2
            assert totals["pushed_packets"] == n - 15 * batch
            assert sharded.emulator.respawns == [int(kill), 0]
        finally:
            sharded.close()

    def test_tiny_ring_backpressure_counts_stalls_and_occupancy(self):
        telemetry = Telemetry()
        single = make_single("l2l3_acl")
        build, install = EXAMPLE_APPS["l2l3_acl"]
        sharded = Deployment(
            build(),
            EMULATED_NIC,
            jobs=2,
            ring_slots=1,
            telemetry=telemetry,
        )
        install(sharded.control_plane)
        try:
            reference = single.replay(app_packets(6), offered_pps=1e6)
            replayed = sharded.replay(
                app_packets(6), offered_pps=1e6, batch=16
            )
            # Backpressure never corrupts: identical under a 1-slot ring.
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            stats = sharded.emulator.transport_stats()
            assert stats["ring_slots"] == 1
            totals = stats["totals"]
            # The dispatcher outruns a 1-slot ring immediately.
            assert totals["stalls"] > 0
            assert totals["max_occupancy"] == 1.0
            registry = telemetry.registry
            stall_metric = sum(
                registry.value(
                    "pipeleon_ring_stalls_total", shard=shard
                )
                for shard in (0, 1)
            )
            assert stall_metric == totals["stalls"]
            occupancy = sum(
                registry.histogram(
                    "pipeleon_ring_occupancy", shard=shard
                ).count
                for shard in (0, 1)
            )
            assert occupancy == totals["pushed_batches"]
        finally:
            sharded.close()

    def test_default_ring_slots_exported(self):
        _single, sharded = make_twins("l2l3_acl", 2)
        try:
            stats = sharded.emulator.transport_stats()
            assert "transport" not in stats  # nothing to choose
            assert stats["ring_slots"] == DEFAULT_RING_SLOTS
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# One batch type: workers ingest columns whatever carried them
# ---------------------------------------------------------------------------


class TestWorkerIngestion:
    def test_pipe_workers_build_no_packets(self, monkeypatch):
        """A batch too wide for a slot is inlined as the same columns
        the ring carries: with ``Packet.__init__`` poisoned in the
        workers (they fork while it is patched; the parent's copy is
        restored to generate traffic), an ``engine="auto"`` replay of
        inlined batches is still bit-identical."""

        def poisoned(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a worker materialised a Packet")

        single = make_single("l2l3_acl")
        with monkeypatch.context() as patch:
            patch.setattr(Packet, "__init__", poisoned)
            sharded = make_sharded(
                "l2l3_acl",
                2,
                options=SupervisorOptions(recv_timeout_s=10.0),
                batch=64,
            )
        try:
            reference = single.replay(wide_stream(21, 600), batch=64)
            replayed = sharded.replay(wide_stream(21, 600), batch=64)
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert sharded.emulator.columnar_demotions == {}
            totals = sharded.emulator.transport_stats()["totals"]
            assert totals["fallback_capacity"] >= 8
        finally:
            sharded.close()

    @pytest.mark.parametrize("engine", ["auto", "interp"])
    def test_only_make_packet_builds_packets_in_a_worker(
        self, monkeypatch, engine
    ):
        """For uniform traffic the one columns -> Packet decoder is
        ``ColumnBatch.make_packet``, reached only by the per-packet
        engines. Each worker records who called ``Packet.__init__``
        and ships the set home in its worker state."""
        from repro.nic import sharding

        callers: set = set()
        real_init = Packet.__init__
        real_state = sharding._worker_state

        def spying_init(self, *args, **kwargs):
            callers.add(sys._getframe(1).f_code.co_name)
            real_init(self, *args, **kwargs)

        def state_with_callers(emulator):
            state = real_state(emulator)
            state["packet_callers"] = set(callers)
            return state

        single = make_single("l2l3_acl")
        with monkeypatch.context() as patch:
            patch.setattr(Packet, "__init__", spying_init)
            patch.setattr(sharding, "_worker_state", state_with_callers)
            sharded = make_sharded(
                "l2l3_acl",
                2,
                options=SupervisorOptions(recv_timeout_s=10.0),
                engine=engine,
            )
        try:
            reference = single.replay(
                app_packets(22, 600), offered_pps=1e6, batch=64
            )
            replayed = sharded.replay(
                app_packets(22, 600), offered_pps=1e6, batch=64
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            expected = set() if engine == "auto" else {"make_packet"}
            states = sharded.emulator.worker_states
            assert len(states) == 2
            for state in states:
                assert state["packet_callers"] == expected
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Ring-progress-aware supervision (the satellite bugfix)
# ---------------------------------------------------------------------------


def slow_drain_fleet():
    """A fleet whose shard 0 sleeps 0.4s on two consecutive batches.

    With ``recv_timeout_s=0.6`` the worker is pipe-silent for ~0.8s
    around the end-of-replay gather. Its consumer cursor still
    advances between the two delays, so progress-aware supervision
    keeps waiting.
    """
    plan = FaultPlan(
        (
            FaultSpec("delay", shard=0, at_batch=5, delay_s=0.4),
            FaultSpec("delay", shard=0, at_batch=6, delay_s=0.4),
        )
    )
    options = SupervisorOptions(
        recv_timeout_s=0.6,
        slow_after_s=30.0,  # keep slow-reporting out of this picture
        heartbeat_interval_s=0.01,
        send_timeout_s=1.0,
        send_retries=2,
        backoff_base_s=0.01,
        close_timeout_s=0.5,
        recovery="fail",
    )
    return make_sharded(
        "l2l3_acl",
        2,
        options=options,
        fault_plan=plan,
    )


class TestRingProgressSupervision:
    def test_shm_worker_draining_ring_is_not_hung(self):
        single = make_single("l2l3_acl")
        sharded = slow_drain_fleet()
        try:
            packets = app_packets(7, 600)
            reference = single.replay(
                app_packets(7, 600), offered_pps=1e6
            )
            replayed = sharded.replay(
                packets, offered_pps=1e6, batch=32
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# One transport: the choice is gone, not defaulted
# ---------------------------------------------------------------------------


class TestOneTransport:
    def test_constructors_and_dse_take_no_transport(self):
        from repro.core import PipeleonController
        from repro.dse.spec import validate_config
        from repro.service.session import SessionConfig

        build, _install = EXAMPLE_APPS["l2l3_acl"]
        with pytest.raises(TypeError, match="transport"):
            PipeleonController(build(), EMULATED_NIC, transport="shm")
        with pytest.raises(TypeError, match="transport"):
            SessionConfig(transport="shm")
        with pytest.raises(ValueError, match="Unknown cell keys: transport"):
            validate_config({"transport": "shm"})

    def test_deployment_keeps_one_vestigial_value(self):
        """Pin of the ``repro.core.sharded`` vestige: it takes exactly
        what ``benchmarks/e2e/workloads.py:253-261`` passes —
        ``transport="shm"`` included — and hands back a
        ``Deployment(jobs=n_workers)`` that answers everything that
        file asks of it."""
        build, install = EXAMPLE_APPS["l2l3_acl"]
        for rejected in ("pipe", "carrier-pigeon"):
            with pytest.raises(ValueError, match="choice was removed"):
                ShardedDeployment(
                    build(), EMULATED_NIC, transport=rejected
                )
        program = build()
        sharded = ShardedDeployment(
            program,
            EMULATED_NIC,
            n_workers=2,
            plan=None,
            batch=4096,
            transport="shm",
            engine="auto",
        )
        try:
            assert type(sharded) is Deployment and sharded.jobs == 2
            assert not hasattr(sharded, "transport")
            assert sharded.original is program
            assert sharded.engine == "auto"
            install(sharded.control_plane)
            stats = sharded.replay(app_packets(3, 200), batch=4096)
            assert stats.packets == 200
            fleet = sharded.emulator
            assert fleet.transport_stats()["batch"] == 4096
            assert fleet.transport_stats()["totals"]["pushed_packets"] == 200
            assert len(fleet.worker_busy_s) == 2
            assert (fleet.total_respawns, fleet.lost_packets) == (0, 0)
            assert fleet.columnar_packets == 200
            assert sharded.profile().action_probs
        finally:
            sharded.close()
        assert sharded.emulator._closed

    def test_fleet_engine_is_fixed_at_the_fork(self):
        sharded = make_sharded(
            "l2l3_acl", 2, options=SupervisorOptions(), engine="interp"
        )
        try:
            with pytest.raises(ValueError, match="'interp'"):
                sharded.replay(app_packets(1, 8), engine="auto")
            stats = sharded.replay(app_packets(1, 8), engine="interp")
            assert stats.packets == 8
        finally:
            sharded.close()

    @pytest.mark.parametrize("command", ["replay", "serve --socket s"])
    def test_cli_flag_is_gone(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--transport", "shm"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_pipe_value_left_to_select(self):
        """Outside ``benchmarks/e2e`` (not editable by a code PR; it
        only ever said ``shm``) nothing names ``pipe`` as a transport
        value, and only tests pass the flag — to see it rejected."""
        root = Path(__file__).resolve().parent.parent
        value = re.compile(r"transport\W{1,4}pipe\b")
        offenders, vestige_users = [], []
        for top in ("src", "tests", "benchmarks", ".github"):
            for path in sorted((root / top).rglob("*")):
                if path.suffix not in (".py", ".yml") or "e2e" in path.parts:
                    continue
                text = path.read_text()
                if value.search(text) or (
                    top != "tests" and "--transport" in text
                ):
                    offenders.append(str(path.relative_to(root)))
                if "ShardedDeployment" in text:
                    vestige_users.append(str(path.relative_to(root)))
        assert offenders == []
        # The wrapper class is gone too: its name survives only as the
        # vestige ``benchmarks/e2e`` imports, and in this file's pin.
        assert vestige_users == [
            "src/repro/core/sharded.py",
            "tests/test_shm_transport.py",
        ]
