"""Sharded multi-core replay engine: flow-hash partitioning over workers.

A :class:`ShardedEmulator` owns N worker *processes*, each holding its
own :class:`~repro.nic.emulator.NicEmulator` (and therefore its own
execution tiers, flow caches and counter bank). Traffic is partitioned
by a deterministic hash of the packet's
five-tuple, so every packet of a flow lands on the same worker — which
is exactly what NIC RSS does in hardware, and what preserves per-flow
cache behaviour: a flow's hits, misses and recorded effects are
identical whether the flow shares a core with every other flow or only
with the flows that hash beside it.

Equivalence contract: with ``sample_stride == 1``, flow caches that
neither evict (capacity >= live flows) nor rate-limit insertions, and
cache keys that resolve within a flow (each cache key is only ever
produced by flows of one shard — true whenever keys include the five
tuple, or are distinct per flow), the *merge* of the per-worker run
stats, counter banks and cache stats is exactly — bit for bit — what a
single-core replay of the unsharded stream produces (see
``tests/test_nic_sharding.py``). This holds because all aggregates are
either integer sums or exact sums over value counts (order-independent),
and per-flow state never crosses shards. Outside that regime the
engine stays *semantically* correct — every packet still gets the
single-core forwarding result — but cold-start effects differ: a cache
key shared by flows on different shards (e.g. a dst-only route cache
key under traffic where several flows share a dst) warms once per
shard instead of once globally, so miss counts can exceed one core's.

Control-plane updates reach workers through an epoch-versioned
broadcast: every mutation the parent applies (entry install/delete,
cache invalidation, cache flush) is forwarded through each worker's
command pipe *in order with packet batches*, so a worker has always
applied update epoch ``e`` before it replays any batch dispatched after
``e``. Applying a broadcast bumps the runtime table's version, which is
what every execution tier's staleness fingerprint watches: the next
batch rebuilds whatever the selected tier had compiled against the old
entries.

A plan change travels the same way: :meth:`ShardedEmulator.swap`
broadcasts one epoch-stamped ``swap`` message; each worker rebuilds its
emulator there and keeps every same-shape flow cache (the rule one core
uses). Nothing is forked: processes, rings, sidecar pipes, fault plan
and respawn counters live from the fork to ``close``.

One batch type each way. **Out:** the dispatcher ships flow indices.
A column source (:class:`~repro.nic.columnar.ColumnSource`, what the
traffic generator returns) hands it ``(flow set, chosen indices,
size_bytes)``; any other ``Packet`` iterable is read whole at the
boundary and becomes one (:class:`~repro.nic.columnar.PacketFlows`:
each distinct packet a flow, snapshotted). The first time a replay
meets a flow set, every shard gets it once, in a journaled
``("flows", id, FlowColumns, size_bytes)`` message, and the parent
builds ``shard_of_flow`` — :func:`flow_shard` of each flow's
five-tuple, so every packet lands where it always has.
Routing a chunk is then ``shard_of_flow[chosen]`` plus one split, into
per-shard buffers cut at exactly ``batch`` rows — so a shard's dispatch
batches do not depend on how the stream was chunked. A worker makes
each batch with ``flow_set.batch(chosen, size_bytes)``, the call one
core makes, so its batches are one core's by construction (the
``Packet``-list batch of a non-uniform flow set included). Both
sides keep at most :data:`FLOW_SETS_KEPT` flow sets and evict the
oldest registration first, in message order, so they agree on every
id (how long a set lives is :data:`~repro.nic.columnar.
FLOW_SETS_KEPT`, one rule for the source and the fleet).
:meth:`NicEmulator.replay_batch` materialises ``Packet`` objects from
columns only when the selected engine is ``interp``. **Back:** the
merged stats and worker state of the ``end`` reply, and nothing else.

One ordered stream per shard: the command pipe. Every message a worker
acts on — broadcasts, flow sets, batch tokens, ``begin``/``end`` —
arrives on it, and its FIFO order is the only order there is. Every
index batch is parked in the shard's shared-memory ring
(:mod:`repro.nic.shm_transport`; 8 B per packet, 16 B paced — no
per-packet Python objects and no pickling on the hot path), and a
``("ring",)`` token is sent in its place; the worker, blocked on the
pipe, pops the ring head when it reads the token. The publish
happens-before the token send, so a token without a published record
is a protocol error, raised at once. Only the journal replay after a
respawn inlines (pickles) its index batches, as ``index`` messages.

Fault tolerance (see DESIGN.md §12): every pipe interaction runs under
a supervisor governed by :class:`SupervisorOptions`. Sends are
writability-checked with bounded retry/backoff; receives poll on a
heartbeat with a hard deadline, classifying a silent worker as *slow*
(reported, still waited for), *hung* (alive past the deadline) or
*dead* (process gone / pipe broken). What happens next is the
``recovery`` policy:

``fail`` (default)
    Raise :class:`EmulationError` with the shard, classification and
    elapsed time — the pre-fault-tolerance behaviour, minus the
    indefinite hangs.
``respawn``
    Terminate the failed worker, fork a fresh one, swap it to the
    shard's last *checkpoint* (the template as of a replay barrier plus
    the worker state it replied there: LRU cache contents, counters,
    clock, lifetime totals), re-register the flow sets it held then,
    and replay the shard's message *journal* (every state-bearing
    message since that checkpoint, swaps and flow sets included).
    Workers are deterministic functions of their message history, so
    the rebuilt shard converges to the exact pre-failure state and the
    merged run stats stay bit-identical to a fault-free run — the
    property ``tests/test_faults.py`` pins. A journal past
    :data:`JOURNAL_CHECKPOINT_BYTES` asks for a new checkpoint at the
    next barrier and is dropped, so it never holds much more than that
    plus one replay.
``degraded``
    Mark the shard dead, redistribute its *future* flows across the
    survivors (deterministically, by flow hash over the survivor
    list), and account the packets whose results died with the worker
    in ``RunStats.lost_packets``.

Deterministic failures are injected for tests and CI through
:mod:`repro.nic.faults` (``fault_plan=``, CLI ``--inject-fault``).

Known limitation: ``select``-based writability reports *any* free pipe
buffer space, so a single message larger than the free space (a huge
entry broadcast) can still block mid-write; all other protocol
messages are small. Batches are bounded by the batch size.
"""

from __future__ import annotations

import atexit
import copy
import dataclasses
import multiprocessing as mp
import pickle
import select
import time
import traceback
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import EmulationError
from repro.ir.entries import TableEntry
from repro.nic.columnar import (
    FLOW_SETS_KEPT,
    ColumnBatch,
    ColumnSource,
    PacketFlows,
)
from repro.nic.control_plane import SimClock
from repro.nic.counters import CounterBank
from repro.nic.emulator import DEFAULT_BATCH, ENGINES, NicEmulator
from repro.nic.faults import FaultInjector, FaultPlan, FaultSpec
from repro.nic.flow_cache import CacheStats
from repro.nic.packet import Packet
from repro.nic.shm_transport import (
    DEFAULT_RING_SLOTS,
    ShardChannel,
    index_record_bytes,
    read_index_record,
)
from repro.nic.stats import RunStats
from repro.telemetry.live import LiveFeed, LiveOptions

__all__ = [
    "ShardJournal",
    "ShardedEmulator",
    "SupervisorOptions",
    "flow_shard",
]

_RECOVERY_MODES = ("fail", "respawn", "degraded")

_METRIC_HELP = {
    "pipeleon_worker_faults_total": (
        "Worker failures by supervisor classification (slow/hung/dead)"
    ),
    "pipeleon_worker_respawns_total": (
        "Workers respawned after a failure (recovery=respawn)"
    ),
    "pipeleon_packets_lost_total": (
        "Packets whose results died with a degraded shard"
    ),
    "pipeleon_broadcast_retries_total": (
        "Pipe send retries after a transient worker stall"
    ),
    "pipeleon_ring_occupancy": (
        "Data-ring occupancy fraction observed at each batch push"
    ),
    "pipeleon_ring_stalls_total": (
        "Batch dispatches that stalled on a full data ring"
    ),
    "pipeleon_flow_sets_shipped_total": (
        "Flow sets sent to a shard worker (once per registration)"
    ),
}

#: Fraction buckets for the ring-occupancy histogram (eighths of the
#: ring, matching the default slot count so each bucket is one slot).
_OCCUPANCY_BUCKETS = tuple(i / 8 for i in range(1, 9))

#: Worker-side pipe poll cadence while idle with live telemetry on
#: (wall-cadence heartbeats fire between polls).
_IDLE_POLL_S = 0.002
#: Parent-side poll cadence while stalled on a full data ring.
_STALL_POLL_S = 0.0005
#: Worker bound on a blocking live-telemetry snapshot send; the
#: aggregator drains continuously, so expiry means it is gone or
#: wedged — snapshots are observability, drop rather than deadlock.
_LIVE_SEND_TIMEOUT_S = 10.0
#: Journal size (bytes, see :func:`_message_bytes`) at which the next
#: ``end``/``collect`` barrier asks the shard for a checkpoint and drops
#: the journal. A full 4 096-entry ``dash_routing`` cache checkpoint is
#: about 160 KB and a few ms to pickle both ways, so checkpointing every
#: barrier would cost a visible share of a barrier-bound session.
JOURNAL_CHECKPOINT_BYTES = 4 << 20


def _new_ring_stats() -> dict:
    """Zeroed per-shard dispatch counters (plain, JSON-friendly).

    ``pushed_bytes`` is the ring payload. ``fallback_encoding`` and
    ``fallback_capacity`` are always 0 (every batch rides the ring),
    kept only because ``benchmarks/e2e`` reads them.
    """
    return {
        "pushed_batches": 0,
        "pushed_packets": 0,
        "pushed_bytes": 0,
        "flow_sets_shipped": 0,
        "stalls": 0,
        "fallback_encoding": 0,
        "fallback_capacity": 0,
        "max_occupancy": 0.0,
    }


# ---------------------------------------------------------------------------
# Flow -> shard assignment
# ---------------------------------------------------------------------------


def flow_shard(flow_key: tuple[int, ...], n_shards: int) -> int:
    """Deterministic shard index for a flow key.

    Uses the builtin tuple hash, which for integer elements is *not*
    randomized by ``PYTHONHASHSEED`` — the same key maps to the same
    shard in every process and every run, which the dispatcher relies
    on.
    """
    if n_shards <= 1:
        return 0
    return hash(flow_key) % n_shards


def _shard_table(flow_set, pick) -> np.ndarray:
    """``pick(five-tuple)`` of every flow of a :class:`FlowColumns`, as
    an int64 array indexed by flow.

    Keys are read off the flow set's matrices, each unique one picked
    once; a flow SoA cannot express is keyed through its packet.
    """
    table = np.zeros(len(flow_set.group), dtype=np.int64)
    for group, names in enumerate(flow_set.names):
        keys, key_of_column = ColumnBatch(
            names, flow_set.values[group], None
        ).flow_keys()
        picked = np.fromiter(map(pick, keys), dtype=np.int64, count=len(keys))
        members = np.flatnonzero(flow_set.group == group)
        table[members] = picked[key_of_column[flow_set.column[members]]]
    for flow in np.flatnonzero(flow_set.group < 0).tolist():
        table[flow] = pick(flow_set.flows[flow].packet().flow_key())
    return table


class _FlowSet:
    """A flow set as the parent registered it with every shard."""

    __slots__ = ("id", "columns", "shipped", "size_bytes", "bytes", "tables")

    def __init__(self, flow_set_id: int, columns, size_bytes: int):
        self.id = flow_set_id
        self.columns = columns
        self.size_bytes = size_bytes
        #: What the workers get: a uniform set's ``batch`` never reads
        #: its specs (they back only the Packet-list batch), so its
        #: message carries a copy without them.
        self.shipped = columns
        if columns.uniform:
            self.shipped = copy.copy(columns)
            self.shipped.flows = None
        #: What a ``flows`` message costs the journal: its arrays, and
        #: the specs a non-uniform set ships for its Packet-list batch.
        self.bytes = sum(
            array.nbytes
            for array in (columns.group, columns.column, *columns.values)
        )
        if not columns.uniform:
            self.bytes += len(
                pickle.dumps(columns.flows, pickle.HIGHEST_PROTOCOL)
            )
        #: Routing tables by shard list: every shard, or the survivors.
        self.tables: dict[tuple[int, ...], np.ndarray] = {}

    def holds(self, columns, size_bytes: int) -> bool:
        return self.columns is columns and self.size_bytes == size_bytes

    def message(self) -> tuple:
        return ("flows", self.id, self.shipped, self.size_bytes)

    def route(self, shards: tuple[int, ...]) -> np.ndarray:
        """The shard of every flow over ``shards``: :func:`flow_shard`
        when every shard is alive, the survivors by flow hash after."""
        table = self.tables.get(shards)
        if table is None:
            pick = partial(flow_shard, n_shards=len(shards))
            table = np.asarray(shards, dtype=np.int64)[
                _shard_table(self.columns, pick)
            ]
            self.tables[shards] = table
        return table


class _ShardBuffer:
    """Flow indices bound for one shard, in stream order.

    Parts are ``(flow indices, timestamps | None)``; :meth:`cut` takes
    exactly the first ``rows`` rows off the front, so the dispatch
    batches of a shard are the same whatever chunks the rows came in.
    """

    __slots__ = ("parts", "rows")

    def __init__(self):
        self.parts: list = []
        self.rows = 0

    def append(self, part: np.ndarray, ts) -> None:
        self.parts.append((part, ts))
        self.rows += len(part)

    def cut(self, rows: int):
        """Pop the first ``rows`` rows as one ``(indices, timestamps)``."""
        taken = []
        need = rows
        while need:
            part, ts = self.parts[0]
            if len(part) > need:
                rest = None if ts is None else ts[need:]
                self.parts[0] = (part[need:], rest)
                part, ts = part[:need], None if ts is None else ts[:need]
            else:
                del self.parts[0]
            taken.append((part, ts))
            need -= len(part)
        self.rows -= rows
        ts = None
        if taken[0][1] is not None:
            ts = np.concatenate([part_ts for _, part_ts in taken])
        # A copy even of one part: the journal keeps what it sends.
        return np.concatenate([part for part, _ in taken]), ts


def _route_indices(chosen, ts, buffers, table) -> None:
    """Append every flow index to the buffer ``table[index]`` names,
    keeping stream order within each buffer."""
    targets = table[chosen]
    for target, buffer in enumerate(buffers):
        # ``compress`` takes a mask about twice as fast as ``[mask]``.
        rows = targets == target
        part = np.compress(rows, chosen)
        if len(part):
            buffer.append(part, None if ts is None else np.compress(rows, ts))


# ---------------------------------------------------------------------------
# Supervision policy
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SupervisorOptions:
    """Timeouts, retry budget and recovery policy for worker supervision.

    ``recv_timeout_s`` is the hard reply deadline: a worker silent for
    longer is classified *hung* (if alive) or *dead* (if exited).
    ``slow_after_s`` only reports: a reply later than this emits a
    ``worker_slow`` event but is still waited for. ``send_timeout_s``
    bounds each writability wait; a send is retried ``send_retries``
    times with exponential backoff from ``backoff_base_s`` before the
    worker is classified. ``recovery`` picks the escalation policy
    (see the module docstring); ``max_respawns`` bounds respawns *per
    shard* so a crash-looping worker cannot retry forever. A respawn
    is exact: it restores the shard's last barrier checkpoint and
    replays the journal since, which checkpoints keep bounded.
    """

    recv_timeout_s: float = 60.0
    slow_after_s: float = 5.0
    heartbeat_interval_s: float = 0.05
    send_timeout_s: float = 5.0
    send_retries: int = 3
    backoff_base_s: float = 0.05
    close_timeout_s: float = 1.0
    recovery: str = "fail"
    max_respawns: int = 3

    def __post_init__(self):
        if self.recovery not in _RECOVERY_MODES:
            raise ValueError(
                f"Unknown recovery mode {self.recovery!r}; "
                f"expected one of {', '.join(_RECOVERY_MODES)}"
            )
        for name in (
            "recv_timeout_s",
            "heartbeat_interval_s",
            "send_timeout_s",
            "close_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.slow_after_s < 0:
            raise ValueError("slow_after_s must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.send_retries < 0:
            raise ValueError("send_retries must be >= 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


class _WorkerGone(Exception):
    """Internal: a recv classified the worker as dead or hung."""

    def __init__(self, kind: str, elapsed_s: float):
        super().__init__(kind)
        self.kind = kind
        self.elapsed_s = elapsed_s


def _message_bytes(message: tuple) -> int:
    """A journaled message's footprint: an index batch's array bytes,
    anything else's pickled size (a ``flows`` message is sized once, by
    the caller)."""
    if message[0] == "index":
        _op, _flow_set, chosen, ts = message
        return chosen.nbytes + (0 if ts is None else ts.nbytes)
    return len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


@dataclasses.dataclass(frozen=True)
class _Checkpoint:
    """One shard's state at a replay barrier: what a respawn restores.

    ``spec`` is the template as of the barrier (a :func:`_swap_spec`),
    ``state`` the barrier reply's :func:`_worker_state`, ``saved``
    the rest of the worker (:func:`_checkpoint`) and ``flow_sets`` the
    flow sets it held, oldest registration first. The parent never
    mutates any of it; a respawn pickles it to the fresh worker.
    """

    spec: dict
    epoch: int
    state: dict
    saved: dict
    flow_sets: tuple = ()


class ShardJournal:
    """A shard's last checkpoint plus every state-bearing message since.

    Records every message that mutates worker state (``begin``,
    ``flows``, ``index``, ``entries``, ``invalidate``,
    ``flush``, ``reset``, ``swap``) after ``checkpoint``. A worker is a
    deterministic function of its message history, so restoring the
    checkpoint into a freshly forked worker and replaying the journal
    rebuilds the exact pre-failure emulator state — tables, epoch,
    caches, counters and in-progress replay stats. Reply-bearing ops
    (``end``/``collect``/``dump``) are never journaled; after a
    recovery the supervisor simply re-issues them, and at a barrier a
    reply may carry a new checkpoint, which :meth:`rebase` takes in
    place of the entries.
    """

    __slots__ = ("checkpoint", "entries", "batches", "bytes")

    def __init__(self, checkpoint: Optional[_Checkpoint] = None):
        self.checkpoint = checkpoint
        #: ``(message, bytes)`` pairs in send order.
        self.entries: list[tuple] = []
        self.batches = 0
        #: Sum of the entries' :func:`_message_bytes`.
        self.bytes = 0

    def append(self, message: tuple, size: Optional[int] = None) -> None:
        if size is None:
            size = _message_bytes(message)
        self.entries.append((message, size))
        self.bytes += size
        if message[0] == "index":
            self.batches += 1

    def rebase(self, checkpoint: _Checkpoint) -> None:
        """Adopt a newer checkpoint; it covers every entry so far."""
        self.checkpoint = checkpoint
        self.entries = []
        self.batches = 0
        self.bytes = 0


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


#: The match kernels' per-node plan memo counts (:class:`NicEmulator`).
_MEMO_COUNTS = (
    "columnar_memo_hits",
    "columnar_memo_misses",
    "columnar_memo_guard_failures",
)


def _worker_state(emulator: NicEmulator) -> dict:
    """Cumulative mergeable telemetry shipped back to the parent."""
    return {
        "counters": emulator.counters,
        "explicit": dict(emulator.explicit_counters),
        "cache_stats": emulator.cache_stats,
        "native_stats": emulator.native_cache_stats,
        "tracer": emulator.tracer,
        "demotions": dict(emulator.columnar_demotions),
        "columnar_packets": emulator.columnar_packets,
        "columnar_partitions": emulator.columnar_partitions,
        "columnar_scalar_lookups": dict(emulator.columnar_scalar_lookups),
        "columnar_cache_arrivals": dict(emulator.columnar_cache_arrivals),
        "columnar_cache_replayed": dict(emulator.columnar_cache_replayed),
        **{name: dict(getattr(emulator, name)) for name in _MEMO_COUNTS},
    }


def _swap_spec(template: NicEmulator) -> dict:
    """What a fork of ``template`` would inherit (bar the target, fixed
    for the fleet's life), as a picklable ``swap`` body. Snapshots only:
    the journal keeps the message for a respawn to replay later."""
    return {
        "program": template.program,
        "now_s": template.clock.now_s,
        "options": dict(
            sample_stride=template.counters.sample_stride,
            instrument=template.instrument,
            native_cache=template.native_cache is not None,
            max_steps=template.max_steps,
        ),
        "traced": template.tracer is not None,
        "tables": {
            name: runtime.entries()
            for name, runtime in template.runtime_tables.items()
        },
    }


def _swapped(emulator: NicEmulator, spec: dict) -> NicEmulator:
    """A worker's emulator after a ``swap``: rebuilt from ``spec``,
    keeping its own tracer and every flow cache whose shape the new
    plan leaves unchanged."""
    fresh = NicEmulator(
        spec["program"],
        emulator.target,
        clock=SimClock(spec["now_s"]),
        **spec["options"],
    )
    for name, entries in spec["tables"].items():
        fresh.set_table_entries(name, entries)
    fresh.tracer = emulator.tracer if spec["traced"] else None
    fresh.adopt_caches(emulator)
    return fresh


def _apply_entries(emulator: NicEmulator, table: str, payload) -> None:
    """An ``entries`` message's payload: a table's whole entry list, or
    one ``(removed id, added entry)`` edit of it."""
    if isinstance(payload, list):
        emulator.set_table_entries(table, payload)
    else:
        emulator.edit_table_entries(table, *payload)


def _checkpoint(emulator: NicEmulator) -> dict:
    """What a barrier reply's :func:`_worker_state` leaves out of a
    worker: cache contents (LRU order, stats, insertion token bucket:
    the :class:`FlowCache` objects themselves), the clock, and its live
    feed's lifetime totals (None without a feed)."""
    feed = emulator.live_feed
    return {
        "flow_caches": emulator.flow_caches,
        "native_cache": emulator.native_cache,
        "now_s": emulator.clock.now_s,
        "life": feed.state(emulator) if feed is not None else None,
    }


def _restore(emulator: NicEmulator, state: dict, saved: dict) -> None:
    """Put a checkpoint's state into ``emulator``, freshly swapped to
    the checkpoint's spec (so nothing is compiled against the objects
    replaced here)."""
    emulator.clock.now_s = saved["now_s"]
    emulator.flow_caches.update(saved["flow_caches"])
    emulator.native_cache = saved["native_cache"]
    emulator.counters = state["counters"]
    emulator.explicit_counters = dict(state["explicit"])
    emulator.tracer = state["tracer"]
    emulator.columnar_demotions = dict(state["demotions"])
    emulator.columnar_packets = state["columnar_packets"]
    emulator.columnar_partitions = state["columnar_partitions"]
    emulator.columnar_scalar_lookups = dict(state["columnar_scalar_lookups"])
    emulator.columnar_cache_arrivals = dict(state["columnar_cache_arrivals"])
    emulator.columnar_cache_replayed = dict(state["columnar_cache_replayed"])
    for name in _MEMO_COUNTS:
        setattr(emulator, name, dict(state[name]))
    if emulator.live_feed is not None:
        emulator.live_feed.restore(saved["life"], emulator)


def _send_snapshot(conn, snapshot: dict, block: bool) -> bool:
    """A worker feed's sink: send ``snapshot`` over the sidecar pipe
    ``conn``. Without ``block`` a full pipe drops it; with it, the send
    waits for room up to :data:`_LIVE_SEND_TIMEOUT_S`."""
    timeout = _LIVE_SEND_TIMEOUT_S if block else 0.0
    try:
        if select.select([], [conn], [], timeout)[1]:
            conn.send(snapshot)
            return True
    except (OSError, ValueError):  # the parent closed its end
        pass
    return False


def _worker_main(
    conn,
    emulator: NicEmulator,
    shard_index: int,
    channel: ShardChannel,
    fault_specs: Sequence[FaultSpec] = (),
    engine: str = "auto",
    tele_conn=None,
    live: Optional[LiveOptions] = None,
) -> None:
    """Command loop for one shard worker.

    ``emulator`` is this process's copy-on-write clone of the parent's
    template, replaced by a rebuilt one at every ``swap``. Every message
    arrives on ``conn`` strictly in send order and is acted on in that
    order; a ``ring`` token stands for the batch at the head of
    ``channel``'s data ring, published before the token was sent.

    ``busy`` accounts the worker's own CPU time since ``begin``
    (``time.process_time``): every message's decode, handling and
    reply — ``collect`` and ``dump`` included — up to the ``end``
    barrier's live-feed flush, state and checkpoint, but not time
    blocked on the pipe, nor the pickling of the ``end`` reply that
    carries it. The throughput benchmark uses it as the critical-path
    denominator.

    ``fault_specs`` arms a :class:`FaultInjector` for deterministic
    failure testing (it counts batches over the worker's life, across
    swaps); respawned workers are armed with nothing — a spec models
    one failure event, not a crash loop. A respawned worker's first
    messages are a ``swap`` to its shard's checkpoint spec and a
    ``restore`` of the checkpointed state.

    ``end`` and ``collect`` carry a flag asking for a checkpoint: the
    reply then ends with :func:`_checkpoint` (None mid-replay, where
    there is no barrier to checkpoint at).

    ``tele_conn`` (the live telemetry plane's sidecar pipe) gives the
    emulator a :class:`~repro.telemetry.live.LiveFeed` at ``live``'s
    cadence, which sends over that pipe: a birth snapshot, one
    whenever a batch or the idle loop finds the cadence due, and a
    forced one at ``end``.
    """
    try:
        injector = FaultInjector(fault_specs) if fault_specs else None
        stats: Optional[RunStats] = None
        busy = 0.0
        epoch = 0
        #: Flow set id -> (FlowColumns, size_bytes), oldest first.
        flow_sets: dict[int, tuple] = {}

        feed = None
        if tele_conn is not None:
            feed = emulator.live_feed = LiveFeed(
                partial(_send_snapshot, tele_conn), live, shard_index
            )
            # Birth heartbeat: the aggregator learns the shard exists
            # (and, after a respawn, that it is back) without waiting a
            # full cadence interval.
            feed.snapshot(emulator)

        def reply(payload) -> None:
            if injector is None or injector.should_reply():
                conn.send(payload)

        def saved_if(wanted: bool) -> Optional[dict]:
            """The checkpoint a barrier asked for (None mid-replay)."""
            if not wanted or stats is not None:
                return None
            return _checkpoint(emulator)

        def replay_any(batch, n: int, timestamps=None) -> None:
            """Replay one batch through the selected tier."""
            nonlocal stats
            if injector is not None:
                injector.before_batch(n)
            if stats is None:
                stats = RunStats()
            emulator.replay_batch(
                batch, stats, timestamps=timestamps, engine=engine
            )
            channel.data.mark_finished()

        def replay_indices(flow_set: int, chosen, ts) -> None:
            """Replay the batch one core makes of these flow indices."""
            columns, size_bytes = flow_sets[flow_set]
            batch = columns.batch(chosen, size_bytes)
            if isinstance(batch, ColumnBatch):
                batch.timestamps = ts
                replay_any(batch, batch.n)
            else:
                replay_any(
                    batch, len(batch), None if ts is None else ts.tolist()
                )

        def replay_ring_head() -> None:
            record = channel.data.peek()
            if record is None:
                raise EmulationError(
                    f"shard {shard_index}: ring token without a "
                    "published record (consumed "
                    f"{channel.data.consumed}, produced "
                    f"{channel.data.produced})"
                )
            # ``batch`` copies the columns out of its flow set; the
            # timestamps stay a view of the slot, so the cursor
            # advances only *after* replay. It still moves once per
            # batch, which keeps supervision and the dispatcher's
            # backpressure live.
            replay_indices(*read_index_record(record))
            channel.data.advance()

        def state_reply() -> dict:
            state = _worker_state(emulator)
            state["flow_sets"] = list(flow_sets)
            return state

        while True:
            if feed is not None:
                # Poll instead of blocking in recv so wall-cadence
                # heartbeats keep flowing while the worker idles.
                feed.beat(emulator)
                try:
                    if not conn.poll(_IDLE_POLL_S):
                        continue
                except (EOFError, OSError):
                    break  # parent went away
            message = conn.recv()
            op = message[0]
            start = time.process_time()
            if op == "ring":
                replay_ring_head()
            elif op == "index":
                replay_indices(message[1], message[2], message[3])
            elif op == "flows":
                flow_sets[message[1]] = (message[2], message[3])
                while len(flow_sets) > FLOW_SETS_KEPT:
                    del flow_sets[next(iter(flow_sets))]
            elif op == "begin":
                stats = RunStats()
                busy = 0.0
            elif op == "end":
                if feed is not None:
                    feed.end(emulator)
                done, stats = stats or RunStats(), None
                state = state_reply()
                saved = saved_if(message[1])
                busy += time.process_time() - start
                reply(("done", done, state, busy, epoch, saved))
                del done, state, saved  # not held through the next replay
                continue
            elif op == "entries":
                _apply_entries(emulator, message[1], message[2])
                epoch = message[3]
            elif op == "invalidate":
                emulator.invalidate_caches_covering(message[1])
                epoch = message[2]
            elif op == "flush":
                emulator.flush_caches()
                epoch = message[1]
            elif op == "reset":
                emulator.reset_telemetry()
            elif op == "swap":
                emulator = _swapped(emulator, message[1])
                epoch = message[2]
            elif op == "restore":
                _restore(emulator, message[1], message[2])
            elif op == "collect":
                reply(
                    (
                        "state",
                        state_reply(),
                        epoch,
                        saved_if(message[1]),
                    )
                )
            elif op == "dump":
                reply(
                    (
                        "caches",
                        {
                            name: dict(cache.items())
                            for name, cache in emulator.flow_caches.items()
                        },
                        (
                            dict(emulator.native_cache.items())
                            if emulator.native_cache is not None
                            else None
                        ),
                        {
                            name: runtime.entries()
                            for name, runtime in emulator.runtime_tables.items()
                        },
                    )
                )
            elif op == "close":
                reply(("bye",))
                break
            else:  # pragma: no cover - protocol error
                raise EmulationError(f"Unknown worker op {op!r}")
            busy += time.process_time() - start
    except EOFError:  # parent went away
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        # Forked consumer: drop the mapping only; the parent owns the
        # segments and unlinks them.
        channel.close(unlink=False)
        if tele_conn is not None:
            try:
                tele_conn.close()
            except OSError:  # pragma: no cover - already broken
                pass
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side engine
# ---------------------------------------------------------------------------


class ShardedEmulator:
    """N forked workers, each replaying one flow-hash shard.

    Construct from a fully configured *template* emulator (entries
    installed, options set): workers are forked immediately and inherit
    an independent copy-on-write clone of its entire state, so every
    shard starts from exactly the state a single-core run would. The
    template must not process traffic afterwards; every respawn forks
    it. :meth:`swap` hands the running workers a new one (a redeploy).

    A fleet is a drop-in for the emulator it was forked from: it
    presents the data-plane surface :class:`repro.core.deployment.
    Deployment` drives on a :class:`NicEmulator` — ``runtime_tables``
    (the current template's), the state mutators
    (:meth:`set_table_entries`, :meth:`edit_table_entries`,
    :meth:`invalidate_caches_covering`, :meth:`flush_caches`: applied
    to the template, then broadcast to every worker), the merged
    ``counters`` / ``cache_stats`` / ``native_cache_stats`` /
    ``tracer`` / ``columnar_*`` telemetry as of the last
    :meth:`collect` or :meth:`replay`,
    :meth:`reset_telemetry` and :meth:`replay` / :meth:`run`. Flow
    cache *contents* live in the workers only.

    ``options`` configures the worker supervisor (timeouts, retry
    budget, recovery policy — see :class:`SupervisorOptions`);
    ``telemetry`` receives supervision events and fault counters;
    ``fault_plan`` arms deterministic scripted failures in the workers
    (:mod:`repro.nic.faults`); ``live`` gives each worker a live feed.
    """

    def __init__(
        self,
        emulator: NicEmulator,
        n_workers: int = 2,
        *,
        batch: int = DEFAULT_BATCH,
        options: Optional[SupervisorOptions] = None,
        telemetry=None,
        fault_plan: Optional[FaultPlan] = None,
        ring_slots: Optional[int] = None,
        engine: str = "auto",
        live: Optional[LiveOptions] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if engine not in ENGINES:
            raise ValueError(
                f"Unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        #: Execution tier every worker replays through. ``auto``
        #: consumes SoA batches in place (no row -> Packet
        #: materialisation); the tiers are stats-identical.
        self.engine = engine
        if ring_slots is not None and ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        #: The live plane's options, whose cadence the workers' feeds
        #: follow; set, they arm the sidecar pipes (:attr:`live_conns`).
        self.live = live
        #: Parent (receive) ends of the per-shard telemetry sidecar
        #: pipes; ``None`` per shard when the live plane is off or the
        #: shard is degraded. Drained by the LiveAggregator thread.
        self.live_conns: list = []
        #: ``replay(batch=N)`` calls dispatched at the construction
        #: batch instead, because ``N`` exceeded the ring geometry.
        self.clamped_replays = 0
        self._ring_slots = (
            ring_slots if ring_slots is not None else DEFAULT_RING_SLOTS
        )
        self.options = (
            options if options is not None else SupervisorOptions()
        )
        self.telemetry = telemetry
        if fault_plan is not None and fault_plan.max_shard() >= n_workers:
            raise ValueError(
                f"Fault plan targets shard {fault_plan.max_shard()} "
                f"but only {n_workers} workers exist"
            )
        self._fault_plan = fault_plan
        #: The parent's copy of the data plane the workers run: kept
        #: current by the state mutators, replaced by swap().
        #: Workers fork it, respawns included.
        self.template = emulator
        self.n_workers = n_workers
        self.batch = batch
        self.clock = emulator.clock
        #: Last broadcast update epoch; workers echo the epoch they have
        #: applied so collection can assert the broadcast drained.
        self.epoch = 0
        self.counters = CounterBank()
        self.explicit_counters: dict[str, int] = {}
        self.cache_stats: dict[str, CacheStats] = {}
        self.native_cache_stats: Optional[CacheStats] = None
        #: Merged per-reason columnar demotion counts from the last
        #: collection (``pipeleon_columnar_demotions_total`` labels).
        self.columnar_demotions: dict[str, int] = {}
        #: Packets the workers' columnar kernels fully retired.
        self.columnar_packets = 0
        #: Flow-key partitions the workers' batch kernels resolved.
        self.columnar_partitions = 0
        #: Where the workers' fast paths did not apply (see
        #: :class:`NicEmulator`): per-table scalar lookups, per-cache
        #: arrivals and ordered replays.
        self.columnar_scalar_lookups: dict[str, int] = {}
        self.columnar_cache_arrivals: dict[str, int] = {}
        self.columnar_cache_replayed: dict[str, int] = {}
        #: The workers' per-node plan memo hits, misses and guard
        #: failures (see :class:`NicEmulator`).
        self.columnar_memo_hits: dict[str, int] = {}
        self.columnar_memo_misses: dict[str, int] = {}
        self.columnar_memo_guard_failures: dict[str, int] = {}
        #: Merged per-worker packet tracer from the last collection
        #: (None unless the worker emulators carry tracers).
        self.tracer = None
        #: Per shard, the last replay's worker CPU seconds and packets.
        self.worker_busy_s: list[float] = [0.0] * n_workers
        self.worker_packets: list[int] = [0] * n_workers
        #: The last replay's parent wall time (perf_counter_ns) routing
        #: and dispatching its batches — the fleet's serial term —
        #: without the source's draw, the ``end`` barrier or waits on
        #: a full ring (``parent_stall_ns``).
        self.parent_dispatch_ns = 0
        self.parent_stall_ns = 0
        #: Raw per-worker telemetry from the last collection (shard
        #: index order), before :meth:`_merge_states` pooled it.
        self.worker_states: list[dict] = []
        #: Per-shard respawn counts (recovery="respawn").
        self.respawns: list[int] = [0] * n_workers
        #: Cumulative packets whose results died with a degraded shard.
        self.lost_packets = 0
        self._journaling = self.options.recovery == "respawn"
        #: :func:`_swap_spec` of the template as of the last checkpoint,
        #: reused by the next one unless an ``entries`` or ``swap``
        #: broadcast came in between (None: recompute).
        self._spec: Optional[dict] = None
        birth = None
        if self._journaling:
            # Checkpoint 0: the fleet's construction, so a respawn
            # takes one path whether or not a barrier checkpointed.
            # A snapshot, detached from the template it describes.
            self._spec = _swap_spec(emulator)
            state, saved = pickle.loads(
                pickle.dumps((_worker_state(emulator), _checkpoint(emulator)))
            )
            birth = _Checkpoint(self._spec, 0, state, saved)
        self._journals = [ShardJournal(birth) for _ in range(n_workers)]
        #: Flow sets every live shard holds, oldest registration first
        #: (at most :data:`FLOW_SETS_KEPT`).
        self._flow_sets: list[_FlowSet] = []
        self._next_flow_set = 0
        self._dead = [False] * n_workers
        self._dispatched_since_begin = [0] * n_workers
        #: Per-shard dispatch counters (see :func:`_new_ring_stats`);
        #: aggregated by :meth:`transport_stats`.
        self.ring_stats = [_new_ring_stats() for _ in range(n_workers)]
        self._lost_this_replay = 0
        self._in_replay = False
        self._closed = False
        try:
            context = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-posix
            raise EmulationError(
                "ShardedEmulator requires the 'fork' start method"
            ) from exc
        self._context = context
        self._conns = []
        self._procs = []
        self._channels: list[Optional[ShardChannel]] = []
        for shard in range(n_workers):
            conn, process, channel, tele = self._spawn(shard)
            self._conns.append(conn)
            self._procs.append(process)
            self._channels.append(channel)
            self.live_conns.append(tele)
        # Guaranteed teardown: if the owner never calls close() (e.g. a
        # mid-replay exception unwinds past it), interpreter exit still
        # reaps the forked workers instead of leaking them.
        atexit.register(self.close)

    def _spawn(self, shard: int, rebirth: bool = False):
        fault_specs: tuple[FaultSpec, ...] = ()
        if not rebirth and self._fault_plan is not None:
            fault_specs = self._fault_plan.for_shard(shard)
        # Created before the fork so the worker inherits the very
        # same mapping — no attach handshake, no name exchange.
        channel = ShardChannel(self.batch, slots=self._ring_slots)
        tele_parent = tele_child = None
        if self.live is not None:
            # Sidecar telemetry pipe: unsolicited worker -> parent
            # snapshots must never interleave with the supervised
            # reply protocol on the command pipe.
            tele_parent, tele_child = self._context.Pipe(duplex=False)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.template,
                shard,
                channel,
                fault_specs,
                self.engine,
                tele_child,
                self.live,
            ),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        process.start()
        child_conn.close()
        if tele_child is not None:
            tele_child.close()
        return parent_conn, process, channel, tele_parent

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ShardedEmulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Shut every worker down (idempotent, bounded).

        Shutdown must never block on a sick worker: the close
        handshake is writability-guarded and deadline-polled, and any
        worker that does not exit in time is terminated (then killed).
        Wall time is bounded by a few ``close_timeout_s`` per worker
        even when every pipe buffer is full and every worker is hung.
        """
        if self._closed:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        timeout = self.options.close_timeout_s
        handshook = []
        for shard, conn in enumerate(self._conns):
            if self._dead[shard]:
                continue
            try:
                if self._wait_writable(conn, timeout):
                    conn.send(("close",))
                    handshook.append(shard)
            except (BrokenPipeError, OSError):
                pass
        for shard in handshook:
            conn = self._conns[shard]
            try:
                if conn.poll(timeout):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # hung or wedged worker
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():  # pragma: no cover - kill-proof
                    process.kill()
                    process.join(timeout=1.0)
        for shard, channel in enumerate(self._channels):
            if channel is not None:
                self._channels[shard] = None
                channel.close(unlink=True)
        for shard, tele in enumerate(self.live_conns):
            if tele is not None:
                self.live_conns[shard] = None
                try:
                    tele.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def _check_open(self) -> None:
        if self._closed:
            raise EmulationError("ShardedEmulator is closed")

    # -- supervision primitives --------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.events.emit(kind, **fields)

    def _count(self, name: str, value: float = 1.0, **labels) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.inc(
                name, value, help=_METRIC_HELP.get(name, ""), **labels
            )

    @staticmethod
    def _wait_writable(conn, timeout_s: float) -> bool:
        """True when the pipe can accept a send without blocking."""
        try:
            _, writable, _ = select.select([], [conn], [], timeout_s)
        except (OSError, ValueError):
            # Closed/invalid handle: let send raise the real error.
            return True
        return bool(writable)

    def _survivors(self) -> list[int]:
        return [s for s in range(self.n_workers) if not self._dead[s]]

    # -- ring primitives ---------------------------------------------------

    def _progress_token(self, shard: int):
        """Worker-side words; any advance proves the worker is alive.

        A worker draining a full ring, or replaying a long journal
        over the pipe, can be pipe-silent for arbitrarily long, so the
        hung deadline measures silence since the *last observed
        progress* — the data ring's consumer cursor or its
        batches-finished word (bumped after every batch, however it
        arrived) — not since the request.
        """
        data = self._channels[shard].data
        return (data.consumed, data.finished)

    def _observe_occupancy(self, shard: int, occupancy: float) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.observe(
                "pipeleon_ring_occupancy",
                occupancy,
                help=_METRIC_HELP["pipeleon_ring_occupancy"],
                buckets=_OCCUPANCY_BUCKETS,
                shard=shard,
            )

    def transport_stats(self) -> dict:
        """Transport-level dispatch counters, merged and per shard,
        with each shard's respawn-journal size (``journal_bytes``: 0
        unless ``recovery="respawn"``)."""
        per_shard = [
            dict(stats, journal_bytes=journal.bytes)
            for stats, journal in zip(self.ring_stats, self._journals)
        ]
        totals = dict(_new_ring_stats(), journal_bytes=0)
        for stats in per_shard:
            for key, value in stats.items():
                if key == "max_occupancy":
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
        return {
            "ring_slots": self._ring_slots,
            "batch": self.batch,
            "clamped_replays": self.clamped_replays,
            "totals": totals,
            "per_shard": per_shard,
        }

    def _journal(self, shard: int, message: tuple) -> None:
        """Record a state-bearing message before it is delivered."""
        if self._journaling:
            self._journals[shard].append(message)

    def _checkpoint_due(self, shard: int) -> bool:
        return (
            self._journaling
            and self._journals[shard].bytes >= JOURNAL_CHECKPOINT_BYTES
        )

    def _rebase(
        self, shard: int, epoch: int, state: dict, saved: Optional[dict]
    ) -> None:
        """Take a barrier reply's checkpoint (if it carried one) as the
        shard's new journal base, with the template as of now."""
        if saved is None:
            return
        if self._spec is None:
            self._spec = _swap_spec(self.template)
        self._journals[shard].rebase(
            _Checkpoint(
                self._spec,
                epoch,
                state,
                saved,
                tuple(flow_set.message() for flow_set in self._flow_sets),
            )
        )

    def _guarded_send(
        self,
        shard: int,
        message: tuple,
        *,
        context: str,
        journaled: bool = True,
    ) -> bool:
        """Deliver ``message`` to a shard under send supervision.

        The send is writability-checked first and retried with
        exponential backoff (a transient stall — the worker busy with
        a long batch while its pipe fills — therefore doesn't abort a
        broadcast). ``journaled`` says the shard's journal already
        covers what the message delivers (:meth:`_journal`; a ``ring``
        token is covered by its batch), so after a respawn the journal
        replay has delivered it; reply-bearing ops are not and are
        re-sent to the fresh worker. Returns True once the message has
        reached the shard's worker, False if the shard is (or just
        became) degraded; raises in ``fail`` mode.
        """
        if self._dead[shard]:
            return False
        opts = self.options
        while True:
            conn = self._conns[shard]
            process = self._procs[shard]
            start = time.monotonic()
            kind = None
            for attempt in range(opts.send_retries + 1):
                if attempt:
                    self._count(
                        "pipeleon_broadcast_retries_total", shard=shard
                    )
                    time.sleep(
                        opts.backoff_base_s * (2 ** (attempt - 1))
                    )
                if not self._wait_writable(conn, opts.send_timeout_s):
                    kind = "hung"
                    continue
                try:
                    conn.send(message)
                    return True
                except (BrokenPipeError, OSError):
                    kind = "dead"
                    break
            if kind == "hung" and not process.is_alive():
                kind = "dead"
            if not self._handle_failure(
                shard,
                kind or "hung",
                context=context,
                elapsed_s=time.monotonic() - start,
            ):
                return False
            if journaled:
                return True

    def _supervised_wait(self, shard: int, poll, *, context: str):
        """Call ``poll()`` until it yields a value, under supervision.

        ``poll`` blocks for about a heartbeat at most and returns
        ``None`` while there is nothing yet, so a dead process is
        noticed immediately rather than at ``recv_timeout_s``. A wait
        longer than ``slow_after_s`` emits a one-shot ``worker_slow``
        event but goes on; a worker *silent and progress-free* past
        ``recv_timeout_s`` is classified (hung if alive, dead
        otherwise) and a :class:`_WorkerGone` is raised for the
        caller's recovery policy. Progress is the data ring's
        worker-side token (:meth:`_progress_token`): a worker still
        draining a full ring keeps resetting its deadline instead of
        being misclassified as hung.
        """
        opts = self.options
        process = self._procs[shard]
        start = time.monotonic()
        last_progress = start
        progress = self._progress_token(shard)
        slow_reported = False
        while True:
            # Sampled before the poll: what a worker sent or consumed
            # before dying is still seen by the poll that follows.
            alive = process.is_alive()
            try:
                result = poll()
            # EOFError on a clean hangup; SIGKILL mid-write surfaces
            # as ConnectionResetError (an OSError).
            except (EOFError, OSError):
                result, alive = None, False
            now = time.monotonic()
            elapsed = now - start
            if result is not None:
                if slow_reported:
                    self._emit(
                        "worker_recovered",
                        shard=shard,
                        state="slow",
                        context=context,
                        elapsed_s=round(elapsed, 3),
                    )
                return result
            if not alive:
                process.join(timeout=1.0)
                raise _WorkerGone("dead", elapsed)
            token = self._progress_token(shard)
            if token != progress:
                progress = token
                last_progress = now
            if not slow_reported and elapsed >= opts.slow_after_s:
                slow_reported = True
                self._emit(
                    "worker_slow",
                    shard=shard,
                    context=context,
                    elapsed_s=round(elapsed, 3),
                )
                self._count(
                    "pipeleon_worker_faults_total",
                    kind="slow",
                    shard=shard,
                )
            if now - last_progress >= opts.recv_timeout_s:
                raise _WorkerGone("hung", elapsed)

    def _recv_supervised(self, shard: int, *, context: str):
        """One reply under :meth:`_supervised_wait`.

        A worker ``error`` reply is a deterministic program error —
        respawning would just replay it — so it raises
        :class:`EmulationError` regardless of recovery mode.
        """
        conn = self._conns[shard]
        heartbeat = self.options.heartbeat_interval_s

        def poll():
            return conn.recv() if conn.poll(heartbeat) else None

        message = self._supervised_wait(shard, poll, context=context)
        if message[0] == "error":
            self._reap(shard)
            raise EmulationError(f"Shard worker failed:\n{message[1]}")
        return message

    def _handle_failure(
        self, shard: int, kind: str, *, context: str, elapsed_s: float
    ) -> bool:
        """Recover a dead/hung worker per the recovery policy.

        Returns True when the shard is healthy again (respawned) and
        False when it was degraded; raises in ``fail`` mode, on an
        exhausted respawn budget, and for deterministic worker program
        errors (drained here from the broken pipe's buffer so the
        original traceback surfaces instead of a generic death).
        """
        opts = self.options
        conn = self._conns[shard]
        process = self._procs[shard]
        try:
            if conn.poll(0):
                message = conn.recv()
                if message and message[0] == "error":
                    self._reap(shard)
                    raise EmulationError(
                        f"Shard worker failed:\n{message[1]}"
                    )
        except (EOFError, OSError):
            pass
        self._emit(
            f"worker_{kind}",
            shard=shard,
            context=context,
            elapsed_s=round(elapsed_s, 3),
            exitcode=process.exitcode,
            recovery=opts.recovery,
        )
        self._count(
            "pipeleon_worker_faults_total", kind=kind, shard=shard
        )
        if opts.recovery == "respawn":
            if self.respawns[shard] >= opts.max_respawns:
                self._reap(shard)
                raise EmulationError(
                    f"Shard worker {shard} ({process.name}) {kind} "
                    f"during {context}; respawn budget exhausted "
                    f"({opts.max_respawns} respawns)"
                )
            self._respawn(shard)
            return True
        if opts.recovery == "degraded":
            self._degrade(shard, kind=kind, context=context)
            return False
        self._reap(shard)
        if kind == "hung":
            raise EmulationError(
                f"Shard worker {shard} ({process.name}) unresponsive "
                f"during {context}: no reply within {elapsed_s:.2f}s "
                f"(recv_timeout_s={opts.recv_timeout_s}); worker "
                "terminated. Use SupervisorOptions(recovery='respawn') "
                "to escalate hung workers with terminate-then-respawn."
            )
        raise EmulationError(
            f"Shard worker {shard} ({process.name}, "
            f"exitcode {process.exitcode}) died without replying "
            f"during {context}; its shard's results are lost"
        )

    def _reap(self, shard: int) -> None:
        """Terminate-and-join one worker, closing its pipe (idempotent)."""
        process = self._procs[shard]
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(timeout=1.0)
        else:
            process.join(timeout=1.0)
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _respawn(self, shard: int) -> None:
        """Terminate-then-respawn: rebuild the shard from its last
        checkpoint and the journal since."""
        journal = self._journals[shard]
        self._reap(shard)
        old_channel = self._channels[shard]
        self._channels[shard] = None
        # In-flight ring records died with the worker; the journal
        # holds every batch, so discard the old segments and start the
        # fresh worker on fresh (zeroed) rings.
        old_channel.close(unlink=True)
        self.respawns[shard] += 1
        conn, process, channel, tele = self._spawn(shard, rebirth=True)
        self._conns[shard] = conn
        self._procs[shard] = process
        self._channels[shard] = channel
        old_tele = self.live_conns[shard]
        # Swap before closing: the aggregator thread re-reads the list
        # each drain, and a recv racing the close just raises OSError.
        self.live_conns[shard] = tele
        if old_tele is not None:
            try:
                old_tele.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._count("pipeleon_worker_respawns_total", shard=shard)
        self._emit(
            "worker_respawned",
            shard=shard,
            respawns=self.respawns[shard],
            checkpoint_epoch=journal.checkpoint.epoch,
            suffix_messages=len(journal.entries),
            suffix_batches=journal.batches,
            suffix_bytes=journal.bytes,
        )
        self._replay_journal(shard)
        self._emit(
            "worker_recovered",
            shard=shard,
            state="respawned",
            epoch=self.epoch,
        )

    def _replay_journal(self, shard: int) -> None:
        """Feed a freshly respawned worker its shard's history: a swap
        to the checkpoint's template, the checkpointed state and flow
        sets, then the journal since.

        Sends are deadline-guarded but not recovery-looped: a worker
        that cannot even absorb its own journal is not recoverable.
        """
        conn = self._conns[shard]
        timeout = self.options.send_timeout_s
        journal = self._journals[shard]
        base = journal.checkpoint
        history = [
            ("swap", base.spec, base.epoch),
            ("restore", base.state, base.saved),
            *base.flow_sets,
        ]
        history.extend(message for message, _size in journal.entries)
        for message in history:
            delivered = False
            if self._wait_writable(conn, timeout):
                try:
                    # Journal replay is the cold path: every batch is
                    # inlined, the fresh ring stays empty.
                    conn.send(message)
                    delivered = True
                except (BrokenPipeError, OSError):
                    pass
            if not delivered:
                self._reap(shard)
                raise EmulationError(
                    f"Shard worker {shard} respawn failed: journal "
                    "replay stalled or the fresh worker died"
                )

    def _degrade(self, shard: int, *, kind: str, context: str) -> None:
        """Mark a shard dead; future flows reroute to the survivors."""
        self._reap(shard)
        channel = self._channels[shard]
        self._channels[shard] = None
        channel.close(unlink=True)
        tele = self.live_conns[shard] if self.live_conns else None
        if tele is not None:
            self.live_conns[shard] = None
            try:
                tele.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._dead[shard] = True
        survivors = self._survivors()
        if not survivors:
            raise EmulationError(
                f"All {self.n_workers} shard workers have failed; "
                "no survivors to degrade onto"
            )
        lost = (
            self._dispatched_since_begin[shard] if self._in_replay else 0
        )
        self._dispatched_since_begin[shard] = 0
        self._lost_this_replay += lost
        self.lost_packets += lost
        if lost:
            self._count(
                "pipeleon_packets_lost_total", value=lost, shard=shard
            )
        self._emit(
            "shard_degraded",
            shard=shard,
            failure=kind,
            context=context,
            lost_packets=lost,
            survivors=len(survivors),
        )

    def _transact(self, shard: int, message: tuple, *, context: str):
        """A reply-bearing exchange (end/collect/dump) with recovery.

        Reply-bearing ops are deliberately not journaled — after a
        respawn rebuilds state from the journal, this loop simply
        re-issues the request. Returns None when the shard is (or
        becomes) degraded.
        """
        while not self._dead[shard]:
            if not self._guarded_send(
                shard, message, context=context, journaled=False
            ):
                return None
            try:
                return self._recv_supervised(shard, context=context)
            except _WorkerGone as gone:
                if not self._handle_failure(
                    shard,
                    gone.kind,
                    context=context,
                    elapsed_s=gone.elapsed_s,
                ):
                    return None
        return None

    def _gather(
        self, message: tuple, *, context: str, barrier: bool = False
    ) -> list:
        """Broadcast a reply-bearing op, then collect every reply.

        Two-phase (send to all live shards, then drain) so workers
        produce their replies in parallel; each shard's recv still
        runs under supervision with per-shard recovery. The returned
        list has one slot per shard; degraded shards hold None. A
        ``barrier`` op (``end``/``collect``) gains a flag asking each
        shard whose journal is due (:meth:`_checkpoint_due`) for a
        checkpoint.
        """
        messages = [
            message + (self._checkpoint_due(shard),) if barrier else message
            for shard in range(self.n_workers)
        ]
        sent = [False] * self.n_workers
        for shard in range(self.n_workers):
            if not self._dead[shard]:
                sent[shard] = self._guarded_send(
                    shard, messages[shard], context=context, journaled=False
                )
        replies: list = [None] * self.n_workers
        for shard in range(self.n_workers):
            if self._dead[shard] or not sent[shard]:
                continue
            try:
                replies[shard] = self._recv_supervised(
                    shard, context=context
                )
            except _WorkerGone as gone:
                if self._handle_failure(
                    shard,
                    gone.kind,
                    context=context,
                    elapsed_s=gone.elapsed_s,
                ):
                    replies[shard] = self._transact(
                        shard, messages[shard], context=context
                    )
        return replies

    def _broadcast(self, message: tuple, *, context: str) -> None:
        """Journal and send a state-bearing message to every shard."""
        self._check_open()
        for shard in self._survivors():
            self._journal(shard, message)
            self._guarded_send(shard, message, context=context)

    # -- state mutators: template, then epoch-versioned broadcast ----------

    @property
    def runtime_tables(self):
        """The template's runtime tables (what workers mirror)."""
        return self.template.runtime_tables

    def swap(self, template: NicEmulator) -> list[str]:
        """Redeploy in place: the running workers adopt ``template``,
        the new plan's materialised emulator, through one journaled
        ``swap`` message per shard (:func:`_swap_spec`), keeping every
        flow cache :meth:`NicEmulator.adopt_caches` allows. The
        template applies that rule to the one it replaces, so the
        returned names (caches carried warm) are the workers' too."""
        self._check_open()
        if template.target != self.template.target:
            raise ValueError(
                f"a fleet forked for {self.template.target.name!r} "
                f"cannot run a plan for {template.target.name!r}"
            )
        carried = template.adopt_caches(self.template)
        self.template = template
        self.clock = template.clock
        self.epoch += 1
        self._spec = _swap_spec(template)
        self._broadcast(
            ("swap", self._spec, self.epoch), context="plan swap"
        )
        return carried

    def set_table_entries(
        self, table: str, entries: Iterable[TableEntry]
    ) -> int:
        """Install a table's full entry list on the template and on
        every worker.

        Returns the new broadcast epoch. The pipe is FIFO, so the
        update lands before any batch dispatched after this call; the
        bumped runtime-table version makes the worker's execution tier
        rebuild what it compiled against the old entries.
        """
        self.template.set_table_entries(table, entries)
        return self._broadcast_entries(
            table, self.runtime_tables[table].entries()
        )

    def edit_table_entries(
        self,
        table: str,
        removed: Optional[int] = None,
        added: Optional[TableEntry] = None,
    ) -> int:
        """One entry op (:meth:`NicEmulator.edit_table_entries`) on the
        template and on every worker: the ``entries`` message carries
        that op alone, whatever the table's size. Returns the new
        broadcast epoch."""
        self.template.edit_table_entries(table, removed, added)
        return self._broadcast_entries(table, (removed, added))

    def _broadcast_entries(self, table: str, payload) -> int:
        """Broadcast an ``entries`` message (:func:`_apply_entries`).
        The payload holds the template's own entries: pickling copies
        them, so every worker installs the very ids the template holds
        and a later edit can name one."""
        self.epoch += 1
        self._spec = None
        self._broadcast(
            ("entries", table, payload, self.epoch),
            context=f"entries broadcast ({table})",
        )
        return self.epoch

    def invalidate_caches_covering(self, table: str) -> int:
        self.template.invalidate_caches_covering(table)
        self.epoch += 1
        self._broadcast(
            ("invalidate", table, self.epoch),
            context=f"invalidate broadcast ({table})",
        )
        return self.epoch

    def flush_caches(self) -> int:
        self.template.flush_caches()
        self.epoch += 1
        self._broadcast(
            ("flush", self.epoch), context="flush broadcast"
        )
        return self.epoch

    # -- telemetry ---------------------------------------------------------

    @property
    def degraded_shards(self) -> list[int]:
        """Shards lost to degraded-mode recovery (empty when healthy)."""
        return [s for s in range(self.n_workers) if self._dead[s]]

    def live_shard_status(self) -> list[dict]:
        """Parent-side per-shard liveness and ring view.

        The LiveAggregator thread polls this between snapshot drains:
        every field is a single int/bool attribute read (GIL-atomic
        against the dispatching main thread) or a shm-header read, so
        no locking is needed. ``respawns`` is the deterministic death
        witness — the aggregator diffs it against the shard's last
        heartbeat to flag a kill that a fast respawn hid from pure
        wall-clock staleness. Ring occupancy is sampled live from the
        data ring's header (None for a degraded shard or a torn-down
        channel mid-respawn).
        """
        status = []
        for shard in range(self.n_workers):
            process = self._procs[shard]
            channel = self._channels[shard]
            occupancy = None
            if channel is not None:
                try:
                    occupancy = channel.data.occupancy()
                except (OSError, ValueError):
                    # Racing a respawn's segment teardown.
                    occupancy = None
            ring = self.ring_stats[shard]
            status.append(
                {
                    "shard": shard,
                    "alive": (
                        not self._dead[shard] and process.is_alive()
                    ),
                    "dead": self._dead[shard],
                    "respawns": self.respawns[shard],
                    "ring_occupancy": occupancy,
                    "ring_stalls": ring["stalls"],
                    "pushed_batches": ring["pushed_batches"],
                }
            )
        return status

    @property
    def total_respawns(self) -> int:
        return sum(self.respawns)

    def reset_telemetry(self) -> None:
        self._broadcast(("reset",), context="telemetry reset")

    def _merge_states(self, states: list[dict]) -> None:
        counters: Optional[CounterBank] = None
        explicit: dict[str, int] = {}
        cache_stats: dict[str, CacheStats] = {}
        native: Optional[CacheStats] = None
        tracer = None
        demotions: dict[str, int] = {}
        columnar_packets = 0
        columnar_partitions = 0
        by_name = {
            "columnar_scalar_lookups": {},
            "columnar_cache_arrivals": {},
            "columnar_cache_replayed": {},
            **{name: {} for name in _MEMO_COUNTS},
        }
        for state in states:
            for reason, count in state["demotions"].items():
                demotions[reason] = demotions.get(reason, 0) + count
            columnar_packets += state["columnar_packets"]
            columnar_partitions += state["columnar_partitions"]
            for attribute, merged in by_name.items():
                for name, count in state[attribute].items():
                    merged[name] = merged.get(name, 0) + count
            worker_tracer = state["tracer"]
            if worker_tracer is not None:
                if tracer is None:
                    tracer = worker_tracer.spawn_empty()
                tracer.merge(worker_tracer)
            bank = state["counters"]
            if counters is None:
                counters = CounterBank(bank.sample_stride)
            counters.merge(bank)
            for key, value in state["explicit"].items():
                explicit[key] = explicit.get(key, 0) + value
            for name, stats in state["cache_stats"].items():
                merged = cache_stats.get(name)
                if merged is None:
                    merged = cache_stats[name] = CacheStats()
                merged.merge(stats)
            if state["native_stats"] is not None:
                if native is None:
                    native = CacheStats()
                native.merge(state["native_stats"])
        self.worker_states = states
        self.counters = counters if counters is not None else CounterBank()
        self.explicit_counters = explicit
        self.cache_stats = cache_stats
        self.native_cache_stats = native
        self.tracer = tracer
        # Cumulative totals, like the counter banks: the metrics
        # registry picks them up at export time (telemetry.export.
        # export_columnar), never from this merge.
        self.columnar_demotions = demotions
        self.columnar_packets = columnar_packets
        self.columnar_partitions = columnar_partitions
        self.columnar_scalar_lookups = by_name["columnar_scalar_lookups"]
        self.columnar_cache_arrivals = by_name["columnar_cache_arrivals"]
        self.columnar_cache_replayed = by_name["columnar_cache_replayed"]
        for name in _MEMO_COUNTS:
            setattr(self, name, by_name[name])

    def collect(self) -> None:
        """Barrier: refresh merged counters/cache stats from all workers."""
        self._check_open()
        states = []
        for shard, reply in enumerate(
            self._gather(("collect",), context="collect", barrier=True)
        ):
            if reply is None:
                continue
            tag, state, epoch, saved = reply
            self._check_epoch(shard, epoch)
            self._rebase(shard, epoch, state, saved)
            states.append(state)
        self._merge_states(states)

    def _check_epoch(self, shard: int, epoch: int) -> None:
        if epoch != self.epoch:
            raise EmulationError(
                f"Shard {shard} applied epoch {epoch}, "
                f"expected {self.epoch}"
            )

    def dump_caches(self) -> list[tuple[dict, Optional[dict], dict]]:
        """Per-worker cache contents (``FlowCache.items()`` as dicts,
        in LRU order) and table entries (test support)."""
        self._check_open()
        dumps = []
        for reply in self._gather(("dump",), context="dump"):
            if reply is None:
                continue
            tag, stores, native, tables = reply
            dumps.append((stores, native, tables))
        return dumps

    # -- replay ------------------------------------------------------------

    def replay(
        self,
        packets: Iterable[Packet],
        offered_pps: Optional[float] = None,
        batch: Optional[int] = None,
        stats: Optional[RunStats] = None,
        engine: Optional[str] = None,
    ) -> RunStats:
        """Shard, dispatch and replay ``packets``; returns merged stats.

        Same contract as :meth:`NicEmulator.replay`, except that the
        workers' tier was fixed at the fork: an ``engine`` other than
        the fleet's is a ``ValueError``, and a ``Packet`` iterable that
        is not a :class:`ColumnSource` is read whole before the first
        batch goes out (:class:`PacketFlows`; the caller's packets are
        left as they were). With
        ``offered_pps`` the parent precomputes each packet's absolute
        clock time and ships it with the batch, so worker-local clocks
        observe exactly the per-packet times a single-core run would;
        the parent clock is advanced by the stream duration at the end.

        Under ``recovery="degraded"`` the merged stats cover only the
        packets a surviving worker replayed; the remainder is counted
        in ``RunStats.lost_packets``.
        """
        self._check_open()
        if engine not in (None, self.engine):
            raise ValueError(
                f"engine={engine!r}: this fleet's workers replay "
                f"through {self.engine!r}, fixed when they were forked"
            )
        if batch is None:
            batch = self.batch
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if batch > self.batch:
            # The rings were sized for the construction batch: a longer
            # batch would not fit a slot. Stats do not depend on the
            # dispatch batch; ``transport_stats`` reports the clamp.
            batch = self.batch
            self.clamped_replays += 1
        n = self.n_workers
        dt = 1.0 / offered_pps if offered_pps else 0.0
        t0 = self.clock.now_s if dt else 0.0
        self._lost_this_replay = 0
        for shard in range(n):
            self._dispatched_since_begin[shard] = 0
        self._broadcast(("begin",), context="replay begin")
        self._in_replay = True
        self.parent_dispatch_ns = self.parent_stall_ns = 0
        try:
            buffers = [_ShardBuffer() for _ in range(n)]
            everyone = tuple(range(n))
            count = 0
            flow_set = None
            if not isinstance(packets, ColumnSource):
                packets = PacketFlows(packets)
            for columns, chunk, size_bytes in packets.flow_batches(batch):
                start = time.perf_counter_ns()
                rows = len(chunk)
                ts = None
                if dt:
                    ts = t0 + dt * np.arange(count + 1, count + rows + 1)
                count += rows
                if flow_set is None or not flow_set.holds(columns, size_bytes):
                    # A new flow set: what is buffered goes first.
                    self._drain(buffers, batch, flow_set)
                    flow_set = self._register(columns, size_bytes)
                _route_indices(chunk, ts, buffers, flow_set.route(everyone))
                for shard in range(n):
                    while buffers[shard].rows >= batch:
                        self._flush(shard, buffers, batch, flow_set)
                self.parent_dispatch_ns += time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            self._drain(buffers, batch, flow_set)
            self.parent_dispatch_ns += time.perf_counter_ns() - start
            self.parent_dispatch_ns -= self.parent_stall_ns
            if dt:
                self.clock.advance(dt * count)
            merged = stats if stats is not None else RunStats()
            states = []
            for shard, reply in enumerate(
                self._gather(("end",), context="replay end", barrier=True)
            ):
                if reply is None:
                    self.worker_busy_s[shard] = 0.0
                    self.worker_packets[shard] = 0
                    continue
                tag, worker_stats, state, busy, epoch, saved = reply
                self._check_epoch(shard, epoch)
                self._rebase(shard, epoch, state, saved)
                merged.merge(worker_stats)
                states.append(state)
                self.worker_busy_s[shard] = busy
                self.worker_packets[shard] = worker_stats.packets
        finally:
            self._in_replay = False
        merged.lost_packets += self._lost_this_replay
        self._merge_states(states)
        return merged

    def run(
        self,
        packets: Iterable[Packet],
        offered_pps: Optional[float] = None,
    ) -> RunStats:
        """Same as :meth:`replay`: workers have no per-packet ``run``,
        and every tier is stats-identical to the interpreter."""
        return self.replay(packets, offered_pps=offered_pps)

    def _register(self, columns, size_bytes: int) -> _FlowSet:
        """The registered flow set of ``columns``, shipping it to every
        live shard first when no shard holds it.

        Registrations are matched by the object's identity: the
        process-wide keeper of :data:`FLOW_SETS_KEPT` sets
        (:meth:`TrafficGenerator.flow_columns`) is what hands the same
        object back for an equal flow list, so a set stays shipped as
        long as both keep it."""
        for flow_set in self._flow_sets:
            if flow_set.holds(columns, size_bytes):
                return flow_set
        flow_set = _FlowSet(self._next_flow_set, columns, size_bytes)
        self._next_flow_set += 1
        self._flow_sets.append(flow_set)
        del self._flow_sets[:-FLOW_SETS_KEPT]
        message = flow_set.message()
        for shard in self._survivors():
            if self._journaling:
                self._journals[shard].append(message, flow_set.bytes)
            if self._guarded_send(shard, message, context="flow set"):
                self.ring_stats[shard]["flow_sets_shipped"] += 1
                self._count("pipeleon_flow_sets_shipped_total", shard=shard)
        return flow_set

    def _drain(self, buffers, batch: int, flow_set) -> None:
        """Dispatch everything buffered, ``batch`` rows at a time. A
        degraded-mode flush redistributes its rows onto survivors —
        possibly one already drained this sweep — so sweep until every
        buffer is empty."""
        while any(buffer.rows for buffer in buffers):
            for shard, buffer in enumerate(buffers):
                if buffer.rows:
                    self._flush(
                        shard, buffers, min(batch, buffer.rows), flow_set
                    )

    def _flush(self, shard: int, buffers, rows: int, flow_set) -> None:
        """Dispatch the first ``rows`` flow indices buffered for
        ``shard``."""
        chosen, ts = buffers[shard].cut(rows)
        if not self._dead[shard]:
            if self._dispatch_indices(shard, flow_set, chosen, ts):
                self._dispatched_since_begin[shard] += rows
                return
            # The shard degraded during this send: the batch was never
            # delivered, so fall through and reroute it.
        survivors = tuple(self._survivors())
        _route_indices(chosen, ts, buffers, flow_set.route(survivors))

    def _dispatch_indices(
        self,
        shard: int,
        flow_set: _FlowSet,
        chosen: np.ndarray,
        ts: Optional[np.ndarray],
    ) -> bool:
        """Journal one index batch, park it in the shard's data ring
        and send a ``ring`` token in its place. Returns False only when
        the shard degraded mid-dispatch."""
        self._journal(shard, ("index", flow_set.id, chosen, ts))
        if not self._push_supervised(shard, flow_set.id, chosen, ts):
            # Degraded, or respawned with this batch replayed from the
            # journal: either way no token is owed.
            return not self._dead[shard]
        return self._guarded_send(shard, ("ring",), context="batch dispatch")

    def _push_supervised(
        self,
        shard: int,
        flow_set: int,
        chosen: np.ndarray,
        ts: Optional[np.ndarray],
    ) -> bool:
        """Park one index batch in the shard's data ring (backpressure).

        A full ring stalls the dispatcher (counted once per batch,
        timed in ``parent_stall_ns``) under :meth:`_supervised_wait`,
        the same contract as a pipe recv — a worker steadily draining
        a full ring is healthy however long the stall lasts. Death and
        deadline escalate through :meth:`_handle_failure`. Returns True
        once the record is published, False when the worker failed
        first (the shard is then degraded, or respawned on a fresh
        ring).
        """
        channel = self._channels[shard]
        stats = self.ring_stats[shard]

        def try_push() -> bool:
            return channel.try_push(flow_set, chosen, ts)

        if not try_push():
            stats["stalls"] += 1
            self._count("pipeleon_ring_stalls_total", shard=shard)
            stalled = time.perf_counter_ns()

            def retry():
                time.sleep(_STALL_POLL_S)
                return try_push() or None

            try:
                self._supervised_wait(
                    shard, retry, context="batch dispatch"
                )
            except _WorkerGone as gone:
                self._handle_failure(
                    shard,
                    gone.kind,
                    context="batch dispatch",
                    elapsed_s=gone.elapsed_s,
                )
                return False
            finally:
                self.parent_stall_ns += time.perf_counter_ns() - stalled
        stats["pushed_batches"] += 1
        stats["pushed_packets"] += len(chosen)
        stats["pushed_bytes"] += index_record_bytes(
            len(chosen), ts is not None
        )
        occupancy = channel.data.occupancy()
        if occupancy > stats["max_occupancy"]:
            stats["max_occupancy"] = occupancy
        self._observe_occupancy(shard, occupancy)
        return True
