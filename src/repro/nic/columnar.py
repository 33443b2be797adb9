"""Columnar (batch-kernel) execution tier for the NIC emulator.

The interpreter (:meth:`NicEmulator.process`) walks one packet at a
time. This tier compiles the program DAG to per-node *batch kernels*
that process an entire struct-of-arrays batch at once with numpy —
partition the batch by flow key (one sort of the key columns' packed
words, :func:`_unique_matrix`), resolve
each partition's table hit once, apply action effects and cost charging
as vectorized column operations under index masks, and route surviving
index sets to successor nodes.

Bit-identity with the interpreter is the contract. The trick that makes
vectorized float accumulation safe is that per-packet busy time is a
*sum of scalar charges in node-visit order*, every DAG path visits
nodes in topological order, and the walk executes nodes in topological
order too — so each packet's float64 column element receives the
identical IEEE-754 add sequence the interpreter performs.

Table-like kernels (plain, merged, flow cache, native cache) share one
shape: resolve the batch's *unique* keys to plan ids — a table hands
the key matrix to its match engine (:meth:`MatchEngine.lookup_many`)
and binds a plan per entry slot once — then charge, count, apply and
route once per distinct plan: a table has thousands of keys but a
handful of behaviours.

Match kernels are specialised further (DESIGN.md §14). An effect is a
*template* — its primitives with the numeric arguments taken out,
compiled once to column appliers — plus a *parameter row*; plans that
share a template, counter and route share a shape, and a kernel call
applies each shape once with the parameters gathered by plan id. A
batch cut from a flow set finds its plans in the node's
:class:`_PlanMemo` (flow -> key-row id, row -> plan id, keyed by the
flow set's identity and built from the flows' own headers): a flow's
plan is one gather, and only rows without a current plan are looked
up. Row plans are stamped with the kernel's epoch, which every compile
and entry edit renews. A node whose match fields some action may
write checks each memoised row against the packet's key; the
mismatches (guard failures) are resolved by sort and lookup, and are
counted with the hits and misses per node.

Flow caches run inside the walk (DESIGN.md §14 has the protocol). The
cache step simulates the cache on a copy, in packet order — LRU
promotion, token-bucket inserts at each packet's own ``now_s``,
eviction — but only over the packets whose key an eviction of this step
can reach (:func:`_reach`); every other packet is a hit whatever the
rest of the batch does. A miss makes its packet the *leader*
of an open recording and sends it down ``miss_next``; every covered
kernel appends its bound effect to the recording; the insert is billed
when the leader reaches ``hit_next`` (or terminates). Later packets of
the batch that hit the freshly inserted key are *followers*: they wait
at the cache and replay the leader's finished effect. Nothing shared is
mutated; commit replays the retired prefix's op log on the real cache
and raises if the cache disagrees with the simulation.

Packets the kernels cannot express are *demoted*: interpreted one at a
time, in global packet order, at their own clock value:

* ``migrated`` — a navigation jump backwards in topological order
  (cyclic component execution).
* ``unsupported`` — values outside int64, unknown navigation ids,
  unknown/unbindable primitives: the interpreter runs them (and raises
  where it raises).
* ``traced`` — a tracer is attached; the whole batch is interpreted,
  because the interpreter owns trace sampling.
* ``input`` — a ``Packet``-list batch that is not SoA-uniform (mixed
  header sets, preset metadata/drop/egress, non-int64 values).
* ``cascade`` — after :data:`MAX_WALKS_PER_BATCH` ``migrated`` /
  ``unsupported`` demotions in one batch the remaining tail is
  interpreted (bounds worst-case re-walk cost).

The *pure walk / commit prefix / demote one* loop: a walk touches no
shared state (cache steps simulate on copies, counters and stats become
pending events); the clean prefix up to the first flagged packet is
then committed in bulk, the flagged packet goes through
``NicEmulator.process`` (with the sim clock set to the exact value a
pure interpreter run would see), and the remainder is re-walked against
the caches as the demoted packet left them.

Compiled state carries a staleness fingerprint (table versions +
cache/counter/tracer identities), so any control-plane mutation
transparently recompiles. Demotion totals accumulate on the owning
:class:`NicEmulator` (``columnar_demotions``/``columnar_packets``) so
they survive recompiles and can be merged across shard workers into
``pipeleon_columnar_demotions_total{reason}``.
"""

from __future__ import annotations

from collections import OrderedDict
from copy import copy
from itertools import accumulate, count, islice, repeat
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from repro.errors import EmulationError, IrError
from repro.ir.actions import Param
from repro.ir.conditionals import _OPS, ConditionalNode
from repro.ir.tables import Pipeline, TableKind
from repro.nic.counters import (
    action_counter,
    branch_counter,
    cache_counter,
)
from repro.nic.flow_cache import key_values, row_keys
from repro.nic.match_engine import _pack
from repro.nic.packet import FIVE_TUPLE, NEXT_TAB_ID, Packet
from repro.nic.pipeline import bind_action
from repro.nic.stats import RunStats

_ASIC = Pipeline.ASIC

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: Demotions per batch before the rest of the batch is interpreted.
MAX_WALKS_PER_BATCH = 8

# Flag codes (first flag wins; 0 = clean).
_F_UNSUPPORTED = 1
_F_MIGRATED = 2
_FLAG_REASONS = {
    _F_UNSUPPORTED: "unsupported",
    _F_MIGRATED: "migrated",
}

# Simulated outcome of one cache lookup. A code >= 0 is a *follower*:
# a hit on a key inserted earlier in the same walk, the code being the
# leader's position among the packets that arrived at the cache.
_HIT = -1
_MISS_INSERTED = -2
_MISS_REJECTED = -3

#: Recording name of the Agilio whole-program cache (covers ``*``).
_NATIVE = "__native__"


class _Unsupported(Exception):
    """Compile-time marker: this effect can't run as a column kernel."""


class _Effect(NamedTuple):
    """A bound effect as a *template* (its primitives with their
    numeric arguments taken out) plus its *parameter row*."""

    template: tuple  # one applier per primitive; None = charge only
    params: tuple  # one per primitive: its numeric argument, or None
    unsupported: bool  # no column form: the packets demote
    drops: bool  # contains a ``drop``: every packet it runs on ends
    bound: tuple  # the primitives themselves, for open recordings


#: An entry whose action is unknown or does not bind: always demotes.
_UNBINDABLE = _Effect((), (), True, False, ())


def _setter(name: str):
    def apply_set(walk, idx, value) -> None:
        col = walk.writable(name)
        col[0][idx] = value
        if col[1] is not None:
            col[1][idx] = True

    return apply_set


def _adder(name: str):
    def apply_add(walk, idx, delta) -> None:
        col = walk.writable(name)
        vals, present = col[0], col[1]
        current = vals[idx]
        if present is not None:
            current = np.where(present[idx], current, 0)
        # Per packet: the sum must stay inside int64, or it demotes.
        over = np.where(
            delta >= 0,
            current > _I64_MAX - np.maximum(delta, 0),
            current < _I64_MIN - np.minimum(delta, 0),
        )
        walk.flag(idx[over], _F_UNSUPPORTED)
        vals[idx] = current + delta
        if present is not None:
            present[idx] = True

    return apply_add


def _copier(dst: str, src: str):
    def apply_copy(walk, idx, _) -> None:
        vals, present = walk.read(src)
        if vals is None:
            value = np.zeros(idx.size, dtype=np.int64)
        else:
            value = vals[idx]
            if present is not None:
                value = np.where(present[idx], value, 0)
        col = walk.writable(dst)
        col[0][idx] = value
        if col[1] is not None:
            col[1][idx] = True

    return apply_copy


def _apply_forward(walk, idx, port) -> None:
    walk.egress[idx] = port
    walk.has_eg[idx] = True


def _apply_drop(walk, idx, _) -> None:
    walk.dropped[idx] = True


def _counter(counter_name: str):
    def apply_count(walk, idx, _) -> None:
        walk.explicit_events.append((counter_name, idx))

    return apply_count


def _int64(value) -> int:
    value = int(value)
    if not (_I64_MIN <= value <= _I64_MAX):
        raise _Unsupported(value)
    return value


def _template_part(op: str, args) -> tuple:
    """One bound primitive as ``(template key, numeric argument)``.

    The key holds what an applier is specialised to (the op and its
    field names); the numeric argument, None where there is none, goes
    into the parameter row. Raises :class:`_Unsupported` for anything a
    column kernel can't express; the packets are then demoted to the
    interpreter (which raises, for genuinely invalid primitives).
    """
    try:
        if op == "set_field" or op == "set_meta":
            name = str(args[0])
            if op == "set_meta" and not name.startswith("meta."):
                name = f"meta.{name}"
            return ("set", name), _int64(args[1])
        if op == "add_to_field":
            return ("add", str(args[0])), _int64(args[1])
        if op == "copy_field":
            return ("copy", str(args[0]), str(args[1])), None
        if op == "forward":
            return ("forward",), _int64(args[0])
        if op == "drop" or op == "no_op":
            return (op,), None
        if op == "count":
            return ("count", str(args[0])), None
    except (TypeError, ValueError, IndexError):
        raise _Unsupported(op)
    raise _Unsupported(op)


def _applier(key: tuple):
    """The column applier ``(walk, idx, parameter) -> None`` of a
    template key; None for ``no_op``, which only charges. The parameter
    is a scalar or a column aligned with ``idx``."""
    kind = key[0]
    if kind == "set":
        return _setter(key[1])
    if kind == "add":
        return _adder(key[1])
    if kind == "copy":
        return _copier(key[1], key[2])
    if kind == "forward":
        return _apply_forward
    if kind == "drop":
        return _apply_drop
    if kind == "count":
        return _counter(key[1])
    return None


class BatchOutcome:
    """Per-packet results of one batch, in original packet order.

    ``egress`` uses ``-1`` for "no egress port set". The tests compare
    these columns with the interpreter's per-packet results.
    """

    __slots__ = ("latencies", "egress", "dropped", "n", "demoted")

    def __init__(self, n: int):
        self.n = n
        self.latencies = np.zeros(n, dtype=np.float64)
        self.egress = np.full(n, -1, dtype=np.int64)
        self.dropped = np.zeros(n, dtype=bool)
        self.demoted = 0


class ColumnBatch:
    """A struct-of-arrays packet batch: the one batch type of the data
    path (:meth:`from_packets` is the only Packet -> columns encoder,
    :meth:`make_packet` the only columns -> Packet decoder).

    ``values`` is field-major ``(n_fields, n_packets)`` int64 — the
    layout of a flow set's matrices, so a batch of drawn flows is one
    ``take`` of their columns. The base columns are never mutated
    (walks copy-on-write), which lets :meth:`make_packet` materialise a
    demoted packet from the original data at any time.
    """

    __slots__ = (
        "names",
        "values",
        "sizes",
        "timestamps",
        "n",
        "packets",
        "flows",
        "flow_idx",
    )

    def __init__(
        self,
        names,
        values,
        sizes,
        timestamps=None,
        packets=None,
        flows=None,
        flow_idx=None,
    ):
        self.names = tuple(names)
        self.values = values
        self.sizes = sizes
        self.timestamps = timestamps
        self.n = int(values.shape[1]) if values.ndim == 2 else len(sizes)
        self.packets = packets
        #: The :class:`FlowColumns` the rows were cut from and each
        #: row's flow index in it (:meth:`FlowColumns.batch`), or None:
        #: what the match kernels' plan memos are keyed by.
        self.flows = flows
        self.flow_idx = flow_idx

    @classmethod
    def from_packets(cls, packets: list) -> Optional["ColumnBatch"]:
        """Columnise a packet list; None if it is not SoA-uniform.

        Every packet must carry the same header-field set, no
        metadata, no preset drop/egress, and int64-representable
        values. Batches that fail are interpreted wholesale (reason
        ``input``); a flow set (:class:`FlowColumns`) keeps the flows
        that fail as its non-uniform set.
        """
        if not packets:
            return None
        first = packets[0].fields.keys()
        for packet in packets:
            if (
                packet.metadata
                or packet.dropped
                or packet.egress_port is not None
                or packet.fields.keys() != first
            ):
                return None
        names = tuple(first)
        try:
            values = np.array(
                [[p.fields[name] for p in packets] for name in names],
                dtype=np.int64,
            )
        except OverflowError:
            return None
        if values.ndim != 2:  # empty field set -> (n_fields, n) anyway
            values = values.reshape(len(names), len(packets))
        sizes = np.fromiter(
            (p.size_bytes for p in packets),
            dtype=np.int64,
            count=len(packets),
        )
        return cls(names, values, sizes, packets=packets)

    def make_packet(self, i: int) -> Packet:
        """The ``i``-th packet as a ``Packet`` (demotion, or a whole
        batch for the per-packet engines)."""
        if self.packets is not None:
            return self.packets[i]
        return Packet(
            fields=dict(zip(self.names, self.values[:, i].tolist())),
            size_bytes=int(self.sizes[i]),
        )

    def take(self, rows) -> "ColumnBatch":
        """The given rows (a slice or an index array), in that order.

        The columns fully describe a SoA packet, so the result carries
        no ``packets``; timestamps travel with their rows.
        """
        ts = self.timestamps
        return ColumnBatch(
            self.names,
            # ``values[:, index_array]`` would come back packet-major.
            self.values[:, rows]
            if isinstance(rows, slice)
            else self.values.take(rows, axis=1),
            self.sizes[rows],
            None if ts is None else ts[rows],
        )

    def flow_keys(self):
        """``(unique five-tuple keys, key id of every row)``.

        A key is what :meth:`Packet.flow_key` returns for the row: the
        ``FIVE_TUPLE`` fields in order, an absent field reading 0.
        """
        keymat = np.zeros((self.n, len(FIVE_TUPLE)), dtype=np.int64)
        for j, name in enumerate(FIVE_TUPLE):
            if name in self.names:
                keymat[:, j] = self.values[self.names.index(name)]
        rows, kid = _unique_matrix(keymat)
        return list(map(tuple, rows.tolist())), kid


#: Flows turned into packets at a time while a :class:`FlowColumns` is
#: built: bounds the transient ``Packet`` objects of a 20 000-flow set.
_BUILD_CHUNK = 1024


class FlowColumns:
    """The header fields of a flow set as int64 matrices.

    A flow is anything with ``packet(size_bytes)``: a
    :class:`repro.traffic.flows.FlowSpec`, or a packet snapshot of
    :class:`PacketFlows`. The matrices are derived from
    ``flow.packet().fields`` through :meth:`ColumnBatch.from_packets`,
    so ``packet`` stays the one definition of a flow's fields and
    ``from_packets`` the one definition of what SoA can express. A
    batch of drawn flow indices is then one fancy-index into a matrix
    (:meth:`batch`) instead of one ``Packet`` made and un-made per
    index.

    Flows are grouped by header-field set: ``group[i]`` is flow ``i``'s
    group (``-1`` when its packet has no SoA form, e.g. a value outside
    int64 or preset metadata) and ``column[i]`` its column in that
    group's field-major ``(n_fields, n_members)`` matrix.
    """

    def __init__(self, flows):
        self.flows = list(flows)
        n = len(self.flows)
        self.group = np.full(n, -1, dtype=np.int64)
        self.column = np.zeros(n, dtype=np.int64)
        self.names: list[tuple[str, ...]] = []
        parts: list[list[np.ndarray]] = []
        members: list[int] = []
        by_field_set: dict[frozenset, int] = {}

        def add(encoded: ColumnBatch, first: int) -> None:
            key = frozenset(encoded.names)
            group = by_field_set.setdefault(key, len(self.names))
            if group == len(self.names):
                self.names.append(encoded.names)
                parts.append([])
                members.append(0)
            values = encoded.values
            if encoded.names != self.names[group]:
                # Same fields, another order: rows follow the group's.
                values = values[
                    [encoded.names.index(f) for f in self.names[group]]
                ]
            parts[group].append(values)
            rows = slice(first, first + encoded.n)
            self.group[rows] = group
            self.column[rows] = np.arange(
                members[group], members[group] + encoded.n
            )
            members[group] += encoded.n

        for start in range(0, n, _BUILD_CHUNK):
            packets = [
                flow.packet()
                for flow in self.flows[start : start + _BUILD_CHUNK]
            ]
            encoded = ColumnBatch.from_packets(packets)
            if encoded is not None:
                add(encoded, start)
                continue
            # Mixed chunk: flow by flow (a flow alone is rejected only
            # when its own packet has no SoA form).
            for offset, packet in enumerate(packets):
                encoded = ColumnBatch.from_packets([packet])
                if encoded is not None:
                    add(encoded, start + offset)
        self.values = [np.concatenate(group, axis=1) for group in parts]
        #: One field set and every flow encodable: ``batch`` skips the
        #: per-batch uniformity check.
        self.uniform = len(self.names) == 1 and members[0] == n

    def keys(self, fields) -> np.ndarray:
        """Every flow's values of ``fields`` as an ``(n_flows, len(
        fields))`` int64 matrix, an absent field reading 0 (what
        :meth:`Packet.key` returns); a flow without a SoA form reads
        all 0."""
        keys = np.zeros((len(self.group), len(fields)), dtype=np.int64)
        for group, names in enumerate(self.names):
            members = np.flatnonzero(self.group == group)
            columns = self.column[members]
            for j, field in enumerate(fields):
                if field in names:
                    keys[members, j] = self.values[group][
                        names.index(field), columns
                    ]
        return keys

    def batch(
        self, indices: np.ndarray, size_bytes: int
    ) -> Union[ColumnBatch, list[Packet]]:
        """The packets of ``indices`` as one batch.

        A :class:`ColumnBatch` when :meth:`ColumnBatch.from_packets`
        would make one of those packets — all of one field set, all
        encodable — and the ``Packet`` list otherwise.
        """
        if self.uniform:
            group, columns = 0, indices
        else:
            groups = self.group[indices]
            group = int(groups[0])
            if group < 0 or (groups != group).any():
                flows = self.flows
                return [
                    flows[index].packet(size_bytes)
                    for index in indices.tolist()
                ]
            columns = self.column[indices]
        return ColumnBatch(
            self.names[group],
            self.values[group].take(columns, axis=1),
            np.full(len(indices), size_bytes, dtype=np.int64),
            flows=self,
            flow_idx=indices,
        )


#: How many flow sets live at once, on both sides of a shard fleet.
#: The traffic generators of a process keep the matrices of this many
#: sets (most recently used first) and hand out the *same*
#: :class:`FlowColumns` object for an equal flow list they still keep;
#: a fleet registers a set by that object's identity and keeps this
#: many registrations (oldest first out, the eviction its workers apply
#: in message order). So a rotation over at most this many sets ships
#: each set to a shard once; past it, a set the keeper rebuilt is a new
#: object and is shipped again.
FLOW_SETS_KEPT = 4


class ColumnSource:
    """A one-shot ``Packet`` iterable that can also hand out what it
    has left as flow indices (:class:`repro.traffic.generator.
    PacketStream` is the implementation; :class:`PacketFlows` makes
    any ``Packet`` iterable one for a shard fleet).

    Both views advance one cursor. ``flow_batches(size)`` yields,
    ``size`` packets at a time, ``(flow set, chosen flow indices,
    size_bytes)``: a flow set is a :class:`FlowColumns`, and its
    ``batch(chosen, size_bytes)`` is the batch itself.
    ``batches(size)`` is exactly that: a :class:`ColumnBatch`
    — or the ``Packet`` list when those packets are not SoA-uniform,
    decided per batch exactly as :meth:`ColumnBatch.from_packets`
    decides. A shard fleet ships the flow set once and then the
    indices, so its workers make the very batches one core makes; how
    long a set stays shipped is :data:`FLOW_SETS_KEPT`.
    """

    def flow_batches(self, size: int) -> Iterator[tuple]:
        raise NotImplementedError

    def batches(
        self, size: int
    ) -> Iterator[Union[ColumnBatch, list[Packet]]]:
        for flows, chosen, size_bytes in self.flow_batches(size):
            yield flows.batch(chosen, size_bytes)


class _PacketFlow:
    """One distinct packet of a :class:`PacketFlows`, as a flow."""

    __slots__ = ("snapshot",)

    def __init__(self, packet: Packet):
        # A copy: the caller may mutate its packets after the replay,
        # and a respawn rebuilds batches from this flow much later.
        self.snapshot = packet.clone()

    def packet(self, size_bytes: Optional[int] = None) -> Packet:
        """A fresh copy of the snapshot, ``size_bytes`` long."""
        packet = self.snapshot.clone()
        if size_bytes is not None:
            packet.size_bytes = size_bytes
        return packet


class PacketFlows(ColumnSource):
    """A bare ``Packet`` iterable as one flow set plus an index stream:
    how a shard fleet reads any input that is not a
    :class:`ColumnSource` already.

    :meth:`flow_batches` reads the whole iterable first. Packets equal
    in fields (order included), metadata, ``dropped`` and
    ``egress_port`` are one flow, a snapshot whose ``packet(size_bytes)``
    is a fresh copy; the flows make one :class:`FlowColumns`, whose
    non-uniform set holds the ones SoA cannot express. Chunks never
    span two ``size_bytes``: each run of equal sizes is cut ``size``
    packets at a time, so a list of a stream's packets yields the
    stream's own chunks.
    """

    def __init__(self, packets: Iterable[Packet]):
        self._packets = packets

    def flow_batches(
        self, size: int
    ) -> Iterator[tuple[FlowColumns, np.ndarray, int]]:
        flow_of: dict[tuple, int] = {}
        flows: list[_PacketFlow] = []
        chosen: list[int] = []
        sizes: list[int] = []
        for packet in self._packets:
            fields = packet.fields
            # Flat, so a lookup hashes ints and cached ``str`` hashes,
            # not one tuple per field; presets (rare) nest the rest.
            key = (*fields.values(), *fields)
            if (
                packet.metadata
                or packet.dropped
                or packet.egress_port is not None
            ):
                key = (
                    key,
                    tuple(packet.metadata.items()),
                    packet.dropped,
                    packet.egress_port,
                )
            flow = flow_of.setdefault(key, len(flows))
            if flow == len(flows):
                flows.append(_PacketFlow(packet))
            chosen.append(flow)
            sizes.append(packet.size_bytes)
        if not chosen:
            return
        columns = FlowColumns(flows)
        indices = np.array(chosen, dtype=np.int64)
        runs = np.flatnonzero(np.diff(sizes)) + 1
        bounds = [0, *runs.tolist(), len(sizes)]
        for first, end in zip(bounds, bounds[1:]):
            for start in range(first, end, size):
                stop = min(start + size, end)
                yield columns, indices[start:stop], sizes[first]


def batched(
    packets, size: int, columns: bool
) -> Iterator[Union[ColumnBatch, list[Packet]]]:
    """Cut a packet source into ``size``-packet batches.

    The one batching loop of :meth:`NicEmulator.replay`. With
    ``columns`` a :class:`ColumnSource` hands out its own batches and
    no ``Packet`` is made; everything else is read through the
    ``Packet`` view.
    """
    if columns and isinstance(packets, ColumnSource):
        yield from packets.batches(size)
        return
    iterator = iter(packets)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


class _Recording:
    """The open miss recordings of one cache in one walk.

    One object covers every leader of the cache: ``open`` marks packets
    whose recording has not been committed yet, ``insert`` those whose
    insert the simulation let through (and so gets billed), ``chain``
    each leader's recorded effect so far as an id into the walk's
    interned effect chains. ``followers`` are the packets parked at the
    cache, as ``(packets, their leaders)``, until the leaders finish;
    ``resolve(walk, recording)`` is the owning cache kernel's replay of
    the finished effects on them.
    """

    __slots__ = (
        "name",
        "hit_next",
        "pool",
        "insert_ns",
        "open",
        "insert",
        "chain",
        "followers",
        "resolve",
    )

    def __init__(self, name, hit_next, pool, insert_ns, n, resolve):
        self.name = name
        self.hit_next = hit_next
        self.pool = pool
        self.insert_ns = insert_ns
        self.open = np.zeros(n, dtype=bool)
        self.insert = np.zeros(n, dtype=bool)
        self.chain = np.zeros(n, dtype=np.int64)
        self.followers = None
        self.resolve = resolve


class _CacheStep:
    """Op log of one cache step: who looked up what, in packet order.

    ``slots`` and ``born`` are each unique key's cache slot (−1:
    absent) and that slot's generation when the step read them.
    ``reached`` marks the unique keys an eviction of this step can reach
    (:func:`_reach`); ``replayed`` are the step positions of their
    packets and ``codes`` those packets' simulated outcomes. Every other
    packet is a hit whatever the rest of the step does.
    """

    __slots__ = (
        "cache",
        "idx",
        "keys",
        "kid",
        "slots",
        "born",
        "reached",
        "replayed",
        "codes",
        "recording",
    )

    def __init__(self, cache, idx, keys, kid, slots, reached):
        self.cache = cache
        self.idx = idx
        self.keys = keys
        self.kid = kid
        self.slots = slots
        self.born = cache.born[slots]
        self.reached = reached
        self.replayed = np.flatnonzero(reached[kid])
        self.codes: list = []
        self.recording = None


class _Walk:
    """Pure per-walk state: column CoW overlays plus charge arrays.

    Columns live in ``cols`` as ``[values, present, owned]`` triples;
    ``present`` is ``None`` for all-present base columns or a bool array;
    ``owned`` is False while ``values`` still aliases the batch's
    read-only base data. Nothing in a walk touches shared engine state —
    counters, cache lookups and explicit counts accumulate as event
    lists that the commit phase filters to the retired prefix.
    """

    __slots__ = (
        "n",
        "cols",
        "busy",
        "used",
        "prev",
        "migr",
        "dropped",
        "egress",
        "has_eg",
        "sampled",
        "flags",
        "flagged",
        "pending",
        "now",
        "counter_events",
        "explicit_events",
        "cache_steps",
        "recordings",
        "chains",
        "chain_effects",
        "flows",
        "flow_idx",
    )

    def __init__(self, batch: ColumnBatch, sampled, now):
        n = batch.n
        self.n = n
        #: The batch's flow set and per-row flow indices (or None).
        self.flows = batch.flows
        self.flow_idx = batch.flow_idx
        values = batch.values
        self.cols = {
            name: [values[j], None, False]
            for j, name in enumerate(batch.names)
        }
        #: Per-pool busy time and "this pool was charged" (ASIC, CPU).
        self.busy = (
            np.zeros(n, dtype=np.float64),
            np.zeros(n, dtype=np.float64),
        )
        self.used = (np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
        self.prev = np.full(n, -1, dtype=np.int8)
        self.migr = np.zeros(n, dtype=np.int64)
        self.dropped = np.zeros(n, dtype=bool)
        self.egress = np.zeros(n, dtype=np.int64)
        self.has_eg = np.zeros(n, dtype=bool)
        #: True (every packet), None (no packet) or a bool mask.
        self.sampled = sampled
        self.flags = np.zeros(n, dtype=np.int8)
        self.flagged = False
        self.pending: dict[str, list] = {}
        #: Per-packet sim-clock values, or None for a static clock.
        self.now = now
        #: (counter_key, sampled idx array) in visit order.
        self.counter_events: list = []
        #: (explicit counter name, idx array) in visit order.
        self.explicit_events: list = []
        self.cache_steps: list[_CacheStep] = []
        #: Opening order == the order a packet visits its caches.
        self.recordings: list[_Recording] = []
        #: Interned effect chains: (parent id, bound) -> id; id 0 = ().
        self.chains: dict = {}
        self.chain_effects: list = [()]

    def writable(self, name: str):
        """The column triple for ``name``, made safe to mutate."""
        col = self.cols.get(name)
        if col is None:
            col = self.cols[name] = [
                np.zeros(self.n, dtype=np.int64),
                np.zeros(self.n, dtype=bool),
                True,
            ]
            return col
        if not col[2]:
            col[0] = col[0].copy()
            if col[1] is not None:
                col[1] = col[1].copy()
            col[2] = True
        return col

    def read(self, name: str):
        """``(values, present)`` or ``(None, None)`` if column absent."""
        col = self.cols.get(name)
        if col is None:
            return None, None
        return col[0], col[1]

    def flag(self, idx: np.ndarray, code: int) -> None:
        """First-flag-wins demotion marking."""
        if idx.size:
            fresh = idx[self.flags[idx] == 0]
            self.flags[fresh] = code
            self.flagged = True

    def count(self, busy, idx, key, counter_ns) -> None:
        """Sampled counter bump + its charge, as a pending event."""
        sampled = self.sampled
        if sampled is None:
            return
        if sampled is not True:
            idx = idx[sampled[idx]]
            if idx.size == 0:
                return
        self.counter_events.append((key, idx))
        busy[idx] += counter_ns

    def route(self, name: Optional[str], idx: np.ndarray) -> None:
        """Queue surviving (unflagged) packets for a successor node.

        Arriving at a recording's ``hit_next`` commits it, and so does
        terminating (``name`` None) — the interpreter's loop-top check
        and ``_finalize_recordings``, in opening order either way.
        """
        if self.flagged:
            idx = idx[self.flags[idx] == 0]
        if idx.size == 0:
            return
        for recording in self.recordings:
            if name is None or recording.hit_next == name:
                self.close(recording, idx)
        if name is not None:
            self.pending.setdefault(name, []).append(idx)

    def close(self, recording: _Recording, idx: np.ndarray) -> None:
        """Commit the recordings of ``idx``'s leaders: bill the insert
        to the cache's pool where the simulation admitted it."""
        members = idx[recording.open[idx]]
        if members.size:
            recording.open[members] = False
            billed = members[recording.insert[members]]
            if billed.size:
                self.busy[recording.pool][billed] += recording.insert_ns
                self.used[recording.pool][billed] = True

    def record(self, feeds, idx: np.ndarray, bounds, ids=None) -> None:
        """``NicEmulator._record``: append to the open recordings
        ``feeds`` names each packet's bound effect — ``bounds[ids[i]]``
        for packet ``idx[i]``, ``bounds[0]`` for all without ``ids`` —
        once per distinct (chain so far, bound)."""
        n = len(bounds)
        for recording in self.recordings:
            if recording.name not in feeds:
                continue
            open_ = recording.open[idx]
            if not open_.any():
                continue
            members = idx[open_]
            chain = recording.chain
            pairs = chain[members]
            if ids is not None:
                pairs = pairs * n + ids[open_]
            keys, inverse = np.unique(pairs, return_inverse=True)
            extended = [
                self._extend(key // n, bounds[key % n])
                for key in keys.tolist()
            ]
            chain[members] = np.array(extended, dtype=np.int64)[inverse]

    def _extend(self, chain_id: int, bound: tuple) -> int:
        key = (chain_id, bound)
        extended = self.chains.get(key)
        if extended is None:
            extended = self.chains[key] = len(self.chain_effects)
            self.chain_effects.append(self.chain_effects[chain_id] + bound)
        return extended

    def key_matrix(self, idx: np.ndarray, names) -> np.ndarray:
        """Key columns for ``idx``: absent fields read as 0 (Packet.key)."""
        out = np.empty((idx.size, len(names)), dtype=np.int64)
        for j, name in enumerate(names):
            vals, present = self.read(name)
            if vals is None:
                out[:, j] = 0
            else:
                column = vals[idx]
                if present is not None:
                    column = np.where(present[idx], column, 0)
                out[:, j] = column
        return out


class _Shape(NamedTuple):
    """What the plans of one shape do alike: everything but their
    parameters."""

    template: tuple
    param_rows: tuple  # per primitive: its parameter row, or None
    unsupported: bool
    counter_key: Optional[str]
    next_name: Optional[str]  # None: the packets end (drop or exit)


class _PlanTable:
    """A match node's plans, interned to ids as their entries are first
    met: ``shape_of[plan]`` is the plan's :class:`_Shape` id,
    ``params[j, plan]`` the parameter of its ``j``-th primitive and
    ``bounds[plan]`` its bound effect. Both arrays grow by appending
    the new plan's column, never by a rebuild."""

    __slots__ = ("ids", "bounds", "shapes", "shape_ids", "shape_of", "params")

    def __init__(self):
        self.ids: dict = {}
        self.bounds: list = []
        self.shapes: list[_Shape] = []
        self.shape_ids: dict = {}
        self.shape_of = np.zeros(8, dtype=np.int64)
        self.params = np.zeros((0, 8), dtype=np.int64)

    def intern(self, effect: _Effect, counter_key, next_name) -> int:
        plan = (effect, counter_key, next_name)
        plan_id = self.ids.get(plan)
        if plan_id is not None:
            return plan_id
        plan_id = self.ids[plan] = len(self.bounds)
        self.bounds.append(effect.bound)
        shape = _Shape(
            effect.template,
            tuple(
                None if param is None else j
                for j, param in enumerate(effect.params)
            ),
            effect.unsupported,
            counter_key,
            None if effect.drops else next_name,
        )
        shape_id = self.shape_ids.setdefault(shape, len(self.shapes))
        if shape_id == len(self.shapes):
            self.shapes.append(shape)
        width, capacity = self.params.shape
        if plan_id == capacity or len(effect.params) > width:
            if plan_id == capacity:
                capacity *= 2
                self.shape_of = np.resize(self.shape_of, capacity)
            grown = np.zeros(
                (max(width, len(effect.params)), capacity), dtype=np.int64
            )
            grown[:width, : self.params.shape[1]] = self.params
            self.params = grown
        self.shape_of[plan_id] = shape_id
        for j, param in enumerate(effect.params):
            if param is not None:
                self.params[j, plan_id] = param
        return plan_id


#: Kernel epochs: a row's memoised plan is current only under the
#: epoch that stamped it, and every compile takes a new one.
_EPOCHS = count()


class _PlanMemo:
    """One match node's memo over one flow set (DESIGN.md §14).

    Built when the node first meets the set: ``rows`` are the distinct
    key rows the flows' own headers give the node's match fields, and
    ``row_of[flow]`` is the flow's row id. ``plan[row]`` is the row's
    plan id, current only where ``stamp[row]`` is the kernel's epoch.
    """

    __slots__ = ("row_of", "rows", "plan", "stamp", "seen")

    def __init__(self, flow_set: "FlowColumns", fields):
        self.rows, row_of = _unique_matrix(flow_set.keys(fields))
        self.row_of = row_of.astype(np.int32)
        self.plan = np.zeros(len(self.rows), dtype=np.int32)
        self.stamp = np.full(len(self.rows), -1, dtype=np.int64)
        #: All False between calls: :meth:`distinct`'s marks.
        self.seen = np.zeros(len(self.rows), dtype=bool)

    def distinct(self, row: np.ndarray) -> np.ndarray:
        """The distinct ids in ``row``, ascending: marked, not sorted."""
        seen = self.seen
        seen[row] = True
        present = np.flatnonzero(seen)
        seen[present] = False
        return present


def _unique_matrix(keymat: np.ndarray):
    """One sort: ``(the distinct rows, key id of every row)``.

    Rows of two or more columns are partitioned by their packed words
    (:func:`~repro.nic.match_engine._pack`), and the partition is kept
    only if every row equals its representative; when two distinct
    rows pack to the same word, one ``lexsort`` of the columns does it.
    """
    n, width = keymat.shape
    if width == 1:
        keys, kid = np.unique(keymat[:, 0], return_inverse=True)
        return keys[:, None], kid
    if width == 0 or n == 1:
        return keymat[:1], np.zeros(n, dtype=np.int64)
    packed = _pack(keymat)
    order = np.argsort(packed)
    words = packed[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(words[1:], words[:-1], out=first[1:])
    kid = np.empty(n, dtype=np.int64)
    kid[order] = np.cumsum(first) - 1
    rows = keymat[order[first]]
    if (rows[kid] == keymat).all():
        return rows, kid
    order = np.lexsort(keymat.T[::-1])
    ordered = keymat[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    kid = np.empty(n, dtype=np.int64)
    kid[order] = np.cumsum(first) - 1
    return ordered[first], kid


def _split(ids: np.ndarray, idx: np.ndarray):
    """Yield ``(id, idx[ids == id])`` per distinct id, in id order.

    One stable sort, so each group keeps ``idx``'s order. Plan, effect
    and chain ids are small: as int16 numpy radix-sorts them, several
    times faster than the int64 merge sort.
    """
    if idx.size == 0:
        return
    if (ids == ids[0]).all():
        yield int(ids[0]), idx
        return
    keys = ids
    if -(2**15) <= ids.min() and ids.max() < 2**15:
        keys = ids.astype(np.int16)
    order = np.argsort(keys, kind="stable")
    ordered = ids[order]
    members = idx[order]
    bounds = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for start, end in zip([0, *bounds], [*bounds, idx.size]):
        yield int(ordered[start]), members[start:end]


def _bump(totals: dict, name: str, count: int) -> None:
    if count:
        totals[name] = totals.get(name, 0) + count


def _lru_keys(cache, slots) -> np.ndarray:
    """The store in LRU order as a step's key ids: each entry the id of
    the unique key in that slot, or −1 for a key no packet asks for."""
    present = np.flatnonzero(slots >= 0)
    key_of_slot = np.full(len(cache), -1, dtype=np.int64)
    key_of_slot[slots[present]] = present
    return key_of_slot[cache.lru_slots()]


def _reach(cache, slots, counts):
    """Which unique keys of a cache step an eviction of it can reach.

    ``slots``/``counts`` give, per unique key, its cache slot (−1:
    absent) and how many arriving packets carry it. With ``free`` empty
    slots a step evicts at most ``misses - free`` times, only a packet
    of an absent or already evicted key can miss, and an eviction takes
    the LRU head — which stays inside a prefix of the LRU order for as
    long as that prefix holds a key no packet touches. So the shortest
    prefix with ``untouched keys >= absent packets + packets on the
    prefix's keys - free`` bounds the step: keys past it are never
    evicted (their packets hit, whatever the others do) and never
    become the head (so skipping them changes no other outcome).
    Returns the reached keys as a mask and the prefix as
    :func:`_lru_keys` ids (the whole store when no prefix qualifies).
    """
    reached = slots < 0
    need = int(counts[reached].sum()) - (cache.capacity - len(cache))
    if need <= 0:
        return reached, slots[:0]
    lru = _lru_keys(cache, slots)
    # Down the LRU order an untouched key lowers the need by one, a
    # touched one raises it by its packets.
    need_after = need + np.cumsum(np.where(lru < 0, -1, counts[lru]))
    done = np.flatnonzero(need_after <= 0)
    prefix = lru[: int(done[0]) + 1] if done.size else lru
    reached[prefix[prefix >= 0]] = True
    return reached, prefix


def _simulate(cache, prefix, positions, kid, times) -> list:
    """Run ``cache`` over a step's reached lookups on a copy.

    ``positions``/``kid``/``times`` give, in packet order, each replayed
    packet's position among the step's arrivals, its key id and its
    sim-clock value; ``prefix`` is the LRU prefix they can evict from
    (:func:`_reach`), the only part of the store copied. Returns one
    outcome code per packet. Exactly the interpreter's per-packet
    ``lookup`` then (on a miss) ``insert``: the insert happens later in
    the packet's life, but no other packet touches the cache in between.
    """
    # Untouched prefix keys are told apart by negative ids.
    ids = np.where(prefix >= 0, prefix, -1 - np.arange(len(prefix)))
    store = OrderedDict.fromkeys(ids.tolist(), _HIT)
    capacity = cache.capacity - (len(cache) - len(prefix))
    limiter = copy(cache._limiter)
    codes = []
    for position, k, now_s in zip(positions, kid, times):
        held = store.get(k)
        if held is None:
            if limiter is None or limiter.allow(now_s):
                if len(store) >= capacity:
                    store.popitem(last=False)
                store[k] = position
                codes.append(_MISS_INSERTED)
            else:
                codes.append(_MISS_REJECTED)
        else:
            store.move_to_end(k)
            codes.append(held)
    return codes


#: Primitives that write the field named by their first argument.
_WRITES = ("set_field", "set_meta", "add_to_field", "copy_field")


def _written_fields(emulator) -> Optional[frozenset]:
    """Every field a packet's fields may be written at, before or
    after any node: by an action of the program, a flow or native
    cache's stored effects, or a navigation/migration node
    (``NEXT_TAB_ID``). None when a primitive names its field through
    action data, so any field may be written. A match node whose
    fields are not among them keys its plan memo on the flow alone.
    """
    written = set()
    bound = []
    for node in emulator.program.nodes.values():
        if isinstance(node, ConditionalNode):
            continue
        if node.kind in (TableKind.NAVIGATION, TableKind.MIGRATION):
            written.add(NEXT_TAB_ID)
        for action in node.actions.values():
            bound.extend((p.op, p.args) for p in action.primitives)
    caches = list(emulator.flow_caches.values())
    if emulator.native_cache is not None:
        caches.append(emulator.native_cache)
    for cache in caches:
        for effect in cache.effects:
            bound.extend(effect)
    for op, args in bound:
        if op in _WRITES:
            if isinstance(args[0], Param):
                return None
            field = str(args[0])
            if op == "set_meta" and not field.startswith("meta."):
                field = f"meta.{field}"
            written.add(field)
    return frozenset(written)


class ColumnarEngine:
    """The program compiled to per-node batch kernels.

    Owned by one :class:`NicEmulator` via the ``columnar`` property,
    which rebuilds it whenever :meth:`stale` reports that the installed
    state diverged.
    """

    def __init__(self, emulator):
        self._em = emulator
        self._instrument = emulator.instrument
        self._counter_bank = emulator.counters
        self._max_steps = emulator.max_steps
        self._native_cache_obj = emulator.native_cache
        self._tracer = emulator.tracer
        self._table_versions = [
            (name, runtime, runtime.version)
            for name, runtime in emulator.runtime_tables.items()
        ]
        self._cache_objs = list(emulator.flow_caches.items())
        #: Why the whole program can't run columnar (None = it can).
        self.unsupported: Optional[str] = None
        #: Cumulative per-node kernel wall time / packet counts, for the
        #: ``pipeleon report`` join against cost-model predictions.
        self.node_time_s: dict[str, float] = {}
        self.node_packets: dict[str, int] = {}
        #: Modeled per-packet ns charged by each node's primary cost.
        self.node_model_ns: dict[str, float] = {}
        #: Flow-key partitions resolved per node (one table lookup
        #: each), counted per kernel invocation including re-walks —
        #: the partition-count bottleneck ROADMAP item 2 flags.
        self.node_partitions: dict[str, int] = {}
        self._kernels: dict = {}
        self._topo: list[str] = []
        self._topo_pos: dict[str, int] = {}
        self._effect_memo: dict = {}
        #: Template key (:func:`_template_part`) -> its applier.
        self._appliers: dict = {}
        self._root = emulator.program.root
        self._written = _written_fields(emulator)
        try:
            self._topo = list(emulator.program.topological_order())
        except IrError:
            self.unsupported = "unsupported"  # cyclic program
        if len(emulator.program.nodes) > emulator.max_steps:
            self.unsupported = "unsupported"
        self._native_kernel = None
        if self.unsupported is None:
            self._topo_pos = {
                name: i for i, name in enumerate(self._topo)
            }
            for name in self._topo:
                self._kernels[name] = self._compile_node(
                    emulator.program.nodes[name]
                )
            self._native_kernel = self._compile_native()

    # -- staleness ---------------------------------------------------------

    def stale(self) -> bool:
        em = self._em
        if (
            em.instrument != self._instrument
            or em.counters is not self._counter_bank
            or em.native_cache is not self._native_cache_obj
            or em.max_steps != self._max_steps
            or em.tracer is not self._tracer
        ):
            return True
        for name, runtime, version in self._table_versions:
            current = em.runtime_tables.get(name)
            if current is not runtime or current.version != version:
                return True
        for name, cache in self._cache_objs:
            if em.flow_caches.get(name) is not cache:
                return True
        return False

    # -- effect compilation ------------------------------------------------

    def _compile_effect(self, bound: tuple) -> _Effect:
        """``bound`` as a template (one applier per template key, so
        equal templates are equal tuples) and its parameter row."""
        cached = self._effect_memo.get(bound)
        if cached is None:
            try:
                parts = [_template_part(op, args) for op, args in bound]
            except _Unsupported:
                cached = _Effect((), (), True, False, bound)
            else:
                appliers = self._appliers
                for key, _ in parts:
                    if key not in appliers:
                        appliers[key] = _applier(key)
                cached = _Effect(
                    tuple(appliers[key] for key, _ in parts),
                    tuple(param for _, param in parts),
                    False,
                    any(op == "drop" for op, _ in bound),
                    bound,
                )
            self._effect_memo[bound] = cached
        return cached

    # -- shared kernel pieces ----------------------------------------------

    def _node_consts(self, node):
        em = self._em
        pipeline = em._pipeline_map[node.name]
        pool = 0 if pipeline is _ASIC else 1
        return pool, em.target.core(pipeline), em.target.migration_ns

    @staticmethod
    def _prologue(walk, idx, pool, migration_ns, cost_ns):
        """Migration check + node cost, in the interpreter's order.

        ``idx`` holds unique indices, so when it spans exactly
        ``size`` values it is a whole range and is charged through a
        slice instead of a fancy index.
        """
        busy = walk.busy[pool]
        prev = walk.prev
        at = idx
        first = 0
        if idx.size:
            first = int(idx.min())
            last = int(idx.max())
            if last - first + 1 == idx.size:
                at = slice(first, last + 1)
        came_from = prev[at]
        moved = (came_from != -1) & (came_from != pool)
        if moved.any():
            moved = (
                np.flatnonzero(moved) + first
                if at is not idx
                else idx[moved]
            )
            busy[moved] += migration_ns
            walk.migr[moved] += 1
        prev[at] = pool
        busy[at] += cost_ns
        walk.used[pool][at] = True
        return busy

    @staticmethod
    def _apply(walk, busy, idx, template, params, action_ns) -> None:
        """Charge + apply a template's primitives on ``idx``, in the
        interpreter's order: per primitive, ``action_ns`` and then the
        primitive (the interpreter too applies every one after a
        drop). ``params`` holds one scalar or column per primitive."""
        for applier, param in zip(template, params):
            busy[idx] += action_ns
            if applier is not None:
                applier(walk, idx, param)

    def _run_effect(
        self, walk, busy, idx, effect, action_ns, feeds, next_name
    ):
        """Charge + apply one effect, feed it to the open recordings,
        and send the packets on (a drop is unconditional, so an effect
        either terminates all of ``idx`` or none of it)."""
        self._apply(walk, busy, idx, effect.template, effect.params, action_ns)
        if effect.bound and walk.recordings:
            walk.record(feeds, idx, (effect.bound,))
        walk.route(None if effect.drops else next_name, idx)

    def _feeds(self, names) -> frozenset:
        """Recordings that ``_record(covered_names=names)`` appends to:
        flow caches covering any of ``names``, and the native cache."""
        program = self._em.program
        feeds = {
            cache
            for cache in self._em.flow_caches
            if set(program.table(cache).cache_info.covers) & set(names)
        }
        feeds.add(_NATIVE)
        return frozenset(feeds)

    # -- node kernels ------------------------------------------------------

    def _compile_node(self, node):
        if isinstance(node, ConditionalNode):
            return self._compile_conditional(node)
        kind = node.kind
        if kind is TableKind.NAVIGATION:
            return self._compile_navigation(node)
        if kind is TableKind.MIGRATION:
            return self._compile_migration(node)
        if (
            kind is TableKind.CACHE
            and node.cache_info
            and node.cache_info.mode == "flow"
        ):
            return self._compile_flow_cache(node)
        if kind is TableKind.MERGED or (
            kind is TableKind.CACHE
            and node.cache_info
            and node.cache_info.mode == "merge"
        ):
            return self._compile_match(node, merged=True)
        return self._compile_match(node, merged=False)

    def _compile_conditional(self, node):
        pool, core, migration_ns = self._node_consts(node)
        branch_ns = core.branch_ns
        counter_ns = core.counter_update_ns
        condition = node.condition
        field_name = condition.field
        is_valid = condition.op == "valid"
        op_fn = _OPS.get(condition.op)
        value = condition.value
        static_bad = not is_valid and not (
            isinstance(value, int) and _I64_MIN <= value <= _I64_MAX
        )
        true_key = branch_counter(node.name, True)
        false_key = branch_counter(node.name, False)
        true_next = node.true_next
        false_next = node.false_next
        self.node_model_ns[node.name] = branch_ns

        def kernel(walk: _Walk, idx: np.ndarray) -> None:
            busy = self._prologue(walk, idx, pool, migration_ns, branch_ns)
            if static_bad:
                walk.flag(idx, _F_UNSUPPORTED)
                return
            vals, present = walk.read(field_name)
            if vals is None:
                taken = np.zeros(idx.size, dtype=bool)
            else:
                column = vals[idx]
                if is_valid:
                    taken = (
                        np.ones(idx.size, dtype=bool)
                        if present is None
                        else present[idx].copy()
                    )
                else:
                    taken = op_fn(column, value)
                    if present is not None:
                        taken &= present[idx]
            true_idx = idx[taken]
            false_idx = idx[~taken]
            walk.count(busy, true_idx, true_key, counter_ns)
            walk.count(busy, false_idx, false_key, counter_ns)
            walk.route(true_next, true_idx)
            walk.route(false_next, false_idx)

        return kernel

    def _compile_navigation(self, node):
        pool, core, migration_ns = self._node_consts(node)
        lookup_ns = core.lookup_ns
        default_next = node.next_map[node.default_action]
        id_nodes = self._em._id_nodes
        topo_pos = self._topo_pos
        my_pos = topo_pos[node.name]
        self.node_model_ns[node.name] = lookup_ns

        def kernel(walk: _Walk, idx: np.ndarray) -> None:
            self._prologue(walk, idx, pool, migration_ns, lookup_ns)
            vals, present = walk.read(NEXT_TAB_ID)
            if vals is None:
                walk.route(default_next, idx)
                return
            present_mask = (
                np.ones(idx.size, dtype=bool)
                if present is None
                else present[idx]
            )
            walk.route(default_next, idx[~present_mask])
            jump_idx = idx[present_mask]
            if jump_idx.size == 0:
                return
            ids = vals[jump_idx].copy()
            col = walk.writable(NEXT_TAB_ID)
            if col[1] is None:
                col[1] = np.ones(walk.n, dtype=bool)
            col[1][jump_idx] = False  # metadata.pop(NEXT_TAB_ID)
            for node_id, group in _split(ids, jump_idx):
                target = id_nodes.get(node_id)
                if target is None:
                    walk.flag(group, _F_UNSUPPORTED)
                elif topo_pos.get(target, -1) <= my_pos:
                    walk.flag(group, _F_MIGRATED)
                else:
                    walk.route(target, group)

        return kernel

    def _compile_migration(self, node):
        pool, core, migration_ns = self._node_consts(node)
        action_ns = core.action_ns
        resume = node.annotations.get("resume")
        resume_id = (
            self._em.node_ids[resume] if resume is not None else None
        )
        default_next = node.next_map[node.default_action]
        self.node_model_ns[node.name] = action_ns

        def kernel(walk: _Walk, idx: np.ndarray) -> None:
            self._prologue(walk, idx, pool, migration_ns, action_ns)
            if resume_id is not None:
                col = walk.writable(NEXT_TAB_ID)
                col[0][idx] = resume_id
                if col[1] is not None:
                    col[1][idx] = True
            walk.route(default_next, idx)

        return kernel

    def _compile_flow_cache(self, node):
        info = node.cache_info
        pool, core, migration_ns = self._node_consts(node)
        lookup_ns = core.lookup_ns
        self.node_model_ns[node.name] = lookup_ns
        prologue = self._prologue

        def charge(walk: _Walk, idx: np.ndarray):
            return prologue(walk, idx, pool, migration_ns, lookup_ns)

        return self._compile_cache_step(
            node.name,
            self._em.flow_caches[node.name],
            node.match_fields,
            charge,
            pool,
            core,
            (cache_counter(node.name, True), cache_counter(node.name, False)),
            info.hit_next,
            info.miss_next,
            self._feeds(info.covers or (node.name,)),
        )

    def _compile_native(self):
        """Whole-program native-cache pre-step (Agilio CX model): a hit
        terminates, a miss records everything the program then does."""
        em = self._em
        if em.native_cache is None or em.program.root is None:
            return None
        entry_pipeline = em._pipeline_map[em.program.root]
        pool = 0 if entry_pipeline is _ASIC else 1
        core = em.target.core(entry_pipeline)
        lookup_ns = core.lookup_ns

        def charge(walk: _Walk, idx: np.ndarray):
            busy = walk.busy[pool]
            busy[idx] += lookup_ns
            walk.used[pool][idx] = True
            return busy

        return self._compile_cache_step(
            _NATIVE,
            em.native_cache,
            FIVE_TUPLE,
            charge,
            pool,
            core,
            None,
            None,
            em.program.root,
            frozenset(),
        )

    def _compile_cache_step(
        self,
        name,
        cache,
        match_fields,
        charge,
        pool,
        core,
        counter_keys,
        hit_next,
        miss_next,
        feeds,
    ):
        """The one cache kernel, for flow caches and the native cache.

        Resolves the batch's unique keys against the real store
        (read-only), simulates what the packets an eviction can reach
        (:func:`_reach`) do to the cache, runs the hits once per
        distinct effect, sends the misses down ``miss_next`` as leaders
        of an open recording and parks the followers until
        :func:`resolve` is called at ``hit_next`` (or at the end of the
        walk).
        """
        action_ns = core.action_ns
        counter_ns = core.counter_update_ns
        insert_ns = core.table_insert_ns
        hit_key, miss_key = counter_keys or (None, None)
        compile_effect = self._compile_effect
        run_effect = self._run_effect
        em = self._em
        clock = em.clock

        def run_hits(walk, busy, effect, group):
            if effect.unsupported:
                walk.flag(group, _F_UNSUPPORTED)
                return
            if hit_key is not None:
                walk.count(busy, group, hit_key, counter_ns)
            run_effect(
                walk, busy, group, effect, action_ns, feeds, hit_next
            )

        def resolve(walk: _Walk, recording: _Recording) -> None:
            """Replay each finished leader's effect on its followers."""
            followers, leaders = recording.followers
            recording.followers = None
            unfinished = recording.open[leaders]
            if unfinished.any():
                # The leader was flagged, or bypassed ``hit_next``.
                walk.flag(followers[unfinished], _F_UNSUPPORTED)
                followers = followers[~unfinished]
                leaders = leaders[~unfinished]
            busy = walk.busy[pool]
            effects = walk.chain_effects
            for chain_id, group in _split(
                recording.chain[leaders], followers
            ):
                run_hits(
                    walk, busy, compile_effect(effects[chain_id]), group
                )

        def kernel(walk: _Walk, idx: np.ndarray) -> None:
            # Cache semantics are packet-ordered; idx arrives as a few
            # sorted runs, which the stable sort merges in linear time.
            idx = np.sort(idx, kind="stable")
            busy = charge(walk, idx)
            rows, kid = _unique_matrix(walk.key_matrix(idx, match_fields))
            keys = row_keys(rows)
            self._bump_partitions(name, len(keys))
            slots = cache.slots_of(keys)
            reached, prefix = _reach(
                cache, slots, np.bincount(kid, minlength=len(keys))
            )
            step = _CacheStep(cache, idx, keys, kid, slots, reached)
            walk.cache_steps.append(step)
            replayed = step.replayed
            _bump(em.columnar_cache_arrivals, name, idx.size)
            _bump(em.columnar_cache_replayed, name, replayed.size)
            codes = np.full(idx.size, _HIT, dtype=np.int64)
            if replayed.size:
                now = walk.now
                step.codes = _simulate(
                    cache,
                    prefix,
                    replayed.tolist(),
                    kid[replayed].tolist(),
                    repeat(clock.now_s)
                    if now is None
                    else map(now.__getitem__, idx[replayed].tolist()),
                )
                codes[replayed] = step.codes
            hit_mask = codes == _HIT  # so the key is in its slot
            effects = cache.effects
            for effect_id, group in _split(
                cache.effect_ids[slots[kid[hit_mask]]], idx[hit_mask]
            ):
                run_hits(
                    walk, busy, compile_effect(effects[effect_id]), group
                )
            if not replayed.size:
                return
            leaders = idx[codes <= _MISS_INSERTED]
            recording = step.recording = _Recording(
                name, hit_next, pool, insert_ns, walk.n, resolve
            )
            recording.open[leaders] = True
            recording.insert[idx[codes == _MISS_INSERTED]] = True
            follower_mask = codes >= 0
            recording.followers = (
                idx[follower_mask],
                idx[codes[follower_mask]],
            )
            walk.recordings.append(recording)
            if miss_key is not None:
                walk.count(busy, leaders, miss_key, counter_ns)
            walk.route(miss_next, leaders)

        return kernel

    def _compile_match(self, node, merged: bool):
        """Plain and merged tables: plan ids per packet, then one
        charge/count/apply/route per distinct plan *shape*.

        A plan is ``(effect, counter key, next node)``; entries binding
        the same action to the same data share one. A merged-table miss
        (merge-as-cache, §3.2.3) and a plain table's default action are
        plans like any other. Plans whose effects share a template, a
        counter and a route share a shape, and a shape runs once per
        call with each primitive's parameters gathered by plan id.

        A batch cut from a flow set finds its packets' plans in the
        node's :class:`_PlanMemo` for that set: one gather for a flow
        whose row's plan is current; only rows without a current plan
        go through ``lookup_many``. Without a proof that no action
        writes the match fields, each memoised row is checked against
        the packet's key; a mismatch is a guard failure, resolved the
        way a batch without a flow set is.
        """
        name = node.name
        pool, core, migration_ns = self._node_consts(node)
        em = self._em
        runtime = em.runtime_tables[name]
        match_ns = core.match_cost_ns(
            node.worst_match_type,
            runtime.memory_accesses,
            node.memory_tier,
        )
        action_ns = core.action_ns
        counter_ns = core.counter_update_ns
        match_fields = node.match_fields
        engine = runtime.engine
        actions = node.actions
        compile_effect = self._compile_effect
        apply = self._apply
        self.node_model_ns[name] = match_ns
        info = node.cache_info if merged else None
        feeds = self._feeds((info.covers if info else ()) or (name,))
        plans = _PlanTable()
        #: Plan id per slot of the engine's slot table (-1: not bound
        #: yet), valid for as long as the engine hands out that table.
        slot_table = None
        slot_plans = None
        memos = em._plan_memos.setdefault(name, OrderedDict())
        guarded = self._written is None or bool(
            self._written.intersection(match_fields)
        )
        #: Row plans stamped with another epoch are stale: a recompile
        #: (and an entry edit under this kernel) invalidates them all.
        epoch = next(_EPOCHS)
        version = runtime.version
        hits = em.columnar_memo_hits
        misses = em.columnar_memo_misses
        failures = em.columnar_memo_guard_failures

        def intern(action, action_data) -> int:
            effect = _UNBINDABLE
            if action is not None:
                try:
                    effect = compile_effect(
                        tuple(bind_action(action, action_data))
                    )
                except EmulationError:
                    action = None
            if merged:
                return plans.intern(
                    effect,
                    cache_counter(name, True),
                    info.hit_next if info else None,
                )
            if action is None:
                return plans.intern(effect, None, None)
            return plans.intern(
                effect,
                action_counter(name, action.name),
                node.next_map.get(action.name),
            )

        if merged:
            no_entry = plans.intern(
                compile_effect(()),
                cache_counter(name, False),
                info.miss_next if info else None,
            )
        else:
            no_entry = intern(actions[node.default_action], ())

        def plans_of(rows: np.ndarray) -> np.ndarray:
            """Plan id of each distinct key row: ``lookup_many``."""
            nonlocal slot_table, slot_plans
            scalar_rows = engine.scalar_rows
            table, slots = engine.lookup_many(rows)
            _bump(
                em.columnar_scalar_lookups,
                name,
                engine.scalar_rows - scalar_rows,
            )
            if table is not slot_table:
                slot_table = table
                slot_plans = np.full(len(table), -1, dtype=np.int64)
            key_plans = slot_plans[slots]
            unseen = key_plans < 0
            if unseen.any():
                for slot in np.unique(slots[unseen]).tolist():
                    entry = table[slot]
                    slot_plans[slot] = (
                        no_entry
                        if entry is None
                        else intern(
                            actions.get(entry.action_name),
                            entry.action_data,
                        )
                    )
                key_plans = slot_plans[slots]
            return key_plans

        def memo_plans(memo: _PlanMemo, walk: _Walk, idx: np.ndarray):
            """``(plan id per packet, distinct key rows)`` by the memo."""
            nonlocal epoch, version
            if runtime.version != version:
                version = runtime.version
                epoch = next(_EPOCHS)
            row = memo.row_of[walk.flow_idx[idx]]
            failed = 0
            if guarded:
                keys = walk.key_matrix(idx, match_fields)
                moved = (memo.rows[row] != keys).any(axis=1)
                failed = int(np.count_nonzero(moved))
            present = memo.distinct(row[~moved] if failed else row)
            stale = present[memo.stamp[present] != epoch]
            missed = 0
            if stale.size:
                current = memo.stamp[row] == epoch
                if failed:
                    current |= moved
                missed = idx.size - int(np.count_nonzero(current))
                memo.plan[stale] = plans_of(memo.rows[stale])
                memo.stamp[stale] = epoch
            plan_of = memo.plan[row]
            partitions = present.size
            if failed:
                # Keys the flows' headers no longer give: resolved as
                # a batch without a flow set resolves them.
                _bump(failures, name, failed)
                rows, kid = _unique_matrix(keys[moved])
                plan_of[moved] = plans_of(rows)[kid]
                partitions = len(_unique_matrix(keys)[0])
            _bump(hits, name, idx.size - missed - failed)
            _bump(misses, name, missed)
            return plan_of, partitions

        def kernel(walk: _Walk, idx: np.ndarray) -> None:
            busy = self._prologue(walk, idx, pool, migration_ns, match_ns)
            flow_set = walk.flows
            if flow_set is None:
                rows, kid = _unique_matrix(walk.key_matrix(idx, match_fields))
                plan_of = plans_of(rows)[kid]
                partitions = len(rows)
                _bump(misses, name, idx.size)
            else:
                memo = memos.get(flow_set)
                if memo is None:
                    memo = memos[flow_set] = _PlanMemo(
                        flow_set, match_fields
                    )
                    while len(memos) > FLOW_SETS_KEPT:
                        memos.popitem(last=False)
                else:
                    memos.move_to_end(flow_set)
                plan_of, partitions = memo_plans(memo, walk, idx)
            self._bump_partitions(name, partitions)
            shape_of = plans.shape_of[plan_of]
            if (shape_of == shape_of[0]).all():
                groups = ((int(shape_of[0]), idx, plan_of),)
            else:
                groups = (
                    (shape_id, idx[at], plan_of[at])
                    for shape_id, at in _split(shape_of, np.arange(idx.size))
                )
            for shape_id, group, ids in groups:
                shape = plans.shapes[shape_id]
                if shape.unsupported:
                    walk.flag(group, _F_UNSUPPORTED)
                    continue
                walk.count(busy, group, shape.counter_key, counter_ns)
                if shape.template:
                    params = plans.params
                    apply(
                        walk,
                        busy,
                        group,
                        shape.template,
                        [
                            None if j is None else params[j][ids]
                            for j in shape.param_rows
                        ],
                        action_ns,
                    )
                    if walk.recordings:
                        walk.record(feeds, group, plans.bounds, ids)
                walk.route(shape.next_name, group)

        return kernel

    def _bump_partitions(self, name: str, count: int) -> None:
        """Record flow-key partitions one kernel invocation resolved.

        Totals live on the emulator (like demotions) so recompiles
        don't reset them and shard workers ship them home for merging.
        """
        _bump(self.node_partitions, name, count)
        self._em.columnar_partitions += count

    # -- walk / commit / demote --------------------------------------------

    def _walk(self, batch: ColumnBatch, seg: int, now) -> _Walk:
        """One pure pass over ``batch[seg:]``; mutates no shared state."""
        n = batch.n
        bank = self._counter_bank
        sampled = None
        if self._instrument:
            stride = bank.sample_stride
            sampled = True
            if stride != 1:
                sampled = np.zeros(n, dtype=bool)
                sampled[seg:] = (
                    (bank._packet_index + np.arange(n - seg)) % stride
                ) == 0
        walk = _Walk(batch, sampled, now)
        idx0 = np.arange(seg, n, dtype=np.int64)
        node_time = self.node_time_s
        node_packets = self.node_packets
        native = self._native_kernel
        if native is not None:
            started = perf_counter()
            native(walk, idx0)
            node_time[_NATIVE] = node_time.get(_NATIVE, 0.0) + (
                perf_counter() - started
            )
            node_packets[_NATIVE] = node_packets.get(_NATIVE, 0) + int(
                idx0.size
            )
        else:
            walk.pending[self._root] = [idx0]
        kernels = self._kernels
        pending = walk.pending
        recordings = walk.recordings
        for name in self._topo:
            # Followers re-join at ``hit_next``. Latest-opened first: a
            # follower resolved here may be the leader an earlier
            # recording's followers are still waiting for.
            for recording in reversed(recordings):
                if recording.hit_next == name and recording.followers:
                    recording.resolve(walk, recording)
            parts = pending.pop(name, None)
            if not parts:
                continue
            idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
            started = perf_counter()
            kernels[name](walk, idx)
            node_time[name] = node_time.get(name, 0.0) + (
                perf_counter() - started
            )
            node_packets[name] = node_packets.get(name, 0) + int(idx.size)
        for recording in reversed(recordings):
            if recording.followers:
                recording.resolve(walk, recording)
        return walk

    def _commit(self, walk, batch, seg, cut, stats, outcome) -> None:
        """Retire the clean prefix ``[seg, cut)`` into shared state.

        Every pending event is filtered to indices below ``cut``;
        integer counter sums, the stats' value counts and the cache
        op logs reproduce exactly what sequential per-packet processing
        of the prefix would have done.
        """
        em = self._em
        sizes = batch.sizes
        whole = cut == batch.n
        if self._instrument:
            bank = self._counter_bank
            for key, idx in walk.counter_events:
                sub = idx if whole else idx[idx < cut]
                if sub.size:
                    bank.bump_block(
                        key, int(sub.size), int(sizes[sub].sum())
                    )
            bank.advance(cut - seg)
        explicit = em.explicit_counters
        for name, idx in walk.explicit_events:
            count = int((idx < cut).sum())
            if count:
                explicit[name] = explicit.get(name, 0) + count
        for step in walk.cache_steps:
            ops = (
                step.idx.size
                if whole
                else int(np.searchsorted(step.idx, cut))
            )
            if ops:
                self._commit_cache(walk, step, ops)
        span = slice(seg, cut)
        used0 = walk.used[0][span]
        used1 = walk.used[1][span]
        busy0 = walk.busy[0][span]
        busy1 = walk.busy[1][span]
        latencies = np.where(used0, busy0, 0.0) + np.where(
            used1, busy1, 0.0
        )
        dropped = walk.dropped[span]
        stats.record_block(
            latencies,
            int(sizes[span].sum()),
            int(dropped.sum()),
            int(walk.migr[span].sum()),
            busy0[used0],
            busy1[used1],
        )
        outcome.latencies[span] = latencies
        outcome.dropped[span] = dropped
        outcome.egress[span] = np.where(
            walk.has_eg[span], walk.egress[span], -1
        )

    def _commit_cache(self, walk, step: _CacheStep, ops: int) -> None:
        """Replay the first ``ops`` lookups of ``step`` on the real cache.

        The reached packets among them go through the real ``lookup``/
        ``insert`` in packet order and must agree with the simulation.
        One :meth:`FlowCache.promote` then books the other packets'
        hits and restamps every key in last-occurrence order, which is
        the LRU order and the stats of the individual lookups.
        """
        cache = step.cache
        keys = step.keys
        replayed = step.replayed[: np.searchsorted(step.replayed, ops)]
        if replayed.size:
            now = walk.now
            static_now = self._em.clock.now_s
            effects = walk.chain_effects
            at = step.idx[replayed]
            lookup = cache.lookup
            for i, k, chain, code in zip(
                at.tolist(),
                step.kid[replayed].tolist(),
                step.recording.chain[at].tolist(),
                step.codes,
            ):
                key = keys[k]
                missed = lookup(key) is None
                if missed != (code <= _MISS_INSERTED) or (
                    missed
                    and cache.insert(
                        key,
                        effects[chain],
                        static_now if now is None else now[i],
                    )
                    != (code == _MISS_INSERTED)
                ):
                    raise EmulationError(
                        f"cache step diverged from its simulation at "
                        f"packet {i} (key {key_values(key)}, predicted "
                        f"code {code})"
                    )
        kid = step.kid[:ops]
        last = np.full(len(keys), -1, dtype=np.int64)
        last[kid] = np.arange(ops)  # repeated index: last one wins
        touched = kid[np.sort(last[last >= 0])]
        reached = step.reached[touched]
        unreached = touched[~reached]
        slots = step.slots[touched]
        lost = cache.born[slots[~reached]] != step.born[unreached]
        if lost.any():
            key = keys[int(unreached[np.argmax(lost)])]
            raise EmulationError(
                f"flow cache lost key {key_values(key)} between walk "
                f"and commit"
            )
        if reached.any():
            # Where the replay left them; −1: rejected, or evicted since.
            slots[reached] = cache.slots_of(
                [keys[k] for k in touched[reached].tolist()]
            )
        cache.promote(
            slots[slots >= 0], int(np.count_nonzero(~step.reached[kid]))
        )

    def _demote_one(self, packet, i, stats, outcome, reason) -> None:
        """Interpret packet ``i``, in order (the caller has set the sim
        clock)."""
        em = self._em
        result = em.process(packet)
        stats.record(result, packet.size_bytes)
        outcome.latencies[i] = result.latency_ns
        outcome.egress[i] = (
            -1 if result.egress_port is None else result.egress_port
        )
        outcome.dropped[i] = result.dropped
        outcome.demoted += 1
        demotions = em.columnar_demotions
        demotions[reason] = demotions.get(reason, 0) + 1

    def _fallback(
        self, batch, packets, n, stats, dt_s, ts, outcome, reason
    ) -> None:
        """Whole-batch demotion (traced / cyclic / non-SoA input)."""
        clock = self._em.clock
        for i in range(n):
            if ts is not None:
                clock.now_s = float(ts[i])
            elif dt_s:
                clock.advance(dt_s)
            packet = (
                packets[i] if packets is not None else batch.make_packet(i)
            )
            self._demote_one(packet, i, stats, outcome, reason)

    # -- batch replay ------------------------------------------------------

    def replay_batch(
        self,
        packets,
        stats: RunStats,
        dt_s: float = 0.0,
        timestamps=None,
    ) -> BatchOutcome:
        """Replay one batch; bit-identical to the interpreter.

        ``packets`` is a :class:`ColumnBatch` (shm SoA path) or an
        iterable of :class:`Packet`. Always returns a
        :class:`BatchOutcome` with per-packet latency/egress/dropped in
        original order, even when part or all of the batch was demoted.
        """
        em = self._em
        clock = em.clock
        if isinstance(packets, ColumnBatch):
            batch = packets
            packet_list = batch.packets
        else:
            packet_list = (
                packets if isinstance(packets, list) else list(packets)
            )
            if not packet_list:
                return BatchOutcome(0)
            batch = ColumnBatch.from_packets(packet_list)
        n = batch.n if batch is not None else len(packet_list)
        outcome = BatchOutcome(n)
        ts = timestamps if timestamps is not None else (
            batch.timestamps if batch is not None else None
        )
        if ts is not None and not isinstance(ts, np.ndarray):
            ts = np.asarray(ts, dtype=np.float64)
        if self._tracer is not None:
            self._fallback(
                batch, packet_list, n, stats, dt_s, ts, outcome, "traced"
            )
            return outcome
        if self.unsupported is not None:
            self._fallback(
                batch,
                packet_list,
                n,
                stats,
                dt_s,
                ts,
                outcome,
                self.unsupported,
            )
            return outcome
        if batch is None:
            self._fallback(
                None, packet_list, n, stats, dt_s, ts, outcome, "input"
            )
            return outcome
        if self._root is None:
            # No program root: the interpreter still steps the clock
            # and the counter stride per packet.
            if self._instrument:
                self._counter_bank.advance(n)
            stats.record_block(np.zeros(n), int(batch.sizes.sum()), 0, 0)
            em.columnar_packets += n
            if ts is not None and n:
                clock.now_s = float(ts[-1])
            elif dt_s:
                for _ in range(n):
                    clock.advance(dt_s)
            return outcome
        # Every packet's sim-clock value (None = the clock stands still).
        now = None
        if ts is not None:
            now = ts.tolist()
        elif dt_s:
            # Exact per-packet clock values under repeated advance()
            # (itertools.accumulate is bit-identical to the sequential
            # adds; np.cumsum is not guaranteed to be).
            now = list(accumulate(repeat(dt_s, n), initial=clock.now_s))[1:]

        def demote(i: int, reason: str) -> None:
            if now is not None:
                clock.now_s = now[i]
            self._demote_one(
                batch.make_packet(i), i, stats, outcome, reason
            )

        seg = 0
        demotions = 0
        while seg < n:
            if demotions >= MAX_WALKS_PER_BATCH:
                for i in range(seg, n):
                    demote(i, "cascade")
                break
            walk = self._walk(batch, seg, now)
            flagged = np.flatnonzero(walk.flags[seg:])
            cut = seg + int(flagged[0]) if flagged.size else n
            if cut > seg:
                self._commit(walk, batch, seg, cut, stats, outcome)
                em.columnar_packets += cut - seg
            if cut == n:
                break
            demote(cut, _FLAG_REASONS[int(walk.flags[cut])])
            demotions += 1
            seg = cut + 1
        if now:
            clock.now_s = now[-1]
        return outcome
