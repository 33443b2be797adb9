"""Zero-copy shared-memory transport for the sharded replay engine.

Pickling every packet batch into a worker's command pipe and
unpickling it on the other side costs, at the packet rates the sharded
engine targets, more than replaying the batch. This module removes
that serialization tax: per-shard **single-producer/single-consumer ring
buffers** in ``multiprocessing.shared_memory``, carrying
struct-of-arrays packet batches that the parent writes in place and the
worker reads in place. No per-packet Python objects and no pickle bytes
cross the process boundary on the hot path. The ring carries payload
only: a shard's command pipe is its one ordered message stream, and
the dispatcher follows every published record with a ``("ring",)``
token on that pipe, on which the worker pops the ring head (see
:mod:`repro.nic.sharding`).

Ring layout (one shared-memory segment per ring)::

    [ control block: 128 B ]  word 0: produced count, word 8: consumed,
                              word 9: batches finished (consumer side)
    [ slot 0: slot_bytes    ]  record headers are 64 B (8 int64 words)
    [ slot 1: slot_bytes    ]
    ...

Records live at ``slot = index % slots``; the ring holds at most
``slots`` uncommitted-to-consumed records, so producer and consumer
never touch the same slot concurrently. A record is *published* by the
producer's single aligned ``produced`` store after its payload and
header are fully written; the consumer additionally validates two
stamps — the record's own index (word 0) and a commit word
(``index ^ COMMIT_MAGIC``, written last) — so a torn or stale slot is
detected (:class:`TornRecordError`) instead of silently decoded.

Batch records are struct-of-arrays: one contiguous ``int64`` row per
packet *field* (a ``(n_fields, n_packets)`` field-major matrix — each
field a contiguous numpy slice, exactly the substrate the columnar
execution tier consumes: :class:`repro.nic.columnar.ColumnBatch.
from_matrix` wraps these views in place, and workers running the
columnar engine replay them with no row -> ``Packet`` materialisation
at all), plus ``int32`` sizes and optional ``float64`` timestamps.
Field names travel as one small utf-8 blob per batch (not per packet)
and are memoized by the consumer. Nothing flows back
through shared memory except two progress words in the control block
(the consumer cursor and a *batches finished* count, see
:attr:`ShmRing.finished`); results come home as merged stats in the
``end`` reply.

Cleanup: every segment created here is registered in a process-local
table and unlinked both on :meth:`ShmRing.close` and from an ``atexit``
hook, so an interrupted run (Ctrl-C mid-replay, a CI job killed between
steps) does not leak ``/dev/shm`` segments. Forked workers inherit the
mapping but never unlink — the hook is a no-op outside the creating
process.
"""

from __future__ import annotations

import atexit
import os
from multiprocessing import shared_memory
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import EmulationError

__all__ = [
    "BATCH_RECORD",
    "ShardChannel",
    "ShmRing",
    "TornRecordError",
    "batch_record_bytes",
    "data_slot_bytes",
]

#: Record kind (header word 1).
BATCH_RECORD = 1

#: XOR'd into a record's index to form its commit stamp (header word 7).
#: Any value with high bits set works; it only needs to make a stale or
#: half-written header fail the ``commit == index ^ MAGIC`` check.
COMMIT_MAGIC = 0x5A5AC3C3A5A53C3C

#: Ring control block size (producer and consumer words a cache line
#: apart) and per-record header size.
CTRL_BYTES = 128
RECORD_HEADER_BYTES = 64

#: Default ring depth: batches in flight per shard before the producer
#: stalls. Deep enough to keep a worker fed across scheduling jitter,
#: shallow enough that backpressure reaches the dispatcher quickly.
DEFAULT_RING_SLOTS = 8

#: Sizing assumptions for :func:`data_slot_bytes`. A batch whose
#: geometry exceeds the slot falls back to the pipe (counted, loud) —
#: the ring never rejects traffic, it just stops being the fast path.
DEFAULT_MAX_FIELDS = 32
NAMES_BUDGET_BYTES = 512


class TornRecordError(EmulationError):
    """A ring record failed its integrity stamps (torn or stale write)."""


def _align8(n: int) -> int:
    return (n + 7) & ~7


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def batch_record_bytes(
    n_packets: int,
    n_fields: int,
    names_len: int,
    timestamps: bool,
) -> int:
    """Payload bytes one SoA batch record needs (excluding the header)."""
    total = _align8(names_len)
    total += 8 * n_fields * n_packets  # field-major int64 value matrix
    total += _align8(4 * n_packets)  # int32 sizes
    if timestamps:
        total += 8 * n_packets  # float64 absolute clock times
    return total


def data_slot_bytes(
    batch: int,
    max_fields: int = DEFAULT_MAX_FIELDS,
    names_budget: int = NAMES_BUDGET_BYTES,
) -> int:
    """Slot size fitting a ``batch``-packet SoA record with headroom."""
    payload = batch_record_bytes(batch, max_fields, names_budget, True)
    return RECORD_HEADER_BYTES + _align8(payload)


# ---------------------------------------------------------------------------
# Segment cleanup registry
# ---------------------------------------------------------------------------

#: Segments created by this process, unlinked on close or at exit.
_CREATED: dict[str, shared_memory.SharedMemory] = {}
_CREATOR_PID = os.getpid()
_ATEXIT_ARMED = False


def _cleanup_segments() -> None:
    """Unlink every segment this process created and never closed.

    Forked children inherit this hook (and the ``_CREATED`` table) but
    must not unlink segments the parent still uses, hence the pid guard.
    """
    if os.getpid() != _CREATOR_PID:
        return
    for segment in list(_CREATED.values()):
        try:
            segment.close()
        except Exception:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
    _CREATED.clear()


def _register_segment(segment: shared_memory.SharedMemory) -> None:
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        atexit.register(_cleanup_segments)
        _ATEXIT_ARMED = True
    _CREATED[segment.name] = segment


# ---------------------------------------------------------------------------
# The ring
# ---------------------------------------------------------------------------


class RecordView:
    """A zero-copy view of the ring's head record (valid until advance)."""

    __slots__ = ("index", "kind", "meta", "payload")

    def __init__(
        self,
        index: int,
        kind: int,
        meta: tuple[int, int, int, int, int],
        payload: memoryview,
    ):
        self.index = index
        self.kind = kind
        #: Five int64 header words (meaning depends on ``kind``).
        self.meta = meta
        self.payload = payload


class ShmRing:
    """Fixed-slot SPSC record ring over one shared-memory segment.

    Exactly one producer process and one consumer process; with the
    ``fork`` start method both sides use the very same mapping, so a
    push is a header write plus in-place payload stores — no copies, no
    syscalls, no pickling. ``try_push`` returns ``False`` when all
    ``slots`` are occupied (backpressure is the caller's policy);
    ``peek``/``advance`` consume without copying the payload.
    """

    def __init__(
        self,
        slots: int,
        slot_bytes: int,
        *,
        _segment: Optional[shared_memory.SharedMemory] = None,
    ):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if slot_bytes < RECORD_HEADER_BYTES + 8 or slot_bytes % 8:
            raise ValueError(
                "slot_bytes must be a multiple of 8 and leave payload "
                f"room past the {RECORD_HEADER_BYTES}-byte header"
            )
        self.slots = slots
        self.slot_bytes = slot_bytes
        size = CTRL_BYTES + slots * slot_bytes
        if _segment is None:
            _segment = shared_memory.SharedMemory(create=True, size=size)
            _register_segment(_segment)
            # Fresh segments are zero-filled by the kernel; produced ==
            # consumed == 0 and no slot can pass the commit check.
        self._segment = _segment
        self.name = _segment.name
        self._closed = False
        buf = _segment.buf
        self._ctrl = np.ndarray((16,), dtype=np.int64, buffer=buf)
        self._data = buf

    # -- cursors -----------------------------------------------------------

    @property
    def produced(self) -> int:
        return int(self._ctrl[0])

    @property
    def consumed(self) -> int:
        return int(self._ctrl[8])

    @property
    def finished(self) -> int:
        """Batches the consumer has finished, however they arrived.

        A worker chewing through pipe-borne batches (a journal replay,
        pipe fallbacks) never moves :attr:`consumed`; this word is its
        proof of life (the supervisor's progress token reads both).
        """
        return int(self._ctrl[9])

    def mark_finished(self) -> None:
        """Consumer side: one more batch fully replayed."""
        self._ctrl[9] = self.finished + 1

    def __len__(self) -> int:
        return max(0, self.produced - self.consumed)

    @property
    def free_slots(self) -> int:
        return self.slots - len(self)

    def occupancy(self) -> float:
        """Occupied fraction in [0, 1] (sampled; racy by one record)."""
        return min(1.0, len(self) / self.slots)

    @property
    def payload_capacity(self) -> int:
        return self.slot_bytes - RECORD_HEADER_BYTES

    def _slot(self, index: int) -> memoryview:
        start = CTRL_BYTES + (index % self.slots) * self.slot_bytes
        return self._data[start : start + self.slot_bytes]

    # -- producer ----------------------------------------------------------

    def try_push(
        self,
        kind: int,
        meta: Sequence[int],
        payload_bytes: int,
        writer: Callable[[memoryview], None],
    ) -> bool:
        """Publish one record; ``False`` when the ring is full.

        ``writer`` receives the slot's payload view and must fill the
        first ``payload_bytes`` of it. The record becomes visible to
        the consumer only after the commit stamp and the ``produced``
        store, both of which happen after ``writer`` returns — a
        consumer can never observe a half-written payload through the
        cursor protocol, and the stamps catch corruption that bypasses
        it.
        """
        if self._closed:
            raise EmulationError(f"ring {self.name} is closed")
        if payload_bytes > self.payload_capacity:
            raise ValueError(
                f"record payload {payload_bytes} B exceeds slot "
                f"capacity {self.payload_capacity} B"
            )
        meta5 = tuple(meta)
        if len(meta5) != 5:
            raise ValueError("meta must carry exactly 5 int64 words")
        index = self.produced
        if index - self.consumed >= self.slots:
            return False
        slot = self._slot(index)
        header = np.ndarray(
            (8,), dtype=np.int64, buffer=slot[:RECORD_HEADER_BYTES]
        )
        writer(slot[RECORD_HEADER_BYTES:])
        header[0] = index
        header[1] = kind
        header[2:7] = meta5
        header[7] = index ^ COMMIT_MAGIC
        # The publish: a single aligned 8-byte store.
        self._ctrl[0] = index + 1
        return True

    # -- consumer ----------------------------------------------------------

    def peek(self) -> Optional[RecordView]:
        """The head record without consuming it; ``None`` when empty."""
        if self._closed:
            raise EmulationError(f"ring {self.name} is closed")
        index = self.consumed
        if index >= self.produced:
            return None
        slot = self._slot(index)
        header = np.ndarray(
            (8,), dtype=np.int64, buffer=slot[:RECORD_HEADER_BYTES]
        )
        if int(header[0]) != index or int(header[7]) != (
            index ^ COMMIT_MAGIC
        ):
            raise TornRecordError(
                f"ring {self.name}: record {index} failed integrity "
                f"stamps (saw index {int(header[0])}, commit "
                f"{int(header[7]) ^ COMMIT_MAGIC}); torn write or "
                "stale slot"
            )
        return RecordView(
            index,
            int(header[1]),
            tuple(int(w) for w in header[2:7]),
            slot[RECORD_HEADER_BYTES:],
        )

    def advance(self) -> None:
        """Consume the head record (its views become reusable space)."""
        self._ctrl[8] = self.consumed + 1

    # -- lifecycle ---------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Release the mapping; ``unlink`` destroys the segment.

        Unlink is idempotent and only meaningful in the creating
        process (forked consumers just drop their mapping).
        """
        if self._closed:
            return
        self._closed = True
        # Drop numpy views before closing the mmap or SharedMemory
        # raises BufferError("cannot close exported pointers exist").
        self._ctrl = None
        self._data = None
        _CREATED.pop(self.name, None)
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
        if unlink:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass


# ---------------------------------------------------------------------------
# SoA batch codec
# ---------------------------------------------------------------------------

def _names_blob(names: tuple[str, ...]) -> bytes:
    return "\x00".join(names).encode("utf-8")


def write_batch_record(
    ring: ShmRing,
    names_blob: bytes,
    values: np.ndarray,
    sizes: np.ndarray,
    timestamps: Optional[Sequence[float]],
) -> bool:
    """Push one SoA batch; ``False`` when the ring is full.

    ``values`` is the field-major ``(n_fields, n_packets)`` int64
    matrix of :class:`repro.nic.columnar.ColumnBatch` — the slot layout
    itself, stored as is.

    Raises ``ValueError`` when the record cannot fit a slot at all —
    callers check :func:`batch_record_bytes` against
    ``ring.payload_capacity`` first and fall back to the pipe.
    """
    n_fields, n_packets = values.shape
    ts = (
        np.asarray(timestamps, dtype=np.float64)
        if timestamps is not None
        else None
    )
    payload_bytes = batch_record_bytes(
        n_packets, n_fields, len(names_blob), ts is not None
    )

    def writer(payload: memoryview) -> None:
        offset = 0
        payload[: len(names_blob)] = names_blob
        offset += _align8(len(names_blob))
        value_view = np.ndarray(
            (n_fields, n_packets),
            dtype=np.int64,
            buffer=payload[offset : offset + 8 * n_fields * n_packets],
        )
        # Each field lands as a contiguous int64 row the consumer's
        # columnar engine slices in place.
        value_view[:] = values
        offset += 8 * n_fields * n_packets
        size_view = np.ndarray(
            (n_packets,),
            dtype=np.int32,
            buffer=payload[offset : offset + 4 * n_packets],
        )
        size_view[:] = sizes
        offset += _align8(4 * n_packets)
        if ts is not None:
            ts_view = np.ndarray(
                (n_packets,),
                dtype=np.float64,
                buffer=payload[offset : offset + 8 * n_packets],
            )
            ts_view[:] = ts

    meta = (
        n_packets,
        n_fields,
        1 if ts is not None else 0,
        len(names_blob),
        0,  # unused
    )
    return ring.try_push(BATCH_RECORD, meta, payload_bytes, writer)


def read_batch_record(record: RecordView):
    """In-place views of a batch record's columns.

    Returns ``(names_blob, values, sizes, timestamps)`` where
    ``values`` is the field-major ``(n_fields, n_packets)`` int64
    matrix — every row a contiguous slice of the ring — and
    ``timestamps`` is ``None`` when the batch was unpaced. Views stay
    valid until ``ring.advance()``.
    """
    n_packets, n_fields, has_ts, names_len, _unused = record.meta
    payload = record.payload
    offset = 0
    names_blob = bytes(payload[:names_len])
    offset += _align8(names_len)
    values = np.ndarray(
        (n_fields, n_packets),
        dtype=np.int64,
        buffer=payload[offset : offset + 8 * n_fields * n_packets],
    )
    offset += 8 * n_fields * n_packets
    sizes = np.ndarray(
        (n_packets,),
        dtype=np.int32,
        buffer=payload[offset : offset + 4 * n_packets],
    )
    offset += _align8(4 * n_packets)
    timestamps = None
    if has_ts:
        timestamps = np.ndarray(
            (n_packets,),
            dtype=np.float64,
            buffer=payload[offset : offset + 8 * n_packets],
        )
    return names_blob, values, sizes, timestamps


# ---------------------------------------------------------------------------
# Per-shard channel
# ---------------------------------------------------------------------------


class ShardChannel:
    """One shard's data ring (parent -> worker).

    Created by the parent *before* the worker forks, so both processes
    map the same segment with no attach handshake.
    """

    def __init__(
        self,
        batch: int,
        slots: int = DEFAULT_RING_SLOTS,
        max_fields: int = DEFAULT_MAX_FIELDS,
    ):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch
        self.max_fields = max_fields
        self.data = ShmRing(slots, data_slot_bytes(batch, max_fields))
        self._names_cache: dict[tuple[str, ...], bytes] = {}

    # -- parent side -------------------------------------------------------

    def batch_fits(
        self, n_packets: int, n_fields: int, names_len: int
    ) -> bool:
        return (
            batch_record_bytes(n_packets, n_fields, names_len, True)
            <= self.data.payload_capacity
        )

    def names_blob(self, names: tuple[str, ...]) -> bytes:
        blob = self._names_cache.get(names)
        if blob is None:
            blob = self._names_cache[names] = _names_blob(names)
        return blob

    def try_push_batch(
        self,
        names: tuple[str, ...],
        values: np.ndarray,
        sizes: np.ndarray,
        timestamps: Optional[Sequence[float]],
    ) -> bool:
        return write_batch_record(
            self.data, self.names_blob(names), values, sizes, timestamps
        )

    def close(self, unlink: bool = True) -> None:
        self.data.close(unlink=unlink)


def decode_names(blob: bytes) -> tuple[str, ...]:
    """Field-name tuple from a batch record's name blob."""
    if not blob:
        return ()
    return tuple(blob.decode("utf-8").split("\x00"))
