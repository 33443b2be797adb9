"""Traffic generation: the reproduction's TRex/trafgen stand-in.

Generates packet streams over a set of flows with a chosen locality
pattern. All experiments in the paper use 512-byte packets (§5.1); flow
locality controls cache hit rates (Zipf concentrates traffic on few flows,
uniform spreads it).

Flow-index generation is vectorized: the selection patterns return numpy
arrays drawn in one shot. A stream is a :class:`PacketStream` over those
indices: an iterator of ``Packet`` for the per-packet engines and the
tests, a source of :class:`~repro.nic.columnar.ColumnBatch` for the
columnar tier, and a source of the flow indices themselves for the
shard dispatcher, which ships a flow set once and then only indices.
Neither of the last two sees a ``Packet``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.nic.columnar import FLOW_SETS_KEPT, ColumnSource, FlowColumns
from repro.nic.packet import DEFAULT_PACKET_BYTES, Packet
from repro.traffic.flows import FlowSpec, synth_flows

_NO_INDICES = np.zeros(0, dtype=np.int64)

#: The flow sets any generator in this process built last, most
#: recently used first, at most :data:`FLOW_SETS_KEPT` of them; the
#: lock makes each lookup-and-reorder one step for every thread (and
#: guards :data:`_KEPT_GUIDES` too).
_KEPT_FLOW_SETS: list[FlowColumns] = []
_KEPT_LOCK = threading.Lock()


class PacketStream(ColumnSource):
    """One lazy, one-shot draw of packets, readable two ways.

    Iterating yields ``Packet`` objects; :meth:`flow_batches` hands out
    ``(FlowColumns, chosen indices, size_bytes)`` and :meth:`batches`
    the :class:`~repro.nic.columnar.ColumnBatch` es those make. All
    advance the same cursor, so a consumer may switch views
    mid-stream. Nothing is drawn — no RNG call, no argument check —
    until the first packet or batch is asked for.
    """

    def __init__(
        self,
        generator: "TrafficGenerator",
        draw: Callable[[], tuple[Sequence[FlowSpec], np.ndarray]],
        size_bytes: int,
    ):
        self._generator = generator
        self._draw = draw
        self._size_bytes = size_bytes
        self._flows: Sequence[FlowSpec] = ()
        self._indices: Optional[np.ndarray] = None
        self._cursor = 0
        # Made on first use: a generator over ``self`` is a reference
        # cycle, and a stream read as columns should free its index
        # array when dropped, not at the next cyclic collection.
        self._packets: Optional[Iterator[Packet]] = None

    def _drawn(self) -> np.ndarray:
        if self._indices is None:
            self._flows, self._indices = self._draw()
        return self._indices

    def __iter__(self) -> Iterator[Packet]:
        if self._packets is None:
            self._packets = self._packet_view()
        return self._packets

    def __next__(self) -> Packet:
        return next(iter(self))

    def _packet_view(self) -> Iterator[Packet]:
        order = self._drawn().tolist()
        flows = self._flows
        size_bytes = self._size_bytes
        # The cursor is published before every yield and re-read
        # after it: a batch taken between two packets moves it.
        cursor = self._cursor
        while cursor < len(order):
            self._cursor = cursor + 1
            yield flows[order[cursor]].packet(size_bytes)
            cursor = self._cursor

    def flow_batches(
        self, size: int
    ) -> Iterator[tuple[FlowColumns, np.ndarray, int]]:
        indices = self._drawn()
        if self._cursor >= len(indices):
            return  # nothing left: no reason to build a flow matrix
        columns = self._generator.flow_columns(self._flows)
        while self._cursor < len(indices):
            chosen = indices[self._cursor : self._cursor + size]
            self._cursor += len(chosen)
            yield columns, chosen, self._size_bytes


#: Zipf guide-table buckets per flow, before rounding up to a power of
#: two, and the most buckets a table gets.
_GUIDE_PER_FLOW = 16
_GUIDE_MAX = 1 << 17

#: The Zipf guides this process built last, by ``(n_flows, skew)``:
#: a guide is a pure function of its key, so generators share them (a
#: run and its verification twins draw from one table).
_KEPT_GUIDES: dict[tuple, "ZipfGuide"] = {}


class ZipfGuide:
    """``cdf.searchsorted(u, side="right")`` through a guide table.

    The bucket count is a power of two, so ``u * buckets`` is exact and
    bucket ``b`` holds exactly the ``u`` in ``[b, b + 1) / buckets``.
    Where no CDF point lies inside a bucket, every ``u`` in it has one
    answer, kept in ``guide``; only the ``u`` of a bucket that straddles
    a CDF point (``-1`` in ``guide``) are searched.
    """

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        target = min(_GUIDE_MAX, _GUIDE_PER_FLOW * len(cdf))
        self.buckets = 1 << (target - 1).bit_length()
        edges = np.arange(self.buckets + 1, dtype=np.float64)
        edges /= self.buckets
        low = cdf.searchsorted(edges[:-1], side="right")
        high = cdf.searchsorted(edges[1:], side="left")
        del edges
        low[low != high] = -1
        self.guide = low.astype(np.int32)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        found = self.guide[(u * self.buckets).astype(np.int64)].astype(
            np.int64
        )
        straddling = np.flatnonzero(found < 0)
        if straddling.size:
            # Sorted probes: each search starts where the last ended.
            probes = u[straddling]
            order = np.argsort(probes)
            found[straddling[order]] = self.cdf.searchsorted(
                probes[order], side="right"
            )
        return found


def zipf_guide(n_flows: int, skew: float) -> ZipfGuide:
    """The guide of the normalised Zipf CDF over ``n_flows`` ranks,
    built once per process (:data:`_KEPT_GUIDES`)."""
    with _KEPT_LOCK:
        guide = _KEPT_GUIDES.get((n_flows, skew))
        if guide is None:
            ranks = np.arange(1, n_flows + 1, dtype=float)
            weights = ranks ** (-skew)
            weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            guide = _KEPT_GUIDES[n_flows, skew] = ZipfGuide(cdf)
            while len(_KEPT_GUIDES) > FLOW_SETS_KEPT:
                del _KEPT_GUIDES[next(iter(_KEPT_GUIDES))]
        return guide


class TrafficGenerator:
    """Deterministic (seeded) packet stream generator."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._np_rng = np.random.default_rng(seed)

    # -- flow selection patterns -------------------------------------------------

    def uniform_indices(
        self, n_flows: int, n_packets: int
    ) -> np.ndarray:
        return self._np_rng.integers(
            0, n_flows, size=n_packets, dtype=np.int64
        )

    def zipf_indices(
        self, n_flows: int, n_packets: int, skew: float = 1.2
    ) -> np.ndarray:
        """Zipf-distributed flow choices (high traffic locality).

        ``Generator.choice(n_flows, size=n_packets, p=weights)``'s own
        arithmetic — one uniform draw per packet, looked up in the
        normalised CDF — with the CDF kept between calls instead of
        validated and summed again on each, and looked up through a
        :class:`ZipfGuide` (the same answers, mostly without a search).
        """
        return zipf_guide(n_flows, skew)(self._np_rng.random(n_packets))

    def round_robin_indices(
        self, n_flows: int, n_packets: int
    ) -> np.ndarray:
        return np.arange(n_packets, dtype=np.int64) % n_flows

    # -- flow columns ------------------------------------------------------------

    def flow_columns(self, flows: Sequence[FlowSpec]) -> FlowColumns:
        """The field matrices of ``flows``, built once per flow set.

        The last :data:`~repro.nic.columnar.FLOW_SETS_KEPT` sets are
        kept per process, not per generator (a stream draws from one
        set, a mixed stream from one concatenation, scenario phases
        alternate between a few, and a scenario rebuilt for the next
        serve replay makes its flow lists anew); handing out the kept
        object again is what lets a shard fleet reuse the copy its
        workers hold.

        A kept set is reused only while it still equals ``flows``
        element for element (an identity check per flow when the
        caller passes the same objects again), so a list mutated or
        replaced between two streams never serves stale columns, and
        an equal set is equal columns: a hit only saves the build.
        """
        current = flows if isinstance(flows, list) else list(flows)
        kept = _KEPT_FLOW_SETS
        with _KEPT_LOCK:
            for position, columns in enumerate(kept):
                if columns.flows == current:
                    kept.insert(0, kept.pop(position))
                    return columns
            columns = FlowColumns(current)
            kept.insert(0, columns)
            del kept[FLOW_SETS_KEPT:]
            return columns

    # -- streams -------------------------------------------------------------------

    def stream(
        self,
        flows: Sequence[FlowSpec],
        n_packets: int,
        locality: str = "uniform",
        zipf_skew: float = 1.2,
        size_bytes: int = DEFAULT_PACKET_BYTES,
    ) -> PacketStream:
        """Packets drawn from ``flows`` with the given locality."""

        def draw():
            if not flows:
                return flows, _NO_INDICES
            if locality == "uniform":
                indices = self.uniform_indices(len(flows), n_packets)
            elif locality == "zipf":
                indices = self.zipf_indices(
                    len(flows), n_packets, zipf_skew
                )
            elif locality == "round_robin":
                indices = self.round_robin_indices(len(flows), n_packets)
            else:
                raise ValueError(f"Unknown locality {locality!r}")
            return flows, indices

        return PacketStream(self, draw, size_bytes)

    def mixed_stream(
        self,
        flow_groups: Sequence[tuple[Sequence[FlowSpec], float]],
        n_packets: int,
        size_bytes: int = DEFAULT_PACKET_BYTES,
    ) -> PacketStream:
        """Draw from weighted flow groups (e.g. 25% droppable traffic).

        ``flow_groups`` is a list of ``(flows, weight)``; weights are
        normalised. Used to hit configured ACL drop rates. Group choice
        is a single ``searchsorted`` over the precomputed CDF instead of
        a per-packet linear scan.
        """

        def draw():
            groups = [g for g in flow_groups if g[0]]
            if not groups:
                return (), _NO_INDICES
            weights = np.array([w for _, w in groups], dtype=float)
            cdf = np.cumsum(weights / weights.sum())
            rolls = self._np_rng.random(n_packets)
            chosen = np.minimum(
                np.searchsorted(cdf, rolls, side="left"), len(groups) - 1
            )
            # Per-group flow picks drawn in bulk (order within a group
            # is irrelevant to the distribution), as indices into the
            # groups laid end to end.
            picks = np.zeros(n_packets, dtype=np.int64)
            everyone: list[FlowSpec] = []
            for group_index, (flows, _) in enumerate(groups):
                mask = chosen == group_index
                count = int(mask.sum())
                if count:
                    picks[mask] = len(everyone) + self._np_rng.integers(
                        0, len(flows), size=count, dtype=np.int64
                    )
                everyone.extend(flows)
            return everyone, picks

        return PacketStream(self, draw, size_bytes)


def drop_rate_stream(
    generator: TrafficGenerator,
    n_packets: int,
    drop_rate: float,
    dropped_flows: Optional[Sequence[FlowSpec]] = None,
    passing_flows: Optional[Sequence[FlowSpec]] = None,
) -> PacketStream:
    """A stream where ``drop_rate`` of packets come from droppable flows."""
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError("drop_rate must be in [0, 1]")
    dropped_flows = dropped_flows or synth_flows(64, dport=6666)
    passing_flows = passing_flows or synth_flows(64, dport=80)
    return generator.mixed_stream(
        [(dropped_flows, drop_rate), (passing_flows, 1.0 - drop_rate)],
        n_packets,
    )
