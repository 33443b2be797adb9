"""Flow specifications: deterministic five-tuples and their packets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.nic.columnar import ColumnBatch
from repro.nic.packet import DEFAULT_PACKET_BYTES, Packet, ipv4, make_packet

#: Flows turned into packets at a time while a :class:`FlowColumns` is
#: built: bounds the transient ``Packet`` objects of a 20 000-flow set.
_BUILD_CHUNK = 1024


@dataclass(frozen=True)
class FlowSpec:
    """A five-tuple plus optional extra header fields."""

    src: int
    dst: int
    proto: int = 6
    sport: int = 1234
    dport: int = 80
    extra: tuple[tuple[str, int], ...] = ()

    def packet(self, size_bytes: int = DEFAULT_PACKET_BYTES) -> Packet:
        return make_packet(
            src=self.src,
            dst=self.dst,
            proto=self.proto,
            sport=self.sport,
            dport=self.dport,
            size_bytes=size_bytes,
            extra=dict(self.extra),
        )

    def flow_key(self) -> tuple[int, int, int, int, int]:
        """The five-tuple in canonical (``FIVE_TUPLE``) field order.

        Matches ``Packet.flow_key()`` for this flow's packets, so shard
        assignment can be computed from the spec without materialising
        a packet.
        """
        return (self.src, self.dst, self.proto, self.sport, self.dport)

    def with_fields(self, **fields: int) -> "FlowSpec":
        merged = dict(self.extra)
        merged.update(fields)
        return FlowSpec(
            self.src,
            self.dst,
            self.proto,
            self.sport,
            self.dport,
            tuple(sorted(merged.items())),
        )


def synth_flow(index: int, dport: int = 80) -> FlowSpec:
    """Deterministic distinct flow for a given index."""
    return FlowSpec(
        src=ipv4(10, (index >> 16) & 0xFF, (index >> 8) & 0xFF, index & 0xFF),
        dst=ipv4(192, 168, (index >> 8) & 0xFF, index & 0xFF),
        proto=6,
        sport=1024 + (index % 50000),
        dport=dport,
    )


def synth_flows(count: int, dport: int = 80) -> list[FlowSpec]:
    return [synth_flow(i, dport) for i in range(count)]


class FlowColumns:
    """The header fields of a flow set as int64 matrices.

    Derived from ``flow.packet().fields`` through
    :meth:`ColumnBatch.from_packets`, so :meth:`FlowSpec.packet` stays
    the one definition of a flow's fields and ``from_packets`` the one
    definition of what SoA can express. A batch of drawn flow indices
    is then one fancy-index into a matrix (:meth:`batch`) instead of
    one ``Packet`` made and un-made per index.

    Flows are grouped by header-field set: ``group[i]`` is flow ``i``'s
    group (``-1`` when its packet has no SoA form, e.g. a value outside
    int64) and ``column[i]`` its column in that group's field-major
    ``(n_fields, n_members)`` matrix.
    """

    def __init__(self, flows: Sequence[FlowSpec]):
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
        )
