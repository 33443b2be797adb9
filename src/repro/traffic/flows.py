"""Flow specifications: deterministic five-tuples and their packets."""

from __future__ import annotations

from dataclasses import dataclass

from repro.nic.packet import DEFAULT_PACKET_BYTES, Packet, ipv4, make_packet


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
