"""Packets as processed by the SmartNIC emulator.

Headers are flattened to ``"header.field" -> int`` maps; metadata lives in
a parallel namespace addressed as ``"meta.<key>"`` (this mirrors how the
paper's migration mechanism piggybacks ``next_tab_id`` metadata on the
packet between ASIC and CPU cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Default payload size used by every experiment in the paper (§5.1).
DEFAULT_PACKET_BYTES = 512

#: Metadata key used by navigation/migration tables (§3.2.4).
NEXT_TAB_ID = "meta.next_tab_id"

#: Canonical five-tuple fields, used by whole-program flow caches.
FIVE_TUPLE = (
    "ipv4.src",
    "ipv4.dst",
    "ipv4.proto",
    "l4.sport",
    "l4.dport",
)


@dataclass
class Packet:
    """A mutable packet traversing the emulator."""

    fields: dict[str, int] = field(default_factory=dict)
    metadata: dict[str, int] = field(default_factory=dict)
    size_bytes: int = DEFAULT_PACKET_BYTES
    dropped: bool = False
    egress_port: Optional[int] = None

    def get(self, name: str) -> Optional[int]:
        """Read a header or metadata field; None if absent."""
        if name.startswith("meta."):
            return self.metadata.get(name)
        return self.fields.get(name)

    def set(self, name: str, value: int) -> None:
        if name.startswith("meta."):
            self.metadata[name] = value
        else:
            self.fields[name] = value

    def add(self, name: str, delta: int) -> None:
        current = self.get(name) or 0
        self.set(name, current + delta)

    def key(self, field_names: tuple[str, ...]) -> tuple[int, ...]:
        """Tuple of field values (absent fields read as 0) for cache keys."""
        return tuple(self.get(name) or 0 for name in field_names)

    def flow_key(self) -> tuple[int, ...]:
        return self.key(FIVE_TUPLE)

    def clone(self) -> "Packet":
        return Packet(
            fields=dict(self.fields),
            metadata=dict(self.metadata),
            size_bytes=self.size_bytes,
            dropped=self.dropped,
            egress_port=self.egress_port,
        )


def ipv4(a: int, b: int, c: int, d: int) -> int:
    """Build a 32-bit address from dotted-quad octets."""
    return (a << 24) | (b << 16) | (c << 8) | d


def make_packet(
    src: int = ipv4(10, 0, 0, 1),
    dst: int = ipv4(192, 168, 0, 1),
    proto: int = 6,
    sport: int = 1234,
    dport: int = 80,
    size_bytes: int = DEFAULT_PACKET_BYTES,
    extra: Optional[dict[str, int]] = None,
) -> Packet:
    """A TCP/IPv4-shaped packet with the canonical five-tuple fields."""
    fields = {
        "eth.src": 0x020000000001,
        "eth.dst": 0x020000000002,
        "eth.type": 0x0800,
        "ipv4.src": src,
        "ipv4.dst": dst,
        "ipv4.proto": proto,
        "ipv4.ttl": 64,
        "ipv4.tos": 0,
        "l4.sport": sport,
        "l4.dport": dport,
    }
    if extra:
        fields.update(extra)
    return Packet(fields=fields, size_bytes=size_bytes)
