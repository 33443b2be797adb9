"""SmartNIC emulator substrate: packets, engines, caches, targets."""

from repro.nic.control_plane import ControlPlane, SimClock, UpdateEvent
from repro.nic.counters import (
    CounterBank,
    action_counter,
    branch_counter,
    cache_counter,
)
from repro.nic.emulator import NicEmulator
from repro.nic.flow_cache import CacheStats, FlowCache, TokenBucket
from repro.nic.match_engine import (
    ExactEngine,
    LpmEngine,
    MatchEngine,
    RangeEngine,
    TernaryEngine,
    build_engine,
)
from repro.nic.packet import (
    DEFAULT_PACKET_BYTES,
    FIVE_TUPLE,
    NEXT_TAB_ID,
    Packet,
    ipv4,
    make_packet,
)
from repro.nic.sharding import (
    ShardedEmulator,
    flow_shard,
)
from repro.nic.stats import PacketResult, RunStats
from repro.nic.table_runtime import LookupResult, RuntimeTable
from repro.nic.targets import (
    AGILIO_CX,
    BLUEFIELD2,
    EMULATED_NIC,
    TARGETS,
    CoreModel,
    TargetModel,
    get_target,
)

__all__ = [
    "AGILIO_CX",
    "BLUEFIELD2",
    "CacheStats",
    "ControlPlane",
    "CoreModel",
    "CounterBank",
    "DEFAULT_PACKET_BYTES",
    "EMULATED_NIC",
    "ExactEngine",
    "FIVE_TUPLE",
    "FlowCache",
    "LookupResult",
    "LpmEngine",
    "MatchEngine",
    "NEXT_TAB_ID",
    "NicEmulator",
    "Packet",
    "PacketResult",
    "RangeEngine",
    "RunStats",
    "RuntimeTable",
    "ShardedEmulator",
    "SimClock",
    "TARGETS",
    "TargetModel",
    "TernaryEngine",
    "TokenBucket",
    "UpdateEvent",
    "action_counter",
    "branch_counter",
    "build_engine",
    "cache_counter",
    "flow_shard",
    "get_target",
    "ipv4",
    "make_packet",
]
