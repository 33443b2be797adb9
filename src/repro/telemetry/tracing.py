"""Sampled packet tracing: 1-in-N span recording through the data path.

A :class:`PacketTracer` attached to an emulator records, for every Nth
packet, the full path the packet took — parser, each table with the
action it selected, each cache with hit/miss, navigation/migration hops
— with a per-node latency attribution derived from the emulator's own
cost charging. Per-node latencies additionally feed fixed-bucket
histograms (:data:`~repro.telemetry.metrics.LATENCY_BUCKETS_NS`), which
the report layer joins against the cost model's per-pipelet predictions.

Overhead discipline: with no tracer attached the columnar tier's
replay loop pays **one branch per batch** and the interpreter one branch
per packet. With a tracer attached every batch is interpreted (demotion
reason ``traced``): untraced packets pay one counter increment on top,
and since the interpreter is the specification, tracing never perturbs
statistics, counters or cache state.

Tracers are shard-mergeable: each sharded worker samples its own stream
and the parent folds the per-worker tracers with :meth:`PacketTracer.
merge` (histograms sum element-wise; recent traces interleave).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

from repro.telemetry.metrics import LATENCY_BUCKETS_NS, Histogram

#: Synthetic span names for stages that are not program nodes.
PARSER_STEP = "__parser__"
NATIVE_CACHE_STEP = "__native_cache__"


@dataclass
class TraceStep:
    """One node visit inside a traced packet's path."""

    node: str
    kind: str  # parser | table | branch | cache | merged | nav | migration
    detail: str = ""  # action name, hit/miss, true/false
    latency_ns: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


class PacketTrace:
    """The span record of a single sampled packet."""

    __slots__ = ("steps", "verdict", "latency_ns", "ts_s", "_mark")

    def __init__(self, ts_s: float = 0.0):
        self.steps: list[TraceStep] = []
        self.verdict = ""
        self.latency_ns = 0.0
        self.ts_s = ts_s
        self._mark = 0.0

    def enter(self, node: str, kind: str, busy_ns: float) -> None:
        """Open a span for ``node``; closes the previous span."""
        steps = self.steps
        if steps:
            steps[-1].latency_ns = busy_ns - self._mark
        self._mark = busy_ns
        steps.append(TraceStep(node, kind))

    def note(self, detail: str) -> None:
        """Annotate the open span (chosen action, hit/miss, leg)."""
        if self.steps:
            self.steps[-1].detail = detail

    def close(self, total_busy_ns: float) -> None:
        if self.steps:
            self.steps[-1].latency_ns = total_busy_ns - self._mark
        self.latency_ns = total_busy_ns

    def path(self) -> tuple[str, ...]:
        return tuple(step.node for step in self.steps)

    def to_json(self) -> dict:
        return {
            "ts_s": self.ts_s,
            "verdict": self.verdict,
            "latency_ns": self.latency_ns,
            "steps": [step.to_json() for step in self.steps],
        }


class PacketTracer:
    """Deterministic 1-in-N packet sampler and span aggregator.

    ``sample_interval`` of N records every Nth packet (the first packet
    of a stream is always the first sample, which keeps tests
    reproducible). ``max_traces`` bounds the retained raw spans — the
    per-node histograms keep aggregating past that bound.
    """

    def __init__(
        self,
        sample_interval: int = 64,
        max_traces: int = 512,
    ):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.sample_interval = sample_interval
        self.max_traces = max_traces
        #: Packets seen / actually traced.
        self.seen = 0
        self.sampled = 0
        self.traces: deque[PacketTrace] = deque(maxlen=max_traces)
        #: Per-node latency histograms over traced visits.
        self.node_ns: dict[str, Histogram] = {}

    # -- sampling ----------------------------------------------------------

    def try_begin(self, ts_s: float = 0.0) -> Optional[PacketTrace]:
        """Count one packet; a recorder for every Nth, else None."""
        index = self.seen
        self.seen += 1
        if index % self.sample_interval:
            return None
        self.sampled += 1
        return PacketTrace(ts_s)

    def finish(
        self,
        trace: PacketTrace,
        latency_ns: float,
        dropped: bool,
        egress_port: Optional[int],
    ) -> None:
        """Seal a trace: close spans, set verdict, aggregate."""
        trace.close(latency_ns)
        if dropped:
            trace.verdict = "drop"
        elif egress_port is not None:
            trace.verdict = f"forward:{egress_port}"
        else:
            trace.verdict = "forward"
        node_ns = self.node_ns
        for step in trace.steps:
            hist = node_ns.get(step.node)
            if hist is None:
                hist = node_ns[step.node] = Histogram(LATENCY_BUCKETS_NS)
            hist.observe(step.latency_ns)
        self.traces.append(trace)

    # -- aggregate reads ---------------------------------------------------

    def node_visits(self, node: str) -> int:
        hist = self.node_ns.get(node)
        return hist.count if hist is not None else 0

    def node_mean_ns(self, node: str) -> float:
        hist = self.node_ns.get(node)
        return hist.mean if hist is not None else 0.0

    def node_total_ns(self, node: str) -> float:
        hist = self.node_ns.get(node)
        return hist.sum if hist is not None else 0.0

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        self.seen = 0
        self.sampled = 0
        self.traces.clear()
        self.node_ns.clear()

    def merge(self, other: "PacketTracer") -> "PacketTracer":
        """Fold another tracer in (shard collection).

        Histograms and counts sum; retained traces concatenate under
        the ring bound, ordered by emulated timestamp.
        """
        if other.sample_interval != self.sample_interval:
            raise ValueError(
                "Cannot merge tracers with different sample intervals "
                f"({self.sample_interval} vs {other.sample_interval})"
            )
        self.seen += other.seen
        self.sampled += other.sampled
        for node, hist in other.node_ns.items():
            mine = self.node_ns.get(node)
            if mine is None:
                mine = self.node_ns[node] = Histogram(hist.buckets)
            mine.merge(hist)
        merged = sorted(
            list(self.traces) + list(other.traces),
            key=lambda t: t.ts_s,
        )
        self.traces.clear()
        self.traces.extend(merged)
        return self

    def spawn_empty(self) -> "PacketTracer":
        """A fresh tracer with this tracer's configuration."""
        return PacketTracer(self.sample_interval, self.max_traces)
