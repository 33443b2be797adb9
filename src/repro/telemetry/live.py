"""Live telemetry plane: in-flight aggregation, scrape endpoint, top view.

PR 3's telemetry is batch-only — metrics export after a replay
finishes. This module makes a *running* data plane observable, on one
core or on a fleet:

* A :class:`LiveFeed` on the replaying emulator builds compact
  cumulative snapshots (packet totals, an incremental latency
  histogram, cache hit/miss counts, columnar demotions) at batch
  boundaries, never per packet — at a wall-interval cadence
  (heartbeats, default) or a packet-count one (deterministic, for
  bit-stable tests). A shard worker's feed sends them over a
  per-shard **sidecar pipe** (:mod:`repro.nic.sharding`); a one-core
  deployment's hands them straight to the aggregator.
* :class:`LiveAggregator` drains those sidecar pipes on a background
  thread, folds the latest per-shard snapshots with the parent-side
  ring gauges (occupancy, stalls — live, per shard) into
  rolling :class:`~repro.telemetry.timeseries.FlightRecorder` rows,
  evaluates the :class:`~repro.telemetry.slo.SloWatchdog` each
  interval, and republishes everything as a
  :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot.
* :class:`MetricsServer` serves that registry as Prometheus text on
  ``/metrics`` (plus a JSON ``/health``) from a stdlib
  ``http.server`` thread, live during the replay.
* :func:`render_top` turns recorder rows into the refreshing terminal
  view behind ``repro top``.

The aggregator only ever *reads* the watched data plane's public
telemetry surfaces (``live_conns``, ``live_shard_status()``) and its
own pipes, so a wedged aggregator can slow scrapes but never a worker
— workers drop heartbeats rather than block on a full sidecar pipe
(except under the deterministic cadence, where a bounded blocking send
preserves bit-stability).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

from repro.telemetry.events import EventLog
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.slo import SloRule, SloWatchdog
from repro.telemetry.timeseries import FlightRecorder

__all__ = [
    "LiveAggregator",
    "LiveFeed",
    "LiveOptions",
    "LivePlane",
    "MetricsServer",
    "render_top",
]

#: Ceiling on the aggregator's poll period: sidecar pipes must drain
#: well within a snapshot interval so blocking-cadence workers never
#: stall and heartbeat ages stay honest.
_MAX_TICK_S = 0.05


def _finite(value: Optional[float]) -> Optional[float]:
    """JSON-safe float: non-finite (empty-histogram quantiles) -> None."""
    if value is None or not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class LiveOptions:
    """Configuration for the live telemetry plane.

    ``interval_s`` paces both the worker heartbeat snapshots and the
    aggregator's merged flight-recorder rows / SLO evaluation.
    ``every_packets`` switches the *worker* cadence to deterministic
    packet counting (a snapshot after every N replayed packets, plus
    one at worker birth and one at replay end): per-shard rows are
    then a pure function of the traffic, which is what the bit-
    stability tests pin. ``rules`` arms the SLO watchdog;
    ``serve_port`` (0 = ephemeral) starts the scrape endpoint.
    """

    interval_s: float = 1.0
    every_packets: Optional[int] = None
    window: int = 512
    flight_path: Optional[str] = None
    rules: tuple[SloRule, ...] = ()
    serve_port: Optional[int] = None
    serve_host: str = "127.0.0.1"

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self.every_packets is not None and self.every_packets < 1:
            raise ValueError("every_packets must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.serve_port is not None and not (
            0 <= self.serve_port <= 65535
        ):
            raise ValueError("serve_port must be in [0, 65535]")
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, SloRule):
                raise TypeError(
                    f"rules must be SloRule instances, got {rule!r}"
                )


def _snapshot_quantiles(hist: Optional[Histogram]) -> dict:
    if hist is None or not hist.count:
        return {"p50_ns": None, "p99_ns": None, "mean_ns": None}
    return {
        "p50_ns": _finite(hist.quantile(0.5)),
        "p99_ns": _finite(hist.quantile(0.99)),
        "mean_ns": _finite(hist.mean),
    }


def _snapshot_hit_rate(snapshot: dict) -> Optional[float]:
    hits = misses = 0
    for h, m in snapshot.get("caches", {}).values():
        hits += h
        misses += m
    native = snapshot.get("native")
    if native is not None:
        hits += native[0]
        misses += native[1]
    total = hits + misses
    return hits / total if total else None


class LiveFeed:
    """One data plane's live snapshots: the only place one is built.

    A feed rides on the emulator it watches (``NicEmulator.live_feed``):
    ``NicEmulator.replay_batch`` calls :meth:`observe` after every
    batch, and a redeploy hands the feed on with the caches
    (``NicEmulator.adopt_caches``). It owns the sequence number, the
    lifetime totals with the latency histogram of the replays that
    ended, and ``options``' cadence; a snapshot adds the running
    replay's stats to those.
    ``sink(snapshot, block) -> bool`` delivers a snapshot: a shard
    worker's over the sidecar pipe, where a heartbeat may be dropped
    but a packet-cadence or forced one blocks (bounded), since a lost
    one would make the recorded rows depend on scheduling; a one-core
    deployment's is :meth:`LiveAggregator.ingest`.

    Lifetime totals stay monotone by two rules: a replay's stats fold
    in at its :meth:`end` (or, in a journal replayed without ends, when
    the feed first sees the next replay's), and an emulator's columnar
    totals when it first sees the emulator that replaced it.
    """

    def __init__(self, sink, options: LiveOptions, shard: int = 0):
        self.sink = sink
        self.shard = shard
        self.every_packets = options.every_packets
        self.interval_s = options.interval_s
        self.seq = 0
        self.dropped_snapshots = 0
        self._next = time.monotonic() + self.interval_s
        self.restore(None, None)

    def state(self, emulator) -> tuple:
        """For a checkpoint between replays: the totals of everything
        before ``emulator``, whose own columnar totals checkpoint with
        it."""
        self._see(emulator)
        self._retire()
        demotions = dict(self.demotions)
        return (self.packets, self.dropped, self.columnar, demotions, self.hist)

    def restore(self, state: Optional[tuple], emulator) -> None:
        """Resume from :meth:`state` (``None``: from nothing) on
        ``emulator``, restored from the same checkpoint."""
        packets, self.dropped, self.columnar, demotions, hist = state or (
            0, 0, 0, {}, Histogram(),
        )
        self.packets = packets
        self.demotions = Counter(demotions)
        self.hist = hist
        self._emulator = emulator
        #: The running replay's stats, not yet in the histogram.
        self._stats = None
        self._mark = packets // (self.every_packets or 1)

    def _retire(self) -> None:
        stats = self._stats
        if stats is not None:
            for latency, count in stats.value_counts():
                self.hist.observe(latency, count)
            self.packets += stats.packets
            self.dropped += stats.dropped
            self._stats = None

    def _see(self, emulator) -> None:
        previous = self._emulator
        if emulator is not previous and previous is not None:
            self.columnar += previous.columnar_packets
            self.demotions.update(previous.columnar_demotions)
        self._emulator = emulator

    def observe(self, emulator, stats) -> None:
        """``emulator`` replayed a batch into ``stats``: snapshot if the
        cadence is due."""
        if stats is not self._stats:
            self._retire()
            self._stats = stats
        if self.every_packets is None:
            self.beat(emulator)
            return
        mark = (self.packets + stats.packets) // self.every_packets
        if mark > self._mark:
            self._mark = mark
            self.snapshot(emulator)

    def beat(self, emulator) -> None:
        """Wall cadence: snapshot once ``interval_s`` has passed since
        the last one (an idle shard worker calls this too)."""
        now = time.monotonic()
        if self.every_packets is None and now >= self._next:
            self.snapshot(emulator)
            self._next = now + self.interval_s

    def end(self, emulator) -> None:
        """A replay ended: force a snapshot, so the aggregator converges
        to its summary now, and fold its stats in."""
        self.snapshot(emulator, force=True)
        self._retire()

    def snapshot(self, emulator, force: bool = False) -> None:
        """Build one cumulative snapshot of ``emulator`` and sink it."""
        self._see(emulator)
        packets, dropped = self.packets, self.dropped
        # Its own copy: the aggregator reads it while the feed goes on.
        hist = Histogram(self.hist.buckets).merge(self.hist)
        stats = self._stats
        if stats is not None:
            for latency, count in stats.value_counts():
                hist.observe(latency, count)
            packets += stats.packets
            dropped += stats.dropped
        demotions = Counter(self.demotions)
        demotions.update(emulator.columnar_demotions)
        native = emulator.native_cache
        snapshot = {
            "shard": self.shard,
            "seq": self.seq,
            "mono_s": time.monotonic(),
            "packets": packets,
            "dropped": dropped,
            "hist": hist,
            "caches": {
                name: (cache.stats.hits, cache.stats.misses)
                for name, cache in emulator.flow_caches.items()
            },
            "native": (
                (native.stats.hits, native.stats.misses)
                if native is not None
                else None
            ),
            "demotions": dict(demotions),
            "columnar_packets": self.columnar + emulator.columnar_packets,
            "dropped_snapshots": self.dropped_snapshots,
        }
        if self.sink(snapshot, force or self.every_packets is not None):
            self.seq += 1
        else:
            self.dropped_snapshots += 1

    def live_shard_status(self) -> list[dict]:
        """The aggregator's view of a one-core feed: its one shard is in
        this process, so alive, with no ring and no heartbeat to age."""
        return [{"shard": self.shard, "alive": True, "in_process": True}]


class LiveAggregator:
    """Background merger of feed snapshots into rows, metrics, SLOs.

    Watches a live-enabled :class:`~repro.nic.sharding.ShardedEmulator`
    (draining its sidecar pipes, ``live_conns``) or a one-core
    :class:`LiveFeed` (which calls :meth:`ingest`), and reads its shard
    status (``live_shard_status()``); owns the flight recorder, the SLO
    watchdog and the live metrics registry.
    ``start()`` launches the daemon thread; ``stop()`` is idempotent,
    appends one final row from the final state (so the recorder's last
    row always matches the replay summary), and closes the recorder.
    """

    def __init__(
        self,
        emulator=None,
        telemetry=None,
        options: Optional[LiveOptions] = None,
    ):
        self.options = options or LiveOptions()
        #: The watched data plane: ``None`` until a :class:`LivePlane`'s
        #: deployment adopts the aggregator and after it releases it
        #: (see :meth:`retarget`).
        self.emulator = emulator
        self.telemetry = telemetry
        #: Breach/clear events land in the run's event log when one is
        #: wired (so SLO episodes interleave with controller decisions
        #: and worker faults), else in a private log.
        self.events: EventLog = (
            telemetry.events if telemetry is not None else EventLog()
        )
        self.recorder = FlightRecorder(
            window=self.options.window,
            sink_path=self.options.flight_path,
        )
        self.watchdog = SloWatchdog(
            self.options.rules, events=self.events
        )
        self._rule_breaches: dict[str, int] = {}
        self._rule_clears: dict[str, int] = {}
        self.watchdog.subscribe(self._on_slo_event)
        self._lock = threading.Lock()
        #: Serializes retargeting against the background thread's
        #: drain/sample passes (reentrant: stop() drains then ticks).
        self._target_lock = threading.RLock()
        self._registry = MetricsRegistry()
        self._snapshots: dict[int, dict] = {}
        self._last_seen: dict[int, float] = {}
        self._heartbeats: dict[int, int] = {}
        self._seen_respawns: dict[int, int] = {}
        self._forced_stale: dict[int, bool] = {}
        self._start_mono = time.monotonic()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LiveAggregator":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-live-aggregator", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread, flush a final row, close the recorder."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._drain()
        self._tick(final=True)
        self.recorder.close()

    close = stop

    def __enter__(self) -> "LiveAggregator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- adoption ------------------------------------------------------------

    def retarget(self, emulator) -> None:
        """Point the aggregator at a data plane, or detach it (``None``).

        A data plane outlives every redeploy, so a plane watches one and
        its counters need no carry. Detaching drains the sidecar pipes
        one final time and *keeps* the last snapshots, so the final row
        still matches the replay summary; with nothing to poll,
        stopping the workers never reads as a death.
        """
        with self._target_lock:
            if self.emulator is not None:
                try:
                    self._drain_locked()
                except Exception:  # pragma: no cover - defensive
                    pass
            self.emulator = emulator

    # -- background thread ---------------------------------------------------

    def _run(self) -> None:
        interval = self.options.interval_s
        tick = min(_MAX_TICK_S, interval / 4)
        if self.options.every_packets is not None:
            tick = min(tick, 0.005)
        next_row = time.monotonic() + interval
        primed = False
        while not self._stop_event.wait(tick):
            try:
                self._drain()
                now = time.monotonic()
                if not primed and self._snapshots:
                    # First birth heartbeats: publish immediately so an
                    # early scrape never sees an empty registry.
                    primed = True
                    next_row = now
                if now >= next_row:
                    self._tick()
                    next_row = now + interval
            except Exception:  # pragma: no cover - defensive
                # The aggregator is observability: it must never take
                # the replay down. A poisoned tick skips one interval.
                continue

    def _drain(self) -> None:
        """Pull every pending snapshot off every sidecar pipe."""
        with self._target_lock:
            self._drain_locked()

    def _drain_locked(self) -> None:
        conns = list(getattr(self.emulator, "live_conns", None) or [])
        for conn in conns:
            if conn is None:
                continue
            while True:
                try:
                    if not conn.poll(0):
                        break
                    snapshot = conn.recv()
                except (EOFError, OSError):
                    break
                self._ingest_locked(snapshot)

    def ingest(self, snapshot: dict, block: bool = False) -> bool:
        """A one-core :class:`LiveFeed`'s sink: never drops a snapshot."""
        with self._target_lock:
            self._ingest_locked(snapshot)
        return True

    def _ingest_locked(self, snapshot: dict) -> None:
        shard = snapshot["shard"]
        self._snapshots[shard] = snapshot
        self._last_seen[shard] = time.monotonic()
        self._heartbeats[shard] = self._heartbeats.get(shard, 0) + 1
        # A fresh heartbeat from a (re)spawned worker clears the
        # death-observed latch (see _update_liveness).
        self._forced_stale[shard] = False
        if self.options.every_packets is not None:
            self._append_shard_row(snapshot)

    # -- row/sample construction ---------------------------------------------

    def _append_shard_row(self, snapshot: dict) -> None:
        row = {
            "kind": "shard",
            "shard": snapshot["shard"],
            "seq": snapshot["seq"],
            "mono_s": round(time.monotonic() - self._start_mono, 6),
            "packets": snapshot["packets"],
            "dropped": snapshot["dropped"],
            "cache_hit_rate": _snapshot_hit_rate(snapshot),
            "demotions": dict(snapshot.get("demotions", {})),
            "columnar_packets": snapshot.get("columnar_packets", 0),
        }
        row.update(_snapshot_quantiles(snapshot.get("hist")))
        self.recorder.append(row)

    def _shard_status(self) -> list[dict]:
        status = getattr(self.emulator, "live_shard_status", None)
        if status is None:  # pragma: no cover - duck-typed emulators
            return []
        return status()

    def _update_liveness(self, status: list[dict]) -> None:
        """Latch death observations into per-shard staleness flags.

        A kill+respawn can complete inside one sampling interval, so
        pure wall-clock staleness would race it. The supervisor's
        respawn counter is the deterministic witness: any bump since
        the shard's last heartbeat marks it stale until the *next*
        heartbeat arrives. Degraded (permanently dead) shards stay
        forced stale.
        """
        for entry in status:
            shard = entry["shard"]
            respawns = entry.get("respawns", 0)
            if respawns > self._seen_respawns.get(shard, 0):
                self._seen_respawns[shard] = respawns
                self._forced_stale[shard] = True
            if entry.get("dead"):
                self._forced_stale[shard] = True

    def sample(self) -> dict:
        """One merged view of the fleet: the watchdog's input."""
        with self._target_lock:
            return self._sample_locked()

    def _sample_locked(self) -> dict:
        now = time.monotonic()
        status = self._shard_status()
        self._update_liveness(status)
        merged = Histogram()
        packets = dropped = columnar_packets = 0
        demotions: dict[str, int] = {}
        cache_totals: dict[str, list[int]] = {}
        native_hits = native_misses = 0
        for snapshot in self._snapshots.values():
            hist = snapshot.get("hist")
            if hist is not None:
                merged.merge(hist)
            packets += snapshot["packets"]
            dropped += snapshot["dropped"]
            columnar_packets += snapshot.get("columnar_packets", 0)
            for reason, count in snapshot.get("demotions", {}).items():
                demotions[reason] = demotions.get(reason, 0) + count
            for name, (h, m) in snapshot.get("caches", {}).items():
                totals = cache_totals.setdefault(name, [0, 0])
                totals[0] += h
                totals[1] += m
            native = snapshot.get("native")
            if native is not None:
                native_hits += native[0]
                native_misses += native[1]
        hits = native_hits + sum(t[0] for t in cache_totals.values())
        lookups = (
            native_hits
            + native_misses
            + sum(t[0] + t[1] for t in cache_totals.values())
        )
        stalls = sum(e.get("ring_stalls", 0) for e in status)
        pushed = sum(e.get("pushed_batches", 0) for e in status)
        shards: dict[int, dict] = {}
        for entry in status:
            shard = entry["shard"]
            snapshot = self._snapshots.get(shard)
            last = self._last_seen.get(shard, self._start_mono)
            shards[shard] = {
                "alive": entry.get("alive", False),
                "dead": entry.get("dead", False),
                "respawns": entry.get("respawns", 0),
                # An in-process feed snapshots only while it replays:
                # its silence is idleness, not a missed heartbeat.
                "heartbeat_staleness_s": (
                    None if entry.get("in_process") else now - last
                ),
                "forced_stale": self._forced_stale.get(shard, False),
                "heartbeats": self._heartbeats.get(shard, 0),
                "seq": snapshot["seq"] if snapshot else None,
                "packets": snapshot["packets"] if snapshot else 0,
                "dropped": snapshot["dropped"] if snapshot else 0,
                "ring_occupancy": entry.get("ring_occupancy"),
                "ring_stalls": entry.get("ring_stalls"),
                "hist": snapshot.get("hist") if snapshot else None,
                "cache_hit_rate": (
                    _snapshot_hit_rate(snapshot) if snapshot else None
                ),
            }
        sample = {
            "packets": packets,
            "dropped": dropped,
            "cache_hit_rate": hits / lookups if lookups else None,
            "ring_stall_rate": stalls / pushed if pushed else 0.0,
            "ring_stalls": stalls,
            "ring_pushed_batches": pushed,
            "demotions": demotions,
            "columnar_packets": columnar_packets,
            "hist": merged,
            "shards": shards,
        }
        sample.update(_snapshot_quantiles(merged))
        sample["p99_latency_ns"] = sample["p99_ns"]
        sample["p50_latency_ns"] = sample["p50_ns"]
        sample["mean_latency_ns"] = sample["mean_ns"]
        return sample

    def _interval_row(self, sample: dict, final: bool) -> dict:
        shards = []
        for shard in sorted(sample["shards"]):
            entry = sample["shards"][shard]
            age = entry["heartbeat_staleness_s"]
            shard_row = {
                "shard": shard,
                "seq": entry["seq"],
                "packets": entry["packets"],
                "dropped": entry["dropped"],
                "alive": entry["alive"],
                "dead": entry["dead"],
                "respawns": entry["respawns"],
                "heartbeats": entry["heartbeats"],
                "age_s": age if age is None else round(age, 6),
                "ring_occupancy": entry["ring_occupancy"],
                "ring_stalls": entry["ring_stalls"],
                "cache_hit_rate": entry["cache_hit_rate"],
            }
            shard_row.update(_snapshot_quantiles(entry["hist"]))
            shards.append(shard_row)
        return {
            "kind": "interval",
            "final": final,
            "wall_s": time.time(),
            "mono_s": round(time.monotonic() - self._start_mono, 6),
            "packets": sample["packets"],
            "dropped": sample["dropped"],
            "p50_ns": sample["p50_ns"],
            "p99_ns": sample["p99_ns"],
            "mean_ns": sample["mean_ns"],
            "cache_hit_rate": sample["cache_hit_rate"],
            "ring_stalls": sample["ring_stalls"],
            "ring_stall_rate": sample["ring_stall_rate"],
            "demotions": sample["demotions"],
            "columnar_packets": sample["columnar_packets"],
            "events_emitted": self.events.emitted,
            "events_dropped": self.events.dropped,
            "slo_active": self.watchdog.active_breaches,
            "slo_breaches": self.watchdog.breaches,
            "slo_clears": self.watchdog.clears,
            "shards": shards,
        }

    def _tick(self, final: bool = False) -> None:
        # One tick at a time: the watchdog's flip is a read-modify-write
        # and :meth:`flush` ticks from the caller's thread.
        with self._target_lock:
            sample = self._sample_locked()
            self.watchdog.evaluate(sample)
            row = self._interval_row(sample, final)
            self.recorder.append(row)
            registry = self._build_registry(sample)
            with self._lock:
                self._registry = registry

    def flush(self) -> None:
        """Drain and sample now, on the caller's thread.

        The background thread samples once per interval, so a replay
        shorter than that can return before the watchdog has seen what
        happened inside it (a worker kill, say). Callers that report
        SLO state right after a replay flush first.
        """
        with self._target_lock:
            self._drain_locked()
            self._tick()

    # -- SLO accounting ------------------------------------------------------

    def _on_slo_event(self, event: dict) -> None:
        rule = event.get("rule", "")
        if event.get("kind") == "slo_breach":
            self._rule_breaches[rule] = (
                self._rule_breaches.get(rule, 0) + 1
            )
        else:
            self._rule_clears[rule] = self._rule_clears.get(rule, 0) + 1

    # -- export --------------------------------------------------------------

    def _build_registry(self, sample: dict) -> MetricsRegistry:
        registry = MetricsRegistry()
        for shard in sorted(sample["shards"]):
            entry = sample["shards"][shard]
            registry.inc(
                "pipeleon_live_packets_total",
                entry["packets"],
                help="Packets replayed so far (live snapshots)",
                shard=shard,
            )
            registry.inc(
                "pipeleon_live_dropped_total",
                entry["dropped"],
                help="Packets dropped so far (live snapshots)",
                shard=shard,
            )
            registry.inc(
                "pipeleon_live_heartbeats_total",
                entry["heartbeats"],
                help="Snapshots received from the shard's live feed",
                shard=shard,
            )
            if entry["heartbeat_staleness_s"] is not None:
                registry.set_gauge(
                    "pipeleon_live_heartbeat_age_s",
                    entry["heartbeat_staleness_s"],
                    help="Seconds since the shard's last snapshot",
                    shard=shard,
                )
            registry.set_gauge(
                "pipeleon_live_worker_alive",
                1.0 if entry["alive"] else 0.0,
                help="Worker process liveness (1 = alive)",
                shard=shard,
            )
            registry.inc(
                "pipeleon_live_worker_respawns_total",
                entry["respawns"],
                help="Supervisor respawns observed for the shard",
                shard=shard,
            )
            if entry["ring_occupancy"] is not None:
                registry.set_gauge(
                    "pipeleon_live_ring_occupancy",
                    entry["ring_occupancy"],
                    help="Current data-ring occupancy fraction",
                    shard=shard,
                )
            if entry["ring_stalls"] is not None:
                registry.inc(
                    "pipeleon_live_ring_stalls_total",
                    entry["ring_stalls"],
                    help="Batch dispatches that stalled on a full ring",
                    shard=shard,
                )
            hist = entry["hist"]
            if hist is not None and hist.count:
                registry.histogram(
                    "pipeleon_live_latency_ns",
                    help="Per-packet latency from live snapshots (ns)",
                    buckets=hist.buckets,
                    shard=shard,
                ).merge(hist)
        if sample["cache_hit_rate"] is not None:
            registry.set_gauge(
                "pipeleon_live_cache_hit_rate",
                sample["cache_hit_rate"],
                help="Merged flow-cache hit rate (live snapshots)",
            )
        registry.set_gauge(
            "pipeleon_live_ring_stall_rate",
            sample["ring_stall_rate"],
            help="Cumulative ring stalls per pushed batch",
        )
        for reason, count in sorted(sample["demotions"].items()):
            registry.inc(
                "pipeleon_live_columnar_demotions_total",
                count,
                help="Columnar demotions by reason (live snapshots)",
                reason=reason,
            )
        registry.inc(
            "pipeleon_live_columnar_packets_total",
            sample["columnar_packets"],
            help="Packets retired by columnar kernels (live snapshots)",
        )
        from repro.telemetry.export import export_event_log

        export_event_log(registry, self.events)
        registry.inc(
            "pipeleon_flight_rows_total",
            self.recorder.appended,
            help="Flight-recorder rows appended",
        )
        registry.inc(
            "pipeleon_flight_sink_failures_total",
            self.recorder.sink_failures,
            help="Flight-recorder sink writes that failed",
        )
        for rule, count in sorted(self._rule_breaches.items()):
            registry.inc(
                "pipeleon_slo_breaches_total",
                count,
                help="SLO breach episodes by rule",
                rule=rule,
            )
        for rule, count in sorted(self._rule_clears.items()):
            registry.inc(
                "pipeleon_slo_clears_total",
                count,
                help="SLO breach episodes that cleared, by rule",
                rule=rule,
            )
        registry.set_gauge(
            "pipeleon_slo_active_breaches",
            len(self.watchdog.active_breaches),
            help="SLO rule scopes currently in breach",
        )
        return registry

    def prometheus(self) -> str:
        with self._lock:
            return self._registry.to_prometheus()

    def health(self) -> dict:
        row = self.recorder.last("interval")
        shards = row["shards"] if row else []
        degraded = bool(self.watchdog.active_breaches) or any(
            not s["alive"] for s in shards
        )
        return {
            "status": "degraded" if degraded else "ok",
            "rows": self.recorder.appended,
            "heartbeats": sum(self._heartbeats.values()),
            "active_breaches": self.watchdog.active_breaches,
            "slo_breaches": self.watchdog.breaches,
            "slo_clears": self.watchdog.clears,
            "shards": [
                {
                    "shard": s["shard"],
                    "alive": s["alive"],
                    "respawns": s["respawns"],
                    "packets": s["packets"],
                }
                for s in shards
            ],
        }


# ---------------------------------------------------------------------------
# Scrape endpoint
# ---------------------------------------------------------------------------


class MetricsServer:
    """`/metrics` (Prometheus text) + `/health` (JSON) on a thread.

    Binds ``host:port`` (port 0 picks an ephemeral port; read
    :attr:`port` after :meth:`start`). Serving runs on a daemon thread
    with a ``ThreadingHTTPServer``, so a slow scraper never blocks the
    replay — and the aggregator's lock bounds what a scrape can see to
    one consistent registry snapshot.
    """

    def __init__(
        self,
        aggregator: LiveAggregator,
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        self.aggregator = aggregator
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        aggregator = self.aggregator

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence per-request noise
                pass

            def _send(self, code, content_type, body: bytes):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    self._send(
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        aggregator.prometheus().encode("utf-8"),
                    )
                elif path == "/health":
                    self._send(
                        200,
                        "application/json",
                        json.dumps(aggregator.health()).encode("utf-8"),
                    )
                else:
                    self._send(404, "text/plain", b"not found\n")

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    close = stop

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Daemon-lifetime plane
# ---------------------------------------------------------------------------


class LivePlane:
    """One aggregator + scrape endpoint outliving any single deployment.

    The caller owns the plane: ``repro replay`` creates one around its
    single deployment; ``repro serve`` creates one for the daemon's
    whole lifetime and hands it to the controller, whose data plane
    adopts it and keeps it across every redeploy (a plan swap forks
    nothing; a feed moves on), so counters stay monotone and the
    ``/metrics`` port stays bound from daemon start to drain.

    Lifecycle: :meth:`start` once, then :meth:`adopt` / :meth:`release`
    around the data plane's life, then :meth:`stop` (idempotent,
    try/finally safe: the server is always torn down even if the
    aggregator's final flush raises).
    """

    def __init__(
        self,
        options: Optional[LiveOptions] = None,
        telemetry=None,
    ):
        self.options = options or LiveOptions()
        self.aggregator = LiveAggregator(
            emulator=None, telemetry=telemetry, options=self.options
        )
        self.server: Optional[MetricsServer] = None
        self._started = False
        self._stopped = False

    # Convenience passthroughs ------------------------------------------------

    @property
    def watchdog(self) -> SloWatchdog:
        return self.aggregator.watchdog

    @property
    def recorder(self) -> FlightRecorder:
        return self.aggregator.recorder

    @property
    def port(self) -> Optional[int]:
        return self.server.port if self.server is not None else None

    def start(self) -> "LivePlane":
        if self._started:
            return self
        self._started = True
        self.aggregator.start()
        if self.options.serve_port is not None:
            server = MetricsServer(
                self.aggregator,
                port=self.options.serve_port,
                host=self.options.serve_host,
            )
            try:
                server.start()
            except Exception:
                self.aggregator.stop()
                raise
            self.server = server
        return self

    def adopt(self, emulator) -> None:
        """Watch a freshly forked fleet or a one-core :class:`LiveFeed`."""
        self.aggregator.retarget(emulator)

    def release(self) -> None:
        """Detach from the data plane *before* it is torn down.

        Drains it one last time and keeps its last snapshots (the
        final row matches the replay summary); with nothing to poll,
        stopping the workers never reads as an SLO-visible death.
        """
        self.aggregator.retarget(None)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        try:
            if self.server is not None:
                self.server.stop()
        finally:
            self.server = None
            self.aggregator.stop()

    close = stop

    def __enter__(self) -> "LivePlane":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Terminal view (`repro top`)
# ---------------------------------------------------------------------------


def _fmt(value, width: int = 9, digits: int = 1) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.{digits}f}".rjust(width)
    return str(value).rjust(width)


def render_top(rows: Sequence[dict], path: str = "") -> str:
    """Render flight-recorder rows as one refreshing terminal frame.

    Pure function of the rows (testable; ``repro top`` wraps it in a
    clear-screen refresh loop). Uses the latest ``interval`` row for
    the fleet header and per-shard table, and the trailing rows for
    the event ticker.
    """
    interval_rows = [r for r in rows if r.get("kind") == "interval"]
    lines: list[str] = []
    title = "repro top"
    if path:
        title += f" — {path}"
    lines.append(title)
    if not interval_rows:
        lines.append("(no interval rows yet)")
        return "\n".join(lines) + "\n"
    last = interval_rows[-1]
    lines.append(
        f"row {last.get('row', '?')}  t+{_fmt(last.get('mono_s'), 0, 1)}s"
        f"  packets {last['packets']}  dropped {last['dropped']}"
        f"  p50 {_fmt(last.get('p50_ns'), 0)}ns"
        f"  p99 {_fmt(last.get('p99_ns'), 0)}ns"
    )
    hit = last.get("cache_hit_rate")
    lines.append(
        f"cache hit {_fmt(hit, 0, 3) if hit is not None else '-'}"
        f"  ring stalls {last.get('ring_stalls', 0)}"
        f"  events {last.get('events_emitted', 0)}"
        f" (dropped {last.get('events_dropped', 0)})"
        f"  slo breaches {last.get('slo_breaches', 0)}"
        f"/clears {last.get('slo_clears', 0)}"
    )
    active = last.get("slo_active") or []
    if active:
        lines.append("SLO BREACHED: " + ", ".join(active))
    lines.append("")
    lines.append(
        "shard     packets   dropped    p50_ns    p99_ns   hit_rate"
        "     occ   stalls  beats  alive"
    )
    for shard in last.get("shards", []):
        occupancy = shard.get("ring_occupancy")
        lines.append(
            f"{shard['shard']:>5}"
            f"{_fmt(shard.get('packets', 0), 12)}"
            f"{_fmt(shard.get('dropped', 0), 10)}"
            f"{_fmt(shard.get('p50_ns'), 10)}"
            f"{_fmt(shard.get('p99_ns'), 10)}"
            f"{_fmt(shard.get('cache_hit_rate'), 11, 3)}"
            f"{_fmt(occupancy, 8, 2)}"
            f"{_fmt(shard.get('ring_stalls', 0), 9)}"
            f"{_fmt(shard.get('heartbeats', 0), 7)}"
            f"{'    yes' if shard.get('alive') else '     NO'}"
            + ("  (respawned)" if shard.get("respawns") else "")
        )
    history = interval_rows[-8:]
    if len(history) > 1:
        lines.append("")
        lines.append("recent intervals (packets / p99_ns):")
        lines.append(
            "  "
            + "  ".join(
                f"{r['packets']}/{_fmt(r.get('p99_ns'), 0)}"
                for r in history
            )
        )
    return "\n".join(lines) + "\n"
