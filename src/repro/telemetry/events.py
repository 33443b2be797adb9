"""Structured decision/event log: JSONL ring buffer + optional file sink.

Every control-plane mutation and every controller decision (profile
collected, replan accepted/rejected with its hysteresis margin, cache
dropped, merge reversed, redeploy, cache flush) lands here as one flat
JSON object with an **emulated-clock** timestamp, so a run's decision
history can be replayed against its traffic timeline.

The in-memory view is a bounded ring (old events fall off); the optional
file sink writes every event append-only as JSON Lines, so long runs
keep a complete on-disk history even after the ring rotates.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable, Optional

from repro.nic.control_plane import SimClock, UpdateEvent


class EventLog:
    """Bounded structured event recorder with emulated timestamps."""

    def __init__(
        self,
        capacity: int = 4096,
        clock: Optional[SimClock] = None,
        sink_path: Optional[str] = None,
        source: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock
        #: Optional origin stamp (e.g. ``"shard-3"``) written into every
        #: emitted event; disambiguates events that collide on
        #: ``(ts_s, seq)`` when logs from several emitters are merged.
        self.source = source
        #: Total events ever emitted (the ring may have rotated).
        self.emitted = 0
        #: Sink writes that failed (disk full, revoked fd). Failures
        #: are counted, not raised: a dying sink must never take the
        #: replay down, but it must be visible in exported metrics.
        self.sink_failures = 0
        self._events: deque[dict] = deque(maxlen=capacity)
        self._sink: Optional[IO[str]] = None
        self._observed_planes: set[int] = set()
        if sink_path is not None:
            self.open_sink(sink_path)

    # -- sink lifecycle ----------------------------------------------------

    def open_sink(self, path: str) -> None:
        """Start (or switch) the append-only JSONL file sink."""
        self.close()
        self._sink = open(path, "a")

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> dict:
        """Record one event; returns the event dict."""
        event = {
            "seq": self.emitted,
            "ts_s": self.clock.now_s if self.clock is not None else 0.0,
            "kind": kind,
        }
        if self.source is not None:
            event["source"] = self.source
        event.update(fields)
        self.emitted += 1
        self._events.append(event)
        if self._sink is not None:
            try:
                self._sink.write(json.dumps(event) + "\n")
                self._sink.flush()
            except (OSError, ValueError):
                self.sink_failures += 1
        return event

    # -- control-plane wiring ----------------------------------------------

    def observe_control_plane(self, control_plane) -> bool:
        """Record every mutation of ``control_plane`` (idempotent).

        Returns True if a listener was attached, False if this plane was
        already being observed. The listener survives redeployments —
        deployments come and go, the control plane (and its log) stay.
        """
        if id(control_plane) in self._observed_planes:
            return False
        self._observed_planes.add(id(control_plane))

        def on_update(event: UpdateEvent) -> None:
            self.emit(
                "control_update",
                op=event.op,
                table=event.table,
                entry_id=(
                    event.entry.entry_id if event.entry is not None else None
                ),
                epoch=event.epoch,
                replaced_id=event.replaced_id,
            )

        control_plane.add_listener(on_update)
        return True

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events that fell off the bounded ring (emitted - retained)."""
        return self.emitted - len(self._events)

    def events(self, kind: Optional[str] = None) -> list[dict]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e["kind"] == kind]

    def last(self, kind: Optional[str] = None) -> Optional[dict]:
        for event in reversed(self._events):
            if kind is None or event["kind"] == kind:
                return event
        return None

    def to_jsonl(self) -> str:
        """The ring's current contents as JSON Lines."""
        return "".join(json.dumps(e) + "\n" for e in self._events)

    @staticmethod
    def parse_jsonl(text: str) -> list[dict]:
        """Inverse of :meth:`to_jsonl` (also reads sink files)."""
        return [
            json.loads(line)
            for line in text.splitlines()
            if line.strip()
        ]

    def merge(self, other: Iterable[dict]) -> "EventLog":
        """Fold foreign events in, keeping the ring ordered by time.

        Idempotent: an event already present — same ``(ts_s, seq,
        source)`` identity — is skipped, so merging the same shard's
        log after every ``collect()`` doesn't duplicate its history.
        Newly absorbed events advance :attr:`emitted`, keeping the
        total-emitted counter an honest count of distinct events.
        """

        def identity(event: dict):
            return (
                event.get("ts_s", 0.0),
                event.get("seq", 0),
                event.get("source"),
            )

        seen = {identity(event) for event in self._events}
        fresh = []
        for event in other:
            key = identity(event)
            if key in seen:
                continue
            seen.add(key)
            fresh.append(event)
        self.emitted += len(fresh)
        merged = sorted(
            list(self._events) + fresh,
            key=lambda e: (e.get("ts_s", 0.0), e.get("seq", 0)),
        )
        self._events.clear()
        self._events.extend(merged)
        return self
