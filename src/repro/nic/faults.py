"""Deterministic fault injection for the sharded replay runtime.

The supervisor in :mod:`repro.nic.sharding` recovers from workers that
die or stop responding; this module manufactures those failures on
demand so the recovery paths are *testable* — in unit tests, in the CI
fault matrix, and from the CLI (``--inject-fault``).

Design constraints:

* **Deterministic.** A fault fires at a packet- or batch-indexed
  trigger point inside the worker, never off a wall-clock timer. Two
  runs with the same traffic, the same specs and the same seed inject
  at exactly the same point in the stream, so recovery tests can assert
  bit-identical merged stats against a fault-free twin.
* **Worker-side.** The parent ships each worker its shard's
  :class:`FaultSpec` list at fork time; the worker arms a
  :class:`FaultInjector` and consults it before every batch. The
  parent-side supervisor is never told where the faults are — it has to
  *detect* them, exactly as it would a real failure.
* **One-shot.** Every spec fires at most once. Respawned workers are
  armed with nothing: a fault models one failure event, not a crash
  loop (crash-loop behaviour is covered by the supervisor's respawn
  budget instead).

Fault kinds:

``kill``
    ``os._exit(137)`` before replaying the trigger batch — the hard
    death of a SIGKILL, no cleanup, pipe closes mid-protocol.
``hang``
    Sleep forever (interruptible by the supervisor's SIGTERM): the
    worker is alive but never replies, the classic stuck-process case.
``delay``
    Sleep ``delay_s`` once, then continue normally — exercises the
    ``slow`` classification without tripping escalation.
``drop_reply``
    Swallow the worker's next reply-bearing send (``done``/``state``/
    ``caches``): the worker keeps running but the parent's recv starves,
    which must classify as *hung* and escalate.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "parse_fault",
]

FAULT_KINDS = ("kill", "hang", "delay", "drop_reply")

#: Auto-placed triggers land on a packet index in
#: ``[0, AUTO_PACKET_SPAN)``: by packet, so where one lands does not
#: depend on the dispatch batch.
AUTO_PACKET_SPAN = 2048


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure: what, where, and when.

    Exactly one of ``at_batch``/``at_packet`` positions the trigger;
    with neither set, :class:`FaultPlan` derives a packet index from its
    seed (deterministically). ``at_batch`` counts the batches a worker
    has received over its lifetime; ``at_packet`` counts packets. A
    trigger fires on the first batch at or past its position, so a spec
    aimed beyond the end of a short replay fires on a later replay
    rather than silently never.
    """

    kind: str
    shard: int = 0
    at_batch: Optional[int] = None
    at_packet: Optional[int] = None
    delay_s: float = 0.25

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"Unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.shard < 0:
            raise ValueError("Fault shard must be >= 0")
        if self.at_batch is not None and self.at_packet is not None:
            raise ValueError(
                "Position a fault with at_batch or at_packet, not both"
            )
        if self.at_batch is not None and self.at_batch < 0:
            raise ValueError("at_batch must be >= 0")
        if self.at_packet is not None and self.at_packet < 0:
            raise ValueError("at_packet must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def describe(self) -> str:
        if self.at_batch is not None:
            where = f"batch={self.at_batch}"
        elif self.at_packet is not None:
            where = f"packet={self.at_packet}"
        else:
            where = "auto"
        return f"{self.kind}:shard={self.shard},{where}"


def parse_fault(spec: str) -> FaultSpec:
    """Parse a CLI fault spec: ``kind:key=value,...``.

    Examples: ``kill:shard=0,batch=3`` — SIGKILL-style death of shard
    0's worker before its fourth batch; ``hang:shard=1,packet=500``;
    ``delay:shard=0,batch=1,seconds=0.5``; ``kill`` alone leaves the
    trigger to the seeded auto-placement.
    """
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip()
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"Unknown fault kind {kind!r} in {spec!r}; "
            f"expected one of {', '.join(FAULT_KINDS)}"
        )
    kwargs: dict = {}
    if rest.strip():
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not value:
                raise ValueError(
                    f"Malformed fault parameter {part!r} in {spec!r}; "
                    "expected key=value"
                )
            if key == "shard":
                kwargs["shard"] = int(value)
            elif key == "batch":
                kwargs["at_batch"] = int(value)
            elif key == "packet":
                kwargs["at_packet"] = int(value)
            elif key in ("seconds", "delay"):
                kwargs["delay_s"] = float(value)
            else:
                raise ValueError(
                    f"Unknown fault parameter {key!r} in {spec!r}; "
                    "expected shard=, batch=, packet= or seconds="
                )
    return FaultSpec(kind, **kwargs)


class FaultPlan:
    """A resolved, seeded set of fault specs for one sharded run.

    Construction resolves every spec with no explicit trigger to a
    concrete ``at_packet`` drawn from ``random.Random`` seeded with a
    *string* key (string seeding hashes with SHA-512, so placement is
    identical across processes and ``PYTHONHASHSEED`` values). The
    resolved plan is therefore a pure function of ``(specs, seed)``.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.seed = seed
        self.specs: tuple[FaultSpec, ...] = tuple(
            self._resolve(spec, index)
            for index, spec in enumerate(specs)
        )

    @classmethod
    def from_args(
        cls, specs: Sequence[str], seed: int = 0
    ) -> "FaultPlan":
        """Build a plan from ``--inject-fault`` argument strings."""
        return cls(tuple(parse_fault(s) for s in specs), seed=seed)

    def _resolve(self, spec: FaultSpec, index: int) -> FaultSpec:
        if spec.at_batch is not None or spec.at_packet is not None:
            return spec
        rng = random.Random(
            f"fault:{self.seed}:{index}:{spec.shard}:{spec.kind}"
        )
        return FaultSpec(
            spec.kind,
            shard=spec.shard,
            at_packet=rng.randrange(AUTO_PACKET_SPAN),
            delay_s=spec.delay_s,
        )

    def for_shard(self, shard: int) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.shard == shard)

    def max_shard(self) -> int:
        return max((s.shard for s in self.specs), default=-1)

    def describe(self) -> list[str]:
        return [spec.describe() for spec in self.specs]

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)


class FaultInjector:
    """Worker-side trigger engine: counts batches, fires one-shot faults.

    Lives inside the worker process. ``before_batch`` is called with
    the size of each incoming batch *before* it is replayed;
    ``should_reply`` gates every reply-bearing send. Counting is over
    the worker's lifetime (across ``begin``/``end`` replay boundaries),
    matching the spec semantics documented on :class:`FaultSpec`.
    """

    def __init__(self, specs: Sequence[FaultSpec]):
        self._pending = list(specs)
        self.batches = 0
        self.packets = 0
        self._suppress_replies = 0

    def before_batch(self, n_packets: int) -> None:
        batch_index = self.batches
        self.batches += 1
        fired = [
            spec
            for spec in self._pending
            if (
                batch_index >= spec.at_batch
                if spec.at_batch is not None
                else self.packets + n_packets > spec.at_packet
            )
        ]
        self.packets += n_packets
        for spec in fired:
            self._pending.remove(spec)
            self._fire(spec)

    def should_reply(self) -> bool:
        """False exactly once per armed ``drop_reply`` that has fired."""
        if self._suppress_replies > 0:
            self._suppress_replies -= 1
            return False
        return True

    def _fire(self, spec: FaultSpec) -> None:
        if spec.kind == "kill":
            # The hard-death path: no cleanup, no unwinding, exit code
            # 137 like a SIGKILL'd process.
            os._exit(137)
        elif spec.kind == "hang":
            # Alive but unresponsive. time.sleep is interruptible, so
            # the supervisor's SIGTERM escalation still works.
            while True:  # pragma: no branch - exits via signal only
                time.sleep(3600.0)
        elif spec.kind == "delay":
            time.sleep(spec.delay_s)
        else:  # drop_reply
            self._suppress_replies += 1
