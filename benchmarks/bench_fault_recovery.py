"""Fault-recovery overhead: kill-and-respawn vs a fault-free fleet.

Replays the same stream through two identical 2-worker fleets — one
fault-free, one with a scripted mid-replay ``kill`` of shard 0 recovered
by ``recovery="respawn"`` — and writes the comparison to
``BENCH_faults.json`` at the repo root (medians over ``REPEATS`` runs,
plus host metadata).

Reported per run:

- ``wall_s`` for both fleets and the absolute/relative recovery
  overhead — the cost of detecting the death, forking a replacement and
  replaying the shard journal, amortised over the stream;
- a gate, armed on any host: the faulted fleet's merged stats must
  stay bit-identical to the fault-free fleet's (the respawn contract
  that ``tests/test_faults.py`` pins at unit granularity) and the
  median recovery overhead must stay under ``OVERHEAD_BOUND_S``.

The kill lands at batch ``KILL_AT_BATCH`` of shard 0, far enough into
the stream that the journal replay is non-trivial but with plenty of
traffic left after recovery.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from figutil import emit, fmt_table, make_gate, median
from hostinfo import host_metadata

from repro.apps import l2l3_acl
from repro.core import Deployment
from repro.nic.faults import FaultPlan, FaultSpec
from repro.nic.sharding import SupervisorOptions
from repro.nic.targets import BLUEFIELD2
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator

BENCH_JSON = Path(__file__).parent.parent / "BENCH_faults.json"

N_PACKETS = 8000
N_FLOWS = 512
REPEATS = 5
BATCH = 64
KILL_AT_BATCH = 20
#: Detect the death, fork a replacement, replay ~20 journaled batches:
#: 0.03-0.05 s on the 2-CPU host. The bound is an absolute ceiling a
#: stalled detection (one ``recv_timeout_s``) or a journal replayed
#: packet by packet would break, not a tight budget.
OVERHEAD_BOUND_S = 0.25

SUPERVISOR = SupervisorOptions(
    recovery="respawn",
    recv_timeout_s=10.0,
    heartbeat_interval_s=0.01,
    slow_after_s=1.0,
)


def _stream(n: int = N_PACKETS):
    """The stream itself: the fleet ships its flow set as is, with
    nothing to dedupe (a ``Packet`` list is read whole first)."""
    generator = TrafficGenerator(1)
    return generator.stream(synth_flows(N_FLOWS), n, locality="uniform")


def _make_fleet(fault_plan=None) -> Deployment:
    deployment = Deployment(
        l2l3_acl.build_program(),
        BLUEFIELD2,
        jobs=2,
        supervisor=SUPERVISOR,
        fault_plan=fault_plan,
    )
    l2l3_acl.install_base_entries(deployment.control_plane)
    return deployment


def _fingerprint(stats) -> tuple:
    return (
        stats.packets,
        stats.dropped,
        stats.total_latency_ns,
        stats.total_bytes,
        sorted(stats._latencies),
    )


def test_bench_fault_recovery():
    clean_wall, faulted_wall = [], []
    for _ in range(REPEATS):
        # Fresh fleets every repeat: a FaultSpec is one-shot per worker
        # lifetime, and the respawned worker must start cold like its
        # fault-free twin.
        clean = _make_fleet()
        faulted = _make_fleet(
            FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=KILL_AT_BATCH),)
            )
        )
        try:
            stream = _stream()
            wall0 = time.perf_counter()
            reference = clean.replay(stream, batch=BATCH)
            clean_wall.append(time.perf_counter() - wall0)
            stream = _stream()
            wall0 = time.perf_counter()
            recovered = faulted.replay(stream, batch=BATCH)
            faulted_wall.append(time.perf_counter() - wall0)
            # Correctness gate: recovery is exact, not approximate.
            assert faulted.emulator.respawns == [1, 0]
            # Both timed the index ring: every packet rode it.
            totals = clean.emulator.transport_stats()["totals"]
            assert totals["pushed_packets"] == reference.packets, totals
            assert _fingerprint(recovered) == _fingerprint(reference)
        finally:
            clean.close()
            faulted.close()

    clean_s = median(clean_wall)
    faulted_s = median(faulted_wall)
    overhead_s = faulted_s - clean_s
    gate = make_gate(
        True,
        threshold=OVERHEAD_BOUND_S,
        measured=round(overhead_s, 4),
        label="BENCH_faults recovery-overhead gate",
    )
    payload = {
        "host": host_metadata(),
        "app": "l2l3_acl",
        "n_packets": N_PACKETS,
        "n_flows": N_FLOWS,
        "repeats": REPEATS,
        "batch": BATCH,
        "kill_at_batch": KILL_AT_BATCH,
        "clean_wall_s": round(clean_s, 4),
        "faulted_wall_s": round(faulted_s, 4),
        "recovery_overhead_s": round(overhead_s, 4),
        "recovery_overhead_pct": round(100.0 * overhead_s / clean_s, 1),
        "stats_identical": True,
        "gate": gate,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "BENCH_faults",
        fmt_table(
            ["config", "wall_s", "overhead_s", "overhead_pct"],
            [
                ("fault-free", payload["clean_wall_s"], 0.0, 0.0),
                (
                    "kill+respawn",
                    payload["faulted_wall_s"],
                    payload["recovery_overhead_s"],
                    payload["recovery_overhead_pct"],
                ),
            ],
        ),
    )
    assert gate["measured"] < gate["threshold"], payload


if __name__ == "__main__":
    test_bench_fault_recovery()
