"""Sharded replay throughput: one core vs N shard workers.

Replays the traffic generator's column source — what ``repro replay``
feeds a deployment — through a single-core ``Deployment`` and a
``Deployment(jobs=N)`` at 2 and 4 workers on ``l2l3_acl``, and writes
the comparison to ``BENCH_sharded.json`` at the repo root (medians over
``REPEATS`` samples, plus host metadata including the CPU affinity mask
size and the git sha).

Per worker count the headline is **wall clock**: ``wall_pps`` and
``speedup_wall``, the fleet's packets/s from traffic source to merged
stats against one core's, in this container. One sample is ``ROUNDS``
back-to-back ``replay()`` calls of ``N_PACKETS`` each — long enough
(>= 2 s on one core at ~3 M packets/s) that it measures replay rather
than start-up, in calls small enough that the per-packet latency list
``RunStats`` keeps stays under ~50 MB.

Beside it, the fleet's two serial terms, **measured** in the timed
replays: ``parent_ns_per_packet`` (the parent's route + dispatch wall
time, ``ShardedEmulator.parent_dispatch_ns``, stalls on a full ring
apart) and ``worker_ns_per_packet`` (the busiest shard's
``time.process_time()`` over its packets), and
``predicted_speedup = T1 / max(parent, worker)`` with ``T1`` one
core's wall ns/packet: what the fleet would reach if neither term
waited on the other or on a shared CPU.

The ``modeled`` block is a *model*, never a throughput, and not part
of the headline: ``pps`` is ``N_PACKETS / max(worker_busy_s)`` with
each worker's own ``time.process_time()`` taken from a replay of only
its shard's flows (flow->shard is deterministic and per-flow state is
shard-local, so the worker does the work of the mixed run without the
other workers time-sharing its core).

Gating: the **wall-clock** bar (>= ``WALL_SPEEDUP_FLOOR``x over one
core at 4 workers) only applies when the process may run on >= 4 CPUs
— on smaller hosts the workers time-share cores and wall clock
measures the scheduler — and the skip is loud: a ``"gated": false``
marker (with the reason) lands in ``BENCH_sharded.json`` and on stderr
instead of a silently misleading number. The modeled bars (>= 2.5x
at 4 workers, > 1x at 2) always apply: they check that a worker's own
work shrinks with its shard, and say nothing about wall clock.

Each repeat measures the single-core engine and the fleet back to back
and a speedup is the median of per-repeat ratios, which cancels
background load drift between measurement windows.

Differential tests (``tests/test_nic_sharding.py``,
``tests/test_shm_transport.py``) prove the sharded engine changes
nothing observable.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from figutil import emit, fmt_table, make_gate, median
from hostinfo import host_metadata

from repro.apps import l2l3_acl
from repro.core import Deployment
from repro.nic.sharding import flow_shard
from repro.nic.targets import BLUEFIELD2
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator

BENCH_JSON = Path(__file__).parent.parent / "BENCH_sharded.json"

N_PACKETS = 1_000_000
ROUNDS = 8
BATCH = 4096
REPEATS = 5
WORKER_COUNTS = (2, 4)
# Uniform locality over 1024 flows: flow-hash sharding balances at
# flow granularity, so the flow count sets the imbalance floor (the
# biggest of 4 shards stays near 26% of the traffic).
FLOWS = synth_flows(1024)
#: Wall-clock acceptance bar at 4 workers, on capable hosts.
WALL_SPEEDUP_FLOOR = 1.5
#: CPUs the process must be allowed to run on before wall gating.
WALL_GATE_MIN_CPUS = 4


def _replay(deployment, generator, n=N_PACKETS, flows=FLOWS) -> int:
    """Replay ``n`` packets of ``flows``; returns the packets replayed."""
    return deployment.replay(
        generator.stream(flows, n, locality="uniform"), batch=BATCH
    ).packets


def _timed(deployment, generator) -> tuple[float, float]:
    """Wall and CPU seconds of one sample (``ROUNDS`` replays)."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for _ in range(ROUNDS):
        _replay(deployment, generator)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _fleet_sample(fleet, generator) -> tuple[float, float, float]:
    """Wall seconds of one fleet sample, with the parent's and the
    busiest worker's measured ns/packet over its replays."""
    wall0 = time.perf_counter()
    parent_ns = worker_ns = 0.0
    for _ in range(ROUNDS):
        _replay(fleet, generator)
        engine = fleet.emulator
        parent_ns += engine.parent_dispatch_ns
        busy = engine.worker_busy_s
        busiest = max(range(len(busy)), key=busy.__getitem__)
        worker_ns += 1e9 * busy[busiest] / engine.worker_packets[busiest]
    wall = time.perf_counter() - wall0
    return wall, parent_ns / (ROUNDS * N_PACKETS), worker_ns / ROUNDS


def _isolated_max_busy(
    fleet, n_workers: int, generator
) -> tuple[float, int]:
    """Critical-path worker CPU seconds for ``N_PACKETS``, each shard's
    flows replayed on their own (see the module docstring), and the
    packets replayed."""
    busiest = 0.0
    packets = 0
    for shard in range(n_workers):
        own = [
            flow
            for flow in FLOWS
            if flow_shard(flow.flow_key(), n_workers) == shard
        ]
        share = round(N_PACKETS * len(own) / len(FLOWS))
        packets += _replay(fleet, generator, share, own)
        busiest = max(busiest, fleet.emulator.worker_busy_s[shard])
    return busiest, packets


def test_bench_sharded_throughput():
    host = host_metadata()
    generator = TrafficGenerator(1)
    single = Deployment(l2l3_acl.build_program(), BLUEFIELD2)
    l2l3_acl.install_base_entries(single.control_plane)
    _replay(single, generator, 2 * BATCH)  # compile the kernels
    single_wall, single_cpu = [], []
    sharded_results: dict[str, dict] = {}
    # One fleet alive at a time: a fleet's idle workers still wake to
    # poll, and on a time-shared host idle pollers perturb the very
    # worker being measured.
    for n in WORKER_COUNTS:
        fleet = Deployment(
            l2l3_acl.build_program(),
            BLUEFIELD2,
            jobs=n,
            batch=BATCH,
        )
        l2l3_acl.install_base_entries(fleet.control_plane)
        wall, busy, wall_ratio, modeled_ratio = [], [], [], []
        parent_ns, worker_ns, predicted = [], [], []
        try:
            # Compile, per worker. ``packets`` counts what the fleet
            # replayed, to check that every packet rode the ring.
            packets = _replay(fleet, generator, 2 * n * BATCH)
            for _ in range(REPEATS):
                one_wall_s, one_cpu_s = _timed(single, generator)
                single_wall.append(one_wall_s)
                single_cpu.append(one_cpu_s)
                wall_s, parent, worker = _fleet_sample(fleet, generator)
                packets += ROUNDS * N_PACKETS
                busy_s, isolated = _isolated_max_busy(fleet, n, generator)
                packets += isolated
                wall.append(wall_s)
                busy.append(busy_s)
                parent_ns.append(parent)
                worker_ns.append(worker)
                one_ns = 1e9 * one_wall_s / (ROUNDS * N_PACKETS)
                predicted.append(one_ns / max(parent, worker))
                wall_ratio.append(one_wall_s / wall_s)
                modeled_ratio.append(one_cpu_s / ROUNDS / busy_s)
            totals = fleet.emulator.transport_stats()["totals"]
        finally:
            fleet.close()
        wall_pps = ROUNDS * N_PACKETS / median(wall)
        modeled_pps = N_PACKETS / median(busy)
        sharded_results[str(n)] = {
            "wall_pps": round(wall_pps),
            "speedup_wall": round(median(wall_ratio), 2),
            "predicted_speedup": round(median(predicted), 2),
            "parent_ns_per_packet": round(median(parent_ns), 1),
            "worker_ns_per_packet": round(median(worker_ns), 1),
            "ring_stalls": totals["stalls"],
            "packets": packets,
            "pushed_packets": totals["pushed_packets"],
            "ring_bytes_per_packet": round(
                totals["pushed_bytes"] / totals["pushed_packets"], 2
            ),
            "modeled": {
                "pps": round(modeled_pps),
                "max_worker_busy_s": round(median(busy), 4),
                "speedup": round(median(modeled_ratio), 2),
                "vs_wall_gap": round(modeled_pps / wall_pps, 2),
            },
        }
    single.close()

    sample_packets = ROUNDS * N_PACKETS
    single_result = {
        "wall_pps": round(sample_packets / median(single_wall)),
        "cpu_pps": round(sample_packets / median(single_cpu)),
        "sample_wall_s": round(median(single_wall), 2),
    }
    wall_gated = host["affinity"] >= WALL_GATE_MIN_CPUS
    wall_gate = make_gate(
        wall_gated,
        threshold=WALL_SPEEDUP_FLOOR,
        measured=sharded_results["4"]["speedup_wall"],
        reason=(
            None
            if wall_gated
            else (
                f"host affinity {host['affinity']} < "
                f"{WALL_GATE_MIN_CPUS} CPUs: workers time-share "
                "cores, wall-clock measures the scheduler"
            )
        ),
        label="BENCH_sharded wall-clock gate",
    )
    payload = {
        "host": host,
        "app": "l2l3_acl",
        "n_flows": len(FLOWS),
        "batch": BATCH,
        "packets_per_sample": sample_packets,
        "repeats": REPEATS,
        "wall_gate": wall_gate,
        "single_core": single_result,
        "sharded": sharded_results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    single_ns = 1e9 / single_result["wall_pps"]
    rows = [
        ("1 (single)", single_result["wall_pps"], 1.0, "-", "-", "-")
    ]
    rows += [
        (
            f"{n} workers",
            result["wall_pps"],
            result["speedup_wall"],
            result["parent_ns_per_packet"],
            result["worker_ns_per_packet"],
            result["predicted_speedup"],
        )
        for n, result in sharded_results.items()
    ]
    emit(
        "BENCH_sharded",
        fmt_table(
            [
                "config",
                "wall_pps",
                "wall_speedup",
                "parent_ns/pkt",
                "worker_ns/pkt",
                f"predicted (T1 {single_ns:.0f} ns)",
            ],
            rows,
        ),
    )

    # A sample must outlast start-up effects, and every batch of this
    # stream must ride the ring as one int64 index per packet.
    assert single_result["sample_wall_s"] >= 2.0, "raise ROUNDS"
    for result in sharded_results.values():
        assert result["pushed_packets"] == result["packets"]
        assert result["ring_bytes_per_packet"] == 8.0
    assert sharded_results["4"]["modeled"]["speedup"] >= 2.5
    assert sharded_results["2"]["modeled"]["speedup"] > 1.0

    # Wall-clock bar: 4 workers must beat single-core wall time by
    # WALL_SPEEDUP_FLOOR on hosts with enough CPUs. Loud skip
    # otherwise — the JSON carries "gated": false with the reason.
    if wall_gate["gated"]:
        assert wall_gate["measured"] >= wall_gate["threshold"], (
            f"fleet wall-clock speedup {wall_gate['measured']} below "
            f"{wall_gate['threshold']}x at 4 workers"
        )
    # Skipped gates already announced themselves via make_gate.


if __name__ == "__main__":
    test_bench_sharded_throughput()
