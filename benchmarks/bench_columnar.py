"""Tier comparison: the interpreter vs the columnar batch kernels.

Replays the same pre-generated stream through both execution tiers for
each of the five example applications on a single core, then measures
the columnar tier over the sharded shm transport at 4 workers, and
writes the packets-per-second comparison — medians over ``REPEATS``
runs, plus host metadata — to ``BENCH_columnar.json`` at the repo root
(plus the usual text block under ``benchmarks/results``).

The columnar tier amortises per-packet Python dispatch over whole
batches, so its advantage grows with batch size; the single-core
comparison runs at ``BATCH`` = 4096 where the numpy kernels dominate.
The headline bar is >=``COLUMNAR_FLOOR``x over the interpreter on
``l2l3_acl``. The bar only applies when the measured run retired every
packet columnar — demotions mean the run timed the interpreter, not
the kernels — and the skip is loud: a ``"gated": false`` marker with
the reason lands in the JSON and on stderr instead of a silently
misleading number. The 4-worker shm section is gated the same way as
``BENCH_sharded``: on hosts with < 4 CPUs the workers time-share cores
and wall-clock measures the scheduler, so the number is recorded but
not asserted.

The headline cells are unoptimized programs at ~80 flows. The *matrix*
section covers what the system itself produces: every example app x
{base, ``Pipeleon.optimize``} x {64, 20 000 flows, zipf 1.2}, replayed
through ``engine="auto"`` and ``engine="interp"`` on twin deployments,
each cell with its demotion histogram. Its gate: ``auto`` stays
>=``AUTO_FLOOR``x the interpreter on every cell, so the batch tier
earns its keep on every program Pipeleon emits.

The differential tests (``tests/test_columnar.py``) prove the speedup
changes nothing observable.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from figutil import emit, fmt_table, make_gate, median
from hostinfo import host_metadata

from repro.apps import (
    acl_chain,
    dash_routing,
    l2l3_acl,
    load_balancer,
    nf_composition,
)
from repro.core import Deployment, Pipeleon
from repro.nic.targets import BLUEFIELD2
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator

BENCH_JSON = Path(__file__).parent.parent / "BENCH_columnar.json"

APPS = {
    "l2l3_acl": (l2l3_acl.build_program, l2l3_acl.install_base_entries),
    "acl_chain": (
        acl_chain.build_program,
        acl_chain.install_acl_entries,
    ),
    "dash_routing": (
        dash_routing.build_program,
        dash_routing.install_base_entries,
    ),
    "load_balancer": (
        load_balancer.build_program,
        load_balancer.install_base_entries,
    ),
    "nf_composition": (
        nf_composition.build_program,
        nf_composition.install_base_entries,
    ),
}

N_PACKETS = 20000
REPEATS = 3
#: Large batches are the columnar tier's operating point: per-node
#: kernel overhead is paid once per (batch, partition), so the numpy
#: work has to be wide enough to bury it.
BATCH = 4096
#: Headline bar: columnar over the interpreter on l2l3_acl.
COLUMNAR_FLOOR = 10.0
#: Matrix gate: ``auto`` over the interpreter on the worst cell. Set
#: below half of the worst cell (dash_routing/optimized/20000, 24.5x) of
#: the run that regenerated BENCH_columnar.json, whose value sits
#: beside the floor as the gate's ``measured``.
AUTO_FLOOR = 10.0
MATRIX_FLOWS = (64, 20000)
N_WORKERS = 4
#: CPUs the process must be allowed on before the shm wall bar applies.
WALL_GATE_MIN_CPUS = 4


def _stream(n: int = N_PACKETS):
    generator = TrafficGenerator(1)
    flows = synth_flows(64) + synth_flows(16, dport=6666)
    return generator.stream(flows, n, locality="zipf")


def _packets(n: int = N_PACKETS):
    return list(_stream(n))


def _measure(app: str) -> dict:
    build, install = APPS[app]
    deployment = Deployment(build(), BLUEFIELD2)
    install(deployment.control_plane)
    emulator = deployment.emulator
    emulator.run(_packets(500))  # warm caches + counters
    emulator.columnar  # compile outside the timed region

    tiers = {
        "interp": lambda packets: emulator.run(iter(packets)),
        "columnar": lambda packets: emulator.replay(
            iter(packets), batch=BATCH, engine="auto"
        ),
    }
    samples: dict[str, list[float]] = {tier: [] for tier in tiers}
    demoted_before = sum(emulator.columnar_demotions.values())
    for _ in range(REPEATS):
        for tier, replay in tiers.items():
            # Processing mutates packets (header rewrites), so every
            # tier gets its own same-seed stream, built outside the
            # timed region.
            packets = _packets()
            start = time.perf_counter()
            replay(packets)
            samples[tier].append(time.perf_counter() - start)
    pps = {
        tier: N_PACKETS / median(times)
        for tier, times in samples.items()
    }
    demoted = sum(emulator.columnar_demotions.values()) - demoted_before
    return {
        "interp_pps": round(pps["interp"]),
        "columnar_pps": round(pps["columnar"]),
        "columnar_vs_interp": round(pps["columnar"] / pps["interp"], 2),
        "demoted": demoted,
    }


def _matrix_cell(app: str, optimized: bool, n_flows: int) -> dict:
    """``auto`` vs ``interp`` on twin deployments of one plan."""
    build, install = APPS[app]
    plan = Pipeleon(BLUEFIELD2).optimize(build()) if optimized else None
    flows = synth_flows(n_flows)

    def stream(seed: int):
        return list(
            TrafficGenerator(seed).stream(
                flows, N_PACKETS, locality="zipf", zipf_skew=1.2
            )
        )

    pps = {}
    for engine in ("auto", "interp"):
        deployment = Deployment(build(), BLUEFIELD2, plan=plan, engine=engine)
        install(deployment.control_plane)
        deployment.replay(stream(0), batch=BATCH)  # compile + warm
        times = []
        for repeat in range(REPEATS):
            packets = stream(1 + repeat)
            start = time.perf_counter()
            deployment.replay(packets, batch=BATCH)
            times.append(time.perf_counter() - start)
        pps[engine] = N_PACKETS / median(times)
        if engine == "auto":
            demotions = dict(deployment.emulator.columnar_demotions)
    return {
        "auto_pps": round(pps["auto"]),
        "interp_pps": round(pps["interp"]),
        "auto_vs_interp": round(pps["auto"] / pps["interp"], 2),
        "flow_caches": len(deployment.emulator.flow_caches),
        "demotions": demotions,
    }


def _measure_matrix() -> dict:
    return {
        f"{app}/{'optimized' if optimized else 'base'}/{n_flows}": (
            _matrix_cell(app, optimized, n_flows)
        )
        for app in APPS
        for optimized in (False, True)
        for n_flows in MATRIX_FLOWS
    }


def _measure_shm() -> dict:
    """Columnar over the shm rings at 4 workers: wall-clock pps.

    The fleet is fed the stream itself, so its flow set ships as is
    (a ``Packet`` list would be read whole and deduplicated first);
    the lazy draw is inside the timed region, as it is for any stream
    replay.
    """
    fleet = Deployment(
        l2l3_acl.build_program(),
        BLUEFIELD2,
        jobs=N_WORKERS,
        engine="auto",
    )
    l2l3_acl.install_base_entries(fleet.control_plane)
    try:
        # Warm every worker's kernels; count every packet replayed.
        packets = fleet.replay(_stream(500)).packets
        wall = []
        for _ in range(REPEATS):
            stream = _stream()
            start = time.perf_counter()
            packets += fleet.replay(stream).packets
            wall.append(time.perf_counter() - start)
        totals = fleet.emulator.transport_stats()["totals"]
        return {
            "wall_pps": round(N_PACKETS / median(wall)),
            "columnar_packets": fleet.emulator.columnar_packets,
            "demotions": dict(fleet.emulator.columnar_demotions),
            "packets": packets,
            "pushed_packets": totals["pushed_packets"],
        }
    finally:
        fleet.close()


def test_bench_columnar():
    host = host_metadata()
    results = {app: _measure(app) for app in APPS}
    matrix = _measure_matrix()
    shm = _measure_shm()

    headline = results["l2l3_acl"]
    gated = headline["demoted"] == 0
    gate = make_gate(
        gated,
        threshold=COLUMNAR_FLOOR,
        measured=headline["columnar_vs_interp"],
        reason=(
            None
            if gated
            else (
                f"{headline['demoted']} of the timed packets demoted "
                "to the interpreter: the run measured demotion, not "
                "the kernels"
            )
        ),
        label="BENCH_columnar speedup gate",
    )
    worst_cell = min(matrix, key=lambda c: matrix[c]["auto_vs_interp"])
    matrix_gate = make_gate(
        True,
        threshold=AUTO_FLOOR,
        measured=matrix[worst_cell]["auto_vs_interp"],
        label="BENCH_columnar auto-vs-interp matrix gate",
    )
    shm_gated = host["affinity"] >= WALL_GATE_MIN_CPUS
    # This gate asserts nothing numeric yet (the shm wall number is
    # recorded, not floored); threshold/measured carry the CPU demand
    # so the shape stays uniform across every BENCH_*.json gate.
    shm_gate = make_gate(
        shm_gated,
        threshold=WALL_GATE_MIN_CPUS,
        measured=host["affinity"],
        reason=(
            None
            if shm_gated
            else (
                f"host affinity {host['affinity']} < "
                f"{WALL_GATE_MIN_CPUS} CPUs: workers time-share "
                "cores, wall-clock measures the scheduler, not the "
                "tier"
            )
        ),
        label="BENCH_columnar shm wall gate",
    )

    payload = {
        "host": host,
        "n_packets": N_PACKETS,
        "repeats": REPEATS,
        "batch": BATCH,
        "gate": gate,
        "apps": results,
        "matrix": {
            "engines": ["auto", "interp"],
            "flows": list(MATRIX_FLOWS),
            "zipf_skew": 1.2,
            "worst_cell": worst_cell,
            "gate": matrix_gate,
            "cells": matrix,
        },
        "shm_4_workers": {**shm, "wall_gate": shm_gate},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        (
            app,
            data["interp_pps"],
            data["columnar_pps"],
            data["columnar_vs_interp"],
            data["demoted"],
        )
        for app, data in results.items()
    ]
    rows.append(
        (
            f"l2l3_acl shm x{N_WORKERS}",
            "-",
            shm["wall_pps"],
            "-",
            sum(shm["demotions"].values()),
        )
    )
    emit(
        "BENCH_columnar",
        fmt_table(
            [
                "app",
                "interp_pps",
                "columnar_pps",
                "vs_interp",
                "demoted",
            ],
            rows,
        ),
    )

    emit(
        "BENCH_columnar_matrix",
        fmt_table(
            ["cell", "auto_pps", "interp_pps", "auto/interp", "demotions"],
            [
                (
                    cell,
                    data["auto_pps"],
                    data["interp_pps"],
                    data["auto_vs_interp"],
                    json.dumps(data["demotions"]),
                )
                for cell, data in matrix.items()
            ],
        ),
    )

    # Every packet the shm fleet replayed must have ridden the rings
    # and retired columnar — otherwise the wall number above is
    # measuring something else or the interpreter.
    assert shm["pushed_packets"] == shm["packets"]
    assert shm["demotions"] == {}

    # The batch tier stays well ahead of the interpreter on every app
    # x plan x cardinality cell, and a plan with flow caches does not
    # demote (dash_routing is the cell the end-to-end benchmark's
    # opt_highcard replays).
    assert matrix_gate["measured"] >= matrix_gate["threshold"], (
        f"auto under {AUTO_FLOOR}x the interpreter on {worst_cell}: "
        f"{matrix[worst_cell]}"
    )
    for n_flows in MATRIX_FLOWS:
        cell = matrix[f"dash_routing/optimized/{n_flows}"]
        assert cell["flow_caches"] and cell["demotions"] == {}, cell

    # Headline acceptance bar, loud-skipped when the run demoted
    # (make_gate already announced the skip).
    if gate["gated"]:
        assert gate["measured"] >= gate["threshold"], (
            f"columnar vs interpreter {gate['measured']} below "
            f"{gate['threshold']}x on l2l3_acl"
        )


if __name__ == "__main__":
    test_bench_columnar()
