"""Tier-1 throughput smoke check (~2 seconds).

A miniature version of ``bench_columnar`` that runs with the regular
test suite: replays one app through both execution tiers and asserts
the columnar kernels are comfortably faster than the interpreter and
still bit-identical on aggregate stats. Catches perf regressions (a
batch tier under 5x means someone broke the kernels, or the run
demoted) without the full benchmark's runtime.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest
from figutil import make_gate
from hostinfo import host_metadata

from repro.apps import l2l3_acl
from repro.core import Deployment
from repro.nic.targets import BLUEFIELD2
from repro.telemetry import Telemetry
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator

pytestmark = pytest.mark.tier1

N_PACKETS = 4000
#: Packets per timed sample of the disabled-telemetry gate (~15 ms
#: through the batch kernels, drawn as columns inside the timed region
#: as ``repro replay`` does) and how many alternating pairs it takes.
#: This host's slow episodes last longer than a sample, so many short
#: pairs beat a few long ones: over 30 trials the median of 41 such
#: pairs spread 0.987-1.008 where 9 pairs of 200 000 spread 0.96-1.05.
N_TELEMETRY_PACKETS = 50_000
N_TELEMETRY_PAIRS = 40
#: The live-telemetry gate holds a 5% bound, which means nothing on a
#: 30 ms replay: its timed stream is sized so the plain two-worker
#: fleet takes about 0.6 s on the 2-CPU reference host.
N_LIVE_PACKETS = 200_000
#: Two workers and the dispatching parent each need a CPU of their own
#: for that gate: on the 2-CPU host two *identical* plain fleets differ
#: by 7-9% after five rounds, more than the bound.
LIVE_GATE_MIN_CPUS = 3


def _packets(n: int = N_PACKETS):
    generator = TrafficGenerator(1)
    flows = synth_flows(64) + synth_flows(16, dport=6666)
    return list(generator.stream(flows, n, locality="zipf"))


def test_columnar_throughput_smoke():
    deployment = Deployment(l2l3_acl.build_program(), BLUEFIELD2)
    l2l3_acl.install_base_entries(deployment.control_plane)
    emulator = deployment.emulator
    # Processing mutates packets (route rewrites), so each engine gets
    # its own same-seed stream, pre-built outside the timed region.
    interp_packets = _packets()
    columnar_packets = _packets()
    emulator.run(_packets()[:200])  # warm-up
    emulator.replay(_packets()[:200])  # compile outside the timed region
    warm = emulator.columnar_packets

    start = time.perf_counter()
    interp = emulator.run(iter(interp_packets))
    interp_s = time.perf_counter() - start

    start = time.perf_counter()
    columnar = emulator.replay(iter(columnar_packets))
    columnar_s = time.perf_counter() - start

    # Same traffic, same state machine: aggregates must agree exactly.
    assert columnar.packets == interp.packets
    assert columnar.dropped == interp.dropped
    assert columnar.total_latency_ns == interp.total_latency_ns
    assert columnar._busy_ns == interp._busy_ns
    # The timed run measured the kernels, not demotion.
    assert emulator.columnar_demotions == {}
    assert emulator.columnar_packets - warm == N_PACKETS

    # Loose margin vs BENCH_columnar.json's ~30x headline to avoid
    # flaking on loaded CI machines.
    speedup = interp_s / columnar_s
    assert speedup >= 5.0, (
        f"columnar tier only {speedup:.2f}x the interpreter "
        f"({N_PACKETS / columnar_s:,.0f} vs "
        f"{N_PACKETS / interp_s:,.0f} pps)"
    )


def test_disabled_telemetry_overhead_smoke():
    """Telemetry wired but off must cost within 3% of no telemetry.

    A Telemetry hub without tracing leaves ``emulator.tracer`` None, so
    the replay loop pays exactly the branch it already paid — this pins
    the subsystem's headline overhead claim. The host's clock drifts by
    more than the bound over a few seconds, so the two are timed as
    back-to-back pairs, who goes first swapped every round, and the
    bound is on the median of the per-pair ratios: drift hits both
    halves of a pair alike, and a slow episode costs one pair.
    """

    def build(telemetry):
        deployment = Deployment(
            l2l3_acl.build_program(), BLUEFIELD2, telemetry=telemetry
        )
        l2l3_acl.install_base_entries(deployment.control_plane)
        return deployment

    deployments = {
        "plain": build(None),
        "telemetered": build(Telemetry()),  # metrics + events, no tracing
    }
    assert deployments["telemetered"].tracer is None
    flows = synth_flows(64) + synth_flows(16, dport=6666)

    def timed(name: str) -> float:
        # Fresh same-seed column stream each time: nothing is drawn
        # before the replay starts consuming it.
        stream = TrafficGenerator(1).stream(
            flows, N_TELEMETRY_PACKETS, locality="zipf"
        )
        start = time.perf_counter()
        deployments[name].emulator.replay(stream, batch=4096)
        return time.perf_counter() - start

    for name in deployments:
        timed(name)  # warm + compile

    ratios = []
    for round_index in range(N_TELEMETRY_PAIRS):
        order = (
            ("plain", "telemetered")
            if round_index % 2
            else ("telemetered", "plain")
        )
        seconds = {name: timed(name) for name in order}
        ratios.append(seconds["telemetered"] / seconds["plain"])

    ratio = statistics.median(ratios)
    assert ratio <= 1.03, (
        f"disabled telemetry costs {100 * (ratio - 1):.1f}% "
        f"(median of {N_TELEMETRY_PAIRS} alternating pairs: "
        f"{', '.join(f'{r:.3f}' for r in ratios)})"
    )


def test_live_telemetry_overhead_smoke():
    """Live telemetry at the default 1s interval must cost within 5%.

    The live plane's steady-state cost is one wall-clock check per
    replay batch in each worker plus an aggregator thread that mostly
    sleeps: at a 1s snapshot interval a ~0.6s replay sends roughly one
    snapshot per shard. Timings are min-of-5, interleaved; the bound
    is looser (5%) than the disabled-telemetry gate's because the
    sharded path adds process scheduling noise the single-core gate
    doesn't see. Below ``LIVE_GATE_MIN_CPUS`` the ratio is measured and
    reported but not asserted (loud skip, as BENCH_sharded's wall gate).
    """
    from repro.telemetry.live import LiveOptions, LivePlane

    def build(live_plane):
        deployment = Deployment(
            l2l3_acl.build_program(),
            BLUEFIELD2,
            jobs=2,
            live_plane=live_plane,
        )
        l2l3_acl.install_base_entries(deployment.control_plane)
        return deployment

    plane = LivePlane(LiveOptions(interval_s=1.0)).start()
    plain = build(None)
    live = build(plane)
    try:
        assert plane.aggregator.emulator is live.emulator
        for deployment in (plain, live):
            deployment.replay(_packets()[:200])  # warm + compile

        best = {"plain": float("inf"), "live": float("inf")}
        for _ in range(5):
            for name, deployment in (("plain", plain), ("live", live)):
                packets = _packets(N_LIVE_PACKETS)
                start = time.perf_counter()
                deployment.replay(iter(packets))
                best[name] = min(
                    best[name], time.perf_counter() - start
                )
    finally:
        plain.close()
        live.close()
        plane.stop()

    ratio = best["live"] / best["plain"]
    affinity = host_metadata()["affinity"]
    gated = affinity >= LIVE_GATE_MIN_CPUS
    gate = make_gate(
        gated,
        threshold=1.05,
        measured=round(ratio, 4),
        reason=(
            None
            if gated
            else (
                f"host affinity {affinity} < {LIVE_GATE_MIN_CPUS} CPUs: "
                "workers and parent time-share cores, two identical "
                "fleets differ by more than the bound"
            )
        ),
        label="live telemetry overhead gate",
    )
    # A skipped gate already announced itself via make_gate.
    if gate["gated"]:
        assert ratio <= 1.05, (
            f"live telemetry costs {100 * (ratio - 1):.1f}% "
            f"({best['live']:.4f}s vs {best['plain']:.4f}s)"
        )


GATE_KEYS = {"gated", "reason", "threshold", "measured"}


def _gate_blocks(node, path=""):
    """Yield every dict carrying a ``gated`` key, with its JSON path."""
    if isinstance(node, dict):
        if "gated" in node:
            yield path or "$", node
        for key, value in node.items():
            yield from _gate_blocks(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _gate_blocks(value, f"{path}[{i}]")


def test_bench_gate_shape():
    """Every gate in every committed BENCH_*.json has the one shape.

    The loud-skip contract (``figutil.make_gate``) only works if
    dashboards can rely on the same four keys everywhere: ``gated``,
    ``reason`` (non-null exactly when skipped), ``threshold``,
    ``measured``. A writer drifting back to ad-hoc keys fails here.
    """
    repo_root = Path(__file__).parent.parent
    bench_files = sorted(repo_root.glob("BENCH_*.json"))
    assert bench_files, "no BENCH_*.json at the repo root"
    gates_seen = 0
    for bench in bench_files:
        payload = json.loads(bench.read_text())
        for path, gate in _gate_blocks(payload):
            gates_seen += 1
            assert set(gate) == GATE_KEYS, (
                f"{bench.name}:{path} gate keys {sorted(gate)} != "
                f"{sorted(GATE_KEYS)}"
            )
            assert isinstance(gate["gated"], bool), f"{bench.name}:{path}"
            if gate["gated"]:
                assert gate["reason"] is None, (
                    f"{bench.name}:{path}: armed gate carries a reason"
                )
            else:
                assert isinstance(gate["reason"], str) and gate["reason"], (
                    f"{bench.name}:{path}: skipped gate must say why"
                )
    # The sharded + columnar benches commit gates today; if they all
    # vanish this test is vacuously green, which would hide a writer
    # silently dropping its gate.
    assert gates_seen >= 2, "expected committed BENCH gates to exist"
