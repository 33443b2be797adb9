#!/usr/bin/env python3
"""End-to-end benchmark: traffic source to merged summary, and replans.

One run of one workload, as ``BENCHMARK.json`` at the repository root
declares it::

    python3 benchmarks/e2e/run.py --workload base_lowcard --seed 1 \\
        --seconds 12 --trace 0

sets the system up, checks its output on a verification stream against
the reference interpreter, runs cycles of the workload for ``--seconds``,
then times a few set-ups in fresh interpreters, and prints every
end-to-end metric by name; every duration is as the wall clock read it.
``--trace 1`` instead runs a fixed number of cycles with spans around
each layer, prints the per-layer metrics and writes the spans to
``results/trace-<workload>.json``. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Without ``--trace`` it runs every workload (or just ``--workload``)
``RUNS`` times, each run in a fresh process with the next seed, plus one
traced run, and writes all values to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
# The program under test is the checkout this file sits in.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import Trace  # noqa: E402
from workloads import BATCH, WORKLOADS, stop_child_processes  # noqa: E402

#: Seeds per workload in a full run: what the acceptance procedure takes
#: its quartiles over.
RUNS = 10
#: Set-ups timed per run with tracing off, each in a fresh interpreter;
#: `setup_s` is their median.
SETUP_REPEATS = 3
#: Fewest timed cycles, should the program become much slower.
MIN_CYCLES = 5


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def cold_set_up(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload in
    it is set up and warmed: what a user waits before the first packet
    of a `repro replay` or the first job of a `repro serve`."""
    command = [sys.executable, str(HERE / "cold_setup.py"), name, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        ready_s = time.perf_counter() - start
        # The child tears its system down after the line; not timed.
        child.stdout.read()
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"cold set-up of {name} failed: {ready!r}")
    return ready_s


def timed_run(workload, seconds: float) -> tuple[list, dict, list[str]]:
    """Cycles for ``seconds`` with tracing off: the end-to-end metrics."""
    cycles = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(cycles) < MIN_CYCLES:
        cycles.append(workload.cycle())
    replay_pps = quartiles([c.accounted / c.replay_s for c in cycles])
    replans = [ms for c in cycles for ms in c.replan_ms]
    _, replan_p50, replan_p75 = quartiles(replans)
    metrics = {
        "replay_pps": replay_pps[1],
        "replan_ms_p50": replan_p50,
        "replan_ms_p75": replan_p75,
    }
    notes = [
        f"replay_pps: median of {len(cycles)} cycles, quartiles "
        f"{replay_pps[0]:.0f} .. {replay_pps[2]:.0f}",
        f"replan_ms_*: {len(replans)} replans",
    ]
    return cycles, metrics, notes


def traced_run(workload, trace: Trace, n_cycles: int) -> tuple[list, dict]:
    """A fixed number of traced cycles, then as many untraced ones.

    Reports a metric for every layer the workload enters and raises if
    such a layer left no span; the layers it names in ``unused`` are
    left for ``run_workload`` to report as 0.
    """
    before = workload.counts()
    since = len(trace.spans)
    cycles = []
    start = time.perf_counter()
    for index in range(n_cycles):
        trace.cycle = index
        cycles.append(workload.cycle())
    traced_s = time.perf_counter() - start
    trace.cycle = None
    after = workload.counts()
    gauges = workload.gauges()
    with trace.paused():
        start = time.perf_counter()
        reference = [workload.cycle() for _ in range(n_cycles)]
        untraced_s = time.perf_counter() - start

    grown = {key: after[key] - before.get(key, 0) for key in after}
    packets = sum(cycle.offered for cycle in cycles)

    def used(layer: str) -> bool:
        return not f"{layer}.".startswith(workload.unused)

    def durations(name: str, first: int = since) -> list[float]:
        found = trace.durations_s(name, first)
        if not found:
            raise RuntimeError(f"no {name} span was recorded")
        return found

    # Counters under a module's name are metrics as they stand; the
    # rest (`flow_cache.*`, `kernel.node_s.*`) feed the ratios below.
    metrics = {
        key: value
        for key, value in {**grown, **gauges}.items()
        if key.startswith(("nic.", "core.", "telemetry."))
    }
    for name in (
        "traffic.generator",
        "nic.columnar.encode",
        "nic.emulator.replay_batch",
        "nic.sharding.replay",
        "service.session.run_replay",
        "traffic.scenarios.stream",
        "nic.control_plane.action",
    ):
        if used(name):
            metrics[f"{name}.wall_s"] = sum(durations(name))
    for name in (
        "traffic.generator",
        "nic.columnar.encode",
        "nic.emulator.replay_batch",
    ):
        if used(name):
            metrics[f"{name}.ns_per_packet"] = (
                metrics[f"{name}.wall_s"] / packets * 1e9
            )
    if used("traffic.generator"):
        metrics["traffic.generator.packets"] = packets

    # Columnar tier: kernels are timed by the engine itself, per node;
    # what is left of replay_batch is walk bookkeeping, commit and the
    # closure-tier replay of demoted packets.
    if used("nic.columnar.kernel"):
        node_s = [
            seconds
            for key, seconds in grown.items()
            if key.startswith("kernel.node_s.")
        ]
        kernel_s = sum(node_s)
        metrics["nic.columnar.kernel.wall_s"] = kernel_s
        metrics["nic.columnar.kernel.max_node_share"] = max(node_s) / kernel_s
        metrics["nic.columnar.engine_self.wall_s"] = (
            metrics["nic.emulator.replay_batch.wall_s"] - kernel_s
        )
    demoted = sum(
        value
        for key, value in grown.items()
        if key.startswith("nic.columnar.demoted.")
    )
    metrics["nic.columnar.demoted_share"] = demoted / (
        grown["nic.columnar.packets"] + demoted
    )
    batches = grown.get("nic.shm_transport.pushed_batches") or (
        packets // BATCH
    )
    metrics["nic.columnar.partitions_per_batch"] = (
        grown["nic.columnar.partitions"] / batches
    )
    # Unoptimized programs deploy no cache, so nothing is looked up.
    metrics["nic.flow_cache.hit_rate"] = (
        grown["flow_cache.hits"] / grown["flow_cache.lookups"]
        if grown["flow_cache.lookups"]
        else 0.0
    )

    # Fleet driven directly: the busiest worker is the floor of a
    # replay's wall time; the rest is the parent's serial work.
    if used("nic.sharding.replay"):
        busy = [cycle.worker_busy_s for cycle in cycles]
        replay_s = metrics["nic.sharding.replay.wall_s"]
        busy_max = sum(max(workers) for workers in busy)
        busy_sum = sum(sum(workers) for workers in busy)
        metrics["nic.sharding.worker_busy_max_s"] = busy_max
        metrics["nic.sharding.worker_busy_sum_s"] = busy_sum
        metrics["nic.sharding.parent_overhead_s"] = replay_s - busy_max
        metrics["nic.sharding.parent_overhead_share"] = (
            (replay_s - busy_max) / replay_s
        )
        metrics["nic.sharding.busy_imbalance"] = (
            busy_max * len(busy[0]) / busy_sum
        )

    # Replans, and what a serve session does around its replays.
    for name in ("core.profiling.collect", "core.search.optimize"):
        metrics[f"{name}.ms_p50"] = median_ms(durations(name))
    if used("service.session"):
        metrics["service.session.tick_self.wall_s"] = sum(
            trace.self_durations_s("service.session.run_replay", since)
        )
        metrics["service.session.run_optimize.ms_p50"] = median_ms(
            durations("service.session.run_optimize")
        )
        metrics["core.controller.redeploy_self.ms_p50"] = median_ms(
            trace.self_durations_s("service.session.run_optimize", since)
        )

    # Set-up spans, recorded before the traced cycles.
    for name in (
        "core.pipeleon.optimize",
        "core.deployment.build",
        "nic.control_plane.install",
        "nic.columnar.compile",
        "service.session.start",
        "nic.sharding.fork",
    ):
        if used(name):
            metrics[f"{name}.wall_s"] = sum(durations(name, 0))

    metrics["trace.coverage_share"] = trace.top_level_s(since) / traced_s
    reference_packets = sum(cycle.offered for cycle in reference)
    metrics["trace.overhead_share"] = (
        (traced_s / packets) / (untraced_s / reference_packets) - 1.0
    )
    return cycles + reference, metrics


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    """Set up, verify, measure; the result object of one run."""
    spec = declared()
    trace = Trace(traced)
    workload = WORKLOADS[name](trace)
    try:
        workload.set_up(seed)
        verdict = workload.verify(seed)
        with trace.paused():
            workload.warm_up()
        if traced:
            # Fixed work, so that counts repeat exactly at one seed.
            n_cycles = max(2, round(seconds * workload.cycles_per_s / 2))
            cycles, metrics = traced_run(workload, trace, n_cycles)
            payload = verdict.payload
            metrics["nic.model.mean_latency_ns"] = payload["mean_latency_ns"]
            metrics["nic.model.p99_latency_ns"] = payload["p99_latency_ns"]
            metrics["nic.model.throughput_gbps"] = payload["throughput_gbps"]
            trace.write(RESULTS / f"trace-{name}.json", name, seed)
            notes = [f"{len(trace.spans)} spans"]
            units = spec["per_layer"]
        else:
            cycles, metrics, notes = timed_run(workload, seconds)
            units = spec["end_to_end"]
    finally:
        try:
            workload.close()
        finally:
            stop_child_processes()
    if not traced:
        # Read once the fleet's workers have been waited for, and before
        # the set-up children below become the largest child.
        metrics["peak_rss_mb"] = peak_rss_mb()
        setup_s = [cold_set_up(name, seed) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = statistics.median(setup_s)
        notes.append(f"setup_s: median of {sorted(setup_s)}")

    declared_names = {metric["name"] for metric in units}
    if set(metrics) - declared_names:
        raise RuntimeError(
            f"not declared in BENCHMARK.json: {set(metrics) - declared_names}"
        )
    for missing in declared_names - set(metrics):
        if traced and missing.startswith(workload.unused):
            metrics[missing] = 0.0
        else:
            raise RuntimeError(f"{name} gave no value for {missing}")
    attempted = verdict.offered + sum(cycle.offered for cycle in cycles)
    failed = sum(cycle.offered - cycle.accounted for cycle in cycles)
    if verdict.problems:
        # Output that differs from the interpreter's discredits every
        # packet this configuration replayed.
        failed = attempted
    print(f"workload {name} seed {seed} trace {int(traced)}")
    for problem in verdict.problems:
        print(f"  WRONG OUTPUT {problem}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for metric in units:
        value = float(metrics[metric["name"]])
        result["metrics"][metric["name"]] = {
            "value": value,
            "unit": metric["unit"],
        }
        print(f"  {metric['name']} {value:.6g} {metric['unit']}")
    return result


# ---------------------------------------------------------------------------
# Every workload, several seeds, one file
# ---------------------------------------------------------------------------


def run_all(names: list[str], seed: int, seconds: int, out: Path) -> int:
    from repro.dse.hostinfo import host_metadata

    def child(name: str, run_seed: int, traced: int) -> dict:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(run_seed),
            "--seconds", str(seconds),
            "--trace", str(traced),
        ]  # fmt: skip
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=900
        )
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{name}: no result (exit {done.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        return json.loads(lines[-1])

    document = {
        "host": host_metadata(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    correct = True
    for name in names:
        results = [child(name, seed + i, 0) for i in range(RUNS)]
        traced = child(name, seed, 1)
        results.append(traced)
        correct = correct and all(r["correct"] for r in results)
        document["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                metric: [r["metrics"][metric]["value"] for r in results[:-1]]
                for metric in results[0]["metrics"]
            },
            "per_layer": {
                metric: entry["value"]
                for metric, entry in traced["metrics"].items()
            },
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = declared()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="one run of --workload in this process; without it, "
        f"{RUNS} seeds of each workload (or of --workload) to --out",
    )
    parser.add_argument("--out", type=Path, default=RESULTS / "run.json")
    args = parser.parse_args(argv)
    if args.trace is None:
        chosen = [args.workload] if args.workload else names
        return run_all(chosen, args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
