"""Command-line interface: Pipeleon as a standalone tool.

Mirrors how the paper's prototype slots into a vendor toolchain: the
compiler's intermediate ``.json`` goes in, an optimized ``.json`` comes
out, optionally guided by a persisted runtime profile.

Subcommands:

* ``optimize``  — plan + apply; writes the optimized program JSON.
* ``inspect``   — print a program's layout, pipelets, and cost estimate.
* ``calibrate`` — run the §3.1 calibration suite against a target model
  and print the fitted constants.
* ``placement`` — hierarchical-memory placement (§6 extension).
* ``replay``    — drive generated traffic through the emulator's
  batch replay (``--jobs N`` shards it across N worker
  processes) and print a JSON throughput/latency summary. Telemetry
  surface: ``--trace`` (sampled packet tracing), ``--metrics-out``
  (Prometheus text), ``--events-out`` (JSONL event log),
  ``--profile-out`` (persist the merged runtime profile for
  ``optimize --profile``).
* ``report``    — run a traced replay and print the per-pipelet
  measured-vs-predicted latency table (cost-model validation).

Usage: ``python -m repro.cli <subcommand> ...``
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core import (
    CostModel,
    Pipeleon,
    ResourceBudget,
    TierBudget,
    partition,
    profile_from_json,
    uniform_profile,
)
from repro.core.calibration import calibrate
from repro.core.search import SearchOptions
from repro.ir import dumps_program, loads_program
from repro.nic.emulator import DEFAULT_BATCH, ENGINES
from repro.nic.targets import get_target


def _load_program(path: str):
    """Load either this project's format or raw p4c/BMv2 JSON."""
    from repro.ir.bmv2 import from_bmv2_json, looks_like_bmv2

    with open(path) as handle:
        data = json.load(handle)
    if looks_like_bmv2(data):
        return from_bmv2_json(data)
    from repro.ir import program_from_json

    return program_from_json(data)


def _load_profile(path: Optional[str], program):
    if path is None:
        return uniform_profile(program)
    with open(path) as handle:
        return profile_from_json(json.load(handle))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target",
        default="bluefield2",
        help="target model: bluefield2 | agilio_cx | emulated_nic",
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="runtime profile JSON (default: uniform profile)",
    )


def _add_traffic(parser: argparse.ArgumentParser) -> None:
    """The program and generated traffic of ``replay`` and ``report``."""
    parser.add_argument(
        "--app",
        default=None,
        help="example app name (see repro.apps.EXAMPLE_APPS)",
    )
    parser.add_argument(
        "--program",
        default=None,
        help="program JSON path (alternative to --app)",
    )
    parser.add_argument("--packets", type=int, default=20000)
    parser.add_argument("--flows", type=int, default=256)
    parser.add_argument(
        "--locality",
        default="uniform",
        help="uniform | zipf | round_robin",
    )
    parser.add_argument("--seed", type=int, default=0)


def cmd_optimize(args: argparse.Namespace) -> int:
    program = _load_program(args.input)
    profile = _load_profile(args.profile, program)
    target = get_target(args.target)
    budget = ResourceBudget(
        memory_bytes=args.memory_budget,
        update_pps=args.update_budget,
    )
    pipeleon = Pipeleon(
        target, budget=budget, search=SearchOptions(k=args.k)
    )
    plan = pipeleon.optimize(program, profile)
    optimized = pipeleon.apply(program, plan).program
    output = dumps_program(optimized)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
    else:
        print(output)
    print(plan.describe(), file=sys.stderr)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    program = _load_program(args.input)
    profile = _load_profile(args.profile, program)
    target = get_target(args.target)
    model = CostModel.for_target(target)
    print(program.summary())
    pipelets = partition(program)
    print(f"\npipelets ({len(pipelets)}):")
    for pipelet in pipelets:
        marker = " [switch-case]" if pipelet.is_switch_case else ""
        print(
            f"  {pipelet.pipelet_id}: "
            f"{' -> '.join(pipelet.table_names)}{marker}"
        )
    latency = model.expected_latency(program, profile)
    print(f"\nexpected latency (cost model): {latency:.1f} ns")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    target = get_target(args.target)
    fitted = calibrate(target, n_packets=args.packets)
    print(
        f"Lmat={fitted.lmat:.6f}  Lact={fitted.lact:.6f}  "
        f"m_lpm={fitted.m_lpm:.2f}  m_ternary={fitted.m_ternary:.2f}"
    )
    return 0


def cmd_placement(args: argparse.Namespace) -> int:
    program = _load_program(args.input)
    profile = _load_profile(args.profile, program)
    target = get_target(args.target)
    pipeleon = Pipeleon(target)
    plan = pipeleon.optimize_placement(
        program,
        profile,
        TierBudget(
            imem_bytes=args.imem_bytes, lmem_bytes=args.lmem_bytes
        ),
    )
    placed = pipeleon.apply_placement(program, plan)
    output = dumps_program(placed)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
    else:
        print(output)
    print(plan.describe(), file=sys.stderr)
    return 0


def _resolve_program(args: argparse.Namespace, command: str):
    """Resolve ``--app``/``--program`` into (program, install, label).

    Returns ``None`` (after printing the usage error) when the
    arguments don't name exactly one program source.
    """
    from repro.apps import EXAMPLE_APPS

    if (args.app is None) == (args.program is None):
        print(
            f"{command}: pass exactly one of --app or --program",
            file=sys.stderr,
        )
        return None
    if args.app is not None:
        try:
            build, install = EXAMPLE_APPS[args.app]
        except KeyError:
            print(
                f"{command}: unknown app {args.app!r} "
                f"(choose from {', '.join(sorted(EXAMPLE_APPS))})",
                file=sys.stderr,
            )
            return None
        return build(), install, args.app
    return _load_program(args.program), None, args.program


def _build_telemetry(args: argparse.Namespace):
    """The replay's Telemetry bundle, or None when every knob is off."""
    from repro.telemetry import Telemetry

    trace_interval = args.trace_interval if args.trace else 0
    if not (
        trace_interval or args.metrics_out or args.events_out
    ):
        return None
    return Telemetry(
        trace_interval=trace_interval, events_path=args.events_out
    )


def _export_metrics(
    registry, deployment, stats, target, label: str
) -> None:
    """Fill the registry from a finished replay's merged state."""
    from repro.telemetry import (
        export_emulator,
        export_run_stats,
        export_tracer,
    )

    export_run_stats(registry, stats, target, app=label)
    telemetry = getattr(deployment, "telemetry", None)
    if telemetry is not None:
        from repro.telemetry import export_event_log

        export_event_log(registry, telemetry.events)
    export_emulator(registry, deployment.emulator)
    tracer = deployment.tracer
    if tracer is not None:
        export_tracer(registry, tracer)


def cmd_replay(args: argparse.Namespace) -> int:
    import time

    from repro.core import Deployment, profile_to_json
    from repro.traffic.flows import synth_flows
    from repro.traffic.generator import TrafficGenerator

    resolved = _resolve_program(args, "replay")
    if resolved is None:
        return 2
    program, install, label = resolved
    target = get_target(args.target)

    fault_plan = None
    inject = getattr(args, "inject_fault", None)
    if inject:
        from repro.nic.faults import FaultPlan

        fault_seed = (
            args.fault_seed
            if args.fault_seed is not None
            else args.seed
        )
        try:
            fault_plan = FaultPlan.from_args(inject, seed=fault_seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    from repro.nic.sharding import SupervisorOptions

    supervisor = SupervisorOptions(
        recovery=args.recovery, recv_timeout_s=args.recv_timeout
    )

    live_options = None
    live_requested = (
        args.serve_metrics is not None
        or args.slo
        or args.flight_out
        or args.live_interval is not None
        or args.live_every_packets is not None
    )
    if live_requested:
        from repro.telemetry import LiveOptions, load_slo_rules

        rules = ()
        if args.slo:
            try:
                rules = load_slo_rules(args.slo)
            except (OSError, ValueError, KeyError) as exc:
                print(f"error: --slo: {exc}", file=sys.stderr)
                return 2
        try:
            live_options = LiveOptions(
                interval_s=(
                    args.live_interval
                    if args.live_interval is not None
                    else 1.0
                ),
                every_packets=args.live_every_packets,
                window=args.live_window,
                flight_path=args.flight_out,
                rules=rules,
                serve_port=args.serve_metrics,
            )
        except (TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    telemetry = _build_telemetry(args)
    live_plane = None
    if live_options is not None:
        from repro.telemetry import LivePlane, Telemetry

        if telemetry is None:
            # SLO breach/clear events need an event log to land in.
            telemetry = Telemetry()
        # The aggregator thread starts immediately — fleet workers
        # heartbeat even between replays — and the scrape endpoint
        # comes up when ``serve_port`` is set.
        live_plane = LivePlane(live_options, telemetry=telemetry).start()
    deployment = None
    try:
        try:
            deployment = Deployment(
                program,
                target,
                telemetry=telemetry,
                engine=args.engine,
                jobs=args.jobs,
                batch=args.batch,
                supervisor=supervisor,
                fault_plan=fault_plan,
                live_plane=live_plane,
            )
        except ValueError as exc:  # e.g. a fault plan at --jobs 1
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if install is not None:
            install(deployment.control_plane)
        generator = TrafficGenerator(seed=args.seed)
        flows = synth_flows(args.flows)
        packets = generator.stream(
            flows, args.packets, locality=args.locality
        )
        start = time.perf_counter()
        stats = deployment.replay(
            packets, offered_pps=args.pps, batch=args.batch
        )
        wall_s = time.perf_counter() - start
        summary = {
            "app": label,
            "target": args.target,
            "jobs": args.jobs,
            "engine": args.engine,
            "packets": stats.packets,
            "dropped": stats.dropped,
            "mean_latency_ns": stats.mean_latency_ns,
            "wall_s": wall_s,
            "wall_pps": stats.packets / wall_s if wall_s > 0 else 0.0,
            "throughput_gbps": stats.throughput_gbps(target),
        }
        if args.engine == "auto":
            emulator = deployment.emulator
            summary["columnar_demotions"] = dict(
                emulator.columnar_demotions
            )
            summary["columnar_packets"] = emulator.columnar_packets
            summary["columnar_partitions"] = emulator.columnar_partitions
            summary["columnar_scalar_lookups"] = dict(
                emulator.columnar_scalar_lookups
            )
            summary["columnar_cache_arrivals"] = dict(
                emulator.columnar_cache_arrivals
            )
            summary["columnar_cache_replayed"] = dict(
                emulator.columnar_cache_replayed
            )
            for name in (
                "columnar_memo_hits",
                "columnar_memo_misses",
                "columnar_memo_guard_failures",
            ):
                summary[name] = dict(getattr(emulator, name))
        if args.jobs > 1:
            emulator = deployment.emulator
            ring_totals = emulator.transport_stats()["totals"]
            summary["ring_stalls"] = ring_totals["stalls"]
            for key in ("pushed_packets", "pushed_bytes", "flow_sets_shipped"):
                summary[key] = ring_totals[key]
            busy = emulator.worker_busy_s
            summary["worker_busy_s"] = busy
            # Measured, per packet: the parent's serial route + dispatch
            # (wall) and the busiest worker's own CPU time.
            summary["parent_ns_per_packet"] = (
                emulator.parent_dispatch_ns / stats.packets
                if stats.packets
                else 0.0
            )
            busiest = max(range(len(busy)), key=busy.__getitem__)
            packets = emulator.worker_packets[busiest]
            summary["worker_ns_per_packet"] = (
                1e9 * busy[busiest] / packets if packets else 0.0
            )
            respawns = emulator.total_respawns
            if respawns:
                summary["respawns"] = respawns
            degraded = emulator.degraded_shards
            if degraded:
                summary["degraded_shards"] = degraded
                summary["lost_packets"] = stats.lost_packets
        if live_plane is not None:
            # Final flush: the last recorder row and the served
            # /metrics registry now reflect the finished replay (the
            # scrape endpoint stays up until the plane stops below).
            live_plane.aggregator.stop()
            watchdog = live_plane.watchdog
            live_summary = {
                "rows": live_plane.recorder.appended,
                "slo_rules": len(watchdog.rules),
                "slo_breaches": watchdog.breaches,
                "slo_clears": watchdog.clears,
                "slo_active": watchdog.active_breaches,
            }
            if args.flight_out:
                live_summary["flight_out"] = args.flight_out
            if live_plane.port is not None:
                live_summary["metrics_port"] = live_plane.port
            summary["live"] = live_summary
        tracer = deployment.tracer
        if tracer is not None:
            summary["traced_packets"] = tracer.sampled
        if args.profile_out:
            profile = deployment.profile(
                offered_pps=args.pps if args.pps else 1e6
            )
            with open(args.profile_out, "w") as handle:
                json.dump(profile_to_json(profile), handle, indent=2)
            summary["profile_out"] = args.profile_out
        if telemetry is not None and args.metrics_out:
            _export_metrics(
                telemetry.registry, deployment, stats, target, label
            )
            with open(args.metrics_out, "w") as handle:
                handle.write(telemetry.registry.to_prometheus())
            summary["metrics_out"] = args.metrics_out
        if telemetry is not None and args.events_out:
            summary["events_out"] = args.events_out
            summary["events_emitted"] = telemetry.events.emitted
        print(json.dumps(summary, indent=2))
    finally:
        # Always close: it releases the live plane and, on a fleet,
        # tears the workers down via try/finally.
        # Exceptions mid-replay must not leak threads, ports or
        # processes either.
        try:
            if deployment is not None:
                deployment.close()
        finally:
            try:
                if live_plane is not None:
                    live_plane.stop()
            finally:
                if telemetry is not None:
                    telemetry.close()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Refreshing terminal view of a flight-recorder JSONL file.

    Follows the file like ``top``: each frame re-reads the recorder
    (replays append rows live) and renders the latest interval row
    plus the per-shard table. ``--iterations N`` renders N frames and
    exits (used by tests and one-shot inspection); the default runs
    until Ctrl-C.
    """
    import time

    from repro.telemetry import FlightRecorder, render_top

    frames = 0
    try:
        while True:
            try:
                with open(args.recorder) as handle:
                    rows = FlightRecorder.parse_jsonl(handle.read())
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            frame = render_top(rows, path=args.recorder)
            if not args.no_clear:
                # ANSI clear + home, like watch(1); falls back to
                # plain appends under --no-clear for dumb terminals.
                sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(frame)
            sys.stdout.flush()
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                return 0
            time.sleep(args.refresh)
    except KeyboardInterrupt:
        return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core import Deployment
    from repro.telemetry import Telemetry
    from repro.telemetry.report import (
        columnar_kernel_report,
        format_kernel_report,
        format_report,
        measured_vs_predicted,
    )
    from repro.traffic.flows import synth_flows
    from repro.traffic.generator import TrafficGenerator

    resolved = _resolve_program(args, "report")
    if resolved is None:
        return 2
    program, install, label = resolved
    target = get_target(args.target)
    telemetry = Telemetry(trace_interval=args.trace_interval)
    deployment = Deployment(program, target, telemetry=telemetry)
    if install is not None:
        install(deployment.control_plane)
    generator = TrafficGenerator(seed=args.seed)
    flows = synth_flows(args.flows)
    packets = generator.stream(
        flows, args.packets, locality=args.locality
    )
    deployment.replay(packets)
    profile = deployment.profile()
    model = CostModel.for_target(target)
    report = measured_vs_predicted(
        deployment.program, profile, model, deployment.tracer
    )
    print(f"measured vs predicted per-pipelet latency — {label}")
    print(
        f"(traced 1-in-{args.trace_interval} of "
        f"{deployment.tracer.seen} packets)\n"
    )
    print(format_report(report))
    # Second angle on the same question: replay the identical traffic
    # through the columnar batch kernels (untraced twin — a tracer
    # forces whole-batch demotion) and line per-node kernel wall time
    # up against the cost model's per-node charges.
    resolved = _resolve_program(args, "report")
    program2, install2, _ = resolved
    twin = Deployment(program2, target, engine="auto")
    if install2 is not None:
        install2(twin.control_plane)
    twin.replay(
        TrafficGenerator(seed=args.seed).stream(
            flows, args.packets, locality=args.locality
        )
    )
    kernels = columnar_kernel_report(twin.emulator)
    print("\ncolumnar kernel time vs cost-model share (untraced twin)\n")
    print(format_kernel_report(kernels))
    if args.json_out:
        payload = report.to_json()
        payload["columnar_kernels"] = kernels.to_json()
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
    return 0


def cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import (
        SweepSpec,
        enumerate_cells,
        pareto_front,
        preset_spec,
        run_sweep,
    )
    from repro.telemetry.report import (
        dse_ranking_report,
        format_dse_report,
    )

    if args.spec:
        spec = SweepSpec.load(args.spec)
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
    else:
        spec = preset_spec(args.preset, seed=args.seed or 0)

    overrides = {}
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.packets is not None:
        overrides["packets"] = args.packets
    if overrides:
        # Base-level overrides: a declared axis of the same name still
        # wins (axes override base by construction).
        spec = SweepSpec(
            name=spec.name,
            seed=spec.seed,
            axes=spec.axes,
            base={**dict(spec.base), **overrides},
            exclude=spec.exclude,
        )

    if args.list:
        for cell in enumerate_cells(spec):
            print(
                json.dumps(
                    {
                        "cell": cell.index,
                        "fingerprint": cell.fingerprint,
                        "seed": cell.seed,
                        "config": cell.config,
                    },
                    sort_keys=True,
                )
            )
        return 0

    total = len(enumerate_cells(spec))

    def progress(record: dict) -> None:
        print(
            f"[cell {record['cell'] + 1}/{total}] "
            f"{record['fingerprint']} "
            f"{record['config']['app']}/{record['config']['target']} "
            f"mean={record['measured']['mean_latency_ns']:.1f}ns "
            f"wall={record['wall']['wall_s']:.2f}s",
            file=sys.stderr,
        )

    result = run_sweep(
        spec,
        args.db,
        pool=args.pool,
        max_cells=args.max_cells,
        progress=progress,
    )
    ranking = dse_ranking_report(result.records)
    print(format_dse_report(ranking), file=sys.stderr)
    front, dominated = pareto_front(result.records)

    def brief(record: dict) -> dict:
        return {
            "cell": record["cell"],
            "fingerprint": record["fingerprint"],
            "app": record["config"]["app"],
            "target": record["config"]["target"],
            "mean_latency_ns": record["measured"]["mean_latency_ns"],
            "predicted_memory_bytes": record["predicted"]["memory_bytes"],
            "predicted_update_pps": record["predicted"]["update_pps"],
        }

    summary = {
        "spec": spec.name,
        "seed": spec.seed,
        "db": str(result.db_path),
        "cells": total,
        "executed": result.executed,
        "skipped": result.skipped,
        "remaining": result.remaining,
        "complete": result.complete,
        "pareto_front": [brief(record) for record in front],
        "dominated": len(dominated),
        "spearman": ranking.spearman,
    }
    if args.bench_out:
        with open(args.bench_out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        summary["bench_out"] = args.bench_out
    print(json.dumps(summary, indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on adaptation service (ROADMAP item 5).

    Stands up one data plane (a supervised sharded fleet, or in
    process at ``--jobs 1``) + controller + daemon-lifetime live
    telemetry plane, prints a ``ready`` JSON line, and
    serves replay/optimize/report/status jobs over an AF_UNIX socket
    until a ``drain``/``shutdown`` op or SIGTERM. Exit code 0 means
    the drain quiesced cleanly (no leaked workers or server threads).
    """
    import asyncio

    from repro.service import ServeSession, ServiceDaemon, SessionConfig

    try:
        config = SessionConfig(
            app=args.app,
            target=args.target,
            jobs=args.jobs,
            engine=args.engine,
            recovery=args.recovery,
            recv_timeout_s=args.recv_timeout,
            faults=tuple(args.inject_fault or ()),
            fault_seed=str(
                args.fault_seed if args.fault_seed is not None else 0
            ),
            profile_period_s=args.profile_period,
            replan_margin=args.replan_margin,
            controller_enabled=not args.no_adapt,
            live_interval_s=(
                args.live_interval
                if args.live_interval is not None
                else 0.05
            ),
            live_every_packets=args.live_every_packets,
            flight_path=args.flight_out,
            slo_rules_path=args.slo,
            serve_metrics_port=args.serve_metrics,
            default_packets_per_tick=args.packets_per_tick,
        )
        session = ServeSession(config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    daemon = ServiceDaemon(session, args.socket)
    try:
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        pass
    finally:
        # Belt and braces: serve() normally closes the session during
        # drain; a crashed event loop must not leak the fleet.
        session.close()
    return 0 if daemon.drained_cleanly else 1


def cmd_call(args: argparse.Namespace) -> int:
    """One-shot client for a running serve daemon."""
    from repro.service import ServiceClient, ServiceError

    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        print(f"error: --params: {exc}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("error: --params must be a JSON object", file=sys.stderr)
        return 2
    try:
        with ServiceClient(
            args.socket, timeout_s=args.timeout
        ) as client:
            result = client.request(args.op, params)
            if (
                args.wait
                and args.op == "submit"
                and "job_id" in result
            ):
                result = client.wait(
                    result["job_id"], timeout_s=args.timeout
                )
    except (OSError, ConnectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipeleon",
        description="Profile-guided P4 optimization for SmartNICs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    optimize = subparsers.add_parser(
        "optimize", help="optimize a program JSON"
    )
    optimize.add_argument("input")
    optimize.add_argument("-o", "--output", default=None)
    optimize.add_argument("--k", type=float, default=0.2)
    optimize.add_argument(
        "--memory-budget", type=float, default=float("inf")
    )
    optimize.add_argument(
        "--update-budget", type=float, default=float("inf")
    )
    _add_common(optimize)
    optimize.set_defaults(func=cmd_optimize)

    inspect = subparsers.add_parser(
        "inspect", help="show layout, pipelets, and cost estimate"
    )
    inspect.add_argument("input")
    _add_common(inspect)
    inspect.set_defaults(func=cmd_inspect)

    calibrate_cmd = subparsers.add_parser(
        "calibrate", help="fit Lmat/Lact/m against a target model"
    )
    calibrate_cmd.add_argument("--packets", type=int, default=120)
    _add_common(calibrate_cmd)
    calibrate_cmd.set_defaults(func=cmd_calibrate)

    placement = subparsers.add_parser(
        "placement", help="hierarchical memory placement (§6)"
    )
    placement.add_argument("input")
    placement.add_argument("-o", "--output", default=None)
    placement.add_argument("--imem-bytes", type=float, default=0.0)
    placement.add_argument("--lmem-bytes", type=float, default=0.0)
    _add_common(placement)
    placement.set_defaults(func=cmd_placement)

    replay = subparsers.add_parser(
        "replay",
        help="replay generated traffic through the emulator "
        "(--jobs N for the sharded multi-core engine)",
    )
    _add_traffic(replay)
    replay.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 = in-process replay",
    )
    replay.add_argument(
        "--pps",
        type=float,
        default=None,
        help="offered load driving the emulated clock",
    )
    replay.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    replay.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="execution tier: auto (columnar batch kernels, "
        "demoting to the interpreter; default) or interp (the "
        "reference interpreter for every packet); both are "
        "stats-identical",
    )
    replay.add_argument(
        "--trace",
        action="store_true",
        help="enable 1-in-N sampled packet tracing",
    )
    replay.add_argument(
        "--trace-interval",
        type=int,
        default=64,
        help="trace every Nth packet (with --trace)",
    )
    replay.add_argument(
        "--metrics-out",
        default=None,
        help="write Prometheus text exposition to this path",
    )
    replay.add_argument(
        "--events-out",
        default=None,
        help="write the JSONL event log to this path",
    )
    replay.add_argument(
        "--profile-out",
        default=None,
        help="persist the merged runtime profile JSON "
        "(feed back into `optimize --profile`)",
    )
    replay.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="scripted worker fault, e.g. kill:shard=0,batch=3 "
        "(kinds: kill|hang|delay|drop_reply; repeatable; "
        "requires --jobs > 1)",
    )
    replay.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for auto-placed fault triggers "
        "(default: --seed)",
    )
    replay.add_argument(
        "--recovery",
        choices=("fail", "respawn", "degraded"),
        default="fail",
        help="worker-failure policy: fail (raise), respawn "
        "(restore the shard's last barrier checkpoint and replay its "
        "journal since: exact), degraded (survivors absorb the lost "
        "shard's flows)",
    )
    replay.add_argument(
        "--recv-timeout",
        type=float,
        default=60.0,
        help="seconds before an unresponsive worker is declared "
        "hung",
    )
    replay.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics (Prometheus text) and /health "
        "on this port during the replay (0 = ephemeral)",
    )
    replay.add_argument(
        "--slo",
        default=None,
        metavar="RULES_JSON",
        help="SLO rule file evaluated each live interval; breaches "
        "emit slo_breach/slo_clear events",
    )
    replay.add_argument(
        "--flight-out",
        default=None,
        metavar="PATH",
        help="append flight-recorder rows (one JSON object per "
        "interval) to this file; view with `repro top PATH`",
    )
    replay.add_argument(
        "--live-interval",
        type=float,
        default=None,
        metavar="S",
        help="live snapshot/aggregation cadence in wall seconds "
        "(default 1.0 when the live plane is on)",
    )
    replay.add_argument(
        "--live-every-packets",
        type=int,
        default=None,
        metavar="N",
        help="deterministic snapshot cadence: one per-shard "
        "snapshot every N replayed packets (bit-stable recorder "
        "rows; replaces the wall cadence)",
    )
    replay.add_argument(
        "--live-window",
        type=int,
        default=512,
        help="flight-recorder in-memory row window",
    )
    _add_common(replay)
    replay.set_defaults(func=cmd_replay)

    top = subparsers.add_parser(
        "top",
        help="refreshing terminal view of a flight-recorder JSONL "
        "(written by replay --flight-out)",
    )
    top.add_argument(
        "recorder",
        help="flight-recorder JSONL path (replay --flight-out)",
    )
    top.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        help="seconds between frames",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render N frames then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="print frames without clearing the screen",
    )
    top.set_defaults(func=cmd_top)

    report = subparsers.add_parser(
        "report",
        help="traced replay + measured-vs-predicted latency table",
    )
    _add_traffic(report)
    report.add_argument(
        "--trace-interval",
        type=int,
        default=16,
        help="trace every Nth packet",
    )
    report.add_argument(
        "--json-out",
        default=None,
        help="also write the report as JSON to this path",
    )
    _add_common(report)
    report.set_defaults(func=cmd_report)

    dse = subparsers.add_parser(
        "dse",
        help=(
            "design-space exploration: sweep a config matrix into a "
            "resumable run database, report Pareto fronts"
        ),
    )
    dse.add_argument(
        "--spec",
        default=None,
        help="sweep spec JSON (see repro.dse.SweepSpec.to_json)",
    )
    dse.add_argument(
        "--preset",
        default="smoke",
        choices=["smoke", "pareto"],
        help="built-in spec when --spec is not given",
    )
    dse.add_argument(
        "--db",
        default="dse_runs.jsonl",
        help="append-only JSONL run database (resumes if it exists)",
    )
    dse.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sweep seed (overrides the spec's)",
    )
    dse.add_argument(
        "--pool",
        type=int,
        default=1,
        help="process-pool width for parallel cells",
    )
    dse.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="run at most N new cells this invocation (kill stand-in)",
    )
    dse.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="base-config engine override (a declared axis still wins)",
    )
    dse.add_argument(
        "--jobs", type=int, default=None, help="base-config jobs override"
    )
    dse.add_argument(
        "--packets",
        type=int,
        default=None,
        help="base-config packets-per-cell override",
    )
    dse.add_argument(
        "--list",
        action="store_true",
        help="print the enumerated cells (JSONL) without running",
    )
    dse.add_argument(
        "--bench-out",
        default=None,
        help="also write the JSON summary to this path",
    )
    dse.set_defaults(func=cmd_dse)

    serve = subparsers.add_parser(
        "serve",
        help="always-on adaptation service: data plane (a supervised "
        "fleet at --jobs > 1) + controller + live telemetry behind an "
        "AF_UNIX job socket",
    )
    serve.add_argument(
        "--socket",
        required=True,
        help="AF_UNIX socket path to listen on",
    )
    serve.add_argument(
        "--app",
        default="l2l3_acl",
        help="example app name (see repro.apps.EXAMPLE_APPS)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="shard worker processes; 1 = in-process data plane",
    )
    serve.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
    )
    serve.add_argument(
        "--recovery",
        choices=("fail", "respawn", "degraded"),
        default="respawn",
        help="worker-failure policy (default respawn: the service "
        "must survive chaos)",
    )
    serve.add_argument("--recv-timeout", type=float, default=60.0)
    serve.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="scripted worker fault armed on the session's fleet, e.g. "
        "kill:shard=0,batch=3 (repeatable; requires --jobs > 1)",
    )
    serve.add_argument("--fault-seed", type=int, default=None)
    serve.add_argument(
        "--profile-period",
        type=float,
        default=5.0,
        help="controller re-profiling period in emulated seconds",
    )
    serve.add_argument("--replan-margin", type=float, default=0.1)
    serve.add_argument(
        "--no-adapt",
        action="store_true",
        help="disable the controller loop (replay only)",
    )
    serve.add_argument(
        "--packets-per-tick",
        type=int,
        default=300,
        help="default packets per emulated second for replay jobs",
    )
    serve.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics + /health for the daemon's whole "
        "lifetime (0 = ephemeral; port printed on the ready line)",
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="RULES_JSON",
        help="SLO rule file; breaches schedule re-optimizations",
    )
    serve.add_argument(
        "--flight-out",
        default=None,
        metavar="PATH",
        help="append flight-recorder rows across every job",
    )
    serve.add_argument(
        "--live-interval",
        type=float,
        default=None,
        metavar="S",
        help="live snapshot/aggregation cadence (default 0.05s)",
    )
    serve.add_argument(
        "--live-every-packets",
        type=int,
        default=None,
        metavar="N",
        help="deterministic snapshot cadence (replaces wall cadence)",
    )
    _add_common(serve)
    serve.set_defaults(func=cmd_serve)

    call = subparsers.add_parser(
        "call",
        help="send one op to a running serve daemon and print the "
        "JSON result",
    )
    call.add_argument("--socket", required=True)
    call.add_argument(
        "op",
        help="protocol op: ping | status | scenarios | submit | job "
        "| wait | cancel | drain | shutdown",
    )
    call.add_argument(
        "--params",
        default=None,
        help='op params as a JSON object, e.g. \'{"op": "replay", '
        '"params": {"scenario": "flash_crowd", "seed": "7"}}\'',
    )
    call.add_argument(
        "--wait",
        action="store_true",
        help="after submit, block until the job settles and print "
        "its final state",
    )
    call.add_argument("--timeout", type=float, default=300.0)
    call.set_defaults(func=cmd_call)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
