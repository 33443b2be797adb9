"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core import profile_to_json, uniform_profile
from repro.ir import dumps_program, linear_program, loads_program
from repro.ir.tables import MatchType, MemoryTier, TableKind


@pytest.fixture
def program_file(tmp_path):
    program = linear_program("cli_demo", 6, MatchType.TERNARY)
    path = tmp_path / "program.json"
    path.write_text(dumps_program(program))
    return path


class TestOptimize:
    def test_optimize_writes_valid_program(self, program_file, tmp_path):
        out = tmp_path / "optimized.json"
        code = main(
            ["optimize", str(program_file), "-o", str(out), "--k", "1.0"]
        )
        assert code == 0
        optimized = loads_program(out.read_text())
        assert any(
            t.kind is not TableKind.PLAIN for t in optimized.tables()
        )

    def test_optimize_stdout(self, program_file, capsys):
        assert main(["optimize", str(program_file)]) == 0
        out = capsys.readouterr().out
        loads_program(out)  # parses

    def test_optimize_with_profile(self, program_file, tmp_path):
        program = loads_program(program_file.read_text())
        profile = uniform_profile(program)
        profile.set_action_probs(
            "cli_demo_t0",
            {"cli_demo_t0_a0": 0.9, "cli_demo_t0_a1": 0.1},
        )
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(profile_to_json(profile)))
        out = tmp_path / "optimized.json"
        code = main(
            [
                "optimize",
                str(program_file),
                "-o",
                str(out),
                "--profile",
                str(profile_path),
            ]
        )
        assert code == 0

    def test_zero_budget(self, program_file, tmp_path):
        out = tmp_path / "optimized.json"
        code = main(
            [
                "optimize",
                str(program_file),
                "-o",
                str(out),
                "--memory-budget",
                "0",
                "--update-budget",
                "0",
            ]
        )
        assert code == 0
        optimized = loads_program(out.read_text())
        # Nothing that costs memory was added.
        assert all(
            t.kind is TableKind.PLAIN for t in optimized.tables()
        )


class TestInspect:
    def test_inspect_prints_pipelets(self, program_file, capsys):
        assert main(["inspect", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "pipelets" in out
        assert "expected latency" in out
        assert "cli_demo_t0" in out

    def test_unknown_target_fails(self, program_file):
        from repro.errors import EmulationError

        with pytest.raises(EmulationError):
            main(
                ["inspect", str(program_file), "--target", "tofino"]
            )


class TestCalibrate:
    def test_calibrate_prints_constants(self, capsys):
        assert main(["calibrate", "--packets", "40"]) == 0
        out = capsys.readouterr().out
        assert "Lmat=" in out
        assert "m_ternary=" in out


class TestPlacement:
    def test_placement_promotes_tables(self, program_file, tmp_path):
        out = tmp_path / "placed.json"
        code = main(
            [
                "placement",
                str(program_file),
                "-o",
                str(out),
                "--imem-bytes",
                "1000000",
            ]
        )
        assert code == 0
        placed = loads_program(out.read_text())
        assert any(
            t.memory_tier is MemoryTier.IMEM for t in placed.tables()
        )


class TestReplay:
    def _replay(self, capsys, *args):
        code = main(["replay", *args])
        return code, capsys.readouterr()

    def test_single_job_summary(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "500",
            "--target", "emulated_nic",
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["packets"] == 500
        assert summary["jobs"] == 1
        assert summary["wall_pps"] > 0
        assert "worker_busy_s" not in summary

    def test_sharded_jobs_match_single(self, capsys):
        _, single_out = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "500",
            "--target", "emulated_nic",
        )
        code, sharded_out = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "500",
            "--jobs", "2",
            "--target", "emulated_nic",
        )
        assert code == 0
        single = json.loads(single_out.out)
        sharded = json.loads(sharded_out.out)
        assert sharded["jobs"] == 2
        for key in ("packets", "dropped", "mean_latency_ns"):
            assert sharded[key] == single[key]
        assert len(sharded["worker_busy_s"]) == 2
        assert "modeled_pps" not in sharded
        assert sharded["parent_ns_per_packet"] > 0
        assert sharded["worker_ns_per_packet"] > 0
        # Each shard got the flow set once, then 8 B per packet.
        assert sharded["flow_sets_shipped"] == 2
        assert sharded["pushed_packets"] == 500
        assert sharded["pushed_bytes"] == 8 * 500
        # Sharded replays report the ring's dispatch counters.
        assert "transport" not in sharded
        assert sharded["pushed_packets"] == sharded["packets"]
        assert sharded["ring_stalls"] >= 0

    def test_offered_pps_accepted(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "acl_chain",
            "--packets", "200",
            "--pps", "1e6",
            "--jobs", "2",
            "--target", "emulated_nic",
        )
        assert code == 0
        assert json.loads(captured.out)["packets"] == 200

    def test_requires_app_or_program(self, capsys):
        code, captured = self._replay(capsys, "--packets", "10")
        assert code == 2
        assert "exactly one of --app or --program" in captured.err

    def test_rejects_app_and_program_together(self, capsys, tmp_path):
        code, _captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--program", str(tmp_path / "p.json"),
        )
        assert code == 2

    def test_unknown_app(self, capsys):
        code, captured = self._replay(capsys, "--app", "nope")
        assert code == 2
        assert "unknown app" in captured.err
        assert "l2l3_acl" in captured.err

    def test_program_json_input(self, capsys, tmp_path):
        path = tmp_path / "prog.json"
        path.write_text(dumps_program(linear_program("cliprog", 2)))
        code, captured = self._replay(
            capsys,
            "--program", str(path),
            "--packets", "100",
            "--jobs", "2",
            "--target", "emulated_nic",
        )
        assert code == 0
        assert json.loads(captured.out)["packets"] == 100


class TestReplayFaultInjection:
    def _replay(self, capsys, *args):
        code = main(["replay", *args])
        return code, capsys.readouterr()

    def test_kill_with_respawn_recovers_all_packets(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "600",
            "--jobs", "2",
            "--batch", "32",
            "--inject-fault", "kill:shard=0,batch=2",
            "--recovery", "respawn",
            "--recv-timeout", "10",
            "--target", "emulated_nic",
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["packets"] == 600
        assert summary["respawns"] >= 1
        assert "degraded_shards" not in summary

    def test_degraded_reports_lost_packets(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "600",
            "--jobs", "2",
            "--batch", "32",
            "--inject-fault", "kill:shard=1,batch=1",
            "--recovery", "degraded",
            "--recv-timeout", "10",
            "--target", "emulated_nic",
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["degraded_shards"] == [1]
        assert summary["lost_packets"] > 0
        assert summary["packets"] == 600 - summary["lost_packets"]

    def test_fault_requires_jobs(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--inject-fault", "kill:shard=0",
        )
        assert code == 2
        assert "fault plan needs jobs > 1" in captured.err

    def test_fault_shard_must_exist(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--jobs", "2",
            "--inject-fault", "kill:shard=5",
        )
        assert code == 2
        assert "shard 5" in captured.err

    def test_positioned_fault_past_jobs_is_a_usage_error(self, capsys):
        """The fleet's own range check, reported before any replay."""
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--jobs", "2",
            "--inject-fault", "kill:shard=3,batch=1",
        )
        assert code == 2
        assert captured.err == (
            "error: Fault plan targets shard 3 but only 2 workers exist\n"
        )
        assert captured.out == ""

    def test_malformed_fault_spec(self, capsys):
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--jobs", "2",
            "--inject-fault", "explode:shard=0",
        )
        assert code == 2
        assert "Unknown fault kind" in captured.err


class TestReplayTelemetry:
    def _replay(self, capsys, *args):
        code = main(["replay", *args])
        return code, capsys.readouterr()

    def test_trace_metrics_and_events_outputs(self, capsys, tmp_path):
        metrics = tmp_path / "m.prom"
        events = tmp_path / "e.jsonl"
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "600",
            "--target", "emulated_nic",
            "--trace",
            "--trace-interval", "32",
            "--metrics-out", str(metrics),
            "--events-out", str(events),
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["traced_packets"] == 600 // 32 + 1
        assert summary["metrics_out"] == str(metrics)
        assert summary["events_emitted"] > 0

        # The metrics file is valid Prometheus text exposition.
        text = metrics.read_text()
        assert "# TYPE pipeleon_packets_total counter" in text
        assert "pipeleon_packets_total" in text
        assert 'le="+Inf"' in text
        assert "pipeleon_node_latency_ns_bucket" in text
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.split()[0] in ("#",) or True
            else:
                # every sample line is "<series> <number>"
                float(line.rsplit(" ", 1)[1])

        # The events file is parseable JSONL of control mutations.
        from repro.telemetry import EventLog

        parsed = EventLog.parse_jsonl(events.read_text())
        assert parsed
        assert all(e["kind"] == "control_update" for e in parsed)
        assert all(e["op"] == "insert" for e in parsed)

    def test_metrics_out_without_trace(self, capsys, tmp_path):
        metrics = tmp_path / "m.prom"
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "200",
            "--target", "emulated_nic",
            "--metrics-out", str(metrics),
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert "traced_packets" not in summary
        text = metrics.read_text()
        assert "pipeleon_packets_total" in text
        assert "pipeleon_node_latency_ns" not in text  # no tracer

    def test_sharded_trace_merges_worker_tracers(
        self, capsys, tmp_path
    ):
        metrics = tmp_path / "m.prom"
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "400",
            "--jobs", "2",
            "--target", "emulated_nic",
            "--trace",
            "--trace-interval", "16",
            "--metrics-out", str(metrics),
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["jobs"] == 2
        assert summary["traced_packets"] >= 400 // 16
        text = metrics.read_text()
        assert "pipeleon_trace_packets_seen_total 400" in text
        assert "pipeleon_node_latency_ns_bucket" in text

    def test_profile_out_round_trips_into_optimize(
        self, capsys, tmp_path, program_file
    ):
        profile_path = tmp_path / "profile.json"
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "500",
            "--target", "emulated_nic",
            "--profile-out", str(profile_path),
        )
        assert code == 0
        assert json.loads(captured.out)["profile_out"] == str(
            profile_path
        )
        from repro.core import profile_from_json

        profile = profile_from_json(
            json.loads(profile_path.read_text())
        )
        assert profile.action_probs  # a measured, non-empty profile
        assert profile.entry_counts
        # And it feeds straight back into the optimizer.
        build, _install = __import__(
            "repro.apps", fromlist=["EXAMPLE_APPS"]
        ).EXAMPLE_APPS["l2l3_acl"]
        prog_path = tmp_path / "l2l3.json"
        prog_path.write_text(dumps_program(build()))
        out = tmp_path / "optimized.json"
        assert main(
            [
                "optimize",
                str(prog_path),
                "-o", str(out),
                "--profile", str(profile_path),
            ]
        ) == 0
        loads_program(out.read_text())


class TestReport:
    def test_report_prints_measured_vs_predicted_table(self, capsys):
        code = main(
            [
                "report",
                "--app", "l2l3_acl",
                "--packets", "2000",
                "--target", "emulated_nic",
                "--trace-interval", "16",
                "--locality", "zipf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured_ns" in out and "predicted_ns" in out
        assert "pl_0" in out
        assert "program" in out
        assert "traced 1-in-16" in out

    def test_report_json_out(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(
            [
                "report",
                "--app", "l2l3_acl",
                "--packets", "1000",
                "--target", "emulated_nic",
                "--json-out", str(path),
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["rows"]
        assert payload["traced_packets"] > 0
        assert payload["measured_total_ns"] > 0

    def test_report_requires_app_or_program(self, capsys):
        assert main(["report"]) == 2
        assert (
            "exactly one of --app or --program"
            in capsys.readouterr().err
        )


class TestProfileJson:
    def test_round_trip(self):
        program = linear_program("p", 3)
        profile = uniform_profile(program)
        profile.entry_counts["p_t0"] = 5
        profile.update_rates["p_t1"] = 2.5
        profile.table_m["p_t2"] = 4
        profile.cache_hit_rates["cacheX"] = 0.8
        from repro.core import profile_from_json

        restored = profile_from_json(profile_to_json(profile))
        assert restored.action_probs == profile.action_probs
        assert restored.entry_counts == profile.entry_counts
        assert restored.update_rates == profile.update_rates
        assert restored.table_m == profile.table_m
        assert restored.cache_hit_rates == profile.cache_hit_rates
        assert restored.offered_pps == profile.offered_pps

    def test_old_file_with_support_maps_still_loads(self):
        """``--profile-out`` files written before the ``*_support``
        maps were dropped carry them; they are ignored, not an error."""
        from repro.core import profile_from_json

        profile = uniform_profile(linear_program("p", 2))
        data = profile_to_json(profile)
        assert not any(key.endswith("_support") for key in data)
        data["action_support"] = {"p_t0": 7.0}
        data["cache_support"] = {"cacheX": 3.0}
        assert profile_from_json(data) == profile
