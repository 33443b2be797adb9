"""Checks on the benchmark itself (under a minute; not part of tier 1).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import os
import re

import pytest

import compare
import oracle
import run
import workloads

import repro.core.controller
import repro.core.search
import repro.traffic.scenarios

SPEC = run.declared()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def short_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_CYCLES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)


@pytest.fixture
def nothing_left_behind():
    """No shared-memory segment or child process survives the test."""
    before = set(os.listdir("/dev/shm"))
    yield
    assert multiprocessing.active_children() == []
    assert child_commands() == []
    assert set(os.listdir("/dev/shm")) <= before


def child_commands() -> list[str]:
    """Command lines of this process's children: shard workers, set-up
    interpreters and the helper `multiprocessing.shared_memory` starts."""
    commands = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline") as handle:
                command = handle.read().replace("\0", " ")
        except OSError:
            continue  # gone between listing and reading
        if parent == os.getpid():
            commands.append(command)
    return commands


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_output_names_are_the_declared_names(nothing_left_behind):
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload("sharded_2w", 5, 1, traced)
        declared = {metric["name"]: metric for metric in SPEC[section]}
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == declared[name]["unit"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        if not traced:
            assert all(value > 0 for value in values(result).values())
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_traced_counts_repeat_and_spans_cover_the_run(tmp_path):
    first, second = (
        values(run.run_workload("opt_highcard", 3, 1, True)) for _ in range(2)
    )
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    for name, unit in units.items():
        if unit in compare.EXACT_UNITS and name not in compare.WALL_DRIVEN:
            assert first[name] == second[name], name
    assert first["trace.coverage_share"] >= 0.95
    assert first["nic.columnar.demoted_share"] >= 0.9
    spans = json.loads((tmp_path / "trace-opt_highcard.json").read_text())
    assert {"name", "start_ns", "end_ns", "parent", "cycle"} == set(
        spans["spans"][0]
    )


def test_traced_adapt_storm_has_a_span_for_every_layer(
    monkeypatch, nothing_left_behind
):
    monkeypatch.setattr(workloads, "ADAPT_WARM_ROTATIONS", 1)
    builders = dict(repro.traffic.scenarios.SCENARIO_BUILDERS)
    layers = values(run.run_workload("adapt_storm", 7, 1, True))
    for name in (
        "service.session.start.wall_s",
        "service.session.run_replay.wall_s",
        "traffic.scenarios.stream.wall_s",
        "nic.control_plane.action.wall_s",
        "service.session.tick_self.wall_s",
        "service.session.run_optimize.ms_p50",
        "core.profiling.collect.ms_p50",
        "core.search.optimize.ms_p50",
        "core.controller.redeploy_self.ms_p50",
        "core.controller.replans",
        "core.deployment.materialized_updates",
    ):
        assert layers[name] > 0, name
    assert layers["trace.coverage_share"] >= 0.95
    assert (
        layers["core.search.optimize.ms_p50"]
        < layers["service.session.run_optimize.ms_p50"]
    )
    # The names replaced for the traced run are back.
    assert repro.traffic.scenarios.SCENARIO_BUILDERS == builders
    assert repro.core.controller.optimize is repro.core.search.optimize


def test_a_layer_without_spans_fails_the_traced_run(monkeypatch):
    # A one-core replay that claims to enter the serve layers.
    monkeypatch.setattr(workloads, "SERVE_LAYERS", ())
    with pytest.raises(RuntimeError, match="no service.session.run_replay"):
        run.run_workload("base_lowcard", 3, 1, True)


def test_wrong_expectation_fails_the_run(monkeypatch, capsys):
    expect = oracle.expect_replay

    def tampered(*args):
        payload = expect(*args)
        payload["fingerprint"] = "0" * 64
        return payload

    monkeypatch.setattr(oracle, "expect_replay", tampered)
    code = run.main(
        ["--workload", "base_lowcard", "--seconds", "1", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_aborted_run_leaves_nothing_behind(monkeypatch, nothing_left_behind):
    def broken(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.ReplayWorkload, "warm_up", broken)
    with pytest.raises(RuntimeError, match="injected"):
        run.run_workload("sharded_2w", 5, 1, False)


def test_compare_verdicts():
    side = {
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "end_to_end": {
            metric["name"]: [10.0, 10.1, 10.2] for metric in SPEC["end_to_end"]
        },
        "per_layer": {metric["name"]: 1.0 for metric in SPEC["per_layer"]},
    }
    a = {"seed": 1, "seconds": 12, "workloads": {"w": side}}
    lines, bad = compare.compare(a, a, SPEC)
    assert not bad and "regressed" not in "\n".join(lines)

    slower = copy.deepcopy(a)
    slower["workloads"]["w"]["end_to_end"]["replay_pps"] = [5.0, 5.1, 5.2]
    lines, bad = compare.compare(a, slower, SPEC)
    text = "\n".join(lines)
    assert bad and "replay_pps (packets/s)" in text and "regressed" in text

    noisy = copy.deepcopy(a)
    noisy["workloads"]["w"]["end_to_end"]["replay_pps"] = [8.0, 10.1, 12.0]
    lines, bad = compare.compare(a, noisy, SPEC)
    assert not bad and "unresolved" in "\n".join(lines)

    failing = copy.deepcopy(a)
    failing["workloads"]["w"]["failed"] = 1
    assert compare.compare(a, failing, SPEC)[1]

    moved = copy.deepcopy(a)
    moved["workloads"]["w"]["per_layer"]["nic.model.mean_latency_ns"] = 2.0
    lines, bad = compare.compare(a, moved, SPEC)
    assert bad and "1 differ" in "\n".join(lines)
    moved["seed"] = 2
    assert not compare.compare(a, moved, SPEC)[1]
