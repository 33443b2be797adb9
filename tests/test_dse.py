"""Design-space exploration harness: spec, matrix, run DB, Pareto.

The load-bearing properties pinned here:

- cell enumeration is a pure function of the spec (row-major axis
  order, strict validation, exclusion rules);
- the traffic seed is shared by cells that differ only in *runtime*
  knobs (engine, cache capacity, ...) so Pareto comparisons hold the
  workload fixed, and differs as soon as a traffic-shaping knob moves;
- a sweep killed mid-run resumes to a database byte-identical (modulo
  the wall-clock fields) to an uninterrupted run's — including across
  a torn final append;
- the Pareto split and the predicted-vs-measured ranking are exact on
  hand-built records.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.apps import l2l3_acl
from repro.core import PipeleonController, uniform_profile
from repro.core.costmodel import CostModel, CostPrediction
from repro.dse import (
    Axis,
    CELL_DEFAULTS,
    DEFAULT_OBJECTIVES,
    Objective,
    RunDatabase,
    RunDatabaseError,
    SweepSpec,
    cell_fingerprint,
    cell_seed,
    dominates,
    enumerate_cells,
    host_metadata,
    objective_vector,
    pareto_front,
    pareto_spec,
    preset_spec,
    run_cell,
    run_sweep,
    smoke_spec,
    strip_volatile,
    validate_config,
)
from repro.dse.matrix import TRAFFIC_KEYS
from repro.nic.targets import BLUEFIELD2
from repro.telemetry.report import (
    dse_ranking_report,
    format_dse_report,
    spearman_correlation,
)


def tiny_spec(seed: int = 7, **base) -> SweepSpec:
    """A 2-cell spec cheap enough to execute inside the test suite."""
    merged = {"packets": 200, "flows": 16, "batch": 64, **base}
    return SweepSpec(
        name="tiny",
        seed=seed,
        axes=(Axis("cache_capacity", (256, 512)),),
        base=merged,
    )


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------


class TestSpec:
    def test_defaults_fill_and_normalise(self):
        cell = validate_config({})
        assert cell == CELL_DEFAULTS
        cell = validate_config({"packets": "500", "topk": "0.5"})
        assert cell["packets"] == 500 and cell["topk"] == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="Unknown cell keys: warp"):
            validate_config({"warp": 9})

    @pytest.mark.parametrize(
        "bad",
        [
            {"target": "tofino"},
            {"engine": "gpu"},
            {"locality": "burst"},
            {"app": "no_such_app"},
            {"jobs": 0},
            {"packets": -1},
            {"topk": 0.0},
            {"topk": 1.5},
            {"cache_capacity": 0},
            {"memory_budget": -4.0},
        ],
    )
    def test_off_menu_values_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_config(bad)

    def test_axis_must_name_known_knob(self):
        with pytest.raises(ValueError, match="Unknown axis"):
            Axis("warp", (1, 2))
        with pytest.raises(ValueError, match="no values"):
            Axis("jobs", ())

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="Duplicate axes"):
            SweepSpec(
                "dup", axes=(Axis("jobs", (1,)), Axis("jobs", (2,)))
            )

    def test_bad_axis_value_fails_at_build_time(self):
        with pytest.raises(ValueError, match="engine"):
            SweepSpec("bad", axes=(Axis("engine", ("auto", "gpu")),))

    def test_cells_row_major_axes_override_base(self):
        spec = SweepSpec(
            "m",
            axes=(
                Axis("jobs", (1, 2)),
                Axis("locality", ("uniform", "zipf")),
            ),
            base={"jobs": 9, "packets": 100},
        )
        cells = spec.cells()
        assert [(c["jobs"], c["locality"]) for c in cells] == [
            (1, "uniform"),
            (1, "zipf"),
            (2, "uniform"),
            (2, "zipf"),
        ]
        assert all(c["packets"] == 100 for c in cells)

    def test_exclude_rules_drop_full_matches(self):
        spec = SweepSpec(
            "x",
            axes=(
                Axis("engine", ("interp", "auto")),
                Axis("jobs", (1, 4)),
            ),
            exclude=({"engine": "interp", "jobs": 4},),
        )
        combos = [(c["engine"], c["jobs"]) for c in spec.cells()]
        assert ("interp", 4) not in combos
        assert len(combos) == 3

    def test_exclude_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="Unknown exclude keys"):
            SweepSpec("x", exclude=({"warp": 1},))

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(seed=13)
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.cells() == spec.cells()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        assert SweepSpec.load(path).cells() == spec.cells()

    def test_with_seed_changes_only_seed(self):
        spec = tiny_spec(seed=1)
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.axes == spec.axes
        assert reseeded.cells() == spec.cells()

    def test_presets(self):
        assert len(smoke_spec().cells()) == 8
        assert len(pareto_spec().cells()) == 24
        assert preset_spec("smoke", seed=5).seed == 5
        with pytest.raises(ValueError, match="Unknown preset"):
            preset_spec("huge")


# ---------------------------------------------------------------------------
# Matrix: fingerprints and controlled-comparison seeding
# ---------------------------------------------------------------------------


class TestMatrix:
    def test_fingerprint_deterministic_and_seed_dependent(self):
        config = validate_config({})
        assert cell_fingerprint(config, 0) == cell_fingerprint(config, 0)
        assert cell_fingerprint(config, 0) != cell_fingerprint(config, 1)
        assert cell_fingerprint(config, 0) != cell_fingerprint(
            validate_config({"jobs": 2}), 0
        )
        assert len(cell_fingerprint(config, 0)) == 16

    def test_seed_shared_across_runtime_knobs(self):
        base = validate_config({})
        for key, value in [
            ("engine", "interp"),
            ("cache_capacity", 64),
            ("jobs", 2),
            ("target", "emulated_nic"),
            ("topk", 0.5),
        ]:
            assert key not in TRAFFIC_KEYS
            variant = validate_config({key: value})
            assert cell_seed(variant, 3) == cell_seed(base, 3), key

    def test_seed_moves_with_traffic_knobs(self):
        base = validate_config({})
        for key, value in [
            ("app", "acl_chain"),
            ("packets", 999),
            ("flows", 32),
            ("locality", "zipf"),
            ("zipf_skew", 2.0),
        ]:
            assert key in TRAFFIC_KEYS
            variant = validate_config({key: value})
            assert cell_seed(variant, 3) != cell_seed(base, 3), key

    def test_enumerate_cells_indices_and_unique_fingerprints(self):
        cells = enumerate_cells(pareto_spec())
        assert [cell.index for cell in cells] == list(range(24))
        assert len({cell.fingerprint for cell in cells}) == 24
        again = enumerate_cells(pareto_spec())
        assert cells == again


# ---------------------------------------------------------------------------
# Run database
# ---------------------------------------------------------------------------


def _record(fp: str, **extra) -> dict:
    return {"fingerprint": fp, "wall": {"wall_s": 1.0}, **extra}


class TestRunDatabase:
    def test_append_load_round_trip(self, tmp_path):
        db = RunDatabase(tmp_path / "runs.jsonl")
        db.append(_record("aa", cell=0))
        db.append(_record("bb", cell=1))
        loaded = db.load()
        assert list(loaded) == ["aa", "bb"]  # file order preserved
        assert loaded["bb"]["cell"] == 1
        assert not db.repaired_tail

    def test_append_requires_fingerprint(self, tmp_path):
        with pytest.raises(ValueError, match="fingerprint"):
            RunDatabase(tmp_path / "runs.jsonl").append({"cell": 0})

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunDatabase(tmp_path / "absent.jsonl").load() == {}

    def test_torn_garbage_tail_truncated(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        db = RunDatabase(path)
        db.append(_record("aa"))
        with open(path, "ab") as handle:
            handle.write(b'{"fingerprint": "bb", "cel')
        assert list(db.load()) == ["aa"]
        assert db.repaired_tail
        # The file itself was repaired: the next load is clean and the
        # next append starts on its own line.
        assert list(db.load()) == ["aa"]
        assert not db.repaired_tail
        db.append(_record("cc"))
        assert list(db.load()) == ["aa", "cc"]

    def test_torn_complete_json_without_newline_truncated(self, tmp_path):
        # The nasty case: the append died after the JSON bytes but
        # before the newline. The line parses, but keeping it would
        # glue the next append onto the same line.
        path = tmp_path / "runs.jsonl"
        db = RunDatabase(path)
        db.append(_record("aa"))
        with open(path, "ab") as handle:
            handle.write(
                json.dumps(_record("bb"), separators=(",", ":")).encode()
            )
        assert list(db.load()) == ["aa"]
        assert db.repaired_tail

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        db = RunDatabase(path)
        db.append(_record("aa"))
        with open(path, "ab") as handle:
            handle.write(b"not json\n")
        db.append(_record("bb"))
        with pytest.raises(RunDatabaseError, match="unparsable record"):
            db.load()

    def test_newline_terminated_record_without_fingerprint_raises(
        self, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(b'{"cell": 0}\n')
        with pytest.raises(RunDatabaseError):
            RunDatabase(path).load()

    def test_strip_volatile(self):
        record = _record("aa", cell=3)
        stripped = strip_volatile(record)
        assert stripped == {"fingerprint": "aa", "cell": 3}
        assert "wall" in record  # original untouched


# ---------------------------------------------------------------------------
# Runner: execution, resume, bit-identity
# ---------------------------------------------------------------------------


def _stripped_lines(path) -> list[str]:
    lines = path.read_text().splitlines()
    out = []
    for line in lines:
        record = json.loads(line)
        out.append(
            json.dumps(
                strip_volatile(record),
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return out


class TestRunner:
    def test_record_shape(self):
        spec = tiny_spec()
        cell = enumerate_cells(spec)[0]
        record = run_cell(cell, sweep_seed=spec.seed, spec_name=spec.name)
        assert record["fingerprint"] == cell.fingerprint
        assert record["seed"] == cell.seed
        assert record["cell"] == 0
        assert record["config"] == cell.config
        assert set(record["predicted"]) == {
            "latency_ns",
            "memory_bytes",
            "update_pps",
        }
        measured = record["measured"]
        assert measured["packets"] == 200
        assert measured["mean_latency_ns"] > 0
        assert "columnar_partitions" in measured  # engine=auto records it
        assert record["snapshot"]["jobs"] == 1
        assert record["snapshot"]["plan"] is None or isinstance(
            record["snapshot"]["plan"], str
        )
        assert record["wall"]["wall_s"] > 0

    def test_kill_resume_matches_uninterrupted_run(self, tmp_path):
        spec = tiny_spec()
        interrupted = tmp_path / "interrupted.jsonl"
        straight = tmp_path / "straight.jsonl"

        first = run_sweep(spec, interrupted, max_cells=1)
        assert (first.executed, first.skipped, first.remaining) == (1, 0, 1)
        assert not first.complete

        second = run_sweep(spec, interrupted)
        assert (second.executed, second.skipped) == (1, 1)
        assert second.complete
        assert [r["cell"] for r in second.records] == [0, 1]

        third = run_sweep(spec, interrupted)
        assert (third.executed, third.skipped) == (0, 2)

        run_sweep(spec, straight)
        assert _stripped_lines(interrupted) == _stripped_lines(straight)

    def test_resume_after_torn_tail_reruns_torn_cell(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "torn.jsonl"
        run_sweep(spec, path)
        clean = _stripped_lines(path)
        # Tear the final append mid-record, as a kill would.
        raw = path.read_bytes()
        cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        path.write_bytes(raw[: cut + 25])
        result = run_sweep(spec, path)
        assert (result.executed, result.skipped) == (1, 1)
        assert _stripped_lines(path) == clean

    def test_pool_matches_serial(self, tmp_path):
        spec = tiny_spec(seed=11)
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        run_sweep(spec, serial)
        result = run_sweep(spec, pooled, pool=2)
        assert result.complete and result.executed == 2
        assert _stripped_lines(serial) == _stripped_lines(pooled)

    def test_progress_callback_sees_every_new_record(self, tmp_path):
        spec = tiny_spec()
        seen = []
        run_sweep(
            spec,
            tmp_path / "runs.jsonl",
            progress=lambda record: seen.append(record["cell"]),
        )
        assert seen == [0, 1]

    def test_host_block_stamped(self, tmp_path):
        spec = tiny_spec()
        result = run_sweep(spec, tmp_path / "runs.jsonl", max_cells=1)
        host = result.records[0]["host"]
        assert set(host_metadata()) == set(host)
        assert host["cpu_count"] >= 1


# ---------------------------------------------------------------------------
# Pareto
# ---------------------------------------------------------------------------


def _obj_record(latency, memory, updates, tag):
    return {
        "tag": tag,
        "measured": {"mean_latency_ns": latency},
        "predicted": {"memory_bytes": memory, "update_pps": updates},
    }


class TestPareto:
    def test_dominates_requires_strict_improvement(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 1), (1, 1))
        assert not dominates((1, 3), (2, 2))  # trade-off: incomparable

    def test_objective_sense(self):
        record = _obj_record(10.0, 5.0, 2.0, "a")
        assert objective_vector(record) == (10.0, 5.0, 2.0)
        maximise = (Objective("measured.mean_latency_ns", "max"),)
        assert objective_vector(record, maximise) == (-10.0,)
        with pytest.raises(ValueError, match="min|max"):
            Objective("measured.mean_latency_ns", "best")

    def test_front_split_preserves_order(self):
        records = [
            _obj_record(10, 100, 0, "balanced"),
            _obj_record(5, 500, 0, "fast_fat"),
            _obj_record(10, 200, 0, "dominated"),  # worse than balanced
            _obj_record(20, 50, 0, "slow_lean"),
        ]
        front, dominated = pareto_front(records)
        assert [r["tag"] for r in front] == [
            "balanced",
            "fast_fat",
            "slow_lean",
        ]
        assert [r["tag"] for r in dominated] == ["dominated"]

    def test_duplicate_vectors_all_stay_on_front(self):
        records = [
            _obj_record(10, 100, 0, "a"),
            _obj_record(10, 100, 0, "b"),
        ]
        front, dominated = pareto_front(records)
        assert len(front) == 2 and not dominated

    def test_default_objectives_paths(self):
        assert [objective.key for objective in DEFAULT_OBJECTIVES] == [
            "measured.mean_latency_ns",
            "predicted.memory_bytes",
            "predicted.update_pps",
        ]


# ---------------------------------------------------------------------------
# Ranking report + Spearman
# ---------------------------------------------------------------------------


class TestRanking:
    def test_spearman_perfect_and_reversed(self):
        assert spearman_correlation([1, 2, 3], [10, 20, 30]) == 1.0
        assert spearman_correlation([1, 2, 3], [30, 20, 10]) == -1.0

    def test_spearman_ties_average_ranks(self):
        rho = spearman_correlation([1.0, 1.0, 2.0], [5.0, 5.0, 9.0])
        assert rho == 1.0
        rho = spearman_correlation([1.0, 1.0, 2.0, 3.0], [4, 7, 5, 9])
        assert rho is not None and 0 < rho < 1

    def test_spearman_degenerate_inputs(self):
        assert spearman_correlation([1.0], [2.0]) is None
        assert spearman_correlation([3.0, 3.0], [1.0, 2.0]) is None

    def test_ranking_report_orders_by_measured(self):
        records = []
        for i, (predicted, measured) in enumerate(
            [(300.0, 30.0), (100.0, 10.0), (200.0, 20.0)]
        ):
            records.append(
                {
                    "cell": i,
                    "fingerprint": f"fp{i}",
                    "config": validate_config({}),
                    "predicted": {
                        "latency_ns": predicted,
                        "memory_bytes": 0.0,
                        "update_pps": 0.0,
                    },
                    "measured": {"mean_latency_ns": measured},
                }
            )
        report = dse_ranking_report(records)
        assert [row.cell for row in report.rows] == [1, 2, 0]
        assert report.spearman == 1.0
        text = format_dse_report(report)
        assert "spearman(predicted, measured): +1.000" in text
        assert "l2l3_acl" in text


# ---------------------------------------------------------------------------
# Cost-model prediction + controller snapshot
# ---------------------------------------------------------------------------


class TestPrediction:
    def test_predict_without_plan(self):
        program = l2l3_acl.build_program()
        profile = uniform_profile(program)
        prediction = CostModel.for_target(BLUEFIELD2).predict(
            program, profile
        )
        assert isinstance(prediction, CostPrediction)
        assert prediction.latency_ns > 0
        # Memory is entry-count-driven; nothing is installed here.
        assert prediction.memory_bytes >= 0
        assert prediction.update_pps == 0.0
        payload = prediction.to_json()
        assert set(payload) == {
            "latency_ns",
            "memory_bytes",
            "update_pps",
        }
        assert all(
            isinstance(value, float) and math.isfinite(value)
            for value in payload.values()
        )

    def test_cell_snapshot_is_pure_config(self):
        controller = PipeleonController(
            l2l3_acl.build_program(), BLUEFIELD2, enabled=False
        )
        try:
            snapshot = controller.cell_snapshot()
        finally:
            controller.deployment.close()
        assert snapshot["jobs"] == 1
        assert snapshot["enabled"] is False
        assert snapshot["reoptimizations"] == 0
        assert set(snapshot) == {
            "jobs",
            "engine",
            "enabled",
            "reoptimizations",
            "plan",
            "plan_gain_ns",
            "plan_memory_bytes",
            "plan_update_pps",
        }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_dse_list_enumerates_without_running(self, capsys):
        from repro.cli import main

        assert main(["dse", "--list", "--preset", "smoke"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert set(first) == {"cell", "fingerprint", "seed", "config"}

    def test_dse_run_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(seed=2).to_json()))
        db = tmp_path / "runs.jsonl"
        bench_out = tmp_path / "bench.json"

        argv = ["dse", "--spec", str(spec_path), "--db", str(db)]
        assert main(argv + ["--max-cells", "1"]) == 0
        partial = json.loads(capsys.readouterr().out)
        assert (partial["executed"], partial["remaining"]) == (1, 1)
        assert partial["complete"] is False

        assert main(argv + ["--bench-out", str(bench_out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["executed"], summary["skipped"]) == (1, 1)
        assert summary["complete"] is True
        assert summary["cells"] == 2
        assert len(summary["pareto_front"]) >= 1
        assert (
            len(summary["pareto_front"]) + summary["dominated"] == 2
        )
        saved = json.loads(bench_out.read_text())
        assert saved["spec"] == "tiny" and saved["complete"] is True

    def test_dse_seed_override_changes_fingerprints(self, capsys):
        from repro.cli import main

        out = []
        for seed in ("0", "1"):
            assert (
                main(
                    [
                        "dse",
                        "--list",
                        "--preset",
                        "smoke",
                        "--seed",
                        seed,
                    ]
                )
                == 0
            )
            lines = capsys.readouterr().out.strip().splitlines()
            out.append([json.loads(line)["fingerprint"] for line in lines])
        assert out[0] != out[1]
