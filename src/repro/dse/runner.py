"""Execute sweep cells and persist them to the run database.

Each cell is one self-contained experiment: build the program (example
app or synthesized), optionally optimize it under the cell's budgets,
deploy through :class:`~repro.core.controller.PipeleonController` (which
owns the engine-tier / sharded-runtime plumbing), replay the
cell's seeded traffic, then record the cost model's prediction next to
the measured telemetry. Everything recorded except the ``wall`` block is
a pure function of (spec, seed), which is what makes resumed sweeps
bit-identical.

``run_sweep`` skips cells whose fingerprint is already in the database,
then executes the remainder — serially, or across a fork-context
:class:`~concurrent.futures.ProcessPoolExecutor`. The pool *must* be
fork-based and non-daemonic: cells with ``jobs > 1`` fork their own
shard workers, which daemonic ``multiprocessing.Pool`` workers may not
do. Results append strictly in matrix order (``executor.map`` preserves
it) so an interrupted database is always a prefix of the full one.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from .hostinfo import host_metadata
from .matrix import Cell, enumerate_cells
from .rundb import RunDatabase
from .spec import SweepSpec

#: Bump when the record layout changes incompatibly.
RECORD_SCHEMA = 1


def build_cell_program(config: dict, sweep_seed: int):
    """(program, install_entries | None) for one cell config.

    Synthesized programs are seeded from the sweep seed plus only the
    shape knobs, so cells differing in runtime knobs exercise the
    *same* program — the same controlled-comparison rule the traffic
    seed follows (see :mod:`repro.dse.matrix`).
    """
    if config["app"] == "synth":
        from repro.synthesis import ProgramSynthesizer, SynthesisConfig

        pn, pl = config["synth_pn"], config["synth_pl"]
        seed = random.Random(
            f"dse:{sweep_seed}:synth:{pn}:{pl}"
        ).randrange(2**31)
        synth = SynthesisConfig(
            n_pipelets=pn,
            pipelet_len_min=pl,
            pipelet_len_max=pl,
            seed=seed,
        )
        return ProgramSynthesizer(synth).generate(), None
    from repro.apps import EXAMPLE_APPS

    build, install = EXAMPLE_APPS[config["app"]]
    return build(), install


def run_cell(cell: Cell, sweep_seed: int, spec_name: str) -> dict:
    """Execute one cell and return its run-database record."""
    from repro.core import (
        Pipeleon,
        PipeleonController,
        ResourceBudget,
    )
    from repro.core.search import SearchOptions
    from repro.nic.targets import get_target
    from repro.traffic.flows import synth_flows
    from repro.traffic.generator import TrafficGenerator

    config = cell.config
    target = get_target(config["target"])
    program, install = build_cell_program(config, sweep_seed)

    budget = ResourceBudget(
        memory_bytes=(
            config["memory_budget"]
            if config["memory_budget"] is not None
            else math.inf
        ),
        update_pps=(
            config["update_budget"]
            if config["update_budget"] is not None
            else math.inf
        ),
    )
    search = SearchOptions(
        k=config["topk"], cache_capacity=config["cache_capacity"]
    )
    plan = None
    if config["optimize"]:
        plan = Pipeleon(target, budget=budget, search=search).optimize(
            program
        )

    controller = PipeleonController(
        program,
        target,
        budget=budget,
        search=search,
        baseline_plan=plan,
        enabled=False,  # one static config per cell; no mid-replay replans
        jobs=config["jobs"],
        engine=config["engine"],
    )
    try:
        if install is not None:
            install(controller.control_plane)
        generator = TrafficGenerator(seed=cell.seed)
        packets = generator.stream(
            synth_flows(config["flows"]),
            config["packets"],
            locality=config["locality"],
            zipf_skew=config["zipf_skew"],
        )
        start = time.perf_counter()
        stats = controller.deployment.replay(
            packets, batch=config["batch"]
        )
        wall_s = time.perf_counter() - start
        # profile() merges shard state home, so read counters after it.
        profile = controller.collect_profile()
        predicted = controller.model.predict(
            controller.deployment.program, profile, plan=plan
        )
        measured = stats.summary(target)
        measured["materialized_updates"] = float(
            sum(controller.deployment.materialized_updates.values())
        )
        if config["engine"] == "auto":
            emulator = controller.deployment.emulator
            measured["columnar_packets"] = float(emulator.columnar_packets)
            measured["columnar_partitions"] = float(
                emulator.columnar_partitions
            )
            measured["columnar_demotions"] = float(
                sum(emulator.columnar_demotions.values())
            )
        snapshot = controller.cell_snapshot()
    finally:
        controller.deployment.close()

    return {
        "schema": RECORD_SCHEMA,
        "spec": spec_name,
        "cell": cell.index,
        "fingerprint": cell.fingerprint,
        "seed": cell.seed,
        "config": config,
        "snapshot": snapshot,
        "predicted": predicted.to_json(),
        "measured": measured,
        "wall": {"wall_s": wall_s},
    }


@dataclass(frozen=True)
class SweepResult:
    """What one ``run_sweep`` call did, plus the full record set."""

    spec: SweepSpec
    records: list  # every completed record for the spec, matrix order
    executed: int
    skipped: int
    remaining: int
    db_path: Path

    @property
    def complete(self) -> bool:
        return self.remaining == 0


def run_sweep(
    spec: SweepSpec,
    db_path,
    pool: int = 1,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> SweepResult:
    """Run (or resume) a sweep, appending new cells to the database.

    ``max_cells`` caps how many *new* cells execute this invocation —
    the deterministic stand-in for a mid-sweep kill that the resume
    tests and the CI smoke job rely on.
    """
    cells = enumerate_cells(spec)
    db = RunDatabase(db_path)
    done = db.load()
    todo = [cell for cell in cells if cell.fingerprint not in done]
    skipped = len(cells) - len(todo)
    if max_cells is not None:
        todo = todo[:max_cells]

    host = host_metadata()
    worker = partial(
        run_cell, sweep_seed=spec.seed, spec_name=spec.name
    )
    if pool > 1 and len(todo) > 1:
        # Fork context: pool workers must be able to fork shard
        # workers of their own (jobs > 1 cells), which daemonic
        # multiprocessing.Pool processes cannot.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(pool, len(todo)), mp_context=context
        ) as executor:
            results = executor.map(worker, todo)
            for record in results:  # map() preserves matrix order
                record["host"] = host
                db.append(record)
                if progress is not None:
                    progress(record)
    else:
        for cell in todo:
            record = worker(cell)
            record["host"] = host
            db.append(record)
            if progress is not None:
                progress(record)

    by_fingerprint = db.load()
    records = [
        by_fingerprint[cell.fingerprint]
        for cell in cells
        if cell.fingerprint in by_fingerprint
    ]
    return SweepResult(
        spec=spec,
        records=records,
        executed=len(todo),
        skipped=skipped,
        remaining=len(cells) - len(records),
        db_path=Path(db_path),
    )
