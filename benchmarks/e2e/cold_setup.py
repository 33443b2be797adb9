"""One set-up of one workload in a fresh interpreter, for ``run.py``.

    python3 benchmarks/e2e/cold_setup.py WORKLOAD SEED

Imports the program, sets the workload up (build, optimize, deploy or
fork, install, compile, warm-up batches), prints ``ready`` and tears the
system down, the helper process of `multiprocessing.shared_memory`
included, so that nothing outlives it. ``run.py`` times from starting
this process to that line.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def main(name: str, seed: str) -> None:
    from tracing import Trace
    from workloads import WORKLOADS, stop_child_processes

    workload = WORKLOADS[name](Trace(False))
    try:
        workload.set_up(int(seed))
        print("ready", flush=True)
    finally:
        try:
            workload.close()
        finally:
            stop_child_processes()


if __name__ == "__main__":
    main(*sys.argv[1:])
