#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``: A is the
parent, B the change.

One row per workload and end-to-end metric: both medians with their
quartiles over the runs, B's median as a ratio of A's, how much worse B
is as a share of A, the spread between runs (distance between quartiles
over the median, the wider of the two sides), the bound from
``BENCHMARK.json`` and a verdict:

* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` it is not, but the runs spread wider than the bound,
  so "no worse" cannot be told from noise;
* ``ok``         otherwise.

Values the program computes rather than measures (modeled-NIC numbers
and counts from the traced run) must be identical when both files were
made with the same seed and run length. Each run checks its output
against an interpreter of its own commit, so a change that moves system
and interpreter alike shows only here. Exits 1 on a regressed row, on a
computed value that differs, on more failed operations in B, or on
wrong output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Units of per-layer values that are computed, not timed.
EXACT_UNITS = ("count", "model_ns", "model_Gbit/s")
#: Counts that follow the wall clock (snapshot cadence, how full a ring
#: was when the parent pushed) and so need not repeat.
WALL_DRIVEN = ("telemetry.live.flight_rows", "nic.shm_transport.stalls")


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles as the acceptance procedure takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    lines = [
        "| workload | metric | A median (q1..q3) | B median (q1..q3) "
        "| B/A | worse by | spread | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    bad = False
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"][name]
        for metric in spec["end_to_end"]:
            med_a, q1_a, q3_a = summary(side_a["end_to_end"][metric["name"]])
            med_b, q1_b, q3_b = summary(side_b["end_to_end"][metric["name"]])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a
            spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
            if worse > metric["bound"]:
                verdict = "regressed"
                bad = True
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"| {name} | {metric['name']} ({metric['unit']}) "
                f"| {med_a:.5g} ({q1_a:.5g}..{q3_a:.5g}) "
                f"| {med_b:.5g} ({q1_b:.5g}..{q3_b:.5g}) "
                f"| {med_b / med_a:.3f} of {med_a:.5g} | {worse:+.1%} "
                f"| {spread:.1%} | {metric['bound']:.0%} | {verdict} |"
            )
        if not (side_a["correct"] and side_b["correct"]):
            lines.append(f"| {name} | output | | | | | | | WRONG |")
            bad = True
        share_a = side_a["failed"] / side_a["attempted"]
        share_b = side_b["failed"] / side_b["attempted"]
        if share_b > share_a:
            lines.append(
                f"| {name} | failed share | {share_a:.3g} | {share_b:.3g} "
                "| | | | 0% | regressed |"
            )
            bad = True

    lines.append("")
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        lines.append(
            "computed values not compared: seeds or run lengths differ"
        )
        return lines, bad
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    differing = []
    for name, side_a in a["workloads"].items():
        layer_b = b["workloads"][name]["per_layer"]
        for metric, value in side_a["per_layer"].items():
            exact = units[metric] in EXACT_UNITS and metric not in WALL_DRIVEN
            if exact and value != layer_b[metric]:
                differing.append(
                    f"{name} {metric}: A {value!r}, B {layer_b[metric]!r}"
                )
    lines.append(
        f"computed values (modeled NIC numbers, traced counts): "
        f"{len(differing)} differ"
    )
    lines.extend(f"  {line}" for line in differing)
    return lines, bad or bool(differing)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
