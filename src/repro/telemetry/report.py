"""Report layer: join traced latencies against cost-model predictions.

Closes the loop the paper leaves open: §3.1's cost model predicts
per-pipelet latency, the tracer measures it on the same run, and this
module lines the two up per pipelet. The measured figure for a pipelet
is the traced time spent in its tables per packet *entering* the
pipelet; the predicted figure is :func:`~repro.core.hotspots.
pipelet_latency` (reach-weighted node costs conditional on entry), so
both sides answer the same question and an error column is meaningful.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.core.costmodel import CostModel
from repro.core.hotspots import pipelet_latency
from repro.core.pipelets import partition
from repro.core.profiling import RuntimeProfile
from repro.ir.program import Program
from repro.telemetry.tracing import PacketTracer


@dataclass(frozen=True)
class PipeletRow:
    """Measured-vs-predicted latency for one pipelet."""

    pipelet_id: str
    tables: tuple[str, ...]
    traced_packets: int  # traced packets that entered the pipelet
    measured_ns: float  # traced ns in pipelet tables per entering packet
    predicted_ns: float  # cost-model L(G') under the run's profile

    @property
    def error_pct(self) -> Optional[float]:
        """Signed relative error; None when unmeasurable."""
        if not self.traced_packets or self.predicted_ns <= 0:
            return None
        return (
            (self.measured_ns - self.predicted_ns)
            / self.predicted_ns
            * 100.0
        )

    def to_json(self) -> dict:
        return {
            "pipelet_id": self.pipelet_id,
            "tables": list(self.tables),
            "traced_packets": self.traced_packets,
            "measured_ns": self.measured_ns,
            "predicted_ns": self.predicted_ns,
            "error_pct": self.error_pct,
        }


@dataclass(frozen=True)
class LatencyReport:
    """Per-pipelet rows plus whole-program measured/predicted totals."""

    rows: tuple[PipeletRow, ...]
    traced_packets: int
    measured_total_ns: float  # mean traced end-to-end latency
    predicted_total_ns: float  # cost-model expected program latency

    def to_json(self) -> dict:
        return {
            "rows": [row.to_json() for row in self.rows],
            "traced_packets": self.traced_packets,
            "measured_total_ns": self.measured_total_ns,
            "predicted_total_ns": self.predicted_total_ns,
        }


def measured_vs_predicted(
    program: Program,
    profile: RuntimeProfile,
    model: CostModel,
    tracer: PacketTracer,
) -> LatencyReport:
    """Build the measured-vs-predicted table for a traced run.

    ``program`` is the *deployed* program (the one the tracer watched);
    pipelets are recomputed from it, so optimized layouts report their
    actual runs, not the original program's.
    """
    rows = []
    for pipelet in partition(program):
        entered = tracer.node_visits(pipelet.entry)
        total_ns = sum(
            tracer.node_total_ns(name) for name in pipelet.table_names
        )
        rows.append(
            PipeletRow(
                pipelet_id=pipelet.pipelet_id,
                tables=pipelet.table_names,
                traced_packets=entered,
                measured_ns=total_ns / entered if entered else 0.0,
                predicted_ns=pipelet_latency(
                    program, pipelet, profile, model
                ),
            )
        )
    traced = len(tracer.traces)
    measured_total = (
        sum(t.latency_ns for t in tracer.traces) / traced if traced else 0.0
    )
    return LatencyReport(
        rows=tuple(rows),
        traced_packets=tracer.sampled,
        measured_total_ns=measured_total,
        predicted_total_ns=model.expected_latency(program, profile),
    )


@dataclass(frozen=True)
class KernelRow:
    """One DAG node's columnar kernel time vs its modeled cost.

    Wall time is host-CPU seconds spent in the node's batch kernel;
    the model figure is the emulated device nanoseconds the cost model
    charges per packet at that node. The units differ, so the
    meaningful comparison is the *share* columns: if the cost model is
    faithful, the nodes it says dominate device latency should also
    dominate kernel wall time.
    """

    node: str
    packets: int
    partitions: int  # flow-key partitions resolved (lookups done)
    scalar_lookups: int  # of those, resolved one MatchEngine.lookup each
    cache_replayed: int  # packets the node's cache step replayed in order
    wall_us_per_kpkt: float  # measured kernel host-us per 1k packets
    model_ns_per_pkt: float  # cost-model primary charge per packet
    wall_share: float  # fraction of total kernel wall time
    model_share: float  # fraction of total modeled packet-ns

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KernelReport:
    """Per-node columnar kernel timings joined with model predictions."""

    rows: tuple[KernelRow, ...]
    columnar_packets: int
    columnar_partitions: int
    demotions: dict[str, int]

    def to_json(self) -> dict:
        return {
            "rows": [row.to_json() for row in self.rows],
            "columnar_packets": self.columnar_packets,
            "columnar_partitions": self.columnar_partitions,
            "demotions": dict(self.demotions),
        }


def columnar_kernel_report(emulator) -> KernelReport:
    """Join a columnar engine's kernel timings with cost predictions.

    ``emulator`` is a :class:`~repro.nic.emulator.NicEmulator` whose
    columnar tier has replayed traffic (``engine="auto"``); the
    engine accumulates per-node wall time and packet counts as a side
    effect of every walk.
    """
    engine = emulator.columnar
    wall_total = sum(engine.node_time_s.values())
    model_weight = {
        node: engine.node_model_ns.get(node, 0.0)
        * engine.node_packets.get(node, 0)
        for node in engine.node_time_s
    }
    model_total = sum(model_weight.values())
    rows = []
    for node, wall_s in sorted(
        engine.node_time_s.items(), key=lambda kv: -kv[1]
    ):
        packets = engine.node_packets.get(node, 0)
        rows.append(
            KernelRow(
                node=node,
                packets=packets,
                partitions=engine.node_partitions.get(node, 0),
                scalar_lookups=emulator.columnar_scalar_lookups.get(node, 0),
                cache_replayed=emulator.columnar_cache_replayed.get(node, 0),
                wall_us_per_kpkt=(
                    wall_s * 1e6 / (packets / 1000.0) if packets else 0.0
                ),
                model_ns_per_pkt=engine.node_model_ns.get(node, 0.0),
                wall_share=wall_s / wall_total if wall_total else 0.0,
                model_share=(
                    model_weight[node] / model_total if model_total else 0.0
                ),
            )
        )
    return KernelReport(
        rows=tuple(rows),
        columnar_packets=emulator.columnar_packets,
        columnar_partitions=emulator.columnar_partitions,
        demotions=dict(emulator.columnar_demotions),
    )


def format_kernel_report(report: KernelReport) -> str:
    """Human-readable columnar kernel-vs-model table."""
    header = (
        f"{'node':<28} {'packets':>9} {'parts':>7} {'scalar':>7} "
        f"{'replayed':>8} {'us/kpkt':>9} "
        f"{'model_ns':>9} {'wall%':>7} {'model%':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in report.rows:
        name = row.node if len(row.node) <= 28 else row.node[:25] + "..."
        lines.append(
            f"{name:<28} {row.packets:>9} {row.partitions:>7} "
            f"{row.scalar_lookups:>7} {row.cache_replayed:>8} "
            f"{row.wall_us_per_kpkt:>9.2f} "
            f"{row.model_ns_per_pkt:>9.1f} {row.wall_share * 100:>6.1f}% "
            f"{row.model_share * 100:>6.1f}%"
        )
    lines.append("-" * len(header))
    demoted = sum(report.demotions.values())
    reasons = (
        ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(report.demotions.items())
        )
        if report.demotions
        else "none"
    )
    lines.append(
        f"columnar packets: {report.columnar_packets}  "
        f"partitions: {report.columnar_partitions}  "
        f"demoted: {demoted} ({reasons})"
    )
    return "\n".join(lines)


def format_report(report: LatencyReport) -> str:
    """Human-readable measured-vs-predicted table."""
    header = (
        f"{'pipelet':<12} {'tables':<40} {'traced':>7} "
        f"{'measured_ns':>12} {'predicted_ns':>13} {'error':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in report.rows:
        tables = " -> ".join(row.tables)
        if len(tables) > 40:
            tables = tables[:37] + "..."
        error = (
            f"{row.error_pct:+.1f}%" if row.error_pct is not None else "n/a"
        )
        lines.append(
            f"{row.pipelet_id:<12} {tables:<40} {row.traced_packets:>7} "
            f"{row.measured_ns:>12.1f} {row.predicted_ns:>13.1f} "
            f"{error:>8}"
        )
    lines.append("-" * len(header))
    total_error = "n/a"
    if report.predicted_total_ns > 0 and report.traced_packets:
        total_error = (
            f"{(report.measured_total_ns - report.predicted_total_ns) / report.predicted_total_ns * 100.0:+.1f}%"
        )
    lines.append(
        f"{'program':<12} {'(end-to-end, traced mean)':<40} "
        f"{report.traced_packets:>7} {report.measured_total_ns:>12.1f} "
        f"{report.predicted_total_ns:>13.1f} {total_error:>8}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Design-space exploration: predicted-vs-measured ranking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DseCellRow:
    """One sweep cell's predicted and measured latency, with ranks."""

    cell: int
    fingerprint: str
    label: str  # short human config digest (app/target/engine...)
    predicted_ns: float
    measured_ns: float
    predicted_rank: float  # average ranks: ties share a rank
    measured_rank: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DseRankingReport:
    """Does the cost model *order* configurations correctly?

    The DSE harness cares about ranking more than absolute error: the
    search only needs the model to pick the right winner, so the
    headline number is the Spearman rank correlation between predicted
    and measured latency across the sweep (tie-aware: tied values get
    their average rank).
    """

    rows: tuple[DseCellRow, ...]  # sorted by measured latency
    spearman: Optional[float]  # None when fewer than 2 distinct cells

    def to_json(self) -> dict:
        return {
            "rows": [row.to_json() for row in self.rows],
            "spearman": self.spearman,
        }


def _average_ranks(values: list[float]) -> list[float]:
    """1-based ranks, ties averaged (the Spearman convention)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_correlation(
    predicted: list[float], measured: list[float]
) -> Optional[float]:
    """Tie-aware Spearman rho (Pearson over average ranks)."""
    n = len(predicted)
    if n != len(measured):
        raise ValueError("predicted/measured length mismatch")
    if n < 2:
        return None
    rp = _average_ranks(list(predicted))
    rm = _average_ranks(list(measured))
    mean_p = sum(rp) / n
    mean_m = sum(rm) / n
    cov = sum((p - mean_p) * (m - mean_m) for p, m in zip(rp, rm))
    var_p = sum((p - mean_p) ** 2 for p in rp)
    var_m = sum((m - mean_m) ** 2 for m in rm)
    if var_p == 0.0 or var_m == 0.0:
        # A constant side carries no ranking information.
        return None
    return cov / (var_p * var_m) ** 0.5


def _cell_label(config: dict) -> str:
    parts = [str(config.get("app", "?")), str(config.get("target", "?"))]
    engine = config.get("engine")
    if engine and engine != "auto":
        parts.append(str(engine))
    jobs = config.get("jobs", 1)
    if jobs and int(jobs) > 1:
        parts.append(f"x{jobs}")
    locality = config.get("locality")
    if locality and locality != "uniform":
        parts.append(str(locality))
    cache = config.get("cache_capacity")
    if cache is not None:
        parts.append(f"c{cache}")
    return "/".join(parts)


def dse_ranking_report(records) -> DseRankingReport:
    """Rank-join run-database records' predicted vs measured latency.

    ``records`` are :mod:`repro.dse.rundb` dicts (any iterable); rows
    come back sorted by measured latency so the table reads as a
    leaderboard.
    """
    cells = [
        r
        for r in records
        if "predicted" in r and "measured" in r
    ]
    predicted = [float(r["predicted"]["latency_ns"]) for r in cells]
    measured = [float(r["measured"]["mean_latency_ns"]) for r in cells]
    pred_ranks = _average_ranks(predicted)
    meas_ranks = _average_ranks(measured)
    rows = [
        DseCellRow(
            cell=int(r.get("cell", i)),
            fingerprint=str(r.get("fingerprint", "")),
            label=_cell_label(r.get("config", {})),
            predicted_ns=predicted[i],
            measured_ns=measured[i],
            predicted_rank=pred_ranks[i],
            measured_rank=meas_ranks[i],
        )
        for i, r in enumerate(cells)
    ]
    rows.sort(key=lambda row: (row.measured_ns, row.cell))
    return DseRankingReport(
        rows=tuple(rows),
        spearman=spearman_correlation(predicted, measured),
    )


def format_dse_report(report: DseRankingReport) -> str:
    """Human-readable sweep leaderboard with rank agreement."""
    header = (
        f"{'cell':>4} {'config':<38} {'measured_ns':>12} "
        f"{'predicted_ns':>13} {'m#':>5} {'p#':>5}"
    )
    lines = [header, "-" * len(header)]
    for row in report.rows:
        label = (
            row.label if len(row.label) <= 38 else row.label[:35] + "..."
        )
        lines.append(
            f"{row.cell:>4} {label:<38} {row.measured_ns:>12.1f} "
            f"{row.predicted_ns:>13.1f} {row.measured_rank:>5.1f} "
            f"{row.predicted_rank:>5.1f}"
        )
    lines.append("-" * len(header))
    spearman = (
        f"{report.spearman:+.3f}" if report.spearman is not None else "n/a"
    )
    lines.append(
        f"cells: {len(report.rows)}  spearman(predicted, measured): "
        f"{spearman}"
    )
    return "\n".join(lines)
