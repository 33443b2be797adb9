"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability subsystem. It is
*mergeable* exactly like :class:`~repro.nic.stats.RunStats` — a sharded
replay collects one registry per worker and folds them with
:meth:`MetricsRegistry.merge` into the registry a single-core run would
have produced — and exportable in two formats:

* Prometheus text exposition (``to_prometheus``), so a run's metrics
  drop straight into any scrape-based pipeline, and
* plain JSON (``to_json``), for the benchmark suite and tests.

Histograms use **fixed log-spaced buckets** (powers of two over the
latency range the emulator produces). Fixed buckets are what make the
histograms mergeable: any two histograms of the same metric share bucket
boundaries by construction, so a merge is an element-wise sum.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Optional

#: Log-spaced (base 2) latency buckets in nanoseconds: 16 ns .. ~1.05 ms.
#: Fixed once so per-shard histograms always merge element-wise.
LATENCY_BUCKETS_NS: tuple[float, ...] = tuple(
    float(2**exp) for exp in range(4, 21)
)


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_series(name: str, key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return name
    labels = ",".join(
        f'{label}="{_escape_label(value)}"' for label, value in key
    )
    return f"{name}{{{labels}}}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


class Histogram:
    """Fixed-bucket histogram with a sum and a count.

    ``counts[i]`` holds observations in ``(buckets[i-1], buckets[i]]``;
    the final slot is the overflow (``+Inf``) bucket. Cumulative
    Prometheus ``le`` counts are derived at export time.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS_NS):
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError("Histogram buckets must be sorted and unique")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Observe ``value`` ``count`` times (the sum adds ``value *
        count`` once)."""
        self.counts[bisect_left(self.buckets, value)] += count
        self.sum += value * count
        self.count += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the hit bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return float("inf")
        return float("inf")

    def merge(self, other: "Histogram") -> "Histogram":
        if other.buckets != self.buckets:
            raise ValueError(
                "Cannot merge histograms with different buckets"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.sum += other.sum
        self.count += other.count
        return self

    def to_json(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class _Family:
    """One named metric: a type, help text, and labelled series."""

    __slots__ = ("name", "type", "help", "series")

    def __init__(self, name: str, metric_type: str, help_text: str):
        self.name = name
        self.type = metric_type
        self.help = help_text
        self.series: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """Named counters/gauges/histograms with labels, merge and export."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    def _family(
        self, name: str, metric_type: str, help_text: str
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name, metric_type, help_text
            )
        elif family.type != metric_type:
            raise ValueError(
                f"Metric {name!r} is a {family.type}, not a {metric_type}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    # -- writes ------------------------------------------------------------

    def inc(
        self,
        name: str,
        value: float = 1.0,
        help: str = "",
        **labels: object,
    ) -> None:
        if value < 0:
            raise ValueError("Counters only go up")
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        family.series[key] = family.series.get(key, 0.0) + value

    def set_gauge(
        self, name: str, value: float, help: str = "", **labels: object
    ) -> None:
        family = self._family(name, "gauge", help)
        family.series[_label_key(labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> None:
        self.histogram(
            name, help=help, buckets=buckets, **labels
        ).observe(value)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> Histogram:
        """The (created-on-demand) histogram behind a series."""
        family = self._family(name, "histogram", help)
        key = _label_key(labels)
        hist = family.series.get(key)
        if hist is None:
            hist = family.series[key] = Histogram(
                buckets if buckets is not None else LATENCY_BUCKETS_NS
            )
        return hist

    # -- reads -------------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        family = self._families.get(name)
        if family is None:
            return 0.0
        found = family.series.get(_label_key(labels))
        if found is None:
            return 0.0
        if isinstance(found, Histogram):
            raise ValueError(f"Metric {name!r} is a histogram; no value")
        return float(found)

    def names(self) -> list[str]:
        return sorted(self._families)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in (associative, shard-merge safe).

        Counters and histograms add; gauges are last-observation-wins
        per series, which for the shard case (every worker reports the
        same control-plane-authoritative value) is the right fold.
        """
        for name, theirs in other._families.items():
            mine = self._family(name, theirs.type, theirs.help)
            for key, value in theirs.series.items():
                if theirs.type == "counter":
                    mine.series[key] = mine.series.get(key, 0.0) + value
                elif theirs.type == "gauge":
                    mine.series[key] = value
                else:
                    hist = mine.series.get(key)
                    if hist is None:
                        hist = mine.series[key] = Histogram(value.buckets)
                    hist.merge(value)
        return self

    def reset(self) -> None:
        self._families.clear()

    # -- export ------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.type}")
            for key in sorted(family.series):
                value = family.series[key]
                if isinstance(value, Histogram):
                    cumulative = 0
                    for bound, bucket_count in zip(
                        value.buckets, value.counts
                    ):
                        cumulative += bucket_count
                        series = _format_series(
                            f"{name}_bucket",
                            key + (("le", _format_value(bound)),),
                        )
                        lines.append(f"{series} {cumulative}")
                    series = _format_series(
                        f"{name}_bucket", key + (("le", "+Inf"),)
                    )
                    lines.append(f"{series} {value.count}")
                    lines.append(
                        f"{_format_series(f'{name}_sum', key)} "
                        f"{_format_value(value.sum)}"
                    )
                    lines.append(
                        f"{_format_series(f'{name}_count', key)} "
                        f"{value.count}"
                    )
                else:
                    lines.append(
                        f"{_format_series(name, key)} "
                        f"{_format_value(float(value))}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> dict:
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family.series):
                value = family.series[key]
                entry: dict = {"labels": dict(key)}
                if isinstance(value, Histogram):
                    entry.update(value.to_json())
                else:
                    entry["value"] = value
                series.append(entry)
            out[name] = {
                "type": family.type,
                "help": family.help,
                "series": series,
            }
        return out
