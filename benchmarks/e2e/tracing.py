"""In-memory spans recorded by the benchmark around calls into each layer.

Spans live in a list until the run ends and are written out once
(``write``). A span's *self time* is its duration minus the part of it
its child spans cover; children are the spans opened while it was the
innermost open span. With ``enabled=False`` ``span`` does nothing, so
the end-to-end run and the traced run share one code path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional


class Trace:
    """Span recorder; spans are ``[name, start_ns, end_ns, parent, cycle]``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Identifier shared by every span of one benchmark cycle.
        self.cycle: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), 0, parent, self.cycle]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (warm-up, untraced reference)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, name: str, fn):
        """``fn`` with a span of ``name`` around every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- reading -----------------------------------------------------------

    def durations_s(self, name: str, since: int = 0) -> list[float]:
        """Wall seconds of each span called ``name`` from index ``since``."""
        return [
            (end - start) / 1e9
            for span_name, start, end, _, _ in self.spans[since:]
            if span_name == name
        ]

    def self_durations_s(self, name: str, since: int = 0) -> list[float]:
        """Self time of each span called ``name``: its duration minus
        the duration of the spans opened directly inside it."""
        spans = self.spans
        child_ns: dict[int, int] = {}
        for _, start, end, parent, _ in spans[since:]:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        return [
            (end - start - child_ns.get(index, 0)) / 1e9
            for index, (span_name, start, end, _, _) in enumerate(spans)
            if index >= since and span_name == name
        ]

    def top_level_s(self, since: int = 0) -> float:
        """Summed wall of spans from ``since`` on that have no parent."""
        return sum(
            (end - start) / 1e9
            for _, start, end, parent, _ in self.spans[since:]
            if parent is None
        )

    def write(self, path: Path, workload: str, seed: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "workload": workload,
            "seed": seed,
            "clock": "time.perf_counter_ns",
            "spans": [
                {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "cycle": cycle,
                }
                for name, start, end, parent, cycle in self.spans
            ],
        }
        path.write_text(json.dumps(document, separators=(",", ":")))
