"""Timing samples and the benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's side of each call into a layer
(name, start, end, parent, workload id) and held in memory until the run
ends; nothing here reaches into ``src/``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Everything a run writes (trace, server state, spools) lands here.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) the way the acceptance rule computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Samples:
    """Named lists of timings taken during one run."""

    def __init__(self) -> None:
        self.by_name: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.by_name.setdefault(name, []).append(value)

    def get(self, name: str) -> List[float]:
        return self.by_name.get(name, [])

    def median(self, name: str) -> float:
        return statistics.median(self.by_name[name])

    def best(self, name: str) -> float:
        """The fastest repetition.  Interference from neighbours on a
        shared host only ever adds time, so for repetitions of one
        deterministic operation the minimum is the steadiest estimate of
        the program's own cost (see README, "Why best-of-N")."""
        return min(self.by_name[name])

    def describe(self, name: str) -> str:
        values = self.by_name[name]
        q1, q2, q3 = quartiles(values)
        return (f"n={len(values)} min={min(values):.6g} q1={q1:.6g} "
                f"median={q2:.6g} q3={q3:.6g}")


class SpanRecorder:
    """Nested spans on ``time.perf_counter``; a disabled recorder is inert,
    so the untraced pass pays one attribute test per call site."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def open(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.spans)
        self.spans.append({
            "id": index,
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() if start is None else start,
            "end": None,
        })
        self._stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None) -> None:
        self.spans[index]["end"] = time.perf_counter() if end is None else end
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished child of the current span, from timestamps taken
        elsewhere (a commit callback, a job's server-side clock)."""
        if self.enabled:
            self.close(self.open(name, start), end)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        children: Dict[int, List[tuple]] = {}
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"])
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            duration = span["end"] - span["start"]
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + duration - covered
            )
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"workload": self.workload, "clock": "perf_counter_s",
                 "spans": self.spans, "self_time_s": self.self_times()},
                handle, indent=1,
            )


class Run:
    """What one pass over one workload accumulates."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.rec = SpanRecorder(workload, traced)
        #: walls of the operation (``op``), its reference (``ref``), ...
        self.samples = Samples()
        #: per-layer readings taken once per traced operation; a layer
        #: metric not set directly is the median of its readings
        self.layer_samples = Samples()
        self.layers: Dict[str, float] = {}
        #: metric name -> why it could not be measured on this host
        self.unmeasured: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, reasons: List[str]) -> None:
        """Count one operation; it failed if the gate gave any reason."""
        self.attempted += 1
        if reasons:
            self.failures.append(f"{what}: {'; '.join(reasons)}")

    def layer_metrics(self) -> Dict[str, float]:
        metrics = {
            name: statistics.median(values)
            for name, values in self.layer_samples.by_name.items()
        }
        metrics.update(self.layers)
        return metrics
