"""Runtime observability: what the engine actually did, measured.

The simulator reports *predicted* makespans in abstract work units; the
engine reports *measured* wall-clock seconds plus every robustness event it
weathered.  :class:`EngineMetrics` is the single record of one run —
exportable as JSON (for dashboards and the benchmark harness) and formatted
for the CLI.  ``measured_speedup`` against a timed sequential run feeds
:func:`repro.core.report.format_calibration_table`, closing the
simulated-vs-measured loop.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.obs.hist import LatencyHistogram, format_seconds, summarize

logger = logging.getLogger(__name__)


def _round_floats(summary: dict, digits: int = 6) -> dict:
    return {
        key: round(value, digits) if isinstance(value, float) else value
        for key, value in summary.items()
    }


@dataclass
class EngineMetrics:
    """Counters and timings for one :class:`~repro.exec.engine.ExecutionEngine` run."""

    workers: int = 0
    capacity: int = 0
    iterations: int = 0
    #: effective transport batch size (1 = classic unbatched wire format)
    batch_size: int = 1
    #: channel wire backend the run used: "pipe", "shm", or "thread"
    transport: str = "pipe"

    # -- wall-clock observability ------------------------------------------------
    wall_seconds: float = 0.0
    #: the run's fixed costs, the two ends of ``wall_seconds`` no stage is
    #: busy in: run entry -> first commit (spawn/lease, channel set-up,
    #: pipeline fill) and end of the commit loop -> children reaped or
    #: released (end-of-stream handshake, joins)
    startup_seconds: float = 0.0
    teardown_seconds: float = 0.0
    #: per-stage busy time summed over tasks (A: produce, B: worker compute,
    #: C: commit callbacks) — the measured analog of the simulator's
    #: per-phase costs
    stage_seconds: Dict[str, float] = field(
        default_factory=lambda: {"A": 0.0, "B": 0.0, "C": 0.0}
    )
    sequential_seconds: Optional[float] = None

    # -- pipeline progress -------------------------------------------------------
    commits: int = 0
    in_order_commits: int = 0
    out_of_order_completions: int = 0
    duplicates_dropped: int = 0
    worker_iterations: Dict[int, int] = field(default_factory=dict)

    # -- speculation -------------------------------------------------------------
    conflicts: int = 0
    serial_reexecutions: int = 0

    # -- robustness --------------------------------------------------------------
    worker_crashes: int = 0
    worker_timeouts: int = 0
    soft_faults: int = 0
    respawns: int = 0
    retries: int = 0
    producer_crashed: bool = False
    degraded_to_sequential: bool = False
    #: the run was cancelled mid-flight (repro.service job cancellation);
    #: the committed prefix is valid but the output is partial
    cancelled: bool = False

    # -- resilience: checkpoint/resume -------------------------------------------
    checkpoints_taken: int = 0
    #: first iteration executed by this run (non-zero when resumed)
    resumed_from: Optional[int] = None

    # -- resilience: adaptive speculation throttling -----------------------------
    throttle_shrinks: int = 0
    throttle_grows: int = 0
    #: smallest in-flight window the controller reached (0: throttle off)
    min_window: int = 0
    #: window in force when the run ended (0: throttle off)
    final_window: int = 0

    # -- channels ----------------------------------------------------------------
    channel_stats: Dict[str, dict] = field(default_factory=dict)

    # -- live telemetry ----------------------------------------------------------
    #: The live watchdog's end-of-run summary (health, stall/saturation/
    #: storm counts, recent events) when the run was observed live
    #: (``LiveConfig`` on the engine); ``None`` otherwise.
    watchdog: Optional[dict] = None

    # -- bottleneck analysis -----------------------------------------------------
    #: Backing store of :attr:`bottleneck`; ``False`` = not resolved yet.
    _bottleneck: Union[dict, None, bool] = field(default=False, repr=False)

    # -- latency distributions ---------------------------------------------------
    #: Per-event latency histograms the committer populates live (no
    #: tracing required): ``task_a``/``task_b``/``task_c`` execution time
    #: per iteration, ``commit_lag`` (claim arrival -> commit), and
    #: ``queue_wait`` (the committer's blocking done-channel reads).  Each
    #: derives its aggregates when read, never on the run's wall.
    latency: Dict[str, LatencyHistogram] = field(default_factory=dict)

    def _histogram(self, series: str) -> LatencyHistogram:
        histogram = self.latency.get(series)
        if histogram is None:
            histogram = self.latency[series] = LatencyHistogram()
        return histogram

    def record_latency(self, series: str, seconds: float) -> None:
        self._histogram(series).add(seconds)

    def adopt_samples(self, series: str, samples: List[float]) -> None:
        """Make ``samples`` the retained samples of ``series``, as they are:
        a list its one writer goes on appending to (the committer's
        per-item series).  No pass over them — nothing is aggregated until
        the histogram is read.  A no-op while the list is empty, so an
        unused series stays absent, and once adopted."""
        if samples and series not in self.latency:
            self.latency[series] = LatencyHistogram(samples=samples)

    @property
    def bottleneck(self) -> Optional[dict]:
        """The analyzer's verdict for this run (``repro.obs.analyze``): top
        blame category, blame fractions, and ranked what-if projections.
        Trace-based when a caller that recorded a trace assigned one;
        otherwise the coarse metrics-only estimate, computed the first
        time it is read after the run (``wall_seconds`` known) — never on
        the run's own wall (a checkpoint cut records :meth:`counters`)."""
        if self._bottleneck is False:
            self.to_json()
        return self._bottleneck or None

    @bottleneck.setter
    def bottleneck(self, verdict: Optional[dict]) -> None:
        self._bottleneck = verdict

    def _resolve_bottleneck(self, data: dict) -> Optional[dict]:
        """``data`` is this object's ``to_json()`` dict, under construction
        (the estimator reads nothing else)."""
        if self._bottleneck is False and self.wall_seconds:
            try:
                from repro.obs.analyze import estimate_bottleneck

                self._bottleneck = estimate_bottleneck(data)
            except Exception:
                # Diagnosis must never take down a successful run.
                logger.debug("bottleneck estimate failed", exc_info=True)
                self._bottleneck = None
        return self._bottleneck or None

    @property
    def measured_speedup(self) -> Optional[float]:
        """Sequential wall time over engine wall time, when both were timed."""
        if not self.sequential_seconds or not self.wall_seconds:
            return None
        return self.sequential_seconds / self.wall_seconds

    @property
    def misspeculation_rate(self) -> float:
        return self.conflicts / self.commits if self.commits else 0.0

    @property
    def comm_overhead(self) -> Dict[str, dict]:
        """Per-channel communication cost of the batched transport (a view
        over ``channel_stats`` for the CLI summary; the JSON export carries
        the stats once, canonically, under ``"channels"``)."""
        overhead = {}
        for name, stats in self.channel_stats.items():
            overhead[name] = {
                "flushes": stats.get("flushes", 0),
                "mean_frame_items": stats.get("mean_frame_items", 0.0),
                "serialize_seconds": stats.get("serialize_seconds", 0.0),
                "deserialize_seconds": stats.get("deserialize_seconds", 0.0),
                "transport": stats.get("transport", "pipe"),
            }
        return overhead

    def counters(self) -> dict:
        """The run's integer counters and each latency series' sample
        count: what a checkpoint cut records.  Costs O(workers + series),
        never O(commits) — no histogram is summarized, no verdict resolved."""
        return {
            "commits": self.commits,
            "in_order_commits": self.in_order_commits,
            "out_of_order_completions": self.out_of_order_completions,
            "duplicates_dropped": self.duplicates_dropped,
            "worker_iterations": {
                str(worker): count
                for worker, count in sorted(self.worker_iterations.items())
            },
            "conflicts": self.conflicts,
            "serial_reexecutions": self.serial_reexecutions,
            "worker_crashes": self.worker_crashes,
            "worker_timeouts": self.worker_timeouts,
            "soft_faults": self.soft_faults,
            "respawns": self.respawns,
            "retries": self.retries,
            "checkpoints_taken": self.checkpoints_taken,
            "resumed_from": self.resumed_from,
            "throttle_shrinks": self.throttle_shrinks,
            "throttle_grows": self.throttle_grows,
            "latency_counts": {
                name: histogram.count
                for name, histogram in sorted(self.latency.items())
                if histogram.count
            },
        }

    def to_json(self) -> dict:
        counters = self.counters()
        del counters["latency_counts"]  # each histogram summary has its count
        data = {
            "workers": self.workers,
            "capacity": self.capacity,
            "iterations": self.iterations,
            "batch_size": self.batch_size,
            "transport": self.transport,
            "wall_seconds": round(self.wall_seconds, 6),
            "startup_seconds": round(self.startup_seconds, 6),
            "teardown_seconds": round(self.teardown_seconds, 6),
            "sequential_seconds": (
                round(self.sequential_seconds, 6)
                if self.sequential_seconds is not None
                else None
            ),
            "measured_speedup": (
                round(self.measured_speedup, 4)
                if self.measured_speedup is not None
                else None
            ),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_seconds.items()
            },
            **counters,
            "misspeculation_rate": round(self.misspeculation_rate, 4),
            "producer_crashed": self.producer_crashed,
            "degraded_to_sequential": self.degraded_to_sequential,
            "cancelled": self.cancelled,
            "min_window": self.min_window,
            "final_window": self.final_window,
            "channels": self.channel_stats,
            "watchdog": self.watchdog,
            "latency_histograms": {
                name: _round_floats(summary)
                for name, summary in summarize(self.latency).items()
            },
        }
        data["bottleneck"] = self._resolve_bottleneck(data)
        return data

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def format_summary(self) -> str:
        """Human-readable run summary for the CLI."""
        lines = [
            f"exec: {self.iterations} iterations on {self.workers} worker(s), "
            f"channel capacity {self.capacity}, {self.transport} transport",
            f"wall clock        {self.wall_seconds:.3f}s  "
            f"(A {self.stage_seconds['A']:.3f}s, B {self.stage_seconds['B']:.3f}s, "
            f"C {self.stage_seconds['C']:.3f}s busy)",
            f"fixed costs       startup {self.startup_seconds:.3f}s, "
            f"teardown {self.teardown_seconds:.3f}s",
        ]
        if self.sequential_seconds is not None:
            # no speedup when nothing ran (a resume of a finished run)
            speedup = self.measured_speedup
            lines.append(
                f"sequential        {self.sequential_seconds:.3f}s"
                + ("" if speedup is None else f"  -> measured speedup {speedup:.2f}x")
            )
        lines.append(
            f"commits           {self.commits} in order "
            f"({self.out_of_order_completions} completed out of order, "
            f"{self.duplicates_dropped} duplicates dropped)"
        )
        lines.append(
            f"speculation       {self.conflicts} conflicts "
            f"({self.misspeculation_rate:.1%}), "
            f"{self.serial_reexecutions} serial re-executions"
        )
        lines.append(
            f"robustness        {self.worker_crashes} crashes, "
            f"{self.worker_timeouts} timeouts, {self.soft_faults} soft faults, "
            f"{self.respawns} respawns, {self.retries} retries"
            + (", producer crashed" if self.producer_crashed else "")
            + (", DEGRADED to sequential" if self.degraded_to_sequential else "")
            + (", CANCELLED" if self.cancelled else "")
        )
        resilience_bits = []
        if self.resumed_from:
            resilience_bits.append(
                f"resumed from iteration {self.resumed_from}"
            )
        if self.checkpoints_taken:
            resilience_bits.append(f"{self.checkpoints_taken} checkpoints")
        if self.throttle_shrinks or self.throttle_grows:
            resilience_bits.append(
                f"throttle {self.throttle_shrinks} shrinks / "
                f"{self.throttle_grows} grows (window min {self.min_window}, "
                f"final {self.final_window})"
            )
        if resilience_bits:
            lines.append("resilience        " + ", ".join(resilience_bits))
        if self.watchdog is not None:
            lines.append(
                f"live health       {self.watchdog.get('health', '?')} "
                f"({self.watchdog.get('stalls', 0)} stalls, "
                f"{self.watchdog.get('saturations', 0)} saturations, "
                f"{self.watchdog.get('storms', 0)} storms"
                + (", ABORTED" if self.watchdog.get("aborted") else "")
                + ")"
            )
        bottleneck = self.bottleneck
        if bottleneck:
            top = bottleneck.get("top", "?")
            fractions = bottleneck.get("fractions") or {}
            recommendation = bottleneck.get("recommendation")
            lines.append(
                f"bottleneck        {top} "
                f"({fractions.get(top, 0.0):.0%} blame, "
                f"{bottleneck.get('source', '?')}-based"
                + (
                    f"; try: {recommendation}" if recommendation else ""
                )
                + ")"
            )
        for name, histogram in sorted(self.latency.items()):
            if histogram.count:
                lines.append(
                    f"latency {name:<11} {histogram.format_line()}"
                )
        # Channel stats may be partial (a resumed run that finished without
        # restarting the pipeline, a degraded teardown): read defensively.
        for name, stats in self.channel_stats.items():
            lines.append(
                f"channel {name:<9} max occupancy "
                f"{stats.get('max_occupancy', 0)}/{stats.get('capacity', 0)}, "
                f"mean {stats.get('mean_occupancy', 0.0)}, "
                f"{stats.get('produces', 0)} produces / "
                f"{stats.get('consumes', 0)} consumes"
            )
        overhead = self.comm_overhead
        if overhead:
            bits = ", ".join(
                f"{name}: {info['flushes']} flushes x "
                f"{info['mean_frame_items']:.1f} items, "
                f"{info['serialize_seconds'] * 1e3:.1f}ms serialize / "
                f"{info['deserialize_seconds'] * 1e3:.1f}ms deserialize"
                for name, info in overhead.items()
            )
            lines.append(
                f"comm overhead     batch {self.batch_size} -> {bits}"
            )
        if self.worker_iterations:
            shares = ", ".join(
                f"B{worker}:{count}"
                for worker, count in sorted(self.worker_iterations.items())
            )
            lines.append(f"worker shares     {shares}")
        return "\n".join(lines)
