"""The shared-memory metrics registry: live counters without locks.

PR 4's spools answer *what happened* after the run; this registry answers
*what is happening now*.  Producer, workers, and the committer write
monotonic counters, gauges, and fixed-bucket latency histograms into one
shared-memory block, and a monitor thread in the parent samples it at any
moment — mid-run, mid-storm, mid-crash — without stopping anything.

The write discipline reuses PR 3's shared-counter idiom: **one writer per
slot, one atomic slot store per update, no locks on the hot path**.  Every
traced process owns a private row of the counter/histogram arrays
(``writer`` index), so an update is a plain aligned-int64 store — readers
may observe a value a few stores stale, never a torn or double-counted
one.  Batched producers amortize further: one ``add(..., n=len(chunk))``
per dispatched frame, exactly like the channels' counter cells
(:class:`repro.exec.channels.ProcessChannel`: one seat per stage view,
summed in the same reverse-causal order).

Snapshot consistency is by *read order*, not locking.  The pipeline's
causal chain is ``produced -> claimed -> executed/committed``: an item is
produced before any worker can claim it, and claimed before the committer
can commit it.  Because every counter is monotone, reading the chain in
**reverse causal order** (committed, then executed, then claimed, then
produced) guarantees each snapshot satisfies
``committed <= claimed <= produced`` on any healthy run — the invariant
the property tests hammer — without ever pausing a writer.

Histograms use fixed power-of-two bucket bounds (1 µs .. ~67 s plus an
overflow bucket) so a bucket index is a few integer compares; percentile
estimates interpolate linearly inside the landing bucket.  The layout maps
one-to-one onto the Prometheus histogram exposition
(:mod:`repro.obs.serve`), cumulative ``le`` buckets included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Monotonic counters, one row per writer.  Order is the public schema —
#: :data:`SNAPSHOT_READ_ORDER` depends on these names.
COUNTER_NAMES = (
    "produced",         # phase-A items dispatched to the work channel
    "claimed",          # work items claimed by phase-B workers
    "executed",         # phase-B task executions completed in a worker
    "committed",        # iterations committed, in order, exactly once
    "conflicts",        # commit-time validation failures (misspeculation)
    "serial_reexec",    # committer-side serial re-executions
    "soft_faults",      # worker-reported task exceptions
    "worker_crashes",   # nonzero worker exits detected
    "worker_timeouts",  # hung workers killed
    "respawns",         # replacement workers spawned
    "checkpoints",      # committed-prefix checkpoints taken
    "chaos_injections", # chaos events the run weathered (all codes)
)

#: Point-in-time values; each gauge has a single designated writer.
GAUGE_NAMES = (
    "watermark",        # commit frontier (next iteration to commit)
    "window",           # current speculative window (throttle)
    "work_occupancy",   # items in flight on the work channel
    "done_occupancy",   # items in flight on the done channel
    "workers_alive",    # live phase-B processes
    "iterations",       # the run's total (constant; makes /metrics self-scaling)
)

#: Latency series recorded into shared fixed-bucket histograms.
HISTOGRAM_NAMES = (
    "task_b_seconds",       # per-task worker execution time
    "commit_lag_seconds",   # claim arrival -> commit, per iteration
)

#: Power-of-two bucket upper bounds in seconds: 1 µs, 2 µs, ... ~33.5 s.
#: The final (overflow) bucket is implicit (+Inf).
BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * (1 << k) for k in range(26))
_N_BUCKETS = len(BUCKET_BOUNDS) + 1  # + overflow

#: Reverse-causal read order for the snapshot (see module docstring).
#: Names not listed are read afterwards in schema order.
SNAPSHOT_READ_ORDER = ("committed", "executed", "claimed", "produced")

#: Well-known writer rows.  Workers use ``WRITER_WORKER0 + worker_id``
#: (respawned replacements get fresh ids, hence fresh rows).
WRITER_PRODUCER = 0
WRITER_COMMITTER = 1
WRITER_WORKER0 = 2

_COUNTER_INDEX = {name: i for i, name in enumerate(COUNTER_NAMES)}
_GAUGE_INDEX = {name: i for i, name in enumerate(GAUGE_NAMES)}
_HISTOGRAM_INDEX = {name: i for i, name in enumerate(HISTOGRAM_NAMES)}


def bucket_index(seconds: float) -> int:
    """The histogram bucket a sample lands in (last = overflow)."""
    # Branchless-ish scan is overkill: 26 compares worst case, and the
    # common sub-millisecond samples exit within ~10.
    for i, bound in enumerate(BUCKET_BOUNDS):
        if seconds <= bound:
            return i
    return _N_BUCKETS - 1


@dataclass(frozen=True)
class HistogramSnapshot:
    """One shared histogram, frozen: per-bucket counts plus exact sum."""

    buckets: Tuple[int, ...]
    total: float

    @property
    def count(self) -> int:
        return sum(self.buckets)

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimated q-th percentile (0..100) by linear interpolation
        inside the landing bucket; ``None`` while the histogram is empty
        — the guard that keeps live renderings from printing degenerate
        p50=p99=0 rows for a stage that has committed nothing yet."""
        count = self.count
        if not count:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = (q / 100.0) * count
        seen = 0
        for i, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                low = 0.0 if i == 0 else BUCKET_BOUNDS[i - 1]
                high = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else BUCKET_BOUNDS[-1] * 2
                )
                fraction = (rank - seen) / bucket_count
                return low + (high - low) * fraction
            seen += bucket_count
        return BUCKET_BOUNDS[-1] * 2  # unreachable in practice

    def to_json(self) -> dict:
        data = {"count": self.count, "sum": round(self.total, 6)}
        if self.count:
            data["mean"] = round(self.mean, 6)
            for q in (50, 95, 99):
                data[f"p{q}"] = round(self.percentile(q), 6)
        return data


@dataclass(frozen=True)
class RegistrySnapshot:
    """One consistent sample of the registry (see read-order contract)."""

    counters: Dict[str, int]
    gauges: Dict[str, int]
    histograms: Dict[str, HistogramSnapshot]
    #: ``time.monotonic()`` at sampling — rate math between snapshots.
    monotonic_s: float
    #: ``time.time()`` at sampling — wall-clock labelling only.
    unix_s: float = field(default=0.0)

    @property
    def misspeculation_rate(self) -> float:
        committed = self.counters.get("committed", 0)
        if not committed:
            return 0.0
        return self.counters.get("conflicts", 0) / committed

    def to_json(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_json()
                for name, hist in self.histograms.items()
            },
            "misspeculation_rate": round(self.misspeculation_rate, 4),
            "sampled_unix_s": round(self.unix_s, 3),
        }


class MetricsRegistry:
    """Shared-memory counters/gauges/histograms for one engine run.

    Construct with :meth:`create` in the parent *before* forking/spawning
    children; the instance is picklable through ``multiprocessing``'s
    process-args machinery (the shared arrays travel by handle, so every
    process addresses the same memory).

    Writers call :meth:`add`, :meth:`observe`, and :meth:`set_gauge` with
    their own ``writer`` row; the sampler calls :meth:`snapshot`.  Counters
    are monotone for the whole *run* so Prometheus scrapes compose; the
    worker-pool runtime (``repro.service``) reuses one registry across
    many runs and calls :meth:`reset` between leases, while the slot is
    quiescent, so each job's watchdog sees counters that start at zero.
    """

    def __init__(self, counters, hist_buckets, hist_sums, gauges, writers: int):
        self._counters = counters
        self._hist_buckets = hist_buckets
        self._hist_sums = hist_sums
        self._gauges = gauges
        self.writers = writers

    @classmethod
    def create(cls, ctx, writers: int) -> "MetricsRegistry":
        """Allocate the shared block for up to ``writers`` writer rows."""
        if writers < 1:
            raise ValueError("need at least one writer row")
        counters = ctx.RawArray("q", writers * len(COUNTER_NAMES))
        hist_buckets = ctx.RawArray(
            "q", writers * len(HISTOGRAM_NAMES) * _N_BUCKETS
        )
        hist_sums = ctx.RawArray("d", writers * len(HISTOGRAM_NAMES))
        gauges = ctx.RawArray("q", len(GAUGE_NAMES))
        return cls(counters, hist_buckets, hist_sums, gauges, writers)

    # -- hot path (single writer per row; one store per update) -----------------

    def add(self, writer: int, counter: str, n: int = 1) -> None:
        index = writer * len(COUNTER_NAMES) + _COUNTER_INDEX[counter]
        self._counters[index] += n

    def observe(self, writer: int, histogram: str, seconds: float) -> None:
        """Record one latency sample: one bucket store plus one sum store."""
        h = _HISTOGRAM_INDEX[histogram]
        base = (writer * len(HISTOGRAM_NAMES) + h) * _N_BUCKETS
        self._hist_buckets[base + bucket_index(seconds)] += 1
        self._hist_sums[writer * len(HISTOGRAM_NAMES) + h] += seconds

    def set_gauge(self, gauge: str, value: int) -> None:
        self._gauges[_GAUGE_INDEX[gauge]] = int(value)

    def reset(self) -> None:
        """Zero every counter, histogram, and gauge.

        Only legal while no writer is active (the pool resets a slot's
        registry after all leased workers have released and before the
        next job starts).  Mid-run resets would tear the monotonicity
        contract the snapshot read-order depends on.
        """
        for i in range(len(self._counters)):
            self._counters[i] = 0
        for i in range(len(self._hist_buckets)):
            self._hist_buckets[i] = 0
        for i in range(len(self._hist_sums)):
            self._hist_sums[i] = 0.0
        for i in range(len(self._gauges)):
            self._gauges[i] = 0

    # -- sampling ----------------------------------------------------------------

    def counter_total(self, counter: str) -> int:
        offset = _COUNTER_INDEX[counter]
        stride = len(COUNTER_NAMES)
        counters = self._counters
        return sum(
            counters[w * stride + offset] for w in range(self.writers)
        )

    def gauge_value(self, gauge: str) -> int:
        return self._gauges[_GAUGE_INDEX[gauge]]

    def histogram_snapshot(self, histogram: str) -> HistogramSnapshot:
        h = _HISTOGRAM_INDEX[histogram]
        stride = len(HISTOGRAM_NAMES) * _N_BUCKETS
        buckets = [0] * _N_BUCKETS
        total = 0.0
        for w in range(self.writers):
            base = w * stride + h * _N_BUCKETS
            for i in range(_N_BUCKETS):
                buckets[i] += self._hist_buckets[base + i]
            total += self._hist_sums[w * len(HISTOGRAM_NAMES) + h]
        return HistogramSnapshot(buckets=tuple(buckets), total=total)

    def snapshot(self) -> RegistrySnapshot:
        """Sample everything, reading the causal chain in reverse order so
        ``committed <= claimed <= produced`` holds on healthy runs."""
        counters: Dict[str, int] = {}
        for name in SNAPSHOT_READ_ORDER:
            counters[name] = self.counter_total(name)
        for name in COUNTER_NAMES:
            if name not in counters:
                counters[name] = self.counter_total(name)
        gauges = {name: self.gauge_value(name) for name in GAUGE_NAMES}
        histograms = {
            name: self.histogram_snapshot(name) for name in HISTOGRAM_NAMES
        }
        return RegistrySnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            monotonic_s=time.monotonic(),
            unix_s=time.time(),
        )


def writers_for(workers: int, max_respawns: int) -> int:
    """Writer rows one engine run can need: producer + committer + every
    worker that could ever exist (originals plus the respawn budget), with
    a little headroom so an off-by-one can never alias two writers."""
    return WRITER_WORKER0 + workers + max_respawns + 2
