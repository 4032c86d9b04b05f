"""Latency distributions with exact bounded-memory percentiles.

End-of-run aggregates (total B seconds, mean occupancy) hide exactly the
tail behaviour the paper's pipeline model is sensitive to: one slow task in
a chunk stalls every chunk-mate behind it, and the committer's in-order
discipline turns a p99 outlier into pipeline-wide commit lag.
:class:`LatencyHistogram` records per-event samples and reports
p50/p90/p95/p99 with the *linear interpolation between closest ranks*
definition (numpy's default), which is exact over the retained samples.

Memory is bounded: up to ``max_samples`` raw samples are kept verbatim
(percentiles are exact there — the common case for any real run); beyond
that the histogram degrades to deterministic reservoir sampling (seeded,
so two identical runs report identical numbers) while ``count``, ``total``,
``min``/``max`` stay exact forever.

Aggregates are derived on read: recording a sample is a list append, and
``count``, ``total``, ``min``/``max`` fold in whatever arrived since the
last read, in arrival order — the same numbers, bit for bit, as folding
each sample when it came.  A writer that appends to ``samples`` directly
(the engine's committer) holds the overflow past ``max_samples`` until
the next read sends it down the reservoir path.
"""

from __future__ import annotations

import operator
import random
from functools import reduce
from typing import Dict, List, Optional

#: Default sample retention: 64 Ki floats ~ 512 KiB worst case per series.
DEFAULT_MAX_SAMPLES = 65536

#: Percentiles every summary reports, in order.
SUMMARY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def percentile(samples: List[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between
    closest ranks — exact, deterministic, no dependency."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _rank(sorted(samples), q)


def _rank(ordered: List[float], q: float) -> float:
    """:func:`percentile` over an already-sorted, non-empty list — lets a
    summary sort its samples once and index every rank from that."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


class LatencyHistogram:
    """One event series' latency distribution (samples in seconds).

    Recording is an append: ``count``, ``total``, ``min_value`` and
    ``max_value`` are derived from the retained samples when first read
    after new ones arrived (:meth:`_fold`), so a run that records 4 x 12 000
    samples pays for their aggregates when somebody looks, not on its own
    wall.  A writer may append to :attr:`samples` directly — the committer
    does — as long as it only ever appends; the aggregates read the same
    as if each sample had gone through :meth:`add`.
    """

    def __init__(
        self, max_samples: int = DEFAULT_MAX_SAMPLES,
        samples: Optional[List[float]] = None, count: int = 0,
        total: float = 0.0, min_value: Optional[float] = None,
        max_value: Optional[float] = None,
    ) -> None:
        self.max_samples = max_samples
        #: Retained samples, the list given (not a copy) if there is one.
        #: Those from ``_folded`` on are not in the aggregates yet; past
        #: ``max_samples`` they are still to go through the reservoir.
        self.samples: List[float] = [] if samples is None else samples
        self._folded = 0
        #: Aggregates of every sample before ``_folded`` (plus those given:
        #: a count with no retained samples is a merged summary's).
        self._count = count
        self._total = total
        self._min = min_value
        self._max = max_value
        #: Deterministic reservoir RNG, created lazily on first overflow.
        self._rng: Optional[random.Random] = None

    def add(self, value: float) -> None:
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        self._fold()
        self._sample(value)

    def extend(self, values) -> None:
        """Bulk :meth:`add`, same end state."""
        self.samples.extend(values)
        if len(self.samples) > self.max_samples:
            self._fold()

    def _fold(self) -> None:
        """Bring the aggregates up to date with the samples appended since
        the last read: whatever fits under ``max_samples`` with one C-speed
        call per aggregate, the overflow down the reservoir path sample by
        sample — the state one :meth:`add` per sample would have left."""
        samples = self.samples
        end = min(len(samples), self.max_samples)
        if self._folded < end:
            bulk = samples[self._folded:end]
            self._count += len(bulk)
            # reduce, not sum(): plain left-to-right adds on every Python,
            # so the total is bit-identical to one add per sample.
            self._total = reduce(operator.add, bulk, self._total)
            low, high = min(bulk), max(bulk)
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high
            self._folded = end
        if len(samples) > end:
            overflow = samples[end:]
            del samples[end:]  # in place: a writer may hold this list
            for value in overflow:
                self._sample(value)

    def _sample(self, value: float) -> None:
        """One sample past ``max_samples``: exact aggregates, and a place
        in the retained set with probability k/n."""
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        # Algorithm R reservoir: every sample keeps probability k/n, with a
        # fixed seed so identical runs summarize identically.
        if self._rng is None:
            self._rng = random.Random(0xC0FFEE)
        slot = self._rng.randrange(self._count)
        if slot < self.max_samples:
            self.samples[slot] = value

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def min_value(self) -> Optional[float]:
        self._fold()
        return self._min

    @property
    def max_value(self) -> Optional[float]:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact(self) -> bool:
        """True while every recorded sample is retained (no reservoir)."""
        return self.count == len(self.samples)

    def percentile(self, q: float) -> float:
        self._fold()
        return percentile(self.samples, q)

    def summary(self) -> dict:
        """The JSON shape exported by :meth:`EngineMetrics.to_json`."""
        if not self.count:
            return {"count": 0}
        data = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
            "exact": self.exact,
        }
        # A histogram can carry a count with no retained samples (counters
        # restored from a checkpoint, or a merged summary): aggregates stay
        # exact, but percentiles are unknowable — omit them rather than
        # raising or reporting a degenerate p50=p99=0.
        if self.samples:
            ordered = sorted(self.samples)
            for q in SUMMARY_PERCENTILES:
                data[f"p{q:g}"] = _rank(ordered, q)
        return data

    def format_line(self) -> str:
        """One CLI summary line: ``p50 1.2ms  p95 3.4ms  p99 5.6ms ...``."""
        if not self.count:
            return "no samples"
        if not self.samples:
            return (
                f"mean {format_seconds(self.mean)}  "
                f"max {format_seconds(self.max_value)}  "
                f"n={self.count}  (no retained samples)"
            )
        ordered = sorted(self.samples)
        parts = [
            f"p{q:g} {format_seconds(_rank(ordered, q))}"
            for q in SUMMARY_PERCENTILES
        ]
        parts.append(f"max {format_seconds(self.max_value)}")
        parts.append(f"n={self.count}")
        return "  ".join(parts)


def format_seconds(value: float) -> str:
    """Human scale for latencies: ns/us/ms/s with 3 significant-ish digits."""
    if value < 0:
        return f"-{format_seconds(-value)}"
    if value < 1e-6:
        return f"{value * 1e9:.0f}ns"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.3f}s"


def summarize(histograms: Dict[str, LatencyHistogram]) -> Dict[str, dict]:
    """Summaries for a dict of histograms, skipping empty series."""
    return {
        name: hist.summary()
        for name, hist in sorted(histograms.items())
        if hist.count
    }
