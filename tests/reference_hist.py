"""Frozen reference histogram the on-read aggregates are diffed against.

Test-only: nothing in ``src/`` imports this module.  It holds
``LatencyHistogram`` as ``repro.obs.hist`` had it before its aggregates
were derived on read: ``count``, ``total``, ``min_value`` and
``max_value`` updated eagerly by every ``add`` / ``extend``, and the
committer folding its per-item sample lists into it after the last
commit.  ``tests/test_hist_on_read.py`` asserts the shipped histogram
reads the same, bit for bit.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import reduce
from typing import List, Optional

from repro.obs.hist import (
    DEFAULT_MAX_SAMPLES,
    SUMMARY_PERCENTILES,
    _rank,
    format_seconds,
    percentile,
)


@dataclass
class ReferenceHistogram:
    """One event series' latency distribution (samples in seconds)."""

    max_samples: int = DEFAULT_MAX_SAMPLES
    samples: List[float] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    #: Deterministic reservoir RNG, created lazily on first overflow.
    _rng: Optional[random.Random] = field(default=None, repr=False)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        # Algorithm R reservoir: every sample keeps probability k/n, with a
        # fixed seed so identical runs summarize identically.
        if self._rng is None:
            self._rng = random.Random(0xC0FFEE)
        slot = self._rng.randrange(self.count)
        if slot < self.max_samples:
            self.samples[slot] = value

    def extend(self, values) -> None:
        """Bulk :meth:`add`, same end state: whatever fits under
        ``max_samples`` is folded in with one C-speed call per aggregate;
        the overflow takes the reservoir path sample by sample."""
        values = list(values)
        room = max(0, self.max_samples - len(self.samples))
        bulk = values if len(values) <= room else values[:room]
        if bulk:
            self.count += len(bulk)
            # reduce, not sum(): plain left-to-right adds on every Python,
            # so the total is bit-identical to one add() per sample.
            self.total = reduce(operator.add, bulk, self.total)
            low, high = min(bulk), max(bulk)
            if self.min_value is None or low < self.min_value:
                self.min_value = low
            if self.max_value is None or high > self.max_value:
                self.max_value = high
            self.samples.extend(bulk)
        for value in values[room:]:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact(self) -> bool:
        """True while every recorded sample is retained (no reservoir)."""
        return self.count == len(self.samples)

    def percentile(self, q: float) -> float:
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
