"""Latency aggregates are derived on read, and read the same as before.

``LatencyHistogram`` folds ``count``, ``total``, ``min_value`` and
``max_value`` in when somebody reads them, and the committer hands its
per-item sample lists over as they are.  Everything a reader sees —
``summary()``, ``format_line()``, ``EngineMetrics.to_json()``, the counters
a checkpoint cut records, a ``repro history`` record — must equal what the
eager histogram (``tests/reference_hist.py``) gave for the same samples in
the same order, bit for bit: under ``max_samples``, across it and on the
reservoir path, past the default 64 Ki, and in a run resumed from a
checkpoint.  And an engine run must do none of that work itself.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.exec import ExecutionEngine, PipelineSpec, run_sequential
from repro.exec.metrics import EngineMetrics
from repro.obs import hist as hist_module
from repro.obs.hist import DEFAULT_MAX_SAMPLES, LatencyHistogram
from repro.obs.history import make_record
from repro.resilience.checkpoint import CheckpointConfig
from tests.reference_hist import ReferenceHistogram

#: The committer's per-item series, handed over as lists.
COMMITTER_SERIES = ("task_a", "task_b", "task_c", "commit_lag")

_seconds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def _reads(histogram) -> tuple:
    """Everything a reader can see of one histogram, in one tuple."""
    seen = (
        histogram.count, histogram.total, histogram.min_value,
        histogram.max_value, histogram.mean, histogram.exact,
        histogram.summary(), histogram.format_line(),
    )
    if histogram.samples:
        seen += (histogram.percentile(50.0), histogram.percentile(99.0))
    return seen + (list(histogram.samples),)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), _seconds),
            st.tuples(st.just("extend"), st.lists(_seconds, max_size=12)),
            st.tuples(st.just("append"), st.lists(_seconds, max_size=12)),
            st.tuples(st.just("read"), st.none()),
        ),
        max_size=24,
    ),
)
@settings(deadline=None, max_examples=200)
def test_every_read_equals_the_eager_fold(max_samples, operations):
    """Appends to ``samples`` directly (the committer's way), ``add`` and
    ``extend`` in any mix, read at any point: each read is the eager
    histogram's, the reservoir included."""
    lazy = LatencyHistogram(max_samples=max_samples)
    eager = ReferenceHistogram(max_samples=max_samples)
    for operation, value in operations:
        if operation == "add":
            lazy.add(value)
            eager.add(value)
        elif operation == "extend":
            lazy.extend(value)
            eager.extend(value)
        elif operation == "append":
            lazy.samples.extend(value)
            eager.extend(value)
        else:
            assert _reads(lazy) == _reads(eager)
    assert _reads(lazy) == _reads(eager)


def test_past_64_ki_the_reservoir_reads_as_before():
    """A handed-over list grown past the default ``max_samples`` between
    reads: the overflow goes down the reservoir in arrival order."""
    stream = [
        ((i * 7919) % 100_003) * 1e-6
        for i in range(DEFAULT_MAX_SAMPLES + 3000)
    ]
    samples: list = []
    lazy = LatencyHistogram(samples=samples)
    eager = ReferenceHistogram()
    start = 0
    for cut in (30_000, DEFAULT_MAX_SAMPLES + 10, len(stream)):
        samples.extend(stream[start:cut])
        eager.extend(stream[start:cut])
        start = cut
        assert _reads(lazy) == _reads(eager)
    assert lazy.count == len(stream) and not lazy.exact
    assert len(lazy.samples) == DEFAULT_MAX_SAMPLES


def _eager_latency(metrics: EngineMetrics) -> EngineMetrics:
    """A record holding only ``metrics``' latency, as the eager histograms
    would have left it: made from each series' retained samples (every
    sample, in order, while under ``max_samples``)."""
    eager = EngineMetrics()
    for series, histogram in metrics.latency.items():
        assert histogram.exact
        eager.latency[series] = ReferenceHistogram()
        eager.latency[series].extend(histogram.samples)
    return eager


def _same_latency(metrics: EngineMetrics) -> None:
    eager = _eager_latency(metrics)
    assert (
        metrics.to_json()["latency_histograms"]
        == eager.to_json()["latency_histograms"]
    )
    assert _record(metrics)["latency"] == _record(eager)["latency"]


def _record(metrics: EngineMetrics) -> dict:
    record = make_record(name="run", metrics=metrics)
    del record["ts"]
    return record


@given(
    st.lists(
        st.tuples(
            st.sampled_from(COMMITTER_SERIES + ("queue_wait",)),
            st.lists(_seconds, min_size=1, max_size=6),
            st.booleans(),
        ),
        max_size=30,
    )
)
@settings(deadline=None, max_examples=120)
def test_cut_counters_to_json_and_history_equal_the_eager_fold(steps):
    """The committer's life in miniature: samples appended to its lists
    (``queue_wait`` through ``record_latency``), a checkpoint cut after
    any step — hand over, then ``counters()`` — and the end of the run.
    The parent folded the lists into eager histograms at each of those
    points."""
    lazy, eager = EngineMetrics(), EngineMetrics()
    lazy.bottleneck = eager.bottleneck = None
    lists = {series: [] for series in COMMITTER_SERIES}
    pending = {series: [] for series in COMMITTER_SERIES}

    def fold_eagerly():
        for series, values in pending.items():
            if values:
                eager.latency.setdefault(
                    series, ReferenceHistogram()
                ).extend(values)
                values.clear()

    for series, values, cut in steps:
        if series == "queue_wait":
            for value in values:
                lazy.record_latency(series, value)
                eager.latency.setdefault(series, ReferenceHistogram()).add(
                    value
                )
        else:
            lists[series].extend(values)
            pending[series].extend(values)
        if cut:
            for name, samples in lists.items():
                lazy.adopt_samples(name, samples)
            fold_eagerly()
            assert lazy.counters() == eager.counters()
    for name, samples in lists.items():
        lazy.adopt_samples(name, samples)
    fold_eagerly()
    assert json.dumps(lazy.to_json()) == json.dumps(eager.to_json())
    assert _record(lazy) == _record(eager)
    assert lazy.format_summary() == eager.format_summary()


def produce(i):
    return i * 3 + 1


def square(i, value):
    return (value * value + i) % 1009


def append_commit(i, result, acc):
    acc.setdefault("out", []).append(result)


def take_out(acc):
    return acc.get("out", [])


SPEC = PipelineSpec(
    iterations=400, produce=produce, work=square, commit=append_commit,
    finalize=take_out,
)


def test_a_run_returns_before_anything_is_aggregated(monkeypatch):
    folds = []
    fold = LatencyHistogram._fold
    monkeypatch.setattr(
        hist_module.LatencyHistogram, "_fold",
        lambda self: folds.append(1) or fold(self),
    )
    result = ExecutionEngine(workers=2, capacity=16, batch_size=8).run(SPEC)
    assert result.output == run_sequential(SPEC)[0]
    assert folds == []  # the run is over and nothing was folded
    assert result.metrics.latency["task_c"].count == SPEC.iterations
    assert folds
    assert result.metrics.to_json()["commits"] == SPEC.iterations


def test_cuts_and_a_resumed_run_read_as_the_eager_fold():
    """Each cut's sample counts are taken after the hand-over (one
    ``task_c`` and one ``commit_lag`` sample per commit so far), and a run
    resumed from a middle cut summarizes its samples as the eager
    histogram does."""
    engine = ExecutionEngine(
        workers=2, capacity=16, batch_size=8,
        checkpoints=CheckpointConfig(interval=50),
    )
    result = engine.run(SPEC)
    assert result.output == run_sequential(SPEC)[0]
    cuts = result.checkpoints
    assert len(cuts) >= 4
    for cut in cuts:
        counts = cut.metrics["latency_counts"]
        assert counts["task_c"] == counts["commit_lag"] == cut.next_commit
    _same_latency(result.metrics)

    middle = cuts[len(cuts) // 2]
    resumed = ExecutionEngine(
        workers=2, capacity=16, batch_size=8,
        checkpoints=CheckpointConfig(interval=50),
    ).run(SPEC, resume_from=middle)
    assert resumed.output == result.output
    assert resumed.metrics.resumed_from == middle.next_commit
    assert resumed.checkpoints
    for cut in resumed.checkpoints:
        counts = cut.metrics["latency_counts"]
        assert counts["task_c"] == cut.next_commit - middle.next_commit
    _same_latency(resumed.metrics)
