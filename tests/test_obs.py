"""Tests for repro.obs: the structured tracing layer.

The acceptance contract (ISSUE 4):

- percentile math is exact on known data and monotone/bounded under
  property-based inputs, with deterministic reservoir degradation;
- the merger recovers out-of-order records, truncated spools, torn slots,
  and crashed-worker begin markers (aborted spans) — loudly, never
  silently;
- a real 2-worker engine run round-trips through the Chrome trace-event
  export and back through :func:`load_and_validate` with span counts that
  match the committed work;
- a committer-side crash still leaves a merged post-mortem trace (the
  emergency-halt path closes the committer spool before re-raising);
- the predicted-vs-measured report renders for the bzip2 and parser
  analogs with a per-phase (A/B/C) relative error.
"""

import json
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import FrameworkConfig, ParallelizationFramework
from repro.exec import ExecutionEngine, PipelineSpec, run_sequential
from repro.obs import (
    EventKind,
    LatencyHistogram,
    TraceConfig,
    analyze_trace,
    format_report,
    load_and_validate,
    merge_spool_dir,
    merge_spools,
    open_tracer,
    percentile,
    read_spool,
    to_chrome_trace,
    validate_bottleneck,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.compare import compare_phases
from repro.obs.export import COMMITTED_ORDER_PID
from repro.obs.spool import HEADER_SIZE, RECORD_SIZE, SpoolWriter
from repro.resilience import ChaosConfig, run_chaos
from repro.workloads.suite import make_workload


# -- module-level stage functions (picklable across processes) ---------------------


def produce_five(i):
    return i * 5


def affine_work(i, value):
    return (value * 3 + i) % 997


def append_commit(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def take_out(acc):
    return acc.get("out", [])


class CrashingCommit:
    def __init__(self, at):
        self.at = at

    def __call__(self, i, result, acc):
        if i == self.at:
            raise RuntimeError(f"injected engine crash at commit {i}")
        append_commit(i, result, acc)


def obs_spec(iterations=40, commit=append_commit):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_five,
        work=affine_work,
        commit=commit,
        finalize=take_out,
    )


# -- percentile math ---------------------------------------------------------------


class TestPercentile:
    def test_exact_linear_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == 2.5
        assert percentile(samples, 25) == 1.75
        # Order must not matter.
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5

    def test_exact_odd_count_median_is_middle_element(self):
        assert percentile([5.0, 1.0, 9.0], 50) == 5.0

    def test_single_sample_and_errors(self):
        assert percentile([7.5], 99) == 7.5
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=60,
        ),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    @settings(deadline=None, max_examples=120)
    def test_bounded_and_monotone_in_q(self, samples, q1, q2):
        low, high = sorted((q1, q2))
        value_low = percentile(samples, low)
        value_high = percentile(samples, high)
        assert min(samples) <= value_low <= max(samples)
        assert value_low <= value_high

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e3, allow_nan=False),
            min_size=1, max_size=200,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_histogram_matches_free_function_while_exact(self, values):
        histogram = LatencyHistogram()
        histogram.extend(values)
        assert histogram.exact
        for q in (50, 90, 95, 99):
            assert histogram.percentile(q) == percentile(values, q)


class TestLatencyHistogram:
    def test_summary_shape(self):
        histogram = LatencyHistogram()
        histogram.extend([0.001, 0.002, 0.003, 0.010])
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.001
        assert summary["max"] == 0.010
        assert summary["exact"] is True
        for key in ("p50", "p90", "p95", "p99"):
            assert key in summary
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_summary_and_format(self):
        histogram = LatencyHistogram()
        assert histogram.summary() == {"count": 0}
        assert histogram.format_line() == "no samples"

    def test_reservoir_bounds_memory_and_stays_deterministic(self):
        first = LatencyHistogram(max_samples=64)
        second = LatencyHistogram(max_samples=64)
        stream = [((i * 37) % 1000) / 1000.0 for i in range(1000)]
        first.extend(stream)
        second.extend(stream)
        assert first.count == 1000
        assert len(first.samples) == 64
        assert not first.exact
        assert first.min_value == min(stream)
        assert first.max_value == max(stream)
        # Seeded reservoir: identical runs summarize identically.
        assert first.summary() == second.summary()

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
                max_size=12,
            ),
            max_size=8,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_bulk_extend_ends_where_one_add_per_sample_does(self, batches):
        """The committer folds per-item samples in batches; the histogram
        must not be able to tell — under ``max_samples``, across the
        boundary, and on the reservoir path beyond it."""
        bulk = LatencyHistogram(max_samples=16)
        single = LatencyHistogram(max_samples=16)
        for batch in batches:
            bulk.extend(batch)
            for value in batch:
                single.add(value)
        assert bulk.samples == single.samples
        assert (bulk.count, bulk.total) == (single.count, single.total)
        assert bulk.summary() == single.summary()
        assert bulk.format_line() == single.format_line()

    def test_summary_ranks_match_the_free_function(self):
        histogram = LatencyHistogram()
        values = [((i * 7919) % 1013) / 1013.0 for i in range(500)]
        histogram.extend(values)
        summary = histogram.summary()
        for q in (50, 90, 95, 99):
            assert summary[f"p{q}"] == percentile(values, q)


# -- spool files -------------------------------------------------------------------


def spool_config(tmp_path, max_events=64):
    return TraceConfig(spool_dir=str(tmp_path), max_events=max_events)


class TestSpool:
    def test_roundtrip_preserves_records_in_seq_order(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "worker-0")
        writer.span(EventKind.TASK_B, 1000, 2000, arg=7, arg2=0)
        writer.instant(EventKind.COMMIT, arg=7)
        writer.record(EventKind.QUEUE_GET_WAIT, 100, 400, detail=1)
        writer.close()
        data = read_spool(writer.path)
        assert data.role == "worker-0"
        assert data.pid == os.getpid()
        assert [record.seq for record in data.records] == [0, 1, 2]
        assert data.records[0].kind == EventKind.TASK_B
        assert data.records[0].t0_ns == 1000
        assert data.records[0].t1_ns == 2000
        assert data.records[0].arg == 7
        assert data.records[2].detail == 1
        assert data.dropped_events == 0
        assert data.corrupt_slots == 0
        assert not data.truncated

    def test_ring_overwrites_oldest_and_counts_drops(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path, max_events=16), "producer")
        for i in range(40):
            writer.span(EventKind.TASK_A, i * 10, i * 10 + 5, arg=i)
        writer.close()
        data = read_spool(writer.path)
        assert [record.seq for record in data.records] == list(range(24, 40))
        assert data.dropped_events == 24
        assert writer.dropped_events == 24
        assert os.path.getsize(writer.path) == HEADER_SIZE + 16 * RECORD_SIZE

    def test_truncated_tail_is_flagged_and_rest_recovered(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "worker-1")
        for i in range(5):
            writer.instant(EventKind.CLAIM, arg=i)
        writer.close()
        with open(writer.path, "ab") as handle:
            handle.write(b"\x07" * (RECORD_SIZE // 2))  # crash mid-write
        data = read_spool(writer.path)
        assert data.truncated
        assert len(data.records) == 5

    def test_torn_slot_is_counted_not_propagated(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "worker-2")
        for i in range(6):
            writer.instant(EventKind.COMMIT, arg=i)
        writer.close()
        with open(writer.path, "r+b") as handle:
            handle.seek(HEADER_SIZE + 2 * RECORD_SIZE)
            handle.write(struct.pack("<H", 0xDEAD))  # wrong slot magic
        data = read_spool(writer.path)
        assert data.corrupt_slots == 1
        assert [record.arg for record in data.records] == [0, 1, 3, 4, 5]

    def test_open_tracer_disabled_and_unwritable(self, tmp_path):
        assert open_tracer(None, "producer") is None
        disabled = TraceConfig(spool_dir=str(tmp_path), enabled=False)
        assert open_tracer(disabled, "producer") is None
        missing = TraceConfig(spool_dir=str(tmp_path / "does" / "not" / "exist"))
        assert open_tracer(missing, "producer") is None

    def test_config_rejects_tiny_ring(self, tmp_path):
        with pytest.raises(ValueError):
            TraceConfig(spool_dir=str(tmp_path), max_events=4)


# -- merging -----------------------------------------------------------------------


class TestMerge:
    def test_out_of_order_records_merge_sorted(self, tmp_path):
        late = SpoolWriter(spool_config(tmp_path), "worker-0")
        base = late.anchor.perf_ns
        # Written newest-first: the merger must repair ordering.
        late.span(EventKind.TASK_B, base + 20_000_000, base + 21_000_000, arg=3)
        late.span(EventKind.TASK_B, base + 10_000_000, base + 11_000_000, arg=1)
        late.close()
        early = SpoolWriter(spool_config(tmp_path), "producer")
        early.span(
            EventKind.TASK_A,
            early.anchor.perf_ns + 1_000_000,
            early.anchor.perf_ns + 1_100_000,
            arg=0,
        )
        early.close()
        merged = merge_spool_dir(str(tmp_path))
        starts = [span.start_ns for span in merged.spans]
        assert starts == sorted(starts)
        assert [span.arg for span in merged.spans] == [0, 1, 3]
        assert merged.aborted_spans == 0

    def test_unmatched_begin_becomes_aborted_span(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "worker-0")
        base = writer.anchor.perf_ns
        writer.record(EventKind.TASK_B_BEGIN, base, base, arg=5, arg2=0)
        # The process kept living a little, then died without a TASK_B.
        writer.record(EventKind.CLAIM, base + 2_000_000, base + 2_000_000, arg=6)
        writer.close()
        merged = merge_spool_dir(str(tmp_path))
        assert merged.aborted_spans == 1
        [aborted] = [span for span in merged.spans if span.aborted]
        assert aborted.kind == EventKind.TASK_B
        assert aborted.arg == 5
        # Closed at the spool's last known timestamp, not zero-length.
        assert aborted.duration_ns == 2_000_000

    def test_matched_begin_is_not_aborted(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "worker-0")
        base = writer.anchor.perf_ns
        writer.record(EventKind.TASK_B_BEGIN, base, base, arg=5)
        writer.span(EventKind.TASK_B, base, base + 1_000, arg=5)
        writer.close()
        merged = merge_spool_dir(str(tmp_path))
        assert merged.aborted_spans == 0
        assert merged.span_count == 1

    def test_truncated_spool_still_merges(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "committer")
        for i in range(4):
            writer.instant(EventKind.COMMIT, arg=i)
        writer.close()
        with open(writer.path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        merged = merge_spool_dir(str(tmp_path))
        assert merged.truncated_spools == 1
        assert len(merged.instants_of(EventKind.COMMIT)) == 4

    def test_unreadable_spool_is_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "garbage.spool"
        bad.write_bytes(b"not a spool at all")
        good = SpoolWriter(spool_config(tmp_path), "producer")
        good.instant(EventKind.COMMIT, arg=0)
        good.close()
        merged = merge_spools([str(bad), good.path])
        assert len(merged.unreadable_spools) == 1
        assert len(merged.spools) == 1

    def test_commit_lag_histogram_from_claim_commit_pairs(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "committer")
        base = writer.anchor.perf_ns
        for i in range(3):
            writer.record(EventKind.CLAIM, base + i * 1_000, base + i * 1_000, arg=i)
            writer.record(
                EventKind.COMMIT,
                base + i * 1_000 + 2_000_000,
                base + i * 1_000 + 2_000_000,
                arg=i,
            )
        writer.close()
        merged = merge_spool_dir(str(tmp_path))
        lag = merged.histograms["commit_lag"]
        assert lag.count == 3
        assert lag.percentile(50) == pytest.approx(0.002)


class TestMergeEdgeCases:
    """Degenerate spool directories the merger (and the analyzer riding on
    it) must survive: nothing recorded at all, a single-process run where
    every stage shares one spool, and service-only spools with no engine
    spans underneath."""

    def test_empty_spool_dir_merges_to_empty_trace(self, tmp_path):
        merged = merge_spool_dir(str(tmp_path))
        assert merged.spans == []
        assert merged.instants == []
        assert merged.duration_ns() == 0
        assert merged.unreadable_spools == []
        # Summary and analysis both degrade gracefully, never crash.
        assert "spans" in merged.format_summary()
        report = analyze_trace(merged)
        assert report.iterations == 0
        assert report.what_ifs == []
        assert validate_bottleneck(report.to_json()) == []

    def test_single_process_spool_covers_all_stages(self, tmp_path):
        # A degenerate single-process run: producer, worker, and committer
        # all share one spool (e.g. workers=0 fallback or in-process mode).
        writer = SpoolWriter(spool_config(tmp_path), "engine")
        base = writer.anchor.perf_ns
        ms = 1_000_000
        for i in range(3):
            t = base + i * 10 * ms
            writer.span(EventKind.TASK_A, t, t + ms, arg=i)
            writer.record(EventKind.CLAIM, t + ms, t + ms, arg=i, arg2=0)
            writer.span(EventKind.TASK_B, t + ms, t + 7 * ms, arg=i, arg2=0)
            writer.span(EventKind.TASK_C, t + 7 * ms, t + 8 * ms, arg=i)
            writer.record(EventKind.COMMIT, t + 8 * ms, t + 8 * ms, arg=i)
        writer.close()
        merged = merge_spool_dir(str(tmp_path))
        assert len(merged.spools) == 1
        assert len(merged.spans_of(EventKind.TASK_B)) == 3
        assert len(merged.instants_of(EventKind.COMMIT)) == 3
        # Histograms still build from the claim/commit pairs in one spool.
        assert merged.histograms["commit_lag"].count == 3
        report = analyze_trace(merged)
        assert report.iterations == 3
        assert validate_bottleneck(report.to_json()) == []

    def test_service_only_spans_merge_without_engine_series(self, tmp_path):
        writer = SpoolWriter(spool_config(tmp_path), "service")
        base = writer.anchor.perf_ns
        ms = 1_000_000
        writer.span(EventKind.ADMIT, base, base + ms, arg=1)
        writer.span(EventKind.QUEUE_WAIT, base + ms, base + 3 * ms, arg=1)
        writer.span(EventKind.SCHED_PICK, base + 3 * ms, base + 3 * ms + 100, arg=1)
        writer.close()
        merged = merge_spool_dir(str(tmp_path))
        assert merged.span_count == 3
        assert merged.spans_of(EventKind.TASK_B) == []
        assert merged.instants_of(EventKind.COMMIT) == []
        # No committed engine work: the analyzer reports an empty-but-valid
        # verdict instead of inventing a critical path.
        report = analyze_trace(merged)
        assert report.iterations == 0
        assert report.what_ifs == []
        assert validate_bottleneck(report.to_json()) == []


# -- engine round-trip through Perfetto-loadable export ----------------------------


class TestEngineTraceRoundTrip:
    def test_two_worker_run_round_trips(self, tmp_path):
        spool_dir = tmp_path / "spools"
        spool_dir.mkdir()
        sequential_output, _ = run_sequential(obs_spec())
        engine = ExecutionEngine(
            workers=2,
            capacity=8,
            trace=TraceConfig(spool_dir=str(spool_dir)),
        )
        result = engine.run(obs_spec())
        assert result.output == sequential_output
        assert result.metrics.commits == 40

        merged = merge_spool_dir(str(spool_dir))
        roles = set(merged.roles())
        assert {"producer", "committer", "worker-0", "worker-1"} <= roles
        # Span accounting matches the committed work.
        commits = merged.instants_of(EventKind.COMMIT)
        assert len(commits) == result.metrics.commits
        task_b = [
            span for span in merged.spans_of(EventKind.TASK_B)
            if not span.aborted
        ]
        assert len(task_b) == 40
        assert len(merged.spans_of(EventKind.TASK_A)) == 40
        assert len(merged.spans_of(EventKind.TASK_C)) == 40
        assert merged.histograms["task_b"].count == 40

        # Perfetto round-trip: written file loads and validates.
        path = str(tmp_path / "trace.json")
        write_chrome_trace(merged, path)
        trace = load_and_validate(path)
        events = trace["traceEvents"]
        by_phase = {}
        for event in events:
            by_phase.setdefault(event["ph"], []).append(event)
        # One process_name metadata record per traced process.
        names = {
            event["args"]["name"]
            for event in by_phase["M"]
            if event["name"] == "process_name"
        }
        assert {"producer", "committer", "worker-0", "worker-1"} <= names
        committed_track = [
            event for event in by_phase.get("X", [])
            if event["pid"] == COMMITTED_ORDER_PID
        ]
        assert len(committed_track) == result.metrics.commits
        assert trace["otherData"]["aborted_spans"] == merged.aborted_spans

    def test_live_latency_histograms_and_summary_lines(self):
        engine = ExecutionEngine(workers=2, capacity=8)
        result = engine.run(obs_spec())
        data = result.metrics.to_json()
        for series in ("task_a", "task_b", "task_c"):
            summary = data["latency_histograms"][series]
            assert summary["count"] == 40
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
        summary_text = result.metrics.format_summary()
        assert "latency task_b" in summary_text
        assert "p95" in summary_text

    def test_committer_crash_leaves_postmortem_trace(self, tmp_path):
        """The emergency-halt path: a commit callback raising must reap the
        children and still close the committer spool for post-mortem."""
        spool_dir = tmp_path / "spools"
        spool_dir.mkdir()
        engine = ExecutionEngine(
            workers=2,
            capacity=8,
            trace=TraceConfig(spool_dir=str(spool_dir)),
        )
        with pytest.raises(RuntimeError, match="injected engine crash"):
            engine.run(obs_spec(commit=CrashingCommit(9)))
        merged = merge_spool_dir(str(spool_dir))
        assert "committer" in merged.roles()
        # Exactly the commits before the crash made it onto the timeline.
        assert len(merged.instants_of(EventKind.COMMIT)) == 9
        assert validate_chrome_trace(to_chrome_trace(merged)) == []

    def test_chaos_run_trace_survives_crashes(self, tmp_path):
        """Tracing's hardest customer: seeded chaos with worker crashes must
        still merge into a valid, loss-accounted timeline."""
        spool_dir = tmp_path / "spools"
        spool_dir.mkdir()
        report = run_chaos(
            obs_spec,
            1337,
            workers=3,
            capacity=8,
            config=ChaosConfig(latency_seconds=0.01),
            trace=TraceConfig(spool_dir=str(spool_dir)),
        )
        report.raise_on_violation()
        assert report.output_identical
        merged = merge_spool_dir(str(spool_dir))
        assert merged.robustness_events > 0
        assert len(merged.instants_of(EventKind.CHAOS)) > 0
        assert (
            len(merged.instants_of(EventKind.COMMIT))
            == report.result.metrics.commits
        )
        path = str(tmp_path / "chaos-trace.json")
        write_chrome_trace(merged, path)
        load_and_validate(path)


# -- predicted vs measured ---------------------------------------------------------


class TestCompareReport:
    @pytest.mark.parametrize("name", ["256.bzip2", "197.parser"])
    def test_report_renders_with_per_phase_error(self, name):
        config = FrameworkConfig().with_(thread_counts=(1, 4))
        evaluation = ParallelizationFramework(config).evaluate(
            make_workload(name)
        )
        graph = evaluation.graph
        simulation = evaluation.simulations[4]
        # Measured stage shares distorted from the prediction: the report
        # must surface a finite per-phase relative error, not explode.
        from repro.obs.compare import predicted_phase_units

        units = predicted_phase_units(graph)
        stage_seconds = {
            "A": units["A"] * 1.1e-6,
            "B": units["B"] * 0.9e-6,
            "C": units["C"] * 1.0e-6,
        }
        report = format_report(
            name, graph, simulation, stage_seconds, measured_speedup=1.8
        )
        assert f"predicted vs measured: {name}" in report
        assert "per-phase busy-time shares" in report
        assert "rel.error" in report
        assert "mean per-phase relative error" in report
        assert "speedup: predicted" in report
        for phase in ("A", "B", "C"):
            rows = [row for row in compare_phases(graph, stage_seconds)
                    if row.phase == phase]
            assert rows and rows[0].relative_error is not None

    def test_phase_shares_sum_to_one(self):
        config = FrameworkConfig().with_(thread_counts=(1, 4))
        evaluation = ParallelizationFramework(config).evaluate(
            make_workload("256.bzip2")
        )
        rows = compare_phases(
            evaluation.graph, {"A": 0.5, "B": 2.0, "C": 0.5}
        )
        assert sum(row.predicted_share for row in rows) == pytest.approx(1.0)
        assert sum(row.measured_share for row in rows) == pytest.approx(1.0)
