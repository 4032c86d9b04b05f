"""repro.obs — structured tracing for the execution stack.

Where :mod:`repro.exec.metrics` reports end-of-run aggregates, this
package records *when everything happened*: producer, workers, and the
committer emit timestamped span/event records into per-process binary
spool files (:mod:`repro.obs.spool` — ring-buffered, chaos-safe, no
hot-path pipe traffic), timestamps merge across processes through a
per-process clock handshake (:mod:`repro.obs.clock`), and a post-run
merger (:mod:`repro.obs.merge`) recovers a coherent timeline that exports
to the Chrome trace-event format (:mod:`repro.obs.export`, loadable in
Perfetto), feeds per-stage latency histograms (:mod:`repro.obs.hist`),
and lines up against the simulator's predicted schedule
(:mod:`repro.obs.compare`).

Tracing is **off by default** (pass a :class:`TraceConfig` to the engine
or ``--trace out.json`` to the CLI), **bounded** (per-process ring with an
explicit ``dropped_events`` count), and **must never take down a run**: an
unwritable spool degrades to no tracing, and a spool truncated by a
crashed worker merges into an aborted span, not a corrupt trace.

The *live* plane complements the post-mortem one: a lock-light
shared-memory :class:`MetricsRegistry` (:mod:`repro.obs.registry`) that
producer/workers/committer write in-band, a :class:`LiveMonitor` sampling
thread with a stall/saturation/storm :class:`Watchdog`
(:mod:`repro.obs.live`), ``/metrics`` (Prometheus text), ``/snapshot``,
and ``/health`` served by :class:`HttpServer` (:mod:`repro.obs.serve` —
the one HTTP server and the one exposition writer, which the job server's
API and ``/metrics`` use too), and a cross-run JSONL history store with a
CI regression gate (:mod:`repro.obs.history`).
"""

from repro.obs.analyze import (
    BOTTLENECK_SCHEMA,
    BottleneckReport,
    ItemChain,
    PathSegment,
    analyze_trace,
    compute_critical_path,
    crosscheck_with_graph,
    estimate_bottleneck,
    extract_chains,
    merged_from_chrome_trace,
    run_analyze,
    validate_bottleneck,
)
from repro.obs.clock import ClockAnchor, now_ns
from repro.obs.compare import (
    PhaseComparison,
    compare_phases,
    format_report,
    render_measured_timeline,
)
from repro.obs.events import (
    ChaosCode,
    EventKind,
    Instant,
    SERVICE_KINDS,
    Span,
    TraceConfig,
)
from repro.obs.export import (
    load_and_validate,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.hist import LatencyHistogram, format_seconds, percentile
from repro.obs.history import (
    HISTORY_SCHEMA,
    HistoryDiff,
    append_record,
    diff_records,
    format_history_diff,
    load_history,
    make_record,
    select_baseline,
)
from repro.obs.live import (
    HealthState,
    LiveConfig,
    LiveMonitor,
    Watchdog,
    WatchdogConfig,
)
from repro.obs.jobtrace import (
    FlightRecorder,
    JobTrace,
    TraceContext,
    aggregate_report,
    build_timeline,
    iter_job_traces,
    open_job_trace,
    run_report,
)
from repro.obs.merge import MergedTrace, merge_spool_dir, merge_spools
from repro.obs.registry import (
    MetricsRegistry,
    RegistrySnapshot,
    writers_for,
)
from repro.obs.serve import HttpServer, prometheus_exposition
from repro.obs.spool import (
    SpoolData,
    SpoolError,
    SpoolWriter,
    open_tracer,
    read_spool,
)

__all__ = [
    "BOTTLENECK_SCHEMA",
    "BottleneckReport",
    "ChaosCode",
    "ClockAnchor",
    "EventKind",
    "FlightRecorder",
    "HISTORY_SCHEMA",
    "HealthState",
    "HistoryDiff",
    "Instant",
    "ItemChain",
    "JobTrace",
    "LatencyHistogram",
    "LiveConfig",
    "LiveMonitor",
    "MergedTrace",
    "MetricsRegistry",
    "HttpServer",
    "PathSegment",
    "PhaseComparison",
    "RegistrySnapshot",
    "SERVICE_KINDS",
    "Span",
    "SpoolData",
    "SpoolError",
    "SpoolWriter",
    "TraceConfig",
    "TraceContext",
    "Watchdog",
    "WatchdogConfig",
    "aggregate_report",
    "analyze_trace",
    "append_record",
    "build_timeline",
    "compare_phases",
    "compute_critical_path",
    "crosscheck_with_graph",
    "diff_records",
    "estimate_bottleneck",
    "extract_chains",
    "format_history_diff",
    "format_report",
    "format_seconds",
    "iter_job_traces",
    "load_and_validate",
    "load_history",
    "make_record",
    "merge_spool_dir",
    "merge_spools",
    "merged_from_chrome_trace",
    "now_ns",
    "open_job_trace",
    "open_tracer",
    "percentile",
    "run_analyze",
    "run_report",
    "prometheus_exposition",
    "read_spool",
    "render_measured_timeline",
    "select_baseline",
    "to_chrome_trace",
    "validate_bottleneck",
    "validate_chrome_trace",
    "write_chrome_trace",
]
