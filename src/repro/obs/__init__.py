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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.analyze": (
        "BOTTLENECK_SCHEMA", "BottleneckReport", "ItemChain", "PathSegment",
        "analyze_trace", "compute_critical_path", "crosscheck_with_graph",
        "estimate_bottleneck", "extract_chains", "merged_from_chrome_trace",
        "run_analyze", "validate_bottleneck",
    ),
    "repro.obs.clock": ("ClockAnchor", "now_ns"),
    "repro.obs.compare": (
        "PhaseComparison", "compare_phases", "format_report",
        "render_measured_timeline",
    ),
    "repro.obs.events": (
        "ChaosCode", "EventKind", "Instant", "SERVICE_KINDS", "Span",
        "TraceConfig",
    ),
    "repro.obs.export": (
        "load_and_validate", "to_chrome_trace", "validate_chrome_trace",
        "write_chrome_trace",
    ),
    "repro.obs.hist": ("LatencyHistogram", "format_seconds", "percentile"),
    "repro.obs.history": (
        "HISTORY_SCHEMA", "HistoryDiff", "append_record", "diff_records",
        "format_history_diff", "load_history", "make_record",
        "select_baseline",
    ),
    "repro.obs.live": (
        "HealthState", "LiveConfig", "LiveMonitor", "Watchdog",
        "WatchdogConfig",
    ),
    "repro.obs.jobtrace": (
        "FlightRecorder", "JobTrace", "TraceContext", "aggregate_report",
        "build_timeline", "iter_job_traces", "open_job_trace", "run_report",
    ),
    "repro.obs.merge": ("MergedTrace", "merge_spool_dir", "merge_spools"),
    "repro.obs.registry": (
        "MetricsRegistry", "RegistrySnapshot", "writers_for",
    ),
    "repro.obs.serve": ("HttpServer", "prometheus_exposition"),
    "repro.obs.spool": (
        "SpoolData", "SpoolError", "SpoolWriter", "open_tracer", "read_spool",
    ),
})
