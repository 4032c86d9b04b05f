"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``suite``                  evaluate all eleven benchmarks, print Table 2;
- ``bench NAME``             evaluate one benchmark, print its curve and plan;
- ``figure N``               regenerate one of the paper's figures (4-7);
- ``exec NAME``              run a workload for REAL on the multiprocess
  execution engine and print measured metrics;
- ``history``                diff the latest recorded run against a baseline
  from the cross-run history store (``benchmarks/history.jsonl``);
- ``obs report STATE_DIR``   aggregate persisted job traces offline;
- ``obs analyze TRACE|JOB``  critical-path blame + what-if speedup
  projections from a Chrome trace file or a stored job artifact;
- ``list``                   list the available benchmarks.

The ``exec`` command carries the observability surface: ``--trace out.json``
records every process's spans/events into per-process spools and exports a
Chrome trace-event file (loadable at https://ui.perfetto.dev);
``--compare`` prints the predicted-vs-measured report (simulator Gantt vs
measured timeline, per-phase busy-share error); ``--metrics-out m.json``
writes the run metrics (including per-stage latency histograms) as JSON;
``--log-level`` controls the ``repro.exec`` / ``repro.resilience`` logging
namespaces (chaos injections log at INFO with their seed and indices).

The *live* telemetry plane (PR 5): ``--serve PORT`` exposes ``/metrics``
(Prometheus text), ``/snapshot`` (JSON), and ``/health`` (liveness probe)
over HTTP while the run executes; ``--watch`` renders a one-line status TUI
to stderr; a stall/saturation/storm watchdog escalates log → degraded →
(with ``--abort-on-stall``) abort.  Every exec run appends a
schema-versioned summary to the history store (``--history PATH``,
``--no-history`` to skip, ``--label`` to name a baseline) and
``python -m repro history`` diffs the latest run against a baseline.

Examples::

    python -m repro suite
    python -m repro bench 164.gzip
    python -m repro figure 6 --threads 1 2 4 8 16 32
    python -m repro exec 256.bzip2 --workers 4 --inject-faults
    python -m repro exec 256.bzip2 --workers 4 --trace trace.json --compare
    python -m repro exec 197.parser --chaos 24 --trace t.json --log-level info
    python -m repro exec 197.parser --chaos 24 --serve 9090 --watch
    python -m repro history --baseline my-label --check
"""

from __future__ import annotations

import argparse
import inspect
import logging
import sys
from typing import Callable, Dict, List, Optional

from repro.obs.history import DEFAULT_HISTORY_PATH
from repro.workloads.suite import (
    FIGURE4,
    FIGURE5,
    FIGURE6,
    FIGURE7,
    PAPER_TABLE2,
    exec_names,
    make_workload,
    suite_names,
)

_FIGURES = {4: FIGURE4, 5: FIGURE5, 6: FIGURE6, 7: FIGURE7}


class _CommandParser(argparse.ArgumentParser):
    """A sub-command's parser that can take its arguments only once that
    command is parsed (``add_arguments``, called with the parser): ``exec``
    and ``serve`` read their defaults off the engine and the job server,
    which every other command leaves unimported."""

    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None

    def parse_known_args(self, args=None, namespace=None):
        if self.add_arguments is not None:
            add, self.add_arguments = self.add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Revisiting the Sequential Programming "
                    "Model for Multi-Core' (MICRO 2007)",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="logging threshold for the repro.* namespaces (default "
             "warning; chaos/fault injections log at info)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    sub.add_parser("list", help="list available benchmarks")

    suite_parser = sub.add_parser("suite", help="evaluate the whole suite (Table 2)")
    _add_common(suite_parser)

    bench_parser = sub.add_parser("bench", help="evaluate one benchmark")
    bench_parser.add_argument("name", choices=suite_names())
    _add_common(bench_parser)

    figure_parser = sub.add_parser("figure", help="regenerate one paper figure")
    figure_parser.add_argument("number", type=int, choices=sorted(_FIGURES))
    _add_common(figure_parser)

    exec_parser = sub.add_parser(
        "exec",
        help="run a workload for real on the multiprocess execution engine",
    )
    exec_parser.add_arguments = _add_exec_arguments

    serve_parser = sub.add_parser(
        "serve",
        help="run the multi-tenant pipeline-as-a-service job server",
    )
    serve_parser.add_arguments = _add_serve_arguments

    obs_parser = sub.add_parser(
        "obs",
        help="offline observability tools over stored service artifacts",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    report_parser = obs_sub.add_parser(
        "report",
        help="aggregate per-tenant per-stage latency percentiles across "
             "every stored job trace artifact",
    )
    report_parser.add_argument(
        "state_dir", metavar="STATE_DIR",
        help="a serve --state-dir (or its artifacts/ directory)",
    )
    report_parser.add_argument(
        "--tenant", default=None,
        help="restrict the report to one tenant",
    )
    analyze_parser = obs_sub.add_parser(
        "analyze",
        help="critical-path analysis and what-if speedup projections over "
             "a recorded trace (an exported Chrome trace file, or a job's "
             "stored trace artifact via --state-dir)",
    )
    analyze_parser.add_argument(
        "target", metavar="TRACE_OR_JOB", nargs="?", default=None,
        help="a Chrome trace file written by --trace, or a JOB_ID when "
             "--state-dir is given",
    )
    analyze_parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="a serve --state-dir (or its artifacts/ directory): analyze "
             "the stored trace.json of job TRACE_OR_JOB, with the metrics "
             "its journal holds",
    )
    analyze_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="the run's --metrics-out JSON (sharpens serialization blame "
             "and pipeline geometry for trace-file mode)",
    )
    analyze_parser.add_argument(
        "--workers", type=int, default=None,
        help="override the worker count when the trace/metrics do not "
             "record it",
    )
    analyze_parser.add_argument(
        "--capacity", type=int, default=None,
        help="override the channel capacity used for what-if replay",
    )
    analyze_parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_out",
        help="also write the machine-readable bottleneck block to PATH",
    )

    audit_parser = sub.add_parser(
        "shm-audit",
        help="scan /dev/shm for orphaned repro ring segments and exit "
             "nonzero if any survive the wait window",
    )
    audit_parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="seconds to wait for lagging resource-tracker reclaims "
             "before declaring segments orphaned (default 5)",
    )
    audit_parser.add_argument(
        "--unlink", action="store_true",
        help="unlink whatever the audit finds after reporting it "
             "(cleanup mode for CI teardown)",
    )

    history_parser = sub.add_parser(
        "history",
        help="diff the latest recorded run against a baseline from the "
             "history store",
    )
    history_parser.add_argument(
        "--history", metavar="PATH", default=DEFAULT_HISTORY_PATH,
        help=f"history store to read (default {DEFAULT_HISTORY_PATH})",
    )
    history_parser.add_argument(
        "--baseline", default=None, metavar="LABEL_OR_INDEX",
        help="baseline record: a --label value or an integer index "
             "(negative = from the end); default: the most recent earlier "
             "run with the same workload, workers, and batch size",
    )
    history_parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="relative regression tolerance for items/sec and gated p95 "
             "latencies (default 0.30)",
    )
    history_parser.add_argument(
        "--check", action="store_true",
        help="CI gate: exit nonzero when any gated metric regresses "
             "beyond tolerance",
    )
    history_parser.add_argument(
        "--list", action="store_true", dest="list_records",
        help="list the most recent history records instead of diffing",
    )
    history_parser.add_argument(
        "--limit", type=int, default=10,
        help="records shown by --list (default 10)",
    )
    history_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the diff (or the record list) as JSON to PATH",
    )
    return parser


def _add_exec_arguments(exec_parser: argparse.ArgumentParser) -> None:
    from repro.exec.engine import ExecutionEngine

    # Flags that set a constructor argument default to that constructor's
    # own default, so each value is written once.
    engine = inspect.signature(ExecutionEngine).parameters
    exec_parser.add_argument("name", choices=exec_names())
    exec_parser.add_argument(
        "--workers", type=int, default=2,
        help="phase-B worker processes (default 2)",
    )
    exec_parser.add_argument(
        "--capacity", type=int, default=engine["capacity"].default,
        help="inter-process channel capacity, in items (default "
             "%(default)s)",
    )
    exec_parser.add_argument(
        "--batch-size", type=int, default=engine["batch_size"].default,
        help="transport batch size: items carried per channel frame "
             "(default %(default)s; 1 = classic unbatched wire format)",
    )
    exec_parser.add_argument(
        "--flush-interval", type=float,
        default=engine["flush_interval"].default,
        help="latency bound in seconds before a partial frame is flushed "
             "(default %(default)s)",
    )
    exec_parser.add_argument(
        "--transport", default=engine["transport"].default,
        choices=("pipe", "shm", "thread"),
        help="channel wire backend: 'pipe' (an OS pipe, the default), 'shm' "
             "(shared-memory ring buffer — the zero-copy fast path), or "
             "'thread' (in-process workers, no pickling; for debugging "
             "and as a GIL-bound upper bound)",
    )
    exec_parser.add_argument(
        "--inject-faults", action="store_true",
        help="kill one worker mid-task and raise in another, proving "
             "recovery; the plan is drawn from --seed (printed, so any run "
             "is reproducible)",
    )
    exec_parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for fault/chaos injection schedules (default: fresh "
             "entropy, printed for replay)",
    )
    exec_parser.add_argument(
        "--chaos", type=int, metavar="N", default=None,
        help="run the seeded chaos harness with ~N randomized injections "
             "(crashes, hangs, soft faults, forced conflicts, latency, "
             "duplicates, drops) and audit cross-layer invariants",
    )
    exec_parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="periodically checkpoint the committed prefix to PATH",
    )
    exec_parser.add_argument(
        "--checkpoint-interval", type=int, default=8, metavar="K",
        help="commits between checkpoints (default 8)",
    )
    exec_parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="resume from a checkpoint file written by --checkpoint",
    )
    exec_parser.add_argument(
        "--no-throttle", action="store_true",
        help="disable the adaptive speculation-throttling controller",
    )
    exec_parser.add_argument(
        "--calibrate", action="store_true",
        help="also simulate at the matching thread count and print the "
             "simulated-vs-measured calibration table",
    )
    exec_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the run metrics as JSON to PATH",
    )
    exec_parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the engine metrics JSON (latency histograms included) "
             "to PATH — the artifact the CI perf job uploads",
    )
    exec_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a structured trace of the run (per-process spools, "
             "merged post-run) and write a Chrome trace-event JSON file to "
             "PATH (open it at https://ui.perfetto.dev)",
    )
    exec_parser.add_argument(
        "--no-trace", action="store_true",
        help="force tracing off, overriding --trace (tracing is already "
             "off by default; this pins it for benchmark A/B runs)",
    )
    exec_parser.add_argument(
        "--trace-events", type=int, default=None, metavar="N",
        help="per-process trace ring capacity in records (default 262144; "
             "overflow overwrites the oldest records and is reported as "
             "dropped_events)",
    )
    exec_parser.add_argument(
        "--compare", action="store_true",
        help="print the predicted-vs-measured report: the simulator's "
             "Gantt schedule next to the measured timeline (with --trace) "
             "and per-phase busy-time shares with relative error",
    )
    exec_parser.add_argument(
        "--serve", type=int, metavar="PORT", default=None,
        help="serve live telemetry over HTTP while the run executes: "
             "/metrics (Prometheus text), /snapshot (JSON), /health "
             "(liveness probe; 0 = ephemeral port, logged at startup)",
    )
    exec_parser.add_argument(
        "--watch", action="store_true",
        help="render a live one-line status TUI to stderr (items/sec, "
             "commit lag, occupancy, throttle window, misspec/chaos, health)",
    )
    exec_parser.add_argument(
        "--live-interval", type=float, default=0.2, metavar="SECONDS",
        help="live monitor sampling period (default 0.2)",
    )
    exec_parser.add_argument(
        "--abort-on-stall", action="store_true",
        help="escalate a persistent commit stall from health=degraded to "
             "an engine abort through the degradation path",
    )
    exec_parser.add_argument(
        "--history", metavar="PATH", default=DEFAULT_HISTORY_PATH,
        help="append this run's summary record to the cross-run history "
             f"store (default {DEFAULT_HISTORY_PATH})",
    )
    exec_parser.add_argument(
        "--no-history", action="store_true",
        help="skip the history record for this run",
    )
    exec_parser.add_argument(
        "--label", default=None,
        help="label this run's history record (a name 'repro history "
             "--baseline LABEL' can diff against)",
    )


def _add_serve_arguments(serve_parser: argparse.ArgumentParser) -> None:
    from repro.service import ServiceConfig

    service = ServiceConfig()  # each default written once, as for exec
    serve_parser.add_argument(
        "--host", default=service.host,
        help="bind address (default %(default)s)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=service.port,
        help="API port (default %(default)s = ephemeral; the bound port is "
             "printed)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=service.pool_workers,
        help="long-lived pool worker processes shared across jobs "
             "(default %(default)s)",
    )
    serve_parser.add_argument(
        "--slots", type=int, default=service.slots,
        help="concurrent job slots — leases that can be out at once "
             "(default %(default)s)",
    )
    serve_parser.add_argument(
        "--capacity", type=int, default=service.capacity,
        help="per-slot channel capacity (default %(default)s)",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=service.batch_size,
        help="per-slot transport batch size (default %(default)s)",
    )
    serve_parser.add_argument(
        "--transport", default=service.transport, choices=("pipe", "shm"),
        help="per-slot channel wire backend (default %(default)s; 'thread' "
             "is not available — pool workers are processes)",
    )
    serve_parser.add_argument(
        "--max-queued", type=int, default=service.max_queued,
        help="global queued-job bound; past it submissions get 429 "
             "(default %(default)s)",
    )
    serve_parser.add_argument(
        "--tenant-quota", type=int, default=service.tenant_queued_quota,
        help="queued jobs allowed per tenant (default %(default)s)",
    )
    serve_parser.add_argument(
        "--tenant-running", type=int, default=service.tenant_running_quota,
        help="running jobs allowed per tenant (default %(default)s)",
    )
    serve_parser.add_argument(
        "--weight", action="append", default=[], metavar="TENANT=N",
        help="fair-scheduler weight for a tenant (repeatable; default 1)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=service.drain_timeout,
        help="seconds running jobs get to finish after SIGTERM/SIGINT "
             "before cooperative cancellation (default %(default)s)",
    )
    serve_parser.add_argument(
        "--history", metavar="PATH", default=None, dest="history_path",
        help="append one history record per finished job to PATH",
    )
    serve_parser.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durability root: write-ahead job journal + on-disk artifact "
             "store; restarting with the same DIR re-admits queued jobs, "
             "resumes interrupted ones from their checkpoint, and honors "
             "idempotency keys across the crash (default: in-memory only)",
    )
    serve_parser.add_argument(
        "--checkpoint-interval", type=int,
        default=service.checkpoint_interval, metavar="K",
        help="commits between engine checkpoints for durable jobs — the "
             "resumable committed prefix is at most K commits stale "
             "(default %(default)s; needs --state-dir)",
    )
    serve_parser.add_argument(
        "--retry-max", type=int, default=service.default_max_attempts,
        metavar="N",
        help="default max attempts for jobs that do not set params.retry "
             "(default %(default)s = a failure is terminal; jobs whose "
             "bounded retries exhaust are dead-lettered)",
    )
    serve_parser.add_argument(
        "--trace-jobs", action="store_true",
        help="trace every job end to end (admission -> scheduler pick -> "
             "lease -> engine phases -> artifact persist) and serve the "
             "merged Chrome trace at GET /jobs/<id>/trace; individual "
             "jobs can opt in with params.trace without this flag",
    )
    serve_parser.add_argument(
        "--postmortem-keep", type=int, default=service.postmortem_keep,
        metavar="N",
        help="post-mortem bundles retained per tenant, LRU by mtime "
             "(default %(default)s; bundles are written on failure, "
             "dead-letter, and tenant degradation)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads", type=int, nargs="+", default=None,
        help="thread counts to simulate (default: the paper's 1-32 grid)",
    )
    parser.add_argument(
        "--no-speculation", action="store_true",
        help="ablation: synchronize every conflicting dependence",
    )
    parser.add_argument(
        "--no-commutative", action="store_true",
        help="ablation: ignore Commutative annotations",
    )
    parser.add_argument(
        "--no-ybranch", action="store_true",
        help="ablation: keep Y-branches on sequential policy",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as JSON to PATH",
    )


def _config(args) -> "FrameworkConfig":
    from repro.core.framework import FrameworkConfig

    config = FrameworkConfig()
    overrides = {}
    if args.threads:
        overrides["thread_counts"] = tuple(sorted(set(args.threads)))
    if args.no_speculation:
        overrides["enable_speculation"] = False
    if args.no_commutative:
        overrides["enable_commutative"] = False
    if args.no_ybranch:
        overrides["engage_ybranch"] = False
    return config.with_(**overrides) if overrides else config


def _evaluate_and_print(
    name: str, framework: "ParallelizationFramework"
) -> "SpeedupReport":
    from repro.core.report import format_speedup_curve

    evaluation = framework.evaluate(make_workload(name))
    print(format_speedup_curve(evaluation.report))
    if evaluation.plan.decisions:
        print("speculation:")
        for decision in evaluation.plan.decisions[:8]:
            print(f"  {decision}")
        if len(evaluation.plan.decisions) > 8:
            print(f"  ... and {len(evaluation.plan.decisions) - 8} more")
    if evaluation.plan.commutative_groups:
        print(f"commutative groups: {', '.join(evaluation.plan.commutative_groups)}")
    print(f"misspeculation rate: {evaluation.misspeculation.rate:.1%}")
    if not evaluation.output_comparison.equivalent:
        print(f"output: {evaluation.output_comparison.note}")
    for warning in evaluation.warnings:
        print(f"WARNING: {warning}")
    paper_threads, paper_speedup = PAPER_TABLE2[name]
    print(f"paper reference: {paper_speedup}x @ {paper_threads} threads")
    return evaluation.report


def _chaos_seed(args) -> int:
    """The run's injection seed: the user's, or fresh printed entropy."""
    import os

    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(4), "big")


def _trace_config(args):
    """``(TraceConfig, spool_dir)`` for ``--trace``, else ``(None, None)``."""
    if args.no_trace or not args.trace:
        return None, None
    import tempfile

    from repro.obs import TraceConfig

    spool_dir = tempfile.mkdtemp(prefix="repro-trace-")
    kwargs = {"spool_dir": spool_dir}
    if args.trace_events:
        kwargs["max_events"] = args.trace_events
    return TraceConfig(**kwargs), spool_dir


def _export_trace(args, spool_dir):
    """Merge the run's spools, write the Chrome trace, clean up."""
    import shutil

    from repro.obs import merge_spool_dir, write_chrome_trace

    merged = merge_spool_dir(spool_dir)
    write_chrome_trace(merged, args.trace)
    print(merged.format_summary())
    print(f"wrote {args.trace}  (open at https://ui.perfetto.dev)")
    shutil.rmtree(spool_dir, ignore_errors=True)
    return merged


def _attach_trace_bottleneck(merged, metrics) -> None:
    """Upgrade the engine's metrics-only bottleneck estimate to the real
    critical-path analysis once the merged trace is at hand, and print the
    analyzer's verdict."""
    try:
        from repro.obs import analyze_trace

        report = analyze_trace(merged, metrics=metrics.to_json())
        metrics.bottleneck = report.to_json()
        print()
        print(report.format_summary())
    except Exception as error:  # diagnosis must never fail the run
        print(f"bottleneck analysis failed: {error}", file=sys.stderr)


def _ensure_parent(path: str) -> None:
    """An output flag must not fail an otherwise-successful run at the very
    end just because its directory does not exist yet."""
    import os

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _write_metrics(args, metrics) -> None:
    if not args.metrics_out:
        return
    import json

    _ensure_parent(args.metrics_out)
    with open(args.metrics_out, "w") as handle:
        json.dump(metrics.to_json(), handle, indent=2, sort_keys=True)
    print(f"wrote {args.metrics_out}")


def _live_config(args):
    """A ``LiveConfig`` when any live-telemetry flag is set, else None
    (the registry and monitor thread only exist when asked for)."""
    if args.serve is None and not args.watch and not args.abort_on_stall:
        return None
    from repro.obs import LiveConfig

    return LiveConfig(
        interval=args.live_interval,
        serve=args.serve,
        watch=args.watch,
        abort_on_stall=args.abort_on_stall,
    )


def _append_history(
    args, name: str, metrics, *, seed=None, chaos=None, ok=True
) -> None:
    """Append this run's summary record to the cross-run history store."""
    if args.no_history or not args.history:
        return
    from repro.obs import append_record, make_record

    record = make_record(
        name=name,
        metrics=metrics,
        seed=seed,
        label=args.label,
        chaos=chaos,
        ok=ok,
        watchdog=metrics.watchdog,
    )
    append_record(args.history, record)
    print(f"history: appended to {args.history}  "
          f"(diff with: python -m repro history)")


def _checkpoint_config(args):
    """``--checkpoint PATH``'s ``CheckpointConfig``, else None."""
    if not args.checkpoint:
        return None
    from repro.resilience import CheckpointConfig

    return CheckpointConfig(
        interval=args.checkpoint_interval, path=args.checkpoint
    )


def _print_models(args, metrics, merged) -> None:
    """``--calibrate`` / ``--compare``: simulate the workload's analog once,
    at the run's thread count, and set it beside the measured run."""
    from repro.core.framework import FrameworkConfig, ParallelizationFramework
    from repro.core.report import CalibrationRow, format_calibration_table

    threads = args.workers + 2  # + phase-A core + phase-C core
    config = FrameworkConfig().with_(thread_counts=(1, threads))
    evaluation = ParallelizationFramework(config).evaluate(
        make_workload(args.name)
    )
    if args.calibrate:
        row = CalibrationRow(
            workers=args.workers,
            threads=threads,
            simulated_speedup=evaluation.report.curve[threads],
            measured_speedup=metrics.measured_speedup or 0.0,
        )
        print()
        print(format_calibration_table(args.name, [row]))
    if args.compare:
        from repro.obs import format_report

        print()
        print(
            format_report(
                args.name,
                evaluation.graph,
                evaluation.simulations[threads],
                metrics.stage_seconds,
                measured_speedup=metrics.measured_speedup,
                merged=merged,
            )
        )


def _finish_exec(
    args, metrics, spool_dir, record, *, seed, ok, chaos=None
) -> None:
    """Everything an ``exec`` run does once the engine has returned: the
    trace and the analyzer's verdict (``--trace``), the model comparisons
    (``--calibrate``, ``--compare``), ``--metrics-out``, the history record
    and ``--json`` (``record.to_json()``)."""
    merged = None
    if spool_dir is not None:
        merged = _export_trace(args, spool_dir)
        _attach_trace_bottleneck(merged, metrics)
    if args.calibrate or args.compare:
        _print_models(args, metrics, merged)
    _write_metrics(args, metrics)
    _append_history(args, args.name, metrics, seed=seed, chaos=chaos, ok=ok)
    if args.json:
        import json

        _ensure_parent(args.json)
        with open(args.json, "w") as handle:
            json.dump(record.to_json(), handle, indent=2)
        print(f"wrote {args.json}")


def _run_chaos(args) -> int:
    """``exec NAME --chaos N``: one audited seeded chaos run."""
    from repro.resilience import ChaosConfig, run_chaos

    workload = make_workload(args.name)
    seed = _chaos_seed(args)
    print(f"chaos seed: {seed}  (replay with --seed {seed})")
    trace_config, spool_dir = _trace_config(args)
    report = run_chaos(
        workload.exec_spec,
        seed,
        workers=args.workers,
        capacity=args.capacity,
        config=ChaosConfig.sized(args.chaos),
        checkpoint_config=_checkpoint_config(args),
        batch_size=args.batch_size,
        flush_interval=args.flush_interval,
        transport=args.transport,
        trace=trace_config,
        live=_live_config(args),
    )
    print(report.format_summary())
    print(report.result.metrics.format_summary())
    _finish_exec(
        args, report.result.metrics, spool_dir, report,
        seed=seed, chaos=args.chaos, ok=report.ok,
    )
    return 0 if report.ok else 1


def _run_exec(args) -> int:
    from repro.exec import ExecutionEngine, run_sequential
    from repro.resilience import ThrottleConfig, chaos_plan
    from repro.resilience.chaos import INJECT_FAULTS

    if args.chaos is not None:
        return _run_chaos(args)

    workload = make_workload(args.name)
    # Fresh specs for the reference and engine runs: phase-A producers may
    # be stateful.
    sequential_output, sequential_seconds = run_sequential(workload.exec_spec())
    spec = workload.exec_spec()
    fault_plan = None
    if args.inject_faults:
        seed = _chaos_seed(args)
        print(f"fault injection seed: {seed}  (replay with --seed {seed})")
        fault_plan = chaos_plan(spec.iterations, seed, INJECT_FAULTS)
    trace_config, spool_dir = _trace_config(args)
    engine = ExecutionEngine(
        workers=args.workers,
        capacity=args.capacity,
        fault_plan=fault_plan,
        throttle=ThrottleConfig(enabled=not args.no_throttle),
        checkpoints=_checkpoint_config(args),
        batch_size=args.batch_size,
        flush_interval=args.flush_interval,
        transport=args.transport,
        trace=trace_config,
        live=_live_config(args),
    )
    result = engine.run(spec, resume_from=args.resume)
    result.metrics.sequential_seconds = sequential_seconds
    if engine.live_server_port is not None:
        print(f"live: served /metrics /snapshot /health on port "
              f"{engine.live_server_port}")

    print(result.metrics.format_summary())
    identical = result.output == sequential_output
    if identical:
        print("output: bit-identical to sequential execution")
    else:
        print(f"output: MISMATCH — engine {result.output!r} "
              f"vs sequential {sequential_output!r}")

    _finish_exec(
        args, result.metrics, spool_dir, result.metrics,
        seed=args.seed, ok=identical,
    )
    return _exec_exit_code(identical, result.metrics)


def _exec_exit_code(identical: bool, metrics) -> int:
    """``exec``'s exit status: 0 clean, 1 output mismatch, 2 when the run
    only finished by giving up on parallelism (watchdog degraded/aborted or
    the engine fell back to sequential) — CI must not count those as green."""
    if not identical:
        return 1
    watchdog = metrics.watchdog or {}
    unhealthy = watchdog.get("health") in ("degraded", "aborted")
    if unhealthy or metrics.degraded_to_sequential:
        state = watchdog.get("health") or "degraded"
        print(f"run completed {state}: exiting 2")
        return 2
    return 0


def _service_config(args, weights: Dict[str, int]):
    """The :class:`ServiceConfig` ``serve``'s flags ask for."""
    from repro.service import ServiceConfig

    return ServiceConfig(
        host=args.host,
        port=args.port,
        pool_workers=args.workers,
        slots=args.slots,
        capacity=args.capacity,
        batch_size=args.batch_size,
        transport=args.transport,
        max_queued=args.max_queued,
        tenant_queued_quota=args.tenant_quota,
        tenant_running_quota=args.tenant_running,
        weights=weights,
        drain_timeout=args.drain_timeout,
        history_path=args.history_path,
        state_dir=args.state_dir,
        checkpoint_interval=args.checkpoint_interval,
        default_max_attempts=args.retry_max,
        trace_jobs=args.trace_jobs,
        postmortem_keep=args.postmortem_keep,
    )


def _run_serve(args) -> int:
    """``serve``: the job server, until SIGTERM/SIGINT starts a drain."""
    import signal
    import threading

    from repro.service import PipelineService

    weights = {}
    for item in args.weight:
        name, sep, value = item.partition("=")
        if not sep or not name or not value.isdigit() or int(value) < 1:
            print(f"bad --weight {item!r}: expected TENANT=N with N >= 1",
                  file=sys.stderr)
            return 2
        weights[name] = int(value)

    service = PipelineService(_service_config(args, weights)).start()
    stop = threading.Event()

    def _graceful(signum, frame):
        service.request_drain()  # new submissions now get 503
        stop.set()

    # Before the banner: a harness may send SIGTERM the moment it reads it.
    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    if service.durable and service.recovery.recovered:
        print(f"recovered from {args.state_dir}: "
              f"{service.recovery.to_json()}", flush=True)
    # The smoke harness parses this exact line for the bound port.
    print(f"serving on http://{args.host}:{service.port}", flush=True)
    while not stop.is_set():
        stop.wait(0.2)
    clean = service.drain_and_stop(args.drain_timeout)
    print("drained cleanly" if clean else "drain timed out: jobs cancelled",
          flush=True)
    return 0 if clean else 1


def _run_shm_audit(args) -> int:
    """``shm-audit``: fail loudly when a run leaked shared-memory rings."""
    from repro.exec.transport import reap_stale_segments, wait_for_reclaim

    leaked = wait_for_reclaim(timeout=args.timeout)
    if not leaked:
        print("shm-audit: clean (no repro segments in /dev/shm)")
        return 0
    print(f"shm-audit: {len(leaked)} orphaned segment(s) after "
          f"{args.timeout:.1f}s:", file=sys.stderr)
    for name in leaked:
        print(f"  /dev/shm/{name}", file=sys.stderr)
    if args.unlink:
        from multiprocessing import shared_memory

        reaped = reap_stale_segments()
        for name in reaped:
            print(f"  unlinked {name} (creator dead)", file=sys.stderr)
        for name in leaked:
            if name in reaped:
                continue
            try:
                segment = shared_memory.SharedMemory(name=name)
                segment.close()
                segment.unlink()
                print(f"  unlinked {name}", file=sys.stderr)
            except FileNotFoundError:
                pass
    return 1


def _run_history(args) -> int:
    """``history``: diff the latest recorded run against a baseline."""
    from repro.obs.history import (
        diff_records,
        format_history_diff,
        format_history_list,
        load_history,
        select_baseline,
    )

    records = load_history(args.history)
    if not records:
        print(f"history: no records in {args.history} "
              f"(run 'python -m repro exec ...' first)")
        return 1

    if args.list_records:
        print(format_history_list(records, limit=args.limit))
        if args.json:
            import json

            _ensure_parent(args.json)
            with open(args.json, "w") as handle:
                json.dump(records[-args.limit:], handle, indent=2)
            print(f"wrote {args.json}")
        return 0

    latest = records[-1]
    baseline = select_baseline(records, latest, args.baseline)
    if baseline is None or baseline is latest:
        selector = (
            f"baseline {args.baseline!r}" if args.baseline
            else "a comparable earlier run"
        )
        print(f"history: {selector} not found in {args.history} "
              f"({len(records)} record(s))")
        print(format_history_list(records, limit=args.limit))
        # Nothing to diff against is a setup problem for --check, not a
        # regression: fail loudly only when the gate was requested.
        return 1 if args.check else 0

    diff = diff_records(baseline, latest, tolerance=args.tolerance)
    print(format_history_diff(diff))
    if args.json:
        import json

        _ensure_parent(args.json)
        with open(args.json, "w") as handle:
            json.dump(diff.to_json(), handle, indent=2)
        print(f"wrote {args.json}")
    if args.check and not diff.ok:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    # Configured before any child process forks so the repro.exec /
    # repro.resilience namespaces inherit the threshold.
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "exec":
        return _run_exec(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "obs":
        import os

        if args.obs_command == "analyze":
            from repro.obs.analyze import run_analyze

            metrics = None
            if args.state_dir and args.target:
                from repro.service.durability import stored_metrics

                metrics = stored_metrics(args.state_dir, args.target)
            text, code = run_analyze(
                args.target,
                state_dir=args.state_dir,
                metrics_path=args.metrics,
                workers=args.workers,
                capacity=args.capacity,
                json_out=args.json_out,
                metrics=metrics,
            )
        else:
            from repro.obs.jobtrace import run_report

            text, code = run_report(args.state_dir, tenant=args.tenant)
        try:
            print(text)
        except BrokenPipeError:  # report piped through e.g. ``| head``
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code

    if args.command == "shm-audit":
        return _run_shm_audit(args)

    if args.command == "history":
        return _run_history(args)

    if args.command == "list":
        for name in suite_names():
            threads, speedup = PAPER_TABLE2[name]
            print(f"{name:<12} paper: {speedup:6.2f}x @ {threads} threads")
        return 0

    # The simulator commands: only these compile the framework.
    from repro.core.framework import ParallelizationFramework
    from repro.core.report import SuiteReport

    framework = ParallelizationFramework(_config(args))

    if args.command == "bench":
        _evaluate_and_print(args.name, framework)
        return 0

    if args.command == "figure":
        for name in _FIGURES[args.number]:
            print(f"=== {name} ===")
            _evaluate_and_print(name, framework)
            print()
        return 0

    # suite
    suite = SuiteReport()
    for name in suite_names():
        evaluation = framework.evaluate(make_workload(name))
        suite.add(evaluation.report)
        print(f"evaluated {name}: {evaluation.report.best_speedup:.2f}x")
    print()
    print(suite.format_table())
    if args.json:
        import json

        from repro.core.report import suite_to_json

        with open(args.json, "w") as handle:
            json.dump(suite_to_json(suite), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
