"""The run's HTTP face: ``/metrics``, ``/snapshot``, ``/health``.

A stdlib :class:`http.server.ThreadingHTTPServer` in the engine's process
serves three read-only endpoints over the live monitor:

``/metrics``
    Prometheus text exposition, format version 0.0.4: ``# HELP``/``# TYPE``
    preambles, escaped label values, counters suffixed ``_total``, shared
    histograms exported with cumulative ``le`` buckets.  Counter values
    come straight off the monotone registry, so successive scrapes never
    go backwards (the golden/property tests pin both).

``/snapshot``
    The full registry snapshot plus derived liveness (items/sec, progress,
    watchdog events) as JSON — the debugging endpoint.

``/health``
    The liveness probe: HTTP 200 + ``{"status": "ok"}`` while the watchdog
    is content, HTTP 503 + ``{"status": "degraded"|"aborted", ...}`` while
    a stall, saturation, or misspeculation storm is in progress.  This is
    the contract a load balancer or CI smoke test polls.

Everything is read-only and single-run: the server binds loopback by
default and dies with the engine.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Optional, Tuple

from repro.obs.live import HealthState, LiveMonitor
from repro.obs.registry import (
    BUCKET_BOUNDS,
    COUNTER_NAMES,
    GAUGE_NAMES,
    RegistrySnapshot,
)

logger = logging.getLogger(__name__)

#: The content type Prometheus scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAMESPACE = "repro"

_COUNTER_HELP = {
    "produced": "Phase-A items dispatched to the work channel.",
    "claimed": "Work items claimed by phase-B workers.",
    "executed": "Phase-B task executions completed in a worker.",
    "committed": "Iterations committed in order, exactly once.",
    "conflicts": "Commit-time validation failures (misspeculation).",
    "serial_reexec": "Committer-side serial re-executions.",
    "soft_faults": "Worker-reported task exceptions.",
    "worker_crashes": "Nonzero worker exits detected.",
    "worker_timeouts": "Hung workers killed by the committer.",
    "respawns": "Replacement workers spawned.",
    "checkpoints": "Committed-prefix checkpoints taken.",
    "chaos_injections": "Chaos injections the run weathered.",
}

_GAUGE_HELP = {
    "watermark": "Commit frontier (next iteration to commit).",
    "window": "Current speculative window published to workers.",
    "work_occupancy": "Items in flight on the work channel.",
    "done_occupancy": "Items in flight on the done channel.",
    "workers_alive": "Live phase-B worker processes.",
    "iterations": "Total iterations this run will commit.",
}

_HISTOGRAM_HELP = {
    "task_b_seconds": "Per-task phase-B execution time in seconds.",
    "commit_lag_seconds": "Claim arrival to commit, per iteration.",
}

_WATCHDOG_COUNTERS = (
    ("watchdog_stalls", "Commit-stall episodes the watchdog flagged."),
    ("watchdog_saturations", "Work-channel saturation episodes flagged."),
    ("watchdog_storms", "Misspeculation storms flagged."),
)


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """HELP-line escaping: backslash and newline only (quotes are legal)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Iterable[Tuple[str, str]]) -> str:
    pairs = [
        f'{name}="{escape_label_value(value)}"' for name, value in labels
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_bound(bound: float) -> str:
    """``le`` label values: shortest exact decimal repr (no float noise)."""
    text = repr(bound)
    return text


def prometheus_exposition(
    snapshot: RegistrySnapshot,
    *,
    labels: Optional[Iterable[Tuple[str, str]]] = None,
    watchdog: Optional[dict] = None,
    namespace: str = _NAMESPACE,
) -> str:
    """Render one registry snapshot as Prometheus text exposition.

    ``labels`` are constant labels attached to every sample (the CLI
    attaches ``workload``); ``watchdog`` is the monitor's summary dict,
    exported as health gauges and escalation counters.
    """
    base_labels = tuple(labels or ())
    label_text = _format_labels(base_labels)
    lines = []

    def header(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")

    for counter in COUNTER_NAMES:
        name = f"{namespace}_{counter}_total"
        header(name, "counter", _COUNTER_HELP.get(counter, counter))
        lines.append(f"{name}{label_text} {snapshot.counters.get(counter, 0)}")

    for gauge in GAUGE_NAMES:
        name = f"{namespace}_{gauge}"
        header(name, "gauge", _GAUGE_HELP.get(gauge, gauge))
        lines.append(f"{name}{label_text} {snapshot.gauges.get(gauge, 0)}")

    for series, hist in snapshot.histograms.items():
        name = f"{namespace}_{series}"
        header(name, "histogram", _HISTOGRAM_HELP.get(series, series))
        cumulative = 0
        for bound, bucket_count in zip(BUCKET_BOUNDS, hist.buckets):
            cumulative += bucket_count
            bucket_labels = _format_labels(
                base_labels + (("le", _format_bound(bound)),)
            )
            lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
        inf_labels = _format_labels(base_labels + (("le", "+Inf"),))
        lines.append(f"{name}_bucket{inf_labels} {hist.count}")
        lines.append(f"{name}_sum{label_text} {hist.total:.9g}")
        lines.append(f"{name}_count{label_text} {hist.count}")

    if watchdog is not None:
        name = f"{namespace}_healthy"
        header(
            name, "gauge",
            "1 while the watchdog reports ok, 0 while degraded/aborted.",
        )
        healthy = 1 if watchdog.get("health") == HealthState.OK.value else 0
        lines.append(f"{name}{label_text} {healthy}")
        for key, help_text in _WATCHDOG_COUNTERS:
            metric = f"{namespace}_{key}_total"
            header(metric, "counter", help_text)
            short = key.replace("watchdog_", "")
            lines.append(f"{metric}{label_text} {watchdog.get(short, 0)}")

    return "\n".join(lines) + "\n"


def send_whole(
    handler: BaseHTTPRequestHandler, status: int, content_type: str,
    body: bytes, extra_headers: Iterable[Tuple[str, str]] = (),
) -> None:
    """One response in one socket write — shared by this server and the
    job API (:mod:`repro.service.api`).

    ``end_headers()`` followed by ``wfile.write(body)`` is two small
    segments on an unbuffered socket: Nagle holds the second until the
    first is acknowledged, and a keep-alive client's delayed ACK makes
    that ~40 ms on every response.  So the blank line and the body are
    queued behind the buffered headers and flushed together.
    """
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(body)))
    for name, value in extra_headers:
        handler.send_header(name, value)
    handler._headers_buffer += (b"\r\n", body)
    handler.flush_headers()


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`MetricsServer`."""

    server_version = "repro-obs/1"

    # Set by the server factory.
    monitor: LiveMonitor = None
    labels: Tuple[Tuple[str, str], ...] = ()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("http %s", format % args)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        send_whole(self, status, content_type, body)

    def do_GET(self):  # noqa: N802 - stdlib naming
        try:
            if self.path in ("/metrics", "/metrics/"):
                self._metrics()
            elif self.path in ("/snapshot", "/snapshot/"):
                self._snapshot()
            elif self.path in ("/health", "/health/", "/healthz"):
                self._health()
            else:
                self._send(
                    404, "application/json",
                    b'{"error": "unknown path", '
                    b'"endpoints": ["/metrics", "/snapshot", "/health"]}',
                )
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    # Handlers use ``peek()`` — a pure registry read — never ``sample()``:
    # the watchdog and rate window are single-threaded state owned by the
    # monitor thread, while scrapes arrive on server threads.  Counter
    # freshness (and therefore scrape-to-scrape monotonicity) comes from
    # the registry itself, which is always current.

    def _metrics(self) -> None:
        monitor = self.monitor
        snapshot = monitor.peek()
        body = prometheus_exposition(
            snapshot,
            labels=self.labels,
            watchdog=monitor.watchdog.summary(),
        ).encode("utf-8")
        self._send(200, PROMETHEUS_CONTENT_TYPE, body)

    def _snapshot(self) -> None:
        monitor = self.monitor
        body = json.dumps(
            monitor.status_json(monitor.peek()), indent=2, sort_keys=True
        ).encode("utf-8")
        self._send(200, "application/json", body)

    def _health(self) -> None:
        monitor = self.monitor
        health = monitor.health
        payload = {
            "status": health.value,
            "committed": monitor.peek().counters.get("committed", 0),
            "iterations": monitor.iterations,
            "watchdog": monitor.watchdog.summary(),
        }
        status = 200 if health == HealthState.OK else 503
        self._send(
            status, "application/json",
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )


class MetricsServer:
    """The telemetry endpoint for one engine run.

    ``port=0`` binds an ephemeral port (tests, and parallel runs on one
    box); the bound port is available as :attr:`port` after
    :meth:`start`.  The serving thread is a daemon and is also stopped
    explicitly by the engine's teardown.
    """

    def __init__(
        self,
        monitor: LiveMonitor,
        host: str = "127.0.0.1",
        port: int = 0,
        labels: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> None:
        self.monitor = monitor
        self.host = host
        self.requested_port = port
        self.labels = tuple(labels or ())
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    def start(self) -> "MetricsServer":
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"monitor": self.monitor, "labels": self.labels},
        )
        self._server = ThreadingHTTPServer(
            (self.host, self.requested_port), handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-obs-serve",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "serving /metrics /snapshot /health on http://%s:%d",
            self.host, self.port,
        )
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
