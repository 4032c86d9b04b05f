"""The one HTTP server and the one Prometheus writer.

:class:`HttpServer` wraps the repo's only stdlib
:class:`http.server.ThreadingHTTPServer` and its one request handler:
HTTP/1.1 keep-alive, a JSON body of at most 64 KiB (400 / 413 otherwise),
500 when a face raises, every response in one socket write
(:func:`send_whole`).  What it serves is a *face*: one plain function from
a parsed :class:`Request` to ``(status, content_type, body,
extra_headers)``.  There are two — :func:`repro.service.api.handle_api`
(the job server) and :func:`live_endpoints`, one engine run's read-only
view of its :class:`~repro.obs.live.LiveMonitor`:

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

The engine's server binds loopback by default and dies with the run.  Both
``/metrics`` renderers — :func:`prometheus_exposition` and the job
server's ``metrics_text`` — write through one :class:`Exposition`.
"""

from __future__ import annotations

import json
import logging
import os
import selectors
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlparse

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

#: Request bodies larger than this are refused outright (413).
_MAX_BODY = 64 * 1024

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

Labels = Tuple[Tuple[str, str], ...]


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


class Exposition:
    """A Prometheus text-exposition (0.0.4) writer.

    Families are written in call order: :meth:`family` emits the
    ``# HELP`` / ``# TYPE`` preamble, :meth:`sample` one line per label
    set, :meth:`histogram` the cumulative ``le`` buckets on the engine's
    power-of-two bounds plus ``_sum`` and ``_count`` — so the engine's
    and the job server's latencies share one axis.
    """

    def __init__(self) -> None:
        self._lines = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {escape_help(help_text)}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: Labels, value: Any) -> None:
        self._lines.append(f"{name}{_format_labels(labels)} {value}")

    def histogram(self, name: str, labels: Labels, hist) -> None:
        """``hist`` is anything with ``buckets`` (one count per bound,
        then overflow), ``count`` and ``total``: the registry's
        :class:`~repro.obs.registry.HistogramSnapshot` or a tenant's
        :class:`~repro.service.tenants.StageHistogram`."""
        cumulative = 0
        for bound, bucket_count in zip(BUCKET_BOUNDS, hist.buckets):
            cumulative += bucket_count
            # repr: the shortest exact decimal, no float noise
            self.sample(f"{name}_bucket", labels + (("le", repr(bound)),),
                        cumulative)
        self.sample(f"{name}_bucket", labels + (("le", "+Inf"),), hist.count)
        self.sample(f"{name}_sum", labels, f"{hist.total:.9g}")
        self.sample(f"{name}_count", labels, hist.count)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


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
    labels = tuple(labels or ())
    out = Exposition()
    for counter in COUNTER_NAMES:
        name = f"{namespace}_{counter}_total"
        out.family(name, "counter", _COUNTER_HELP.get(counter, counter))
        out.sample(name, labels, snapshot.counters.get(counter, 0))
    for gauge in GAUGE_NAMES:
        name = f"{namespace}_{gauge}"
        out.family(name, "gauge", _GAUGE_HELP.get(gauge, gauge))
        out.sample(name, labels, snapshot.gauges.get(gauge, 0))
    for series, hist in snapshot.histograms.items():
        name = f"{namespace}_{series}"
        out.family(name, "histogram", _HISTOGRAM_HELP.get(series, series))
        out.histogram(name, labels, hist)
    if watchdog is not None:
        name = f"{namespace}_healthy"
        out.family(
            name, "gauge",
            "1 while the watchdog reports ok, 0 while degraded/aborted.",
        )
        healthy = 1 if watchdog.get("health") == HealthState.OK.value else 0
        out.sample(name, labels, healthy)
        for key, help_text in _WATCHDOG_COUNTERS:
            metric = f"{namespace}_{key}_total"
            out.family(metric, "counter", help_text)
            short = key.replace("watchdog_", "")
            out.sample(metric, labels, watchdog.get(short, 0))
    return out.text()


# -- the HTTP server ----------------------------------------------------------------


class Request(NamedTuple):
    """One parsed request as a face sees it: ``path`` without the query,
    ``parts`` its non-empty ``/`` segments, ``query`` as
    :func:`urllib.parse.parse_qs` returns it, ``headers`` with a
    case-insensitive ``get``, ``body`` the JSON object (``{}`` if none)."""

    method: str
    path: str
    parts: list
    query: dict
    headers: Any
    body: dict


#: ``(status, content_type, body, extra_headers)``
Response = Tuple[int, str, bytes, Iterable[Tuple[str, str]]]


def json_response(
    status: int, payload, extra_headers: Iterable[Tuple[str, str]] = ()
) -> Response:
    """A compact JSON answer.  No ``indent``: an indented ``json.dumps``
    runs the pure-Python encoder, the compact one the C encoder."""
    return (
        status, "application/json",
        json.dumps(payload, separators=(",", ":"), default=str).encode(),
        extra_headers,
    )


def json_error(
    status: int, message: str, extra_headers: Iterable[Tuple[str, str]] = ()
) -> Response:
    return json_response(status, {"error": message}, extra_headers)


def send_whole(
    handler: BaseHTTPRequestHandler, status: int, content_type: str,
    body: bytes, extra_headers: Iterable[Tuple[str, str]] = (),
) -> None:
    """One response in one socket write.

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
    """The one request handler: parse, call the server's face, answer
    whole.  The face is ``self.server.handle``, set by :class:`HttpServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-obs/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("http " + format, *args)

    def do_GET(self):  # noqa: N802 - stdlib naming
        try:
            send_whole(self, *self._respond())
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    do_POST = do_DELETE = do_GET  # noqa: N815 - stdlib naming

    def _respond(self) -> Response:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            # The body stays unread, so this connection cannot carry
            # another request.
            self.close_connection = True
            return json_error(413, f"body too large (max {_MAX_BODY} bytes)")
        raw = self.rfile.read(length) if length else b""
        body = {}
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:
                return json_error(400, "request body is not valid JSON")
            if not isinstance(body, dict):
                return json_error(400, "request body must be a JSON object")
        url = urlparse(self.path)
        request = Request(
            method=self.command,
            path=url.path,
            parts=[part for part in url.path.split("/") if part],
            query=parse_qs(url.query),
            headers=self.headers,
            body=body,
        )
        try:
            return self.server.handle(request)
        except Exception as exc:
            logger.exception("%s %s failed", self.command, self.path)
            return json_error(500, repr(exc))


class HttpServer:
    """Serve one face function over HTTP/1.1.

    ``port=0`` binds an ephemeral port (tests, and parallel runs on one
    box); the bound port is available as :attr:`port` after
    :meth:`start`.  The serving thread and the per-connection threads are
    daemons; :meth:`stop` also shuts them down explicitly.  The accept
    loop sleeps until a connection or :meth:`stop`'s wake byte arrives, so
    a stop never waits out a poll interval.
    """

    def __init__(
        self,
        handle: Callable[[Request], Response],
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "repro-http",
    ) -> None:
        self.handle = handle
        self.host = host
        self.requested_port = port
        self.name = name
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[Tuple[int, int]] = None  # (read fd, write fd)

    @property
    def port(self) -> int:
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    def start(self) -> "HttpServer":
        self._server = ThreadingHTTPServer(
            (self.host, self.requested_port), _Handler
        )
        self._server.handle = self.handle
        self._server.daemon_threads = True
        self._wake = os.pipe()
        self._thread = threading.Thread(
            target=self._serve, args=(self._server, self._wake[0]),
            name=self.name, daemon=True,
        )
        self._thread.start()
        logger.info("%s on http://%s:%d", self.name, self.host, self.port)
        return self

    @staticmethod
    def _serve(server: ThreadingHTTPServer, wake_fd: int) -> None:
        """``serve_forever`` without its 0.5 s shutdown poll: accept until
        the wake pipe turns readable."""
        with selectors.DefaultSelector() as selector:
            selector.register(server, selectors.EVENT_READ)
            selector.register(wake_fd, selectors.EVENT_READ)
            while not any(key.fd == wake_fd for key, _ in selector.select()):
                server._handle_request_noblock()

    def stop(self) -> None:
        if self._wake is not None:
            os.write(self._wake[1], b"\0")
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._server is not None:
            self._server.server_close()
            self._server = None
        if self._wake is not None:
            for fd in self._wake:
                os.close(fd)
            self._wake = None


# -- the engine run's face ----------------------------------------------------------

# The face uses ``peek()`` — a pure registry read — never ``sample()``: the
# watchdog and rate window are single-threaded state owned by the monitor
# thread, while scrapes arrive on server threads.  Counter freshness (and
# therefore scrape-to-scrape monotonicity) comes from the registry itself,
# which is always current.


def live_endpoints(monitor: LiveMonitor, request: Request) -> Response:
    """``/metrics``, ``/snapshot`` and ``/health`` over one run's monitor
    (bind it with :func:`functools.partial`)."""
    parts = request.parts if request.method == "GET" else None
    if parts == ["metrics"]:
        body = prometheus_exposition(
            monitor.peek(), watchdog=monitor.watchdog.summary()
        ).encode("utf-8")
        return 200, PROMETHEUS_CONTENT_TYPE, body, ()
    if parts == ["snapshot"]:
        body = json.dumps(
            monitor.status_json(monitor.peek()), indent=2, sort_keys=True
        ).encode("utf-8")
        return 200, "application/json", body, ()
    if parts in (["health"], ["healthz"]):
        health = monitor.health
        payload = {
            "status": health.value,
            "committed": monitor.peek().counters.get("committed", 0),
            "iterations": monitor.iterations,
            "watchdog": monitor.watchdog.summary(),
        }
        status = 200 if health == HealthState.OK else 503
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return status, "application/json", body, ()
    return (
        404, "application/json",
        b'{"error": "unknown path", '
        b'"endpoints": ["/metrics", "/snapshot", "/health"]}',
        (),
    )
