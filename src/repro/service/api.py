"""The HTTP face of the job server.

Same stdlib :class:`~http.server.ThreadingHTTPServer` pattern as
:mod:`repro.obs.serve` — no framework, a handler class bound to its
service via ``type()``, ephemeral-port friendly (``port=0``).  JSON in,
JSON out.

Routes::

    POST   /jobs                 submit  {"tenant", "workload", "params"}
    GET    /jobs?tenant=NAME     list (optionally per tenant)
    GET    /jobs/<id>            status (full record: params + metrics)
    GET    /jobs/<id>/result     output of a finished job (409 until done)
    GET    /jobs/<id>/trace      merged Chrome trace JSON (409 until done)
    GET    /jobs/<id>/timeline   compact per-stage timeline (409 until done)
    GET    /jobs/<id>/bottleneck critical-path bottleneck analysis (409 until done)
    GET    /jobs/<id>/postmortem post-mortem bundle, if one was snapshotted
    POST   /jobs/<id>/cancel     cancel queued or running
    DELETE /jobs/<id>            alias for cancel
    GET    /health               service + per-tenant verdicts
    GET    /metrics              Prometheus text (service level)
    GET    /snapshot             full JSON state dump

Admission refusals carry the controller's verdict: 429 responses include
a ``Retry-After`` header (derived from the observed dispatch rate and
backlog when the server has seen recent dispatches), 503 means the server
is draining.  The tenant may come from the body or the ``X-Tenant``
header (body wins); an idempotency key (body ``idempotency_key`` or the
``Idempotency-Key`` header) makes the submission exactly-once per tenant —
a resubmit with the same key returns the existing job with 200 instead of
creating a duplicate, including across durable-server restarts.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.serve import PROMETHEUS_CONTENT_TYPE, send_whole
from repro.service.jobs import JobState, TERMINAL_STATES

logger = logging.getLogger(__name__)

#: Submission bodies larger than this are refused outright.
_MAX_BODY = 64 * 1024


class _ApiHandler(BaseHTTPRequestHandler):
    """Bound to a :class:`~repro.service.server.PipelineService` via a
    ``type()`` subclass (see :class:`ApiServer.start`)."""

    service = None  # injected
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib naming
        logger.debug("api: " + fmt, *args)

    # -- plumbing -----------------------------------------------------------------

    def _send(self, status: int, content_type: str, body: bytes,
              extra_headers=()) -> None:
        send_whole(self, status, content_type, body, extra_headers)

    def _json(self, status: int, payload, extra_headers=()) -> None:
        body = json.dumps(payload, indent=2, default=str).encode()
        self._send(status, "application/json", body, extra_headers)

    def _error(self, status: int, message: str, extra_headers=()) -> None:
        self._json(status, {"error": message}, extra_headers)

    def _read_body(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            self._error(413, f"body too large (max {_MAX_BODY} bytes)")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(body, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body

    # -- verbs --------------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["health"]:
                status, body = self.service.health_json()
                self._json(status, body)
            elif parts == ["metrics"]:
                self._send(
                    200, PROMETHEUS_CONTENT_TYPE,
                    self.service.metrics_text().encode(),
                )
            elif parts == ["snapshot"]:
                self._json(200, self.service.snapshot_json())
            elif parts == ["jobs"]:
                query = parse_qs(url.query)
                tenant = (query.get("tenant") or [None])[0]
                jobs = self.service.list_jobs(tenant)
                self._json(200, {"jobs": [job.to_json() for job in jobs]})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._job_status(parts[1])
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
                self._job_result(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] in (
                "trace", "timeline", "postmortem", "bottleneck"
            ):
                self._job_trace(parts[1], parts[2])
            else:
                self._error(404, f"no route for GET {url.path}")
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("GET %s failed", self.path)
            self._error(500, repr(exc))

    def do_POST(self):  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                self._submit()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._cancel(parts[1])
            else:
                self._error(404, f"no route for POST {url.path}")
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("POST %s failed", self.path)
            self._error(500, repr(exc))

    def do_DELETE(self):  # noqa: N802 - stdlib naming
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            self._cancel(parts[1])
        else:
            self._error(404, f"no route for DELETE {self.path}")

    # -- handlers -----------------------------------------------------------------

    def _submit(self) -> None:
        body = self._read_body()
        if body is None:
            return
        tenant = body.get("tenant") or self.headers.get("X-Tenant")
        if not tenant:
            self._error(400, "tenant required (body field or X-Tenant header)")
            return
        workload = body.get("workload")
        if not workload:
            self._error(400, "workload required")
            return
        params = body.get("params") or {}
        idempotency_key = (
            body.get("idempotency_key") or self.headers.get("Idempotency-Key")
        )
        try:
            job, decision = self.service.submit(
                tenant, workload, params, idempotency_key=idempotency_key
            )
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if job is None:
            headers = []
            if decision.retry_after is not None:
                headers.append(("Retry-After", str(int(decision.retry_after))))
            self._json(
                decision.status,
                {"error": decision.reason, **decision.to_json()},
                headers,
            )
            return
        payload = job.to_json()
        if decision.deduplicated:
            payload["deduplicated"] = True
        self._json(decision.status, payload)

    def _job_status(self, job_id: str) -> None:
        job = self.service.get_job(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._json(200, job.to_json(full=True))

    def _job_result(self, job_id: str) -> None:
        job = self.service.get_job(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if job.state not in TERMINAL_STATES:
            self._error(409, f"job {job_id} is {job.state.value}, not finished")
            return
        if job.state is not JobState.DONE:
            self._json(
                410,
                {
                    "error": f"job {job_id} ended {job.state.value}",
                    "state": job.state.value,
                    "detail": job.error,
                },
            )
            return
        self._json(
            200,
            {"id": job.id, "state": job.state.value,
             "output": self.service.job_output(job),
             "metrics": job.metrics},
        )

    def _job_trace(self, job_id: str, kind: str) -> None:
        """Trace artifacts: the merged Chrome trace, the compact timeline,
        the bottleneck analysis, or the post-mortem bundle.  404 for an
        untraced job, 409 while the trace is still being recorded (it
        merges at the terminal state)."""
        job = self.service.get_job(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if kind == "postmortem":
            bundle = self.service.job_postmortem_json(job)
            if bundle is None:
                self._error(404, f"no post-mortem bundle for job {job_id}")
                return
            self._json(200, bundle)
            return
        if job.trace is not None:
            # Still recording, or terminal with the merge in flight (the
            # runner finalizes outside the service lock) — retryable.
            self._error(
                409, f"job {job_id} is {job.state.value}; "
                "trace merges when it finishes",
            )
            return
        if kind == "trace":
            payload = self.service.job_trace_json(job)
        elif kind == "bottleneck":
            payload = self.service.job_bottleneck_json(job)
        else:
            payload = self.service.job_timeline_json(job)
        if payload is None:
            self._error(
                404,
                f"no {kind} for job {job_id} (submit with params.trace "
                "or serve with --trace-jobs)",
            )
            return
        self._json(200, payload)

    def _cancel(self, job_id: str) -> None:
        outcome = self.service.cancel(job_id)
        if outcome is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._json(202, {"id": job_id, "state": outcome})


class ApiServer:
    """Lifecycle wrapper mirroring :class:`repro.obs.serve.MetricsServer`:
    ``port=0`` binds ephemeral, :attr:`port` is live after :meth:`start`."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    def start(self) -> "ApiServer":
        handler = type("_BoundApiHandler", (_ApiHandler,),
                       {"service": self.service})
        self._server = ThreadingHTTPServer(
            (self.host, self.requested_port), handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-api",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "service API on http://%s:%d (POST /jobs, /health, /metrics)",
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
