"""The HTTP face of the job server: one function, :func:`handle_api`.

It maps a parsed :class:`repro.obs.serve.Request` to a response tuple and
is served by :class:`repro.obs.serve.HttpServer` — the same server,
handler (HTTP/1.1 keep-alive, 64 KiB JSON body cap, one socket write per
response) and exposition writer as the engine's live endpoints.  JSON in,
JSON out.

Routes::

    POST   /jobs                 submit  {"tenant", "workload", "params"}
    GET    /jobs?tenant=NAME     list (optionally per tenant)
    GET    /jobs/<id>            status (full record: params + metrics)
    GET    /jobs/<id>/result     output of a finished job (409 until done)
    GET    /jobs/<id>/trace      merged Chrome trace JSON (409 until done)
    GET    /jobs/<id>/timeline   compact per-stage timeline (409 until done)
    GET    /jobs/<id>/bottleneck the job's bottleneck verdict (409 until done):
                                 trace-based when traced, else estimated
                                 from its metrics, which carry ``null``
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

from repro.obs.serve import (
    PROMETHEUS_CONTENT_TYPE,
    Request,
    Response,
    json_error,
    json_response,
)
from repro.service.jobs import JobState, TERMINAL_STATES

_TRACE_KINDS = ("trace", "timeline", "postmortem", "bottleneck")


def handle_api(service, request: Request) -> Response:
    """Route one request to a :class:`~repro.service.server.PipelineService`
    (bind it with :func:`functools.partial`)."""
    method, parts = request.method, request.parts
    job_route = len(parts) >= 2 and parts[0] == "jobs"
    if method == "GET":
        if parts == ["health"]:
            return json_response(*service.health_json())
        if parts == ["metrics"]:
            text = service.metrics_text().encode()
            return 200, PROMETHEUS_CONTENT_TYPE, text, ()
        if parts == ["snapshot"]:
            return json_response(200, service.snapshot_json())
        if parts == ["jobs"]:
            tenant = (request.query.get("tenant") or [None])[0]
            jobs = service.list_jobs(tenant)
            return json_response(200, {"jobs": [job.to_json() for job in jobs]})
        if job_route and len(parts) == 2:
            return _job_status(service, parts[1])
        if job_route and len(parts) == 3 and parts[2] == "result":
            return _job_result(service, parts[1])
        if job_route and len(parts) == 3 and parts[2] in _TRACE_KINDS:
            return _job_trace(service, parts[1], parts[2])
    elif method == "POST":
        if parts == ["jobs"]:
            return _submit(service, request)
        if job_route and len(parts) == 3 and parts[2] == "cancel":
            return _cancel(service, parts[1])
    elif method == "DELETE" and job_route and len(parts) == 2:
        return _cancel(service, parts[1])
    return json_error(404, f"no route for {method} {request.path}")


def _submit(service, request: Request) -> Response:
    body, headers = request.body, request.headers
    tenant = body.get("tenant") or headers.get("X-Tenant")
    if not tenant:
        return json_error(400, "tenant required (body field or X-Tenant header)")
    workload = body.get("workload")
    if not workload:
        return json_error(400, "workload required")
    params = body.get("params") or {}
    idempotency_key = (
        body.get("idempotency_key") or headers.get("Idempotency-Key")
    )
    try:
        job, decision = service.submit(
            tenant, workload, params, idempotency_key=idempotency_key
        )
    except ValueError as exc:
        return json_error(400, str(exc))
    if job is None:
        retry = []
        if decision.retry_after is not None:
            retry.append(("Retry-After", str(int(decision.retry_after))))
        return json_response(
            decision.status, {"error": decision.reason, **decision.to_json()},
            retry,
        )
    payload = job.to_json()
    if decision.deduplicated:
        payload["deduplicated"] = True
    return json_response(decision.status, payload)


def _job_status(service, job_id: str) -> Response:
    job = service.get_job(job_id)
    if job is None:
        return json_error(404, f"unknown job {job_id!r}")
    return json_response(200, job.to_json(full=True))


def _job_result(service, job_id: str) -> Response:
    job = service.get_job(job_id)
    if job is None:
        return json_error(404, f"unknown job {job_id!r}")
    if job.state not in TERMINAL_STATES:
        return json_error(
            409, f"job {job_id} is {job.state.value}, not finished"
        )
    if job.state is not JobState.DONE:
        return json_response(
            410,
            {
                "error": f"job {job_id} ended {job.state.value}",
                "state": job.state.value,
                "detail": job.error,
            },
        )
    return json_response(
        200,
        {"id": job.id, "state": job.state.value,
         "output": service.job_output(job),
         "metrics": job.metrics},
    )


def _job_trace(service, job_id: str, kind: str) -> Response:
    """Trace artifacts: the merged Chrome trace, the compact timeline,
    the bottleneck verdict, or the post-mortem bundle.  409 while the
    trace is still being recorded (it merges at the terminal state).  An
    untraced job has no trace or timeline (404); its verdict is the
    metrics-only estimate, 409 until the job is terminal and 404 if it
    ended without metrics (failed)."""
    job = service.get_job(job_id)
    if job is None:
        return json_error(404, f"unknown job {job_id!r}")
    if kind == "postmortem":
        bundle = service.job_postmortem_json(job)
        if bundle is None:
            return json_error(404, f"no post-mortem bundle for job {job_id}")
        return json_response(200, bundle)
    if job.trace is not None:
        # Still recording, or terminal with the merge in flight (the
        # runner finalizes outside the service lock) — retryable.
        return json_error(
            409, f"job {job_id} is {job.state.value}; "
            "trace merges when it finishes",
        )
    if kind == "bottleneck":
        if job.state not in TERMINAL_STATES:
            return json_error(
                409, f"job {job_id} is {job.state.value}; "
                "its verdict is ready when it finishes",
            )
        verdict = service.job_bottleneck_json(job)
        if verdict is None:
            return json_error(
                404, f"no bottleneck for job {job_id} "
                f"(it ended {job.state.value} without metrics)",
            )
        return json_response(200, verdict)
    if kind == "trace":
        payload = service.job_trace_json(job)
    else:
        payload = service.job_timeline_json(job)
    if payload is None:
        return json_error(
            404,
            f"no {kind} for job {job_id} (submit with params.trace "
            "or serve with --trace-jobs)",
        )
    return json_response(200, payload)


def _cancel(service, job_id: str) -> Response:
    outcome = service.cancel(job_id)
    if outcome is None:
        return json_error(404, f"unknown job {job_id!r}")
    return json_response(202, {"id": job_id, "state": outcome})
