"""Tests for the live telemetry plane (ISSUE 5).

The acceptance contract:

- the shared-memory registry counts exactly and sums across writer rows;
  snapshots taken mid-run are internally consistent
  (``committed <= claimed <= produced``) — pinned by a hypothesis property
  over arbitrary causal schedules, a threaded writer/sampler stress, and a
  real engine run polled over HTTP;
- ``/metrics`` is valid Prometheus text exposition: golden-file pinned
  (HELP/TYPE preambles, label escaping, cumulative histogram buckets) and
  counter-monotone across two scrapes of a live run;
- ``/health`` transitions ok → degraded when an injected committer stall
  freezes the commit frontier, and back once commits resume;
- the watchdog detects stalls, queue saturation, and misspeculation
  storms, escalating log → degraded → (optional) abort;
- the history store appends schema-versioned records, survives corrupt
  lines, picks sensible baselines, and gates regressions with tolerance;
- empty latency histograms render guarded summaries (no degenerate
  p50=p99=0 rows, no exceptions).
"""

import functools
import io
import json
import multiprocessing
import os
import threading
import time
import types
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ExecutionEngine, PipelineSpec, run_sequential
from repro.exec.metrics import EngineMetrics
from repro.obs.hist import LatencyHistogram
from repro.obs.history import (
    HISTORY_SCHEMA,
    append_record,
    diff_records,
    format_history_diff,
    format_history_list,
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
from repro.obs.registry import (
    BUCKET_BOUNDS,
    COUNTER_NAMES,
    GAUGE_NAMES,
    HistogramSnapshot,
    MetricsRegistry,
    RegistrySnapshot,
    WRITER_COMMITTER,
    WRITER_PRODUCER,
    WRITER_WORKER0,
    bucket_index,
    writers_for,
)
from repro.obs.serve import (
    HttpServer,
    _Handler,
    escape_label_value,
    json_response,
    prometheus_exposition,
    send_whole,
)
from repro.service import PipelineService, ServiceConfig
from repro.service.api import handle_api
from repro.service.durability import JournalStats, RecoveryReport
from repro.service.queue import Admission

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# -- module-level stage functions (picklable across processes) ---------------------


def produce_i(i):
    return i


def sleepy_work(i, value):
    time.sleep(0.004)
    return value * 2


def record_commit(i, result, acc):
    acc[i] = result


# -- registry -----------------------------------------------------------------------


class TestRegistry:
    def _registry(self, writers=4):
        return MetricsRegistry.create(multiprocessing.get_context(), writers)

    def test_counters_sum_across_writer_rows(self):
        registry = self._registry()
        registry.add(WRITER_WORKER0, "claimed", 3)
        registry.add(WRITER_WORKER0 + 1, "claimed", 4)
        registry.add(WRITER_PRODUCER, "produced", 9)
        assert registry.counter_total("claimed") == 7
        assert registry.counter_total("produced") == 9
        assert registry.counter_total("committed") == 0

    def test_gauges_overwrite(self):
        registry = self._registry()
        registry.set_gauge("watermark", 5)
        registry.set_gauge("watermark", 11)
        assert registry.gauge_value("watermark") == 11

    def test_unknown_names_rejected(self):
        registry = self._registry()
        with pytest.raises(KeyError):
            registry.add(0, "no_such_counter")
        with pytest.raises(KeyError):
            registry.set_gauge("no_such_gauge", 1)
        with pytest.raises(KeyError):
            registry.observe(0, "no_such_histogram", 0.1)

    def test_bucket_index_bounds(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(1e-6) == 0
        assert bucket_index(1.1e-6) == 1
        # Beyond the last bound lands in the overflow bucket.
        assert bucket_index(BUCKET_BOUNDS[-1] * 10) == len(BUCKET_BOUNDS)

    def test_histogram_snapshot_percentiles(self):
        registry = self._registry()
        for seconds in (0.001, 0.002, 0.004, 0.008, 0.1):
            registry.observe(WRITER_WORKER0, "task_b_seconds", seconds)
        hist = registry.histogram_snapshot("task_b_seconds")
        assert hist.count == 5
        assert hist.total == pytest.approx(0.115)
        assert hist.to_json()["mean"] == pytest.approx(0.023)
        p50 = hist.percentile(50)
        # The estimate interpolates inside the landing bucket: it must be
        # within the bucket that holds the true median (0.004).
        assert 0.002 < p50 <= 0.004096
        assert hist.percentile(100) >= hist.percentile(0)

    def test_histogram_sums_across_writers(self):
        registry = self._registry()
        registry.observe(WRITER_WORKER0, "task_b_seconds", 0.01)
        registry.observe(WRITER_WORKER0 + 1, "task_b_seconds", 0.01)
        assert registry.histogram_snapshot("task_b_seconds").count == 2

    def test_empty_histogram_percentile_is_none(self):
        hist = HistogramSnapshot(
            buckets=(0,) * (len(BUCKET_BOUNDS) + 1), total=0.0
        )
        assert hist.count == 0
        assert hist.percentile(50) is None
        assert hist.percentile(99) is None
        # The JSON shape omits percentile keys entirely — the guard that
        # keeps renderings from printing degenerate p50=p99=0 rows.
        assert "p50" not in hist.to_json()

    def test_writers_for_covers_respawn_budget(self):
        assert writers_for(4, 3) >= WRITER_WORKER0 + 4 + 3

    def test_snapshot_shape(self):
        registry = self._registry()
        snapshot = registry.snapshot()
        assert set(snapshot.counters) == set(COUNTER_NAMES)
        assert set(snapshot.gauges) == set(GAUGE_NAMES)
        assert snapshot.monotonic_s > 0


# -- snapshot consistency (the property) --------------------------------------------


def _consistent(snapshot):
    c = snapshot.counters
    return c["committed"] <= c["claimed"] <= c["produced"]


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=120))
@settings(max_examples=60, deadline=None)
def test_snapshot_consistent_under_any_causal_schedule(ops):
    """Any schedule that respects pipeline causality (an item is produced
    before claimed, claimed before executed/committed) keeps every
    snapshot internally consistent."""
    registry = MetricsRegistry.create(multiprocessing.get_context(), 4)
    produced = claimed = executed = committed = 0
    for op in ops:
        if op == 0:
            registry.add(WRITER_PRODUCER, "produced")
            produced += 1
        elif op == 1 and claimed < produced:
            registry.add(WRITER_WORKER0, "claimed")
            claimed += 1
        elif op == 2 and executed < claimed:
            registry.add(WRITER_WORKER0, "executed")
            executed += 1
        elif op == 3 and committed < claimed:
            registry.add(WRITER_COMMITTER, "committed")
            committed += 1
        assert _consistent(registry.snapshot())


def test_snapshot_consistent_under_threaded_writers():
    """Three writer threads race a sampler: the reverse-causal read order
    must keep every snapshot consistent without any locking."""
    registry = MetricsRegistry.create(multiprocessing.get_context(), 4)
    total = 4000
    stop = threading.Event()

    def producer():
        for _ in range(total):
            registry.add(WRITER_PRODUCER, "produced")

    def worker():
        claimed = 0
        while claimed < total and not stop.is_set():
            available = registry.counter_total("produced") - claimed
            if available > 0:
                registry.add(WRITER_WORKER0, "claimed", available)
                claimed += available

    def committer():
        committed = 0
        while committed < total and not stop.is_set():
            available = registry.counter_total("claimed") - committed
            if available > 0:
                registry.add(WRITER_COMMITTER, "committed", available)
                committed += available

    threads = [
        threading.Thread(target=fn) for fn in (producer, worker, committer)
    ]
    for thread in threads:
        thread.start()
    try:
        violations = 0
        for _ in range(400):
            if not _consistent(registry.snapshot()):
                violations += 1
        assert violations == 0
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    assert registry.counter_total("committed") == total


# -- prometheus exposition ----------------------------------------------------------


def _golden_registry():
    """A deterministic registry for the golden-file exposition test."""
    registry = MetricsRegistry.create(
        multiprocessing.get_context(), writers_for(2, 0)
    )
    registry.add(WRITER_PRODUCER, "produced", 12)
    registry.add(WRITER_WORKER0, "claimed", 8)
    registry.add(WRITER_WORKER0 + 1, "claimed", 4)
    registry.add(WRITER_WORKER0, "executed", 8)
    registry.add(WRITER_WORKER0 + 1, "executed", 3)
    registry.add(WRITER_COMMITTER, "committed", 10)
    registry.add(WRITER_COMMITTER, "conflicts", 2)
    registry.add(WRITER_COMMITTER, "serial_reexec", 2)
    registry.add(WRITER_COMMITTER, "soft_faults", 1)
    registry.add(WRITER_COMMITTER, "chaos_injections", 3)
    registry.set_gauge("watermark", 10)
    registry.set_gauge("window", 16)
    registry.set_gauge("work_occupancy", 3)
    registry.set_gauge("done_occupancy", 1)
    registry.set_gauge("workers_alive", 2)
    registry.set_gauge("iterations", 12)
    for seconds in (2e-6, 3e-6, 0.004, 0.1):
        registry.observe(WRITER_WORKER0, "task_b_seconds", seconds)
    registry.observe(WRITER_COMMITTER, "commit_lag_seconds", 0.02)
    # Overflow sample: beyond the last bucket bound.
    registry.observe(WRITER_COMMITTER, "commit_lag_seconds", 200.0)
    return registry


_GOLDEN_WATCHDOG = {
    "health": "ok",
    "stalls": 1,
    "saturations": 0,
    "storms": 2,
    "aborted": False,
}

# A label value exercising every escape: backslash, quote, newline.
_GOLDEN_LABELS = (
    ("workload", "197.parser"),
    ("run_id", 'a"b\\c\nd'),
)


class _JournalStub:
    appended = 5


def _golden_service():
    """A deterministic, process-free job server for the service golden:
    two tenants (one named to need every label escape), non-zero job and
    engine counters, latency samples across several buckets, one degraded
    tenant, and the durable plane on.  ``pool.stats()`` is stubbed, so no
    worker is ever started."""
    service = PipelineService(ServiceConfig(pool_workers=1, slots=1))
    service.pool.stats = lambda: {
        "size": 2, "transport": "pipe", "pids": [], "alive": 2,
        "idle": 1, "leased": 1, "slots": 2, "slots_free": 1,
        "slots_quarantined": 0, "spawned_total": 3,
    }
    for tenant_name, scale in (("acme", 1), (_GOLDEN_LABELS[1][1], 2)):
        tenant = service.tenants.get_or_create(tenant_name)
        tenant.submitted = 7 * scale
        tenant.rejected = scale
        tenant.completed = 5 * scale
        tenant.failed = scale
        tenant.cancelled = scale - 1
        tenant.dead_letter = scale - 1
        tenant.committed = 640 * scale
        tenant.conflicts = 3 * scale
        tenant.serial_reexec = 3 * scale
        tenant.storms = scale - 1
        tenant.retries = 2 * scale
        tenant.deadline_cancelled = scale - 1
        tenant.recovered = scale
        tenant.postmortems = scale
        tenant.running = 1
        for seconds in (-0.5, 0.0, 2e-6 * scale, 0.004, 0.25 * scale, 300.0):
            tenant.record_queue_wait(seconds)
        for seconds in (1e-6, 3e-5 * scale, 0.001):
            tenant.record_sched_pick(seconds)
    service.tenants.get(_GOLDEN_LABELS[1][1]).degraded = True
    for event in ("admit", "lease", "done"):
        service.flight.note(event)
    service.durable = True
    service.journal = _JournalStub()
    service.recovery = RecoveryReport(
        requeued=2, resumed=1, restarted=1, terminal=4, errors=1,
        journal=JournalStats(
            records=17, torn_tail=1, corrupt_records=1, seq_gaps=2,
        ),
    )
    service._retries.append((0.0, None))
    return service


class TestPrometheusExposition:
    def _render(self):
        return prometheus_exposition(
            _golden_registry().snapshot(),
            labels=_GOLDEN_LABELS,
            watchdog=_GOLDEN_WATCHDOG,
        )

    def test_golden_file(self):
        """The exposition format is a wire contract: pin it byte-for-byte.
        Regenerate with ``python tests/make_golden.py`` after an
        intentional format change."""
        rendered = self._render()
        path = os.path.join(GOLDEN, "metrics_exposition.prom")
        with open(path, "r", encoding="utf-8") as handle:
            assert rendered == handle.read()

    def test_service_golden_file(self):
        """The job server's ``/metrics`` is the same wire contract, pinned
        the same way (``python tests/make_golden.py`` writes both)."""
        rendered = _golden_service().metrics_text()
        path = os.path.join(GOLDEN, "service_exposition.prom")
        with open(path, "r", encoding="utf-8") as handle:
            assert rendered == handle.read()

    def test_help_and_type_precede_every_family(self):
        lines = self._render().splitlines()
        seen_help = set()
        seen_type = set()
        for line in lines:
            if line.startswith("# HELP "):
                seen_help.add(line.split(" ")[2])
            elif line.startswith("# TYPE "):
                name = line.split(" ")[2]
                assert name in seen_help, f"TYPE before HELP for {name}"
                seen_type.add(name)
            else:
                family = line.split("{")[0].split(" ")[0]
                base = (
                    family.rsplit("_bucket", 1)[0]
                    .rsplit("_sum", 1)[0]
                    .rsplit("_count", 1)[0]
                )
                assert base in seen_type, f"sample before TYPE: {line}"

    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        text = self._render()
        assert 'run_id="a\\"b\\\\c\\nd"' in text
        assert "\n\n" not in text  # no raw newline leaked from a label

    def test_histogram_buckets_cumulative_and_terminated(self):
        text = self._render()
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_task_b_seconds_bucket")
        ]
        values = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert values == sorted(values), "bucket counts must be cumulative"
        assert lines[-1].rsplit(" ", 1) == [
            lines[-1].rsplit(" ", 1)[0], "4"
        ]
        assert 'le="+Inf"' in lines[-1]
        assert "repro_task_b_seconds_count" in text
        assert "repro_task_b_seconds_sum" in text

    def test_watchdog_health_gauge(self):
        text = self._render()
        assert "repro_healthy" in text
        assert "repro_watchdog_stalls_total" in text
        degraded = prometheus_exposition(
            _golden_registry().snapshot(),
            watchdog={"health": "degraded", "stalls": 1},
        )
        assert "repro_healthy 0" in degraded


class _Wire:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    def flush(self):
        pass


def _exchange(handle, raw_request):
    """One request through the one handler, no socket: what it wrote,
    and whether it keeps the connection."""
    handler = object.__new__(_Handler)
    handler.rfile = io.BytesIO(raw_request)
    handler.wfile = _Wire()
    handler.server = types.SimpleNamespace(handle=handle)
    handler.client_address = ("127.0.0.1", 0)
    handler.handle_one_request()
    return handler.wfile.writes, handler.close_connection


class _RefusingService:
    def submit(self, tenant, workload, params, idempotency_key=None):
        return None, Admission(
            accepted=False, status=429, reason="tenant quota",
            retry_after=3.4,
        )


def test_response_is_one_socket_write():
    """Headers and body leave together: split in two, the second small
    segment waits out the keep-alive client's delayed ACK (~40 ms).  Held
    for an answer the handler makes itself (413) and one the job API makes
    (429 with ``Retry-After``)."""
    handler = object.__new__(_Handler)  # no socket: just the response path
    handler.wfile = _Wire()
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /health HTTP/1.1"
    send_whole(
        handler, 429, "application/json", b'{"error": "quota"}',
        [("Retry-After", "3")],
    )
    (wire,) = handler.wfile.writes
    head, _, body = wire.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 429")
    assert b"Content-Length: 18" in head and b"Retry-After: 3" in head
    assert body == b'{"error": "quota"}'

    api = functools.partial(handle_api, _RefusingService())
    writes, closed = _exchange(
        api, b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
             b"Content-Length: 65537\r\n\r\n",
    )
    (wire,) = writes
    head, _, body = wire.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413")
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body) == {"error": "body too large (max 65536 bytes)"}
    assert closed  # the unread body cannot be followed by a request

    submission = json.dumps({"tenant": "t1", "workload": "synthetic"})
    writes, closed = _exchange(
        api, b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
             + f"Content-Length: {len(submission)}\r\n\r\n".encode()
             + submission.encode(),
    )
    (wire,) = writes
    head, _, body = wire.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 429")
    assert b"Retry-After: 3" in head.split(b"\r\n")
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body) == {
        "error": "tenant quota", "accepted": False, "reason": "tenant quota",
        "retry_after_s": 3.4,
    }
    assert not closed  # HTTP/1.1 keep-alive


def test_http_server_stop_is_prompt():
    """A stop wakes the accept loop instead of waiting out a poll
    interval (socketserver's default is 0.5 s); served requests still get
    their answer first."""
    server = HttpServer(lambda request: json_response(200, {"ok": True}))
    started = time.perf_counter()
    server.start()
    server.stop()
    assert time.perf_counter() - started < 0.25

    server = HttpServer(lambda request: json_response(200, [1, {"a": 2}]))
    server.start()
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}/x", timeout=5
    ) as response:
        body = response.read()
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 0.25
    assert body == b'[1,{"a":2}]'  # compact, parses to the same object


# -- the live engine run: scrapes, health transition, consistency -------------------


class TestLiveEngineRun:
    def _spec(self, iterations=300, commit=record_commit):
        return PipelineSpec(
            iterations=iterations,
            produce=produce_i,
            work=sleepy_work,
            commit=commit,
        )

    def _run_in_thread(self, engine, spec):
        box = {}

        def run():
            box["result"] = engine.run(spec)

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 10.0
        while engine.live_server_port is None:
            assert time.monotonic() < deadline, "server never came up"
            assert thread.is_alive(), "engine died before serving"
            time.sleep(0.005)
        return thread, box

    @staticmethod
    def _get(port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5.0
        ) as response:
            return response.status, response.read().decode("utf-8")

    @staticmethod
    def _parse_prom(text):
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
        return samples

    def test_mid_run_scrapes_snapshots_and_monotonicity(self):
        engine = ExecutionEngine(
            workers=2, capacity=16,
            live=LiveConfig(interval=0.03, serve=0),
        )
        spec = self._spec()
        thread, box = self._run_in_thread(engine, spec)
        try:
            port = engine.live_server_port
            _, first_text = self._get(port, "/metrics")
            first = self._parse_prom(first_text)
            # Mid-run snapshots must be internally consistent.
            for _ in range(15):
                assert _consistent(engine.live_monitor.peek())
                time.sleep(0.01)
            _, second_text = self._get(port, "/metrics")
            second = self._parse_prom(second_text)
            for key, value in first.items():
                if "_total" in key or "_bucket" in key or "_count" in key:
                    assert second[key] >= value, f"{key} went backwards"
            status, body = self._get(port, "/snapshot")
            snapshot = json.loads(body)
            assert snapshot["progress"]["iterations"] == spec.iterations
            assert "counters" in snapshot["snapshot"]
            status, _ = self._get(port, "/health")
            assert status == 200
        finally:
            thread.join(timeout=60.0)
        result = box["result"]
        sequential, _ = run_sequential(self._spec())
        assert result.output == sequential
        assert result.metrics.watchdog is not None
        assert result.metrics.watchdog["health"] == "ok"
        # The registry agrees with the authoritative metrics at the end.
        final = engine.live_monitor.last_snapshot
        assert final.counters["committed"] == spec.iterations
        assert final.counters["produced"] == spec.iterations

    def test_health_transitions_ok_to_degraded_on_committer_stall(self):
        """An injected committer stall (the commit callback hangs) freezes
        the commit frontier; the watchdog must flip /health from 200 ok to
        503 degraded while the stall lasts."""
        stall_at = 40

        def stalling_commit(i, result, acc):
            acc[i] = result
            if i == stall_at:
                time.sleep(1.2)

        engine = ExecutionEngine(
            workers=2, capacity=16,
            live=LiveConfig(
                interval=0.03, serve=0,
                # Saturation is disabled: a full work channel is ordinary
                # backpressure with slow workers, and this test must see
                # degraded *because of the stall*, not the queue.
                watchdog=WatchdogConfig(
                    stall_seconds=0.3, saturation_samples=10_000
                ),
            ),
        )
        spec = self._spec(iterations=80, commit=stalling_commit)
        thread, box = self._run_in_thread(engine, spec)
        statuses = []
        try:
            port = engine.live_server_port
            deadline = time.monotonic() + 15.0
            while thread.is_alive() and time.monotonic() < deadline:
                try:
                    status, body = self._get(port, "/health")
                except (urllib.error.HTTPError) as error:
                    status, body = error.code, error.read().decode("utf-8")
                except OSError:
                    break  # server already torn down at run end
                statuses.append((status, json.loads(body)["status"]))
                if status == 503:
                    break
                time.sleep(0.02)
        finally:
            thread.join(timeout=60.0)
        assert statuses, "never reached the health endpoint"
        assert statuses[0] == (200, "ok"), "run should start healthy"
        assert (503, "degraded") in statuses, (
            f"no degraded verdict observed: {statuses[-5:]}"
        )
        watchdog = box["result"].metrics.watchdog
        assert watchdog["stalls"] >= 1
        # The stall passed and commits resumed: the run ends healthy.
        assert watchdog["health"] == "ok"
        assert any(e["kind"] == "recovered" for e in watchdog["events"])


# -- watchdog detectors -------------------------------------------------------------


def _snapshot(monotonic_s, **counters):
    base = {name: 0 for name in COUNTER_NAMES}
    base.update(counters)
    gauges = {name: 0 for name in GAUGE_NAMES}
    gauges["work_occupancy"] = counters.get("work_occupancy", 0)
    return RegistrySnapshot(
        counters=base, gauges=gauges, histograms={},
        monotonic_s=monotonic_s, unix_s=0.0,
    )


class TestWatchdog:
    def test_stall_flagged_and_recovered(self):
        watchdog = Watchdog(
            WatchdogConfig(stall_seconds=1.0), capacity=8, iterations=100
        )
        watchdog.observe(_snapshot(0.0, committed=5))
        watchdog.observe(_snapshot(0.5, committed=5))
        assert watchdog.health == HealthState.OK
        watchdog.observe(_snapshot(1.6, committed=5))
        assert watchdog.health == HealthState.DEGRADED
        assert watchdog.stall_events == 1
        watchdog.observe(_snapshot(2.0, committed=6))
        assert watchdog.health == HealthState.OK
        assert watchdog.degraded_ever

    def test_finished_run_is_not_a_stall(self):
        watchdog = Watchdog(
            WatchdogConfig(stall_seconds=1.0), capacity=8, iterations=10
        )
        watchdog.observe(_snapshot(0.0, committed=10))
        watchdog.observe(_snapshot(60.0, committed=10))
        assert watchdog.health == HealthState.OK
        assert watchdog.stall_events == 0

    def test_stall_escalates_to_abort(self):
        aborts = []
        watchdog = Watchdog(
            WatchdogConfig(stall_seconds=0.5, abort_stall_seconds=2.0),
            capacity=8, iterations=100, on_abort=lambda: aborts.append(1),
        )
        watchdog.observe(_snapshot(0.0, committed=3))
        watchdog.observe(_snapshot(1.0, committed=3))
        assert watchdog.stall_events == 1 and not aborts
        watchdog.observe(_snapshot(3.0, committed=3))
        assert aborts == [1]
        assert watchdog.health == HealthState.ABORTED
        # Abort fires exactly once, no matter how long the stall drags on.
        watchdog.observe(_snapshot(9.0, committed=3))
        assert aborts == [1]

    def test_saturation_needs_consecutive_samples(self):
        watchdog = Watchdog(
            WatchdogConfig(saturation_samples=3), capacity=10, iterations=0
        )
        for t in (0.0, 0.1):
            watchdog.observe(_snapshot(t, committed=1, work_occupancy=10))
        assert watchdog.saturation_events == 0
        watchdog.observe(_snapshot(0.2, committed=1, work_occupancy=5))
        watchdog.observe(_snapshot(0.3, committed=1, work_occupancy=10))
        assert watchdog.saturation_events == 0  # run was broken
        for t in (0.4, 0.5):
            watchdog.observe(_snapshot(t, committed=1, work_occupancy=10))
        assert watchdog.saturation_events == 1

    def test_storm_detection_and_recovery(self):
        watchdog = Watchdog(
            WatchdogConfig(storm_rate=0.5, storm_min_commits=4),
            capacity=8, iterations=0,
        )
        watchdog.observe(_snapshot(0.0, committed=0, conflicts=0))
        watchdog.observe(_snapshot(0.1, committed=10, conflicts=6))
        assert watchdog.storm_events == 1
        assert watchdog.health == HealthState.DEGRADED
        watchdog.observe(_snapshot(0.2, committed=20, conflicts=6))
        assert watchdog.health == HealthState.OK

    def test_from_policy_thresholds(self):
        class Policy:
            task_timeout = 1.0
            stall_timeout = 20.0

        config = WatchdogConfig.from_policy(Policy())
        assert config.stall_seconds == pytest.approx(0.5)

        class SlowPolicy:
            task_timeout = 30.0
            stall_timeout = 60.0

        config = WatchdogConfig.from_policy(SlowPolicy())
        assert config.stall_seconds == pytest.approx(15.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(stall_seconds=0)
        with pytest.raises(ValueError):
            WatchdogConfig(saturation_fraction=1.5)
        with pytest.raises(ValueError):
            WatchdogConfig(stall_seconds=5.0, abort_stall_seconds=1.0)


# -- monitor ------------------------------------------------------------------------


class TestLiveMonitor:
    def test_status_line_and_rate(self):
        registry = MetricsRegistry.create(multiprocessing.get_context(), 4)
        monitor = LiveMonitor(
            registry, LiveConfig(interval=0.01),
            capacity=8, iterations=100,
        )
        monitor.start()
        try:
            for i in range(50):
                registry.add(WRITER_COMMITTER, "committed")
                registry.add(WRITER_WORKER0, "claimed")
                registry.add(WRITER_PRODUCER, "produced")
                time.sleep(0.002)
        finally:
            monitor.stop()
        assert monitor.samples >= 2
        line = monitor.status_line(monitor.last_snapshot)
        assert "50/100 committed" in line
        assert "health ok" in line
        assert monitor.items_per_sec > 0

    def test_stop_is_idempotent(self):
        registry = MetricsRegistry.create(multiprocessing.get_context(), 2)
        monitor = LiveMonitor(
            registry, LiveConfig(interval=0.01), capacity=4, iterations=1
        )
        monitor.start()
        monitor.stop()
        monitor.stop()

    def test_watch_stream_receives_lines(self):
        import io

        stream = io.StringIO()
        registry = MetricsRegistry.create(multiprocessing.get_context(), 2)
        monitor = LiveMonitor(
            registry, LiveConfig(interval=0.01, watch=True),
            capacity=4, iterations=10, watch_stream=stream,
        )
        monitor.start()
        time.sleep(0.05)
        monitor.stop()
        assert "live:" in stream.getvalue()


# -- history store ------------------------------------------------------------------


def _metrics(commits=100, wall=2.0, conflicts=5, **overrides):
    metrics = EngineMetrics(
        workers=4, capacity=64, iterations=commits, batch_size=8,
        wall_seconds=wall, commits=commits, conflicts=conflicts,
    )
    for key, value in overrides.items():
        setattr(metrics, key, value)
    metrics.record_latency("task_b", 0.01)
    metrics.record_latency("task_b", 0.02)
    metrics.record_latency("commit_lag", 0.005)
    return metrics


class TestHistory:
    def test_record_shape_and_append_creates_parents(self, tmp_path):
        record = make_record(
            name="197.parser", metrics=_metrics(), seed=7, label="base",
        )
        assert record["schema"] == HISTORY_SCHEMA
        assert record["items_per_sec"] == pytest.approx(50.0)
        assert record["latency"]["task_b"]["p95"] > 0
        path = tmp_path / "deep" / "nested" / "history.jsonl"
        append_record(str(path), record)
        assert load_history(str(path)) == [json.loads(path.read_text())]

    def test_load_skips_corrupt_and_future_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = make_record(name="x", metrics=_metrics())
        path.write_text(
            json.dumps(good) + "\n"
            + "{torn-line\n"
            + json.dumps({"schema": HISTORY_SCHEMA + 1, "name": "future"})
            + "\n"
            + json.dumps([1, 2]) + "\n"
            + json.dumps(good) + "\n"
        )
        records = load_history(str(path))
        assert len(records) == 2
        assert all(record["name"] == "x" for record in records)

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_baseline_selection(self, tmp_path):
        records = [
            make_record(name="a", metrics=_metrics(), label="first"),
            make_record(name="b", metrics=_metrics()),
            make_record(name="a", metrics=_metrics()),
            make_record(name="a", metrics=_metrics()),
        ]
        latest = records[-1]
        # Auto: most recent earlier comparable run (same name/workers/batch).
        assert select_baseline(records, latest) is records[2]
        # By label.
        assert select_baseline(records, latest, "first") is records[0]
        # By index.
        assert select_baseline(records, latest, "1") is records[1]
        assert select_baseline(records, latest, "-2") is records[2]
        # Misses.
        assert select_baseline(records, latest, "nope") is None
        assert select_baseline(records, latest, "99") is None
        assert select_baseline([latest], latest) is None

    def test_diff_flags_regressions(self):
        base = make_record(name="w", metrics=_metrics(commits=100, wall=2.0))
        slow = make_record(name="w", metrics=_metrics(commits=100, wall=4.0))
        diff = diff_records(base, slow, tolerance=0.30)
        flagged = {row.metric for row in diff.regressions}
        assert "items_per_sec" in flagged
        assert not diff.ok
        report = format_history_diff(diff)
        assert "REGRESSION" in report
        assert "items_per_sec" in report

    def test_diff_within_tolerance_ok(self):
        base = make_record(name="w", metrics=_metrics(wall=2.0))
        near = make_record(name="w", metrics=_metrics(wall=2.2))
        diff = diff_records(base, near, tolerance=0.30)
        assert diff.ok
        assert "no gated regression" in format_history_diff(diff)

    def test_misspec_rate_gated_by_absolute_margin(self):
        base = make_record(name="w", metrics=_metrics(conflicts=0))
        stormy = make_record(name="w", metrics=_metrics(conflicts=30))
        diff = diff_records(base, stormy)
        assert any(
            row.metric == "misspec_rate" and row.regression
            for row in diff.rows
        )

    def test_missing_latency_series_is_not_a_regression(self):
        base = make_record(name="w", metrics=_metrics())
        bare = EngineMetrics(
            workers=4, capacity=64, iterations=10, batch_size=8,
            wall_seconds=1.0, commits=10,
        )
        current = make_record(name="w", metrics=bare)
        diff = diff_records(base, current)
        assert not any("task_b" in row.metric for row in diff.rows)

    def test_format_list(self):
        records = [make_record(name="197.parser", metrics=_metrics())]
        listing = format_history_list(records)
        assert "197.parser" in listing
        assert format_history_list([]) == "history: no records"


# -- empty-histogram guards (satellite) ---------------------------------------------


class TestEmptyHistogramGuards:
    def test_summary_without_retained_samples(self):
        histogram = LatencyHistogram(count=5, total=1.0, samples=[])
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(0.2)
        assert "p50" not in summary  # unknowable, not zero

    def test_format_line_without_retained_samples(self):
        histogram = LatencyHistogram(
            count=5, total=1.0, samples=[], max_value=0.9
        )
        line = histogram.format_line()
        assert "no retained samples" in line
        assert "p50 0" not in line

    def test_format_summary_skips_empty_series(self):
        metrics = EngineMetrics(workers=1, capacity=4, iterations=0)
        metrics.latency["task_b"] = LatencyHistogram()  # count == 0
        summary = metrics.format_summary()
        assert "latency task_b" not in summary

    def test_format_summary_renders_unretained_series(self):
        metrics = EngineMetrics(workers=1, capacity=4, iterations=5)
        metrics.latency["task_b"] = LatencyHistogram(
            count=5, total=1.0, samples=[], max_value=0.9
        )
        summary = metrics.format_summary()  # must not raise
        assert "no retained samples" in summary
