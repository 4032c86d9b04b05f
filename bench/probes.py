"""Per-layer probes for the traced pass: each layer timed from outside,
through its public functions, on the *workload's own items*.

wire (``make_transport().send/recv``) -> channel (``ProcessChannel.put/
get_many``, ``encode_frame/decode_frame``) -> engine (1-iteration fixed
cost, break-even stage-B grain, tracing on/off) -> service (in-process
``PipelineService``).  A transport the host cannot construct is reported
by name as UNMEASURED (value -1), never dropped.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import statistics
import threading
import time
import urllib.request
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import check
import inputs
from measure import OUT_DIR, Run

from repro.exec import (
    ExecutionEngine,
    PipelineSpec,
    ProcessChannel,
    decode_frame,
    encode_frame,
    run_sequential,
)
from repro.exec.transport import TRANSPORT_KINDS, make_transport
from repro.obs import TraceConfig, analyze_trace, merge_spool_dir
from repro.service import PipelineService, ServiceConfig

UNMEASURED = -1.0
FRAME_ITEMS = 16
PROBE_S = 0.3
#: Stage-B spin counts of the break-even sweep and the items per run.
BREAKEVEN_SPINS = (200, 800, 3200, 12800)
BREAKEVEN_ITEMS = 600
OBS_ITEMS = 4000
_END = ("__bench.end__",)


class _CommitClock:
    """Wraps a spec's ``commit`` (which runs in the calling process) to
    note when the first and the last commit finished."""

    def __init__(self, commit) -> None:
        self.commit = commit
        self.first: Optional[float] = None
        self.last: Optional[float] = None

    def __call__(self, i: int, result: Any, acc: Any) -> None:
        self.commit(i, result, acc)
        self.last = time.perf_counter()
        if self.first is None:
            self.first = self.last


def engine_run(
    run: Run,
    spec: PipelineSpec,
    expected: Any,
    workers: int,
    transport: str = "pipe",
    read_layers: bool = False,
    **engine_args,
) -> float:
    """One checked ``ExecutionEngine.run``; returns its wall seconds.  In
    the traced pass the run is split at the benchmark's own commit
    timestamps; ``read_layers`` marks a run of the workload's operation,
    whose ``EngineMetrics`` become per-layer readings."""
    clock = None
    if run.rec.enabled:
        clock = _CommitClock(spec.commit)
        spec = replace(spec, commit=clock)
    engine = ExecutionEngine(workers=workers, transport=transport, **engine_args)
    with run.rec.span(f"engine.run.{transport}"):
        started = time.perf_counter()
        result = engine.run(spec)
        ended = time.perf_counter()
        if clock is not None and clock.first is not None:
            run.rec.record("engine.startup", started, clock.first)
            run.rec.record("engine.steady", clock.first, clock.last)
            run.rec.record("engine.teardown", clock.last, ended)
    run.check(f"engine.run[{transport}]", check.engine_failures(result, expected))
    if read_layers and clock is not None and clock.first is not None:
        _read_engine_layers(
            run, result.metrics, workers,
            started, clock.first, clock.last, ended,
        )
    return ended - started


def _read_engine_layers(
    run: Run, metrics, workers: int,
    started: float, first: float, last: float, ended: float,
) -> None:
    add = run.layer_samples.add
    steady = max(last - first, 1e-9)
    add("engine.startup_s", first - started)
    add("engine.steady_s", steady)
    add("engine.steady_items_per_s", metrics.commits / steady)
    add("engine.teardown_s", ended - last)
    for stage in "ABC":
        add(f"engine.stage_{stage.lower()}_s", metrics.stage_seconds[stage])
    add("engine.b_utilization", metrics.stage_seconds["B"] / (workers * steady))
    lag = metrics.latency.get("commit_lag")
    add("engine.commit_lag_p50_s", lag.percentile(50.0) if lag else 0.0)
    add("engine.commit_lag_p99_s", lag.percentile(99.0) if lag else 0.0)
    wait = metrics.latency.get("queue_wait")
    add("engine.queue_wait_s", wait.total if wait else 0.0)
    add("engine.out_of_order_share",
        metrics.out_of_order_completions / max(metrics.commits, 1))
    shares = list(metrics.worker_iterations.values()) or [1]
    add("engine.worker_imbalance", max(shares) / statistics.mean(shares))
    add("engine.respawns", metrics.respawns)
    add("engine.serial_reexecutions", metrics.serial_reexecutions)
    for channel, fields in (
        ("work", ("flushes", "mean_frame_items",
                  "serialize_seconds", "deserialize_seconds")),
        ("done", ("flushes", "serialize_seconds")),
    ):
        stats = metrics.channel_stats.get(channel, {})
        for name in fields:
            add(
                f"channels.{channel}.{name.replace('_seconds', '_s')}",
                stats.get(name, 0.0),
            )


def _payload_bytes(items: List[Any]) -> int:
    if all(type(item) is bytes for item in items):
        return sum(len(item) for item in items)
    return len(pickle.dumps(items, pickle.HIGHEST_PROTOCOL))


def _pump(send: Callable[[], None], finish: Callable[[], None],
          receive: Callable[[], bool]) -> Tuple[int, float, float, float]:
    """A sender thread calls ``send`` for ``PROBE_S`` then ``finish``; this
    thread calls ``receive`` until it returns False.  Returns (messages
    received, elapsed, seconds inside send, seconds inside receive)."""
    timing = {"send": 0.0}
    failure: List[BaseException] = []
    stop = time.perf_counter() + PROBE_S

    def sender() -> None:
        try:
            while time.perf_counter() < stop:
                started = time.perf_counter()
                send()
                timing["send"] += time.perf_counter() - started
            finish()
        except BaseException as error:  # re-raised below, in the caller
            failure.append(error)

    thread = threading.Thread(target=sender)
    started = time.perf_counter()
    thread.start()
    received, in_receive = 0, 0.0
    try:
        while not failure:
            before = time.perf_counter()
            more = receive()
            if not more:
                break
            in_receive += time.perf_counter() - before
            received += 1
    finally:
        elapsed = time.perf_counter() - started
        thread.join(timeout=30)
    if failure:
        raise failure[0]
    return received, elapsed, timing["send"], in_receive


def _transport(run, kind: str, frame: List[Any], ctx) -> float:
    """Frames/s of one bare transport; fills ``transport.<kind>.*``."""
    transport = make_transport(kind, ctx, capacity=32)
    try:
        def receive() -> bool:
            items, _single, _seconds = transport.recv(timeout=10.0)
            return items is not None

        with run.rec.span(f"transport.{kind}"):
            frames, elapsed, in_send, in_recv = _pump(
                lambda: transport.send(frame, True, timeout=10.0),
                lambda: transport.send([_END], False, timeout=10.0),
                receive,
            )
    finally:
        transport.close()
    rate = frames / elapsed
    run.layers.update({
        f"transport.{kind}.frames_per_s": rate,
        f"transport.{kind}.mb_per_s": rate * _payload_bytes(frame) / 1e6,
        f"transport.{kind}.send_us": in_send / frames * 1e6,
        f"transport.{kind}.recv_us": in_recv / frames * 1e6,
    })
    return rate


def _channel(run, kind: str, frame: List[Any], ctx, frame_rate: float) -> None:
    """Items/s through ``ProcessChannel`` at the engine's defaults
    (capacity 32, batch 16); fills ``channels.<kind>.*``."""
    channel = ProcessChannel(
        capacity=32, ctx=ctx, batch_size=FRAME_ITEMS, transport=kind
    )
    cursor = [0]

    def put() -> None:
        channel.put(frame[cursor[0] % len(frame)], timeout=10.0)
        cursor[0] += 1

    def finish() -> None:
        channel.put(_END, timeout=10.0)
        channel.flush(timeout=10.0)

    got = [0]

    def get() -> bool:
        items = channel.get_many(FRAME_ITEMS, timeout=10.0)
        if items and items[-1] == _END:
            got[0] += len(items) - 1
            return False
        got[0] += len(items)
        return True

    try:
        with run.rec.span(f"channels.{kind}"):
            _calls, elapsed, _in_send, _in_recv = _pump(put, finish, get)
    finally:
        channel.close()
    rate = got[0] / elapsed
    run.layers.update({
        f"channels.{kind}.items_per_s": rate,
        f"channels.{kind}.mb_per_s":
            rate * _payload_bytes(frame) / len(frame) / 1e6,
        f"channels.{kind}.framing_ratio": rate / (frame_rate * len(frame)),
    })


def _codec(run, frame: List[Any]) -> None:
    encoded = encode_frame(frame)
    for name, call in (
        ("encode", lambda: encode_frame(frame)),
        ("decode", lambda: decode_frame(encoded)),
    ):
        calls, stop = 0, time.perf_counter() + PROBE_S / 3
        started = time.perf_counter()
        while time.perf_counter() < stop:
            call()
            calls += 1
        run.layers[f"channels.{name}_frame_us"] = (
            (time.perf_counter() - started) / calls * 1e6
        )


class _Spin:
    """Stage B of the break-even sweep: ``spin`` LCG steps, item ignored."""

    def __init__(self, spin: int) -> None:
        self.spin = spin

    def __call__(self, i: int, item: Any) -> int:
        acc = i
        for k in range(self.spin):
            acc = (acc * 1664525 + k + 1013904223) % (1 << 32)
        return acc


class _Cycle:
    """A spec's ``produce`` repeated past its end, so the sweep has the
    same item count on every workload."""

    def __init__(self, produce: Callable[[int], Any], period: int) -> None:
        self.produce = produce
        self.period = period

    def __call__(self, i: int) -> Any:
        return self.produce(i % self.period)


def _breakeven(run, spec: PipelineSpec, workers: int) -> None:
    """Stage-B microseconds per item at which the engine first matches
    ``run_sequential`` on this workload's items (linear between the two
    sweep points that straddle 1.0)."""
    points = []
    with run.rec.span("engine.breakeven"):
        for spin in BREAKEVEN_SPINS:
            swept = replace(
                spec,
                iterations=BREAKEVEN_ITEMS,
                produce=_Cycle(spec.produce, spec.iterations),
                work=_Spin(spin),
                commit=inputs.checksum_commit,
            )
            started = time.perf_counter()
            expected, _ = run_sequential(swept)
            sequential = time.perf_counter() - started
            engine = engine_run(run, swept, expected, workers)
            points.append(
                (sequential / swept.iterations * 1e6, sequential / engine)
            )
    name = "engine.breakeven_b_us"
    run.layers[name] = UNMEASURED
    for (low_us, low), (high_us, high) in zip(points, points[1:]):
        if low < 1.0 <= high:
            run.layers[name] = low_us + (
                (1.0 - low) / (high - low) * (high_us - low_us)
            )
            return
    ratios = ", ".join(f"{us:.0f}us:{ratio:.2f}x" for us, ratio in points)
    run.unmeasured[name] = f"UNMEASURED: sweep never crosses 1.0 ({ratios})"


def _fixed_cost(run, spec: PipelineSpec, workers: int) -> None:
    """Wall of a 1-iteration run: spawn + teardown with nothing between."""
    single = replace(spec, iterations=1)
    expected, _ = run_sequential(single)
    for kind in TRANSPORT_KINDS:
        walls = [
            engine_run(run, single, expected, workers, kind)
            for _ in range(3)
        ]
        run.layers[f"engine.fixed_s.{kind}"] = statistics.median(walls)


def _tracing(run, spec: PipelineSpec, workers: int) -> None:
    """The engine with ``TraceConfig`` on over off, then the cost of
    merging and analysing what the traced runs spooled."""
    short = replace(spec, iterations=min(spec.iterations, OBS_ITEMS))
    expected, _ = run_sequential(short)
    spool_dir = os.path.join(OUT_DIR, f"spool-{os.getpid()}")
    walls: Dict[bool, List[float]] = {True: [], False: []}
    try:
        for _ in range(2):
            for traced in (False, True):
                shutil.rmtree(spool_dir, ignore_errors=True)
                os.makedirs(spool_dir)
                engine = ExecutionEngine(
                    workers=workers,
                    trace=TraceConfig(spool_dir) if traced else None,
                )
                with run.rec.span(f"engine.run.trace_{'on' if traced else 'off'}"):
                    started = time.perf_counter()
                    result = engine.run(short)
                    walls[traced].append(time.perf_counter() - started)
                run.check("engine.run[traced]" if traced else "engine.run",
                          check.engine_failures(result, expected))
        with run.rec.span("obs.merge"):
            started = time.perf_counter()
            merged = merge_spool_dir(spool_dir)
            merge_s = time.perf_counter() - started
        with run.rec.span("obs.analyze"):
            started = time.perf_counter()
            analyze_trace(merged, result.metrics.to_json())
            analyze_s = time.perf_counter() - started
    finally:
        shutil.rmtree(spool_dir, ignore_errors=True)
    run.layers.update({
        "obs.trace_overhead_ratio":
            statistics.median(walls[True]) / statistics.median(walls[False]),
        "obs.merge_s": merge_s,
        "obs.analyze_s": analyze_s,
        "obs.events": len(merged.spans) + len(merged.instants),
        "obs.dropped_events": merged.dropped_events,
    })


def exec_layers(run, spec: PipelineSpec, workers: int) -> None:
    """Everything under ``repro.exec`` (and the tracing it carries), on
    frames of ``spec``'s own work items."""
    ctx = multiprocessing.get_context()
    frame = [spec.produce(i) for i in range(min(FRAME_ITEMS, spec.iterations))]
    for kind in TRANSPORT_KINDS:
        try:
            frame_rate = _transport(run, kind, frame, ctx)
            _channel(run, kind, frame, ctx, frame_rate)
        except (OSError, ValueError) as error:
            for layer, names in (
                ("transport", ("frames_per_s", "mb_per_s", "send_us", "recv_us")),
                ("channels", ("items_per_s", "mb_per_s", "framing_ratio")),
            ):
                for name in names:
                    metric = f"{layer}.{kind}.{name}"
                    run.layers.setdefault(metric, UNMEASURED)
                    run.unmeasured[metric] = (
                        f"UNMEASURED: {kind} transport unavailable ({error})"
                    )
    _codec(run, frame)
    _fixed_cost(run, spec, workers)
    _breakeven(run, spec, workers)
    _tracing(run, spec, workers)


def service_layer(run, plan: Dict[str, List[dict]], pool_workers: int,
                  slots: int) -> None:
    """An in-process ``PipelineService`` on a durable state dir: start,
    ``submit`` (incl. WAL fsync), HTTP round trip, drain."""
    state_dir = os.path.join(OUT_DIR, f"probe-state-{os.getpid()}")
    shutil.rmtree(state_dir, ignore_errors=True)
    service = PipelineService(ServiceConfig(
        pool_workers=pool_workers, slots=slots, state_dir=state_dir,
    ))
    submit_s, http_s = [], []
    try:
        with run.rec.span("service.start"):
            started = time.perf_counter()
            service.start()
            start_s = time.perf_counter() - started
        tenant, jobs = next(iter(plan.items()))
        for params in jobs[:6]:
            with run.rec.span("service.submit"):
                started = time.perf_counter()
                job, decision = service.submit(tenant, "synthetic", params)
                submit_s.append(time.perf_counter() - started)
            if job is None:
                run.check("service.submit", [f"refused: {decision.reason}"])
                continue
            with run.rec.span("service.job"):
                while job.finished_unix is None:
                    time.sleep(0.002)
            run.check(f"in-process job {job.id}", check.job_failures(
                {"state": job.state.value, "error": job.error},
                service.job_output(job),
                run_sequential(job.build_spec())[0],
            ))
        url = f"http://{service.config.host}:{service.port}/health"
        for _ in range(10):
            started = time.perf_counter()
            with urllib.request.urlopen(url, timeout=10) as response:
                response.read()
            http_s.append(time.perf_counter() - started)
    finally:
        with run.rec.span("service.drain"):
            started = time.perf_counter()
            service.drain_and_stop()
            drain_s = time.perf_counter() - started
        shutil.rmtree(state_dir, ignore_errors=True)
    run.layers.update({
        "service.start_s": start_s,
        "service.submit_s": statistics.median(submit_s),
        "service.http_roundtrip_s": statistics.median(http_s),
        "service.drain_s": drain_s,
    })
