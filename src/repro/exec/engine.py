"""The multiprocess pipeline execution engine.

Where :mod:`repro.core.simulator` *predicts* the makespan of the paper's
A/B/C pipeline from abstract task costs, this engine *runs* it: one phase-A
producer process, N replicated phase-B worker processes pulling from a
bounded inter-process channel, and an in-order committer (phase C) in the
calling process — real parallelism on real cores.  ``transport="thread"``
runs the same stages as threads of the calling process.

Execution is speculative in the versioned-memory sense: each B task runs
against a private :class:`~repro.exec.rollback.WriteBuffer`; the committer
validates read versions at commit time and, on conflict, discards the
buffer and re-executes the task serially — misspeculation-as-re-execution.
The same serial-re-execution path absorbs worker crashes, hangs, and soft
faults (:mod:`repro.exec.faults`), so every iteration commits exactly once,
in order, no matter what the processes do.  If failures exhaust the respawn
budget or progress stalls entirely, the engine degrades to sequential
execution and still produces the exact sequential output.

Resilience (PR 2) is layered on top via :mod:`repro.resilience`:

- **checkpoint/resume** — the committer snapshots the committed prefix
  every ``CheckpointConfig.interval`` commits; ``run(spec, resume_from=...)``
  restarts from the last committed iteration instead of from zero;
- **adaptive speculation throttling** — an AIMD controller watches the
  live conflict/fault rate and shrinks the speculative window (published
  to workers through shared memory) under misspeculation storms, probing
  back up when they pass;
- **chaos injection** — the extended :class:`FaultPlan` and
  :class:`~repro.exec.channels.ChannelChaos` carry seeded randomized
  schedules; cross-layer invariants audit every run.

:class:`PipelineSpec` describes one pipeline; workloads expose one via
:meth:`repro.workloads.base.Workload.exec_spec`.  A spec can also be built
from the simulator's own :class:`~repro.core.tasks.TaskGraph`
(:func:`spec_from_task_graph`), which replays abstract costs as calibrated
busy-work — the bridge for simulated-vs-measured calibration tables.
"""

from __future__ import annotations

import functools
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union,
)

from repro.exec.channels import ChannelChaos, ChannelTimeout
from repro.exec.committer import Committer
from repro.exec.faults import FaultPlan, RobustnessPolicy
from repro.exec.metrics import EngineMetrics
from repro.exec.rollback import CommittedStore, Location, WriteBuffer
from repro.exec.runtime import LocalRuntime, Runtime
from repro.exec.transport import TRANSPORT_KINDS
from repro.obs.clock import now_ns
from repro.obs.events import EventKind, TraceConfig
from repro.obs.live import LiveConfig, LiveMonitor
from repro.obs.registry import WRITER_COMMITTER
from repro.obs.spool import open_tracer
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    CheckpointManager,
    spec_fingerprint,
)
from repro.resilience.throttle import ThrottleConfig

if TYPE_CHECKING:
    from repro.core.plan import ExecutionPlan
    from repro.core.tasks import TaskGraph
    from repro.obs.serve import HttpServer

logger = logging.getLogger(__name__)

#: Window published to workers when throttling is disabled: effectively
#: unbounded speculation depth.
_UNTHROTTLED_WINDOW = 2 ** 30


def _identity(accumulator: Any) -> Any:
    return accumulator


def _dict_accumulator() -> dict:
    return {}


@dataclass
class PipelineSpec:
    """One executable A/B/C pipeline.

    ``produce`` and ``work`` cross process boundaries and must be picklable
    (module-level functions, ``functools.partial`` over picklable state, or
    instances of module-level classes).  ``init``/``commit``/``finalize``
    run only in the committer and may close over anything.  ``produce`` may
    keep state but must be deterministic: called for ``0, 1, …`` in order
    it gives the same values every time, because the committer replays it
    (on this object; a thread-run phase A gets a deep copy) to recover the
    value of a task it re-executes.

    When ``speculative`` is true, ``work`` takes ``(i, value, ctx)`` where
    ``ctx`` is a :class:`WriteBuffer` over shared state seeded from
    ``shared_state``; otherwise ``work`` takes ``(i, value)``.
    """

    iterations: int
    produce: Callable[[int], Any]
    work: Callable
    init: Callable[[], Any] = _dict_accumulator
    commit: Callable[[int, Any, Any], None] = lambda i, result, acc: None
    finalize: Callable[[Any], Any] = _identity
    shared_state: Dict[Location, Any] = field(default_factory=dict)
    speculative: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations cannot be negative")


@dataclass
class EngineResult:
    """What one engine run produced."""

    output: Any
    metrics: EngineMetrics
    state: Dict[Location, Any]
    checkpoints: List[Checkpoint] = field(default_factory=list)


def run_sequential(spec: PipelineSpec) -> Tuple[Any, float]:
    """The bit-exact sequential reference; returns (output, wall seconds).

    This is the baseline the engine's outputs are asserted identical to and
    the denominator of every measured speedup.
    """
    started = time.monotonic()
    store = CommittedStore(spec.shared_state)
    accumulator = spec.init()
    for i in range(spec.iterations):
        value = spec.produce(i)
        if spec.speculative:
            buffer = WriteBuffer(store.snapshot())
            result = spec.work(i, value, buffer)
            store.apply(buffer.writes)
        else:
            result = spec.work(i, value)
        spec.commit(i, result, accumulator)
    return spec.finalize(accumulator), time.monotonic() - started


class ExecutionEngine:
    """Runs a :class:`PipelineSpec` on real OS processes.

    ``workers`` may come straight from an :class:`ExecutionPlan` — the same
    plan the simulator consumes — via ``plan.replication_width``.

    ``throttle`` (default: enabled) is the adaptive-speculation controller;
    ``checkpoints`` (default: off) enables periodic committed-prefix
    checkpoints; ``channel_chaos`` injects put-side misbehaviour into the
    phase-A work channel (chaos harness only).  Any ``fault_plan`` has its
    ``hang_seconds`` clamped to the policy's task timeout at construction,
    so a misconfigured hang injection can never stall a run past the
    timeout it is meant to exercise.

    ``batch_size`` (default 64, clamped to ``capacity``) is the fast path:
    the producer dispatches chunks of up to this many iterations per frame
    (fewer while the pipeline fills and as it drains), workers answer with
    one claims and one results message per chunk, and both channels run
    the framed transport — one pickle and one pipe round-trip per frame
    instead of per item.  A frame costs wake-ups on both ends whatever it
    carries, so the defaults are sized for OS pipes and semaphores, not
    for the paper's 32-entry hardware queues: ``capacity`` (default 128,
    item credit) is two frames, so the producer fills one while a worker
    drains the other.  ``batch_size=1``
    restores the classic unbatched wire format.  ``flush_interval`` bounds
    how long a partial batch may wait before it is flushed anyway.

    ``transport`` selects the wire beneath both channels (see
    :mod:`repro.exec.transport`): ``"pipe"`` (the default, an OS pipe of
    length-prefixed messages), ``"shm"`` (the zero-copy shared-memory
    ring — the high-throughput data plane), or ``"thread"`` (stages run
    as threads of the calling process; items move by reference, injected
    crashes unwind via :class:`HardExit` instead of ``os._exit``, and
    hung stages are abandoned rather than killed).  Output is bit
    identical across all three.

    ``trace`` (default: off) attaches the structured tracing layer of
    :mod:`repro.obs`: the producer, every worker, and the committer write
    timestamped span/event records into per-process ring spools under
    ``trace.spool_dir``; :func:`repro.obs.merge.merge_spool_dir` turns them
    into one timeline after the run.  Tracing never takes down a run — an
    unwritable spool degrades to no tracing for that process.

    ``live`` (default: off) attaches the real-time telemetry plane of
    :mod:`repro.obs.live`: a shared-memory :class:`MetricsRegistry` the
    producer, workers, and committer write in-band (one lock-free slot
    store per update), a sampling monitor thread with a
    stall/saturation/storm watchdog, an optional HTTP endpoint serving
    ``/metrics`` + ``/snapshot`` + ``/health`` (``live.serve``), and an
    optional one-line TUI (``live.watch``).  The watchdog escalates the
    resilience way — log, then health=degraded, then (with
    ``live.abort_on_stall``) abort through the same degradation path the
    engine already uses for dead pipelines, post-mortem trace included.
    After the run the watchdog's summary is on ``metrics.watchdog`` and the
    bound HTTP port (if any) on :attr:`live_server_port`.

    ``runtime`` (default: none) is who owns the stages of the run — a
    :class:`repro.exec.runtime.Runtime`.  Given none, every run forks a
    producer/worker tree of its own from the arguments above
    (:class:`~repro.exec.runtime.LocalRuntime`); given a worker-pool lease
    (:class:`repro.service.pool.LeaseRuntime`), the one run it serves uses
    the lease's channels and long-lived workers, and the lease takes
    respawn, teardown, halt and cancellation.  The commit loop, speculation
    validation, throttling and degradation are the same code either way —
    only process lifecycle is the runtime's.
    """

    def __init__(
        self,
        workers: int = 4,
        capacity: int = 128,
        policy: Optional[RobustnessPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        plan: Optional[ExecutionPlan] = None,
        start_method: Optional[str] = None,
        throttle: Optional[ThrottleConfig] = None,
        checkpoints: Optional[CheckpointConfig] = None,
        channel_chaos: Optional[ChannelChaos] = None,
        batch_size: int = 64,
        flush_interval: float = 0.005,
        transport: str = "pipe",
        trace: Optional[TraceConfig] = None,
        live: Optional[LiveConfig] = None,
        runtime: Optional[Any] = None,
    ) -> None:
        if plan is not None:
            workers = max(1, plan.replication_width)
        if workers < 1:
            raise ValueError("need at least one worker")
        if capacity < 1:
            raise ValueError("channel capacity must be positive")
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        if flush_interval <= 0:
            raise ValueError("flush interval must be positive")
        if transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport {transport!r}; "
                f"expected one of {TRANSPORT_KINDS}"
            )
        self.transport = transport
        self.workers = workers
        self.capacity = capacity
        self.batch_size = min(batch_size, capacity)
        self.flush_interval = flush_interval
        self.policy = policy or RobustnessPolicy()
        self.fault_plan = (
            fault_plan.clamped_to(self.policy)
            if fault_plan is not None
            else None
        )
        self.throttle_config = throttle if throttle is not None else ThrottleConfig()
        self.checkpoint_config = checkpoints
        self.channel_chaos = channel_chaos
        self.trace_config = trace
        self.live_config = live
        self._start_method = start_method
        self._caller_runtime: Optional[Runtime] = runtime
        self.metrics = EngineMetrics()
        self.checkpoint_manager: Optional[CheckpointManager] = None
        #: The last run's live monitor (None when ``live`` is off) and the
        #: port its HTTP endpoint bound (None when ``live.serve`` is off).
        self.live_monitor: Optional[LiveMonitor] = None
        self.live_server_port: Optional[int] = None
        self._live_server: Optional[HttpServer] = None
        self._respawns_left = 0

    # -- public API -------------------------------------------------------------

    def run(
        self,
        spec: PipelineSpec,
        resume_from: Union[Checkpoint, str, None] = None,
    ) -> EngineResult:
        checkpoint = self._resolve_resume(spec, resume_from)
        start = checkpoint.next_commit if checkpoint is not None else 0
        self.metrics = EngineMetrics(
            workers=self.workers, capacity=self.capacity,
            iterations=spec.iterations, batch_size=self.batch_size,
        )
        if checkpoint is not None:
            self.metrics.resumed_from = start
        self.checkpoint_manager = (
            CheckpointManager(
                self.checkpoint_config,
                spec_fingerprint(spec),
                next_index=(checkpoint.index + 1 if checkpoint else 0),
            )
            if self.checkpoint_config is not None
            else None
        )
        if spec.iterations == 0 or start >= spec.iterations:
            # Nothing (left) to execute; finalize the restored prefix.
            if checkpoint is not None:
                accumulator = checkpoint.restore_accumulator()
                state = checkpoint.restore_store().architectural_state()
            else:
                accumulator = spec.init()
                state = {}
            return EngineResult(spec.finalize(accumulator), self.metrics, state)
        started = time.monotonic()
        result = self._run_pipeline(spec, start, checkpoint)
        self.metrics.wall_seconds = time.monotonic() - started
        return result

    def _resolve_resume(
        self, spec: PipelineSpec, resume_from: Union[Checkpoint, str, None]
    ) -> Optional[Checkpoint]:
        if resume_from is None:
            return None
        checkpoint = (
            Checkpoint.load(resume_from)
            if isinstance(resume_from, str)
            else resume_from
        )
        expected = spec_fingerprint(spec)
        if checkpoint.fingerprint != expected:
            raise CheckpointError(
                f"checkpoint fingerprint {checkpoint.fingerprint!r} does not "
                f"match spec {expected!r}; refusing to resume"
            )
        return checkpoint

    def _runtime(self) -> Runtime:
        """The runtime of the next run: the caller's as it is (it serves
        one run), else a process tree built for that run from this
        engine's arguments."""
        if self._caller_runtime is not None:
            return self._caller_runtime
        return LocalRuntime(
            self.workers, self.capacity, self.batch_size, self.flush_interval,
            self.transport, self.policy, self.throttle_config,
            start_method=self._start_method, chaos=self.channel_chaos,
            trace=self.trace_config, live=self.live_config is not None,
        )

    # -- the committer loop -----------------------------------------------------

    def _run_pipeline(
        self,
        spec: PipelineSpec,
        start: int,
        resume_checkpoint: Optional[Checkpoint],
    ) -> EngineResult:
        entered = time.monotonic()
        metrics = self.metrics
        manager = self.checkpoint_manager
        rt = self._runtime()
        metrics.transport = rt.work.transport_kind
        # The committer's own spool: claims, commits, conflicts, robustness
        # events, TASK_C spans, and its done-channel get waits.
        tracer = open_tracer(self.trace_config, "committer")
        rt.done.tracer = tracer
        if resume_checkpoint is not None:
            store = resume_checkpoint.restore_store()
            accumulator = resume_checkpoint.restore_accumulator()
        else:
            store = CommittedStore(spec.shared_state)
            accumulator = spec.init()
        # Adaptive speculation throttling: the committer is the controller;
        # workers observe the watermark/window pair through shared memory.
        # A lease may supply a persistent (per-tenant) controller so one
        # tenant's storm carries a shrunk window into its next lease.
        throttle = rt.job_throttle
        rt.gate.reset(
            start, throttle.window if throttle else _UNTHROTTLED_WINDOW
        )
        registry = rt.registry
        if registry is not None:
            registry.set_gauge("iterations", spec.iterations)
            registry.set_gauge("watermark", start)
            registry.set_gauge("window", rt.gate.window.value)
            registry.set_gauge("workers_alive", self.workers)
        committer = Committer(
            spec, store, accumulator, start, metrics,
            rt.gate.watermark, rt.gate.window,
            throttle, manager, registry, tracer,
        )
        live_abort = threading.Event()
        self.live_monitor = None
        self._respawns_left = self.policy.max_respawns
        try:
            try:
                # Start-up belongs to the guarded region: a stage that fails
                # to start leaves its started siblings to the handler below.
                rt.start(spec, store, start, self.batch_size, self.fault_plan)
                self._start_live(rt, spec, live_abort)
                degraded = self._commit_loop(rt, committer, entered, live_abort)
            except BaseException:
                # A committer-side crash (a commit callback raising, an
                # interrupt) must not leak the pipeline.  Children left alive
                # keep writing the channels' shared counters, and once this
                # frame unwinds the parent frees those counter blocks back to
                # the multiprocessing heap — where the *next* engine's channels
                # reuse them while the orphans still hold the same mapping,
                # silently corrupting a later run's metrics.  Kill and reap
                # everything, release the channels, then let the crash
                # propagate (the committer's spool is closed cleanly so a
                # post-mortem trace survives).
                rt.signal_shutdown()
                self._stop_live()  # before close(): the final sample reads them
                rt.halt()
                raise
            finally:
                rt.signal_shutdown()
                committer.hand_over_samples()
            loop_ended = time.monotonic()

            # The telemetry plane stops here, not after teardown: on the
            # degradation path the sequential finisher has no stages, and
            # a watchdog left running would misread their silence as a
            # stall.  The final sample captures the pipeline's true end state.
            self._stop_live()

            if degraded:
                logger.warning(
                    "degrading to sequential execution at commit watermark %d",
                    committer.next_commit,
                )
                if tracer is not None:
                    tracer.instant(EventKind.DEGRADE, arg=committer.next_commit)
                rt.halt()
            else:
                rt.teardown(metrics.cancelled)
            metrics.teardown_seconds = time.monotonic() - loop_ended
            if degraded:
                metrics.degraded_to_sequential = True
                committer.finish_serially()
                committer.hand_over_samples()

            if throttle is not None:
                metrics.throttle_shrinks = throttle.shrinks
                metrics.throttle_grows = throttle.grows
                metrics.min_window = throttle.min_window_seen
                metrics.final_window = throttle.window
            for channel in (rt.work, rt.done):
                metrics.channel_stats[channel.name] = channel.occupancy_stats()
            return EngineResult(
                spec.finalize(accumulator),
                metrics,
                store.architectural_state(),
                checkpoints=list(manager.checkpoints) if manager else [],
            )
        finally:
            rt.close()
            rt.done.tracer = None  # a lease's channels outlive the job
            if tracer is not None:
                tracer.close()

    def _commit_loop(
        self, rt: Runtime, committer: Committer, entered: float,
        live_abort: threading.Event,
    ) -> bool:
        """Feed ``committer`` from the ``done`` channel until the last
        iteration commits or the run is cancelled (False), or the pipeline
        has to be abandoned (True: the caller degrades to sequential).

        One iteration per transport read: a whole decoded frame, one
        clock pair, one queue-wait sample, one cancel check."""
        policy, metrics, registry = self.policy, self.metrics, rt.registry
        work, done, gate = rt.work, rt.done, rt.gate
        iterations = committer.spec.iterations
        report, advance = committer.report, committer.advance
        gate_woken_at = committer.next_commit
        last_activity = time.monotonic()
        while committer.next_commit < iterations:
            advance()
            if committer.next_commit != gate_woken_at:
                # At most one wake per drained frame, and none unless a
                # worker declared itself gated.
                gate_woken_at = committer.next_commit
                last_activity = time.monotonic()
                if not metrics.startup_seconds:
                    metrics.startup_seconds = last_activity - entered
                gate.wake()
            if committer.next_commit >= iterations:
                break
            if rt.cancelled():
                # Job cancellation (repro.service): stop committing and
                # take the cooperative teardown path — the committed
                # prefix stays valid, pool workers stay alive.
                metrics.cancelled = True
                logger.info(
                    "run cancelled at commit watermark %d",
                    committer.next_commit,
                )
                break
            wait_started = time.monotonic()
            try:
                frame = done.get_many(
                    done.batch_size, timeout=policy.poll_interval
                )
            except ChannelTimeout:
                pass
            else:
                last_activity = time.monotonic()
                metrics.record_latency(
                    "queue_wait", last_activity - wait_started
                )
                for message in frame:
                    report(message, last_activity, now_ns())
                    advance()
                continue  # drain greedily before health checks
            work.sample_occupancy()
            done.sample_occupancy()
            now = time.monotonic()
            if self._check_health(rt, committer, now):
                last_activity = now
            workers_alive = sum(
                proc.is_alive() for proc in rt.processes.values()
            )
            if registry is not None:
                registry.set_gauge("workers_alive", workers_alive)
            if live_abort.is_set():
                logger.warning(
                    "live watchdog requested abort at commit watermark "
                    "%d; taking the degradation path", committer.next_commit,
                )
                return True
            if (
                metrics.producer_crashed
                or not workers_alive
                or time.monotonic() - last_activity > policy.stall_timeout
            ):
                return True
        if not metrics.startup_seconds and committer.next_commit:
            # the first commits were also the last: one frame held the run
            metrics.startup_seconds = last_activity - entered
        return False

    # -- health -----------------------------------------------------------------

    def _check_health(
        self, rt: Runtime, committer: Committer, now: float
    ) -> bool:
        """The idle path's look at the roster: hung workers, crashed
        workers, a dead producer.  True when a worker was lost."""
        policy, metrics, registry = self.policy, self.metrics, rt.registry
        tracer = committer.tracer
        lost = False
        # Hung tasks: claimed long ago by a still-live worker.
        alive = {
            wid for wid, proc in rt.processes.items() if proc.is_alive()
        }
        for wid, i in committer.overdue(now, policy.task_timeout, alive):
            metrics.worker_timeouts += 1
            if registry is not None:
                registry.add(WRITER_COMMITTER, "worker_timeouts")
            logger.warning(
                "worker %d hung on iteration %d for more than "
                "%.1fs; terminating", wid, i, policy.task_timeout,
            )
            if tracer is not None:
                tracer.instant(EventKind.WORKER_TIMEOUT, arg=i, arg2=wid)
            rt.reap(wid)
            self._lose_worker(rt, committer, wid, "hang timeout")
            lost = True
        # Crashed workers: exited nonzero (clean stop exits 0).  A worker
        # writes its last reports before it exits, so once one is seen dead
        # they are all on the wire: read them before taking its claims back.
        if not all(proc.is_alive() for proc in rt.processes.values()):
            self._drain_reports(rt.done, committer)
        for wid, proc in list(rt.processes.items()):
            if proc.is_alive():
                continue
            rt.reap(wid)
            if proc.exitcode != 0:
                metrics.worker_crashes += 1
                if registry is not None:
                    registry.add(WRITER_COMMITTER, "worker_crashes")
                logger.warning(
                    "worker %d crashed (exit code %s)", wid, proc.exitcode
                )
                if tracer is not None:
                    tracer.instant(
                        EventKind.WORKER_CRASH, arg=wid,
                        arg2=proc.exitcode or 0,
                    )
                self._lose_worker(
                    rt, committer, wid, f"crash (exit {proc.exitcode})"
                )
                lost = True
        committer.strand_check(
            [wid for wid, proc in rt.processes.items() if proc.is_alive()]
        )
        # Producer death before dispatching everything.
        producer = rt.producer
        if (
            not metrics.producer_crashed
            and not producer.is_alive()
            and producer.exitcode not in (0, None)
        ):
            metrics.producer_crashed = True
            logger.error(
                "producer crashed (exit code %s); degrading to "
                "sequential", producer.exitcode,
            )
            if tracer is not None:
                tracer.instant(
                    EventKind.PRODUCER_CRASH, arg2=producer.exitcode or 0
                )
        return lost

    @staticmethod
    def _drain_reports(done, committer: Committer) -> None:
        """Hand ``committer`` every report already on ``done``."""
        while True:
            try:
                frame = done.get_many(done.batch_size, timeout=0)
            except ChannelTimeout:
                return
            now, arrived_ns = time.monotonic(), now_ns()
            for message in frame:
                committer.report(message, now, arrived_ns)

    def _lose_worker(
        self, rt: Runtime, committer: Committer, wid: int, reason: str
    ) -> None:
        """Worker ``wid`` is off the roster: its claims go to serial retry,
        and a replacement joins while the respawn budget lasts."""
        committer.lose_worker(wid)
        if self._respawns_left <= 0:
            return
        self._respawns_left -= 1
        self.metrics.respawns += 1
        if rt.registry is not None:
            rt.registry.add(WRITER_COMMITTER, "respawns")
        new_wid = rt.spawn_worker()
        logger.info(
            "respawned worker %d (replacing %d after %s, %d respawns "
            "left)", new_wid, wid, reason, self._respawns_left,
        )
        if committer.tracer is not None:
            committer.tracer.instant(EventKind.RESPAWN, arg=new_wid, arg2=wid)

    # -- live telemetry ---------------------------------------------------------

    def _start_live(
        self, rt: Runtime, spec: PipelineSpec, live_abort: threading.Event
    ) -> None:
        live_cfg = self.live_config
        if rt.registry is None or live_cfg is None:
            return
        monitor = LiveMonitor(
            rt.registry, live_cfg,
            capacity=self.capacity,
            iterations=spec.iterations,
            policy=self.policy,
            channels=(rt.work, rt.done),
            on_abort=live_abort.set,
        )
        monitor.start()
        self.live_monitor = monitor
        if live_cfg.serve is not None:
            # http.server loads only for a run that serves its telemetry.
            from repro.obs.serve import HttpServer, live_endpoints

            self._live_server = HttpServer(
                functools.partial(live_endpoints, monitor),
                port=live_cfg.serve, name="repro-obs-serve",
            ).start()
            self.live_server_port = self._live_server.port

    def _stop_live(self) -> None:
        """Tear down the telemetry plane (idempotent): final sample,
        then the watchdog's verdict lands on the run's metrics."""
        if self._live_server is not None:
            self._live_server.stop()
            self._live_server = None
        if self.live_monitor is not None:
            self.live_monitor.stop()
            self.metrics.watchdog = self.live_monitor.watchdog.summary()


# -- TaskGraph replay (simulated-vs-measured calibration) ------------------------


def _busy_wait(seconds: float) -> None:
    """Burn CPU for ``seconds`` — abstract work units made physical."""
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1


class _ReplayProduce:
    """Phase-A replay: burn the A cost, hand the B cost downstream."""

    def __init__(self, a_costs: List[float], b_costs: List[float]) -> None:
        self.a_costs = a_costs
        self.b_costs = b_costs

    def __call__(self, i: int) -> float:
        _busy_wait(self.a_costs[i])
        return self.b_costs[i]


class _ReplayWork:
    def __call__(self, i: int, b_cost: float) -> int:
        _busy_wait(b_cost)
        return i


def spec_from_task_graph(
    graph: TaskGraph, seconds_per_unit: float = 1e-6
) -> PipelineSpec:
    """Replay a simulator :class:`TaskGraph` as real busy-work.

    Each iteration's per-phase abstract costs become calibrated CPU burns,
    so the engine's measured wall clock can be put next to the simulator's
    predicted makespan for the same graph — the calibration bridge.
    """
    from repro.core.tasks import Phase

    iterations = graph.iterations()
    a_costs = [0.0] * iterations
    b_costs = [0.0] * iterations
    c_costs = [0.0] * iterations
    for task in graph.tasks:
        costs = {Phase.A: a_costs, Phase.B: b_costs, Phase.C: c_costs}[task.phase]
        costs[task.iteration] += task.cost * seconds_per_unit

    def commit(i: int, result: int, acc: dict) -> None:
        _busy_wait(c_costs[i])
        acc["committed"] = acc.get("committed", 0) + 1

    return PipelineSpec(
        iterations=iterations,
        produce=_ReplayProduce(a_costs, b_costs),
        work=_ReplayWork(),
        commit=commit,
        finalize=lambda acc: acc.get("committed", 0),
    )
