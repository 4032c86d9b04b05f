"""The multiprocess pipeline execution engine.

Where :mod:`repro.core.simulator` *predicts* the makespan of the paper's
A/B/C pipeline from abstract task costs, and :mod:`repro.dswp.runtime`
*demonstrates* its correctness on GIL-bound threads, this engine *runs* it:
one phase-A producer process, N replicated phase-B worker processes pulling
from a bounded inter-process channel, and an in-order committer (phase C)
in the calling process — real parallelism on real cores.

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

import logging
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.plan import ExecutionPlan
from repro.core.tasks import Phase, TaskGraph
from repro.exec.channels import (
    STOP,
    ChannelChaos,
    ChannelTimeout,
    ProcessChannel,
)
from repro.exec.faults import FaultPlan, RobustnessPolicy
from repro.exec.metrics import EngineMetrics
from repro.exec.rollback import CommittedStore, Location, WriteBuffer
from repro.exec.transport import TRANSPORT_KINDS
from repro.exec.workers import (
    HardExit,
    ShutdownGuard,
    ThrottleGate,
    done_capacity,
    producer_main,
    raise_hard_exit,
    signal_shutdown,
    worker_main,
)
from repro.obs.clock import now_ns
from repro.obs.events import EventKind, TraceConfig
from repro.obs.live import LiveConfig, LiveMonitor
from repro.obs.registry import (
    MetricsRegistry,
    WRITER_COMMITTER,
    WRITER_PRODUCER,
    WRITER_WORKER0,
    writers_for,
)
from repro.obs.serve import MetricsServer
from repro.obs.spool import open_tracer
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    CheckpointManager,
    spec_fingerprint,
)
from repro.resilience.throttle import (
    SpeculationThrottle,
    ThrottleConfig,
    max_window_for,
)

logger = logging.getLogger(__name__)

#: Window published to workers when throttling is disabled: effectively
#: unbounded speculation depth.
_UNTHROTTLED_WINDOW = 2 ** 30


def _identity(accumulator: Any) -> Any:
    return accumulator


class _ThreadHandle:
    """A process-like facade over a pipeline stage running as a thread.

    The ``thread`` transport keeps every stage in the calling process, but
    the committer's health machinery speaks the ``multiprocessing.Process``
    dialect — ``is_alive``/``exitcode``/``terminate``/``join``.  Injected
    crashes arrive as :class:`HardExit` (raised by the injected
    ``hard_exit``) and land in ``exitcode`` exactly as ``os._exit`` codes
    would, so crash accounting and respawn budgets behave identically
    across transports.  ``terminate`` is necessarily a no-op: a hung
    thread cannot be killed, only abandoned — it is daemonic and any late
    duplicate results it sends are dropped by the committer.
    """

    def __init__(self, target, args, name: str) -> None:
        self.exitcode: Optional[int] = None
        self._thread = threading.Thread(
            target=self._run, args=(target, args), name=name, daemon=True
        )

    def _run(self, target, args) -> None:
        code = 0
        try:
            target(*args)
        except HardExit as stop:
            code = stop.code
        except BaseException:
            logger.exception(
                "pipeline thread %s died", self._thread.name
            )
            code = 1
        self.exitcode = code

    def start(self) -> None:
        self._thread.start()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)


def _dict_accumulator() -> dict:
    return {}


@dataclass
class PipelineSpec:
    """One executable A/B/C pipeline.

    ``produce`` and ``work`` cross process boundaries and must be picklable
    (module-level functions, ``functools.partial`` over picklable state, or
    instances of module-level classes).  ``init``/``commit``/``finalize``
    run only in the committer and may close over anything.

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

    ``batch_size`` (default 16, clamped to ``capacity``) is the fast path:
    the producer dispatches chunks of up to this many iterations per frame
    (fewer while the pipeline fills and as it drains), workers answer with
    one claims and one results message per chunk, and both channels run
    the framed transport — one pickle and one pipe round-trip per frame
    instead of per item.  ``batch_size=1``
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

    ``runtime`` (default: none) runs the pipeline against a *pre-existing*
    worker-pool lease (:class:`repro.service.pool.LeaseRuntime`) instead of
    forking a fresh producer/worker tree: the runtime supplies the
    channels, shutdown event, throttle gate, metrics registry,
    producer handle, and leased worker processes, and takes over respawn,
    teardown, halt, and cancellation.  The committer loop, speculation
    validation, throttling, and degradation machinery are identical in
    both modes — only process lifecycle is delegated.  The duck-typed
    contract the runtime must satisfy:

    - attributes ``work``/``done`` (:class:`ProcessChannel`), ``shutdown``
      (cleared event), ``gate`` (:class:`ThrottleGate`),
      ``registry`` (:class:`MetricsRegistry` or None), and
      ``job_throttle`` (a :class:`SpeculationThrottle`-shaped controller
      or None — per-tenant persistent in the service);
    - ``start_producer(spec, start, batch_size, fault_plan)`` returning a
      process-like handle (``is_alive``/``exitcode``/``terminate``/
      ``join``);
    - ``workers()`` returning ``{wid: handle}`` for the leased workers;
    - ``respawn()`` returning ``(wid, handle)`` for a replacement worker
      already leased to this job;
    - ``cancelled()`` polled by the committer loop;
    - ``teardown(producer, processes, done, join_timeout)`` (cooperative;
      called after the engine has put the end-of-stream tokens on
      ``work``, so it must not drain that channel) and
      ``halt(producer, processes, join_timeout)`` (emergency).
    """

    def __init__(
        self,
        workers: int = 4,
        capacity: int = 32,
        policy: Optional[RobustnessPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        plan: Optional[ExecutionPlan] = None,
        start_method: Optional[str] = None,
        throttle: Optional[ThrottleConfig] = None,
        checkpoints: Optional[CheckpointConfig] = None,
        channel_chaos: Optional[ChannelChaos] = None,
        batch_size: int = 16,
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
        self.external_runtime = runtime
        self.metrics = EngineMetrics()
        self.checkpoint_manager: Optional[CheckpointManager] = None
        #: The last run's live monitor (None when ``live`` is off) and the
        #: port its HTTP endpoint bound (None when ``live.serve`` is off).
        self.live_monitor: Optional[LiveMonitor] = None
        self.live_server_port: Optional[int] = None

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

    # -- the committer loop -----------------------------------------------------

    def _run_pipeline(
        self,
        spec: PipelineSpec,
        start: int,
        resume_checkpoint: Optional[Checkpoint],
    ) -> EngineResult:
        entered = time.monotonic()
        policy = self.policy
        metrics = self.metrics
        manager = self.checkpoint_manager
        rt = self.external_runtime
        ctx = (
            multiprocessing.get_context(self._start_method)
            if self._start_method
            else multiprocessing.get_context()
        )
        threaded = self.transport == "thread" and rt is None
        if rt is not None:
            # Pool mode: the lease supplies channels, shutdown, and shared
            # values — all created once at pool start and reused per job.
            work = rt.work
            done = rt.done
            shutdown = rt.shutdown
            child_shutdown = shutdown
        else:
            work = ProcessChannel(
                self.capacity, name="work", ctx=ctx, chaos=self.channel_chaos,
                batch_size=self.batch_size, flush_interval=self.flush_interval,
                transport=self.transport,
            )
            done = ProcessChannel(
                done_capacity(self.capacity, self.workers, self.batch_size),
                name="done", ctx=ctx,
                batch_size=self.batch_size, flush_interval=self.flush_interval,
                transport=self.transport,
            )
            shutdown = ctx.Event()
            # Children see parent death as shutdown, so a SIGKILLed engine
            # cannot strand orphans spinning on channel credit — and the
            # last orphan's exit is what lets the resource tracker unlink
            # any shm segments the run mapped.
            child_shutdown = (
                shutdown if threaded
                else ShutdownGuard(shutdown, os.getpid())
            )
        metrics.transport = work.transport_kind
        # The committer's own spool: claims, commits, conflicts, robustness
        # events, TASK_C spans, and its done-channel get waits.
        tracer = open_tracer(self.trace_config, "committer")
        done.tracer = tracer
        if resume_checkpoint is not None:
            store = resume_checkpoint.restore_store()
            accumulator = resume_checkpoint.restore_accumulator()
        else:
            store = CommittedStore(spec.shared_state)
            accumulator = spec.init()

        # Adaptive speculation throttling: the committer is the controller;
        # workers observe the watermark/window pair through shared memory.
        # Pool mode may supply a persistent (per-tenant) controller so one
        # tenant's storm carries a shrunk window into its next lease.
        if rt is not None:
            throttle = rt.job_throttle
            gate = rt.gate
        else:
            throttle = (
                SpeculationThrottle(
                    self.throttle_config,
                    max_window_for(
                        self.workers, self.capacity, self.batch_size
                    ),
                )
                if self.throttle_config.enabled
                else None
            )
            gate = ThrottleGate(ctx)
        gate.reset(
            start, throttle.window if throttle else _UNTHROTTLED_WINDOW
        )
        watermark_value = gate.watermark
        window_value = gate.window

        # Live telemetry: the shared-memory registry must exist before any
        # child is spawned (the shared arrays travel through process args).
        # Pool mode inherits the slot's registry — reset by the pool before
        # the lease, already mapped in every pool worker.
        live_cfg = self.live_config
        live_abort = threading.Event()
        registry: Optional[MetricsRegistry] = None
        monitor: Optional[LiveMonitor] = None
        server: Optional[MetricsServer] = None
        if rt is not None:
            registry = rt.registry
        elif live_cfg is not None:
            registry = MetricsRegistry.create(
                ctx, writers_for(self.workers, policy.max_respawns)
            )
        if registry is not None:
            registry.set_gauge("iterations", spec.iterations)
            registry.set_gauge("watermark", start)
            registry.set_gauge("window", window_value.value)
            registry.set_gauge("workers_alive", self.workers)

        def start_stage(name: str, target, args: tuple):
            """One own-process stage, as a thread or a process.  ``args``
            end where the stage's ``hard_exit`` parameter comes next, and
            carry the stage's own views of the channels and the gate
            (private buffers, its own seat on the wake-ups) — made here,
            in the spawning process."""
            if threaded:
                stage = _ThreadHandle(
                    target, args + (raise_hard_exit,), name=name
                )
            else:
                stage = ctx.Process(
                    target=target, args=args, name=name, daemon=True
                )
            stage.start()
            return stage

        if rt is not None:
            producer = rt.start_producer(
                spec, start=start, batch_size=self.batch_size,
                fault_plan=self.fault_plan,
            )
        else:
            producer = start_stage(
                "exec-A", producer_main,
                (work.for_stage(), spec.iterations, spec.produce,
                 self.fault_plan, child_shutdown, start, self.batch_size,
                 self.trace_config, registry, WRITER_PRODUCER, True,
                 self.workers),
            )

        processes: Dict[int, Any] = {}
        next_worker_id = 0

        def spawn_worker() -> int:
            nonlocal next_worker_id
            if rt is not None:
                wid, proc = rt.respawn()
                processes[wid] = proc
                return wid
            wid = next_worker_id
            next_worker_id += 1
            # Every worker that ever exists gets its own counter row;
            # clamp defensively so an overrun aliases the last row instead
            # of corrupting foreign memory.
            row = WRITER_WORKER0 + wid
            if registry is not None and row >= registry.writers:
                row = registry.writers - 1
            processes[wid] = start_stage(
                f"exec-B{wid}", worker_main,
                (wid, work.for_stage(), done.for_stage(), spec.work,
                 spec.speculative, store.snapshot(), self.fault_plan,
                 child_shutdown, gate.seat(), self.batch_size,
                 self.trace_config, registry, row),
            )
            return wid

        if rt is not None:
            processes.update(rt.workers())
        else:
            for _ in range(self.workers):
                spawn_worker()

        if registry is not None and live_cfg is not None:
            monitor = LiveMonitor(
                registry, live_cfg,
                capacity=self.capacity,
                iterations=spec.iterations,
                policy=policy,
                channels=(work, done),
                on_abort=live_abort.set,
            )
            monitor.start()
            self.live_monitor = monitor
            if live_cfg.serve is not None:
                server = MetricsServer(monitor, port=live_cfg.serve).start()
                self.live_server_port = server.port

        def stop_live() -> None:
            """Tear down the telemetry plane (idempotent): final sample,
            then the watchdog's verdict lands on the run's metrics."""
            nonlocal server
            if server is not None:
                server.stop()
                server = None
            if monitor is not None:
                monitor.stop()
                metrics.watchdog = monitor.watchdog.summary()

        # Committer state.  ``claims`` holds, per claimed and uncommitted
        # iteration, ``[claimant, claim clock (hung-task timeout), phase-A
        # value, first arrival (ns)]`` — the value so that any lost task
        # can be re-executed serially.  ``pending`` is the reorder buffer:
        # result entries as the workers sent them, ``(i, result, reads,
        # writes, b_seconds)``.
        claims: Dict[int, list] = {}
        pending: Dict[int, tuple] = {}
        serial_needed: Set[int] = set()
        next_commit = start
        iterations = spec.iterations
        speculative = spec.speculative
        respawns_left = policy.max_respawns
        producer_failed = False
        last_activity = time.monotonic()
        # Per-item latency samples collect in plain lists and reach
        # ``metrics.latency`` in bulk (``fold_samples``): a list append per
        # sample on the commit path instead of a histogram update.
        samples: Dict[str, List[float]] = {
            "task_a": [], "task_b": [], "task_c": [], "commit_lag": [],
        }
        a_samples = samples["task_a"].append
        b_samples = samples["task_b"].append
        c_samples = samples["task_c"].append
        lag_samples = samples["commit_lag"].append

        def fold_samples() -> None:
            for series, values in samples.items():
                metrics.fold_latency(series, values)

        def respawn(wid: int, reason: str) -> None:
            nonlocal respawns_left
            respawns_left -= 1
            metrics.respawns += 1
            if registry is not None:
                registry.add(WRITER_COMMITTER, "respawns")
            new_wid = spawn_worker()
            logger.info(
                "respawned worker %d (replacing %d after %s, %d respawns "
                "left)", new_wid, wid, reason, respawns_left,
            )
            if tracer is not None:
                tracer.instant(EventKind.RESPAWN, arg=new_wid, arg2=wid)

        def serial_reexecute(i: int) -> Any:
            """Misspeculation-as-re-execution: run task *i* on live state."""
            value = claims[i][2]
            t0_ns = now_ns()
            if speculative:
                buffer = WriteBuffer(store.snapshot())
                result = spec.work(i, value, buffer)
                store.apply(buffer.writes)
            else:
                result = spec.work(i, value)
            t1_ns = now_ns()
            elapsed = (t1_ns - t0_ns) * 1e-9
            metrics.stage_seconds["B"] += elapsed
            metrics.serial_reexecutions += 1
            metrics.record_latency("serial_reexec", elapsed)
            if registry is not None:
                registry.add(WRITER_COMMITTER, "serial_reexec")
            if tracer is not None:
                tracer.record(EventKind.SERIAL_REEXEC, t0_ns, t1_ns, arg=i)
            return result

        def tell_throttle(misspeculated: bool, commits: int) -> None:
            new_window = throttle.record(misspeculated, commits)
            if new_window is None:
                return
            shrink = new_window < window_value.value
            window_value.value = new_window
            if registry is not None:
                registry.set_gauge("window", new_window)
            logger.debug(
                "throttle %s: speculative window now %d",
                "shrink" if shrink else "grow", new_window,
            )
            if tracer is not None:
                tracer.instant(
                    EventKind.THROTTLE, arg=new_window,
                    detail=0 if shrink else 1,
                )

        def settle(frontier: int, c_seconds: float) -> None:
            """Book the commits ``next_commit .. frontier`` and publish the
            new watermark."""
            nonlocal next_commit
            run = frontier - next_commit
            if not run:
                return
            if not metrics.commits:
                metrics.startup_seconds = time.monotonic() - entered
            metrics.commits += run
            metrics.in_order_commits += run
            metrics.stage_seconds["C"] += c_seconds
            next_commit = watermark_value.value = frontier
            if registry is not None:
                registry.add(WRITER_COMMITTER, "committed", run)
                registry.set_gauge("watermark", frontier)

        def advance_commits() -> None:
            """Commit the contiguous run at the frontier: buffered results
            (validated first when speculative) and tasks owed a serial
            retry.  Per item: the callback, one clock pair, the latency
            samples, the trace span.  Counters, the watermark and the
            throttle settle once per run — a conflict or a checkpoint
            inside it only settles early."""
            i = next_commit
            clean = 0  # clean commits the throttle has not heard of yet
            c_seconds = 0.0
            while i < iterations:
                entry = pending.pop(i, None)
                misspeculated = False
                if entry is not None:
                    result = entry[1]
                    if speculative:
                        if store.validate(entry[2]):
                            misspeculated = True
                            metrics.conflicts += 1
                            if registry is not None:
                                registry.add(WRITER_COMMITTER, "conflicts")
                            if tracer is not None:
                                tracer.instant(EventKind.CONFLICT, arg=i)
                        else:
                            store.apply(entry[3])
                elif i in serial_needed and i in claims:
                    misspeculated = True
                else:
                    break
                if misspeculated:
                    result = serial_reexecute(i)
                if serial_needed:
                    serial_needed.discard(i)
                # One clock pair feeds stage_seconds, the latency histogram,
                # commit lag, *and* the trace span — tracing adds no clock calls.
                t0_ns = now_ns()
                spec.commit(i, result, accumulator)
                commit_ns = now_ns()
                elapsed = (commit_ns - t0_ns) * 1e-9
                c_seconds += elapsed
                c_samples(elapsed)
                claim = claims.pop(i, None)
                if claim is not None and commit_ns >= claim[3]:
                    lag_seconds = (commit_ns - claim[3]) / 1e9
                    lag_samples(lag_seconds)
                    if registry is not None:
                        registry.observe(
                            WRITER_COMMITTER, "commit_lag_seconds", lag_seconds
                        )
                if tracer is not None:
                    # The span's end *is* the commit point and arg2 carries the
                    # misspeculation flag; the merger synthesizes the COMMIT
                    # instant from it, halving committer record volume.
                    tracer.record(
                        EventKind.TASK_C, t0_ns, commit_ns, arg=i,
                        arg2=1 if misspeculated else 0,
                    )
                i += 1
                if throttle is not None:
                    if misspeculated:
                        # in commit order: the epochs must see what the
                        # item-at-a-time committer showed them
                        if clean:
                            tell_throttle(False, clean)
                            clean = 0
                        tell_throttle(True, 1)
                    else:
                        clean += 1
                if manager is not None and manager.due(i):
                    settle(i, c_seconds)
                    c_seconds = 0.0
                    fold_samples()  # the checkpoint carries metrics.to_json()
                    manager.take(i, store, accumulator, metrics)
                    metrics.checkpoints_taken = manager.taken
                    if registry is not None:
                        registry.add(WRITER_COMMITTER, "checkpoints")
                    logger.info(
                        "checkpoint %d taken at commit watermark %d",
                        manager.taken, i,
                    )
                    if tracer is not None:
                        tracer.instant(EventKind.CHECKPOINT, arg=i)
            settle(i, c_seconds)
            if clean:
                tell_throttle(False, clean)

        def handle_lost_worker(wid: int) -> None:
            """Route a dead/hung worker's unresolved claims to serial retry."""
            for i, claim in claims.items():
                # (a claim re-made by a live worker since is that worker's)
                if claim[0] == wid and i >= next_commit and i not in pending:
                    serial_needed.add(i)
                    metrics.retries += 1

        def check_health() -> None:
            nonlocal producer_failed, respawns_left, last_activity
            now = time.monotonic()
            # A chunk executes serially within its worker, so only each
            # worker's *oldest* unresolved claim can actually be running;
            # younger chunk-mates are queued behind it, not hung.
            unresolved = [
                (i, claim) for i, claim in claims.items()
                if i >= next_commit and i not in pending
                and i not in serial_needed
            ]
            oldest_claim: Dict[int, int] = {}
            for i, claim in unresolved:
                wid = claim[0]
                if wid not in oldest_claim or i < oldest_claim[wid]:
                    oldest_claim[wid] = i
            # Hung tasks: claimed long ago by a still-live worker.
            for i, claim in unresolved:
                wid, claimed_at = claim[0], claim[1]
                proc = processes.get(wid)
                if proc is None or not proc.is_alive():
                    continue  # crash handling below covers dead workers
                if i - next_commit >= window_value.value:
                    # Throttle-gated, not hung: the worker is deliberately
                    # waiting for the window.  Refresh its claim clock so it
                    # gets a full timeout once it becomes eligible.
                    claim[1] = now
                    continue
                if i != oldest_claim.get(wid):
                    claim[1] = now  # queued behind a chunk-mate
                    continue
                if now - claimed_at > policy.task_timeout:
                    metrics.worker_timeouts += 1
                    if registry is not None:
                        registry.add(WRITER_COMMITTER, "worker_timeouts")
                    logger.warning(
                        "worker %d hung on iteration %d for more than "
                        "%.1fs; terminating", wid, i, policy.task_timeout,
                    )
                    if tracer is not None:
                        tracer.instant(
                            EventKind.WORKER_TIMEOUT, arg=i, arg2=wid
                        )
                    proc.terminate()
                    proc.join(policy.join_timeout)
                    processes[wid] = None
                    handle_lost_worker(wid)
                    if respawns_left > 0:
                        respawn(wid, "hang timeout")
                    last_activity = now
            # Crashed workers: exited nonzero (clean stop exits 0).
            for wid, proc in list(processes.items()):
                if proc is None or proc.is_alive():
                    continue
                proc.join()
                processes[wid] = None
                if proc.exitcode != 0:
                    metrics.worker_crashes += 1
                    if registry is not None:
                        registry.add(WRITER_COMMITTER, "worker_crashes")
                    logger.warning(
                        "worker %d crashed (exit code %s)",
                        wid, proc.exitcode,
                    )
                    if tracer is not None:
                        tracer.instant(
                            EventKind.WORKER_CRASH, arg=wid,
                            arg2=proc.exitcode or 0,
                        )
                    handle_lost_worker(wid)
                    if respawns_left > 0:
                        respawn(wid, f"crash (exit {proc.exitcode})")
                    last_activity = now
            # Producer death before dispatching everything.
            if (
                not producer_failed
                and not producer.is_alive()
                and producer.exitcode not in (0, None)
            ):
                producer_failed = True
                metrics.producer_crashed = True
                logger.error(
                    "producer crashed (exit code %s); degrading to "
                    "sequential", producer.exitcode,
                )
                if tracer is not None:
                    tracer.instant(
                        EventKind.PRODUCER_CRASH, arg2=producer.exitcode or 0
                    )

        def handle_message(message: tuple) -> None:
            """One report from a worker: a chunk's claims, or the results
            finished since its last report."""
            tag = message[0]
            if tag == "results":
                _, wid, entries = message
                # Where the frontier will stand once the entries before
                # this one have committed: what "arrived out of order"
                # is measured against, as if they came one at a time.
                frontier = next_commit
                accepted = 0
                b_seconds = 0.0
                for entry in entries:
                    i = entry[0]
                    if i < frontier:
                        metrics.duplicates_dropped += 1
                        continue
                    if i != frontier:
                        metrics.out_of_order_completions += 1
                    if i in pending:
                        metrics.duplicates_dropped += 1
                        continue
                    pending[i] = entry
                    accepted += 1
                    b_seconds += entry[4]
                    b_samples(entry[4])
                    while frontier in pending or (
                        frontier in serial_needed and frontier in claims
                    ):
                        frontier += 1
                metrics.stage_seconds["B"] += b_seconds
                metrics.worker_iterations[wid] = (
                    metrics.worker_iterations.get(wid, 0) + accepted
                )
            elif tag == "claims":
                _, wid, items = message
                # One timestamp per report serves commit-lag accounting and
                # the CLAIM trace records of every item in it.
                claim_ns = now_ns()
                a_seconds = 0.0
                for i, value, seconds in items:
                    if i < next_commit:
                        continue  # late duplicate of an already-committed task
                    claim = claims.get(i)
                    if claim is None:
                        claims[i] = [wid, last_activity, value, claim_ns]
                        if tracer is not None:
                            tracer.record(
                                EventKind.CLAIM, claim_ns, claim_ns,
                                arg=i, arg2=wid,
                            )
                    else:
                        # Re-claimed after a crash hand-back: the first
                        # arrival stays, ownership moves.
                        claim[0], claim[1] = wid, last_activity
                    # A fresh claim transfers ownership: the live claimant will
                    # deliver a result or fault (or fall to the hung-task
                    # timeout), so a previously scheduled serial retry yields.
                    if serial_needed:
                        serial_needed.discard(i)
                    a_seconds += seconds
                    a_samples(seconds)
                metrics.stage_seconds["A"] += a_seconds
            elif tag == "fault":
                _, wid, i, fault_message = message
                metrics.soft_faults += 1
                if registry is not None:
                    registry.add(WRITER_COMMITTER, "soft_faults")
                logger.warning(
                    "worker %d reported soft fault on iteration %d: %s",
                    wid, i, fault_message,
                )
                if tracer is not None:
                    tracer.instant(EventKind.SOFT_FAULT, arg=i, arg2=wid)
                if i >= next_commit and i not in pending:
                    serial_needed.add(i)
                    metrics.retries += 1
            elif tag == "stopped":
                pass  # clean exit; health check sees exitcode 0

        # -- main loop ----------------------------------------------------------
        # One iteration per transport read: a whole decoded frame, one
        # clock pair, one queue-wait sample, one cancel check.
        degraded = False
        gate_woken_at = next_commit
        try:
            while next_commit < spec.iterations:
                advance_commits()
                if next_commit != gate_woken_at:
                    # At most one wake per drained frame, and none unless a
                    # worker declared itself gated.
                    gate_woken_at = next_commit
                    last_activity = time.monotonic()
                    gate.wake()
                if next_commit >= spec.iterations:
                    break
                if rt is not None and rt.cancelled():
                    # Job cancellation (repro.service): stop committing and
                    # take the cooperative teardown path — the committed
                    # prefix stays valid, pool workers stay alive.
                    metrics.cancelled = True
                    logger.info(
                        "run cancelled at commit watermark %d", next_commit
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
                        handle_message(message)
                        advance_commits()
                    continue  # drain greedily before health checks
                work.sample_occupancy()
                done.sample_occupancy()
                check_health()
                live_workers = any(
                    proc is not None and proc.is_alive()
                    for proc in processes.values()
                )
                if registry is not None:
                    registry.set_gauge(
                        "workers_alive",
                        sum(
                            1 for proc in processes.values()
                            if proc is not None and proc.is_alive()
                        ),
                    )
                stalled = (
                    time.monotonic() - last_activity > policy.stall_timeout
                )
                if live_abort.is_set():
                    logger.warning(
                        "live watchdog requested abort at commit watermark "
                        "%d; taking the degradation path", next_commit,
                    )
                    degraded = True
                    break
                if producer_failed or not live_workers or stalled:
                    degraded = True
                    break
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
            signal_shutdown(shutdown, work, done, gate)
            stop_live()  # before channel.close(): the final sample reads them
            self._halt(producer, processes)
            if rt is None:
                for channel in (work, done):
                    channel.close()
            done.tracer = None  # pool channels outlive the job
            if tracer is not None:
                tracer.close()
            raise
        finally:
            signal_shutdown(shutdown, work, done, gate)
            fold_samples()
        loop_ended = time.monotonic()

        # The telemetry plane stops here, not after teardown: on the
        # degradation path the sequential finisher bypasses the registry,
        # and a watchdog left running would misread that silence as a
        # stall.  The final sample captures the pipeline's true end state.
        stop_live()

        if degraded:
            logger.warning(
                "degrading to sequential execution at commit watermark %d",
                next_commit,
            )
            if tracer is not None:
                tracer.instant(EventKind.DEGRADE, arg=next_commit)
            self._halt(producer, processes)
        else:
            self._teardown(producer, processes, work, done)
        metrics.teardown_seconds = time.monotonic() - loop_ended
        if degraded:
            self._degrade(spec, store, accumulator, next_commit, pending)

        if throttle is not None:
            metrics.throttle_shrinks = throttle.shrinks
            metrics.throttle_grows = throttle.grows
            metrics.min_window = throttle.min_window_seen
            metrics.final_window = throttle.window
        for channel in (work, done):
            metrics.channel_stats[channel.name] = channel.occupancy_stats()
            if rt is None:
                channel.close()  # pool channels outlive the job
        done.tracer = None
        if tracer is not None:
            tracer.close()
        return EngineResult(
            spec.finalize(accumulator),
            metrics,
            store.architectural_state(),
            checkpoints=list(manager.checkpoints) if manager else [],
        )

    # -- failure paths ----------------------------------------------------------

    def _degrade(
        self,
        spec: PipelineSpec,
        store: CommittedStore,
        accumulator: Any,
        next_commit: int,
        pending: Dict[int, tuple],
    ) -> None:
        """Graceful degradation: finish the run sequentially, in-process
        (the caller has already halted the pipeline's children).

        Phase A is replayed from iteration 0 on the engine's own (pristine,
        never-called) copy of ``produce`` — workload determinism guarantees
        identical values — but only uncommitted iterations execute B and C.
        Already-validated worker results in ``pending`` are reused, and the
        committed prefix keeps checkpointing, so even a degraded run can be
        resumed incrementally if it is interrupted.
        """
        metrics = self.metrics
        manager = self.checkpoint_manager
        metrics.degraded_to_sequential = True

        def committed(i: int) -> None:
            metrics.commits += 1
            metrics.in_order_commits += 1
            if manager is not None:
                manager.maybe(i + 1, store, accumulator, metrics)
                metrics.checkpoints_taken = manager.taken

        for i in range(spec.iterations):
            value = spec.produce(i)  # replay for phase-A state evolution
            if i < next_commit:
                continue
            if i in pending:
                _, result, reads, writes, _ = pending.pop(i)
                stale = store.validate(reads) if spec.speculative else []
                if not stale:
                    store.apply(writes)
                    spec.commit(i, result, accumulator)
                    committed(i)
                    continue
                metrics.conflicts += 1
            if spec.speculative:
                buffer = WriteBuffer(store.snapshot())
                result = spec.work(i, value, buffer)
                store.apply(buffer.writes)
            else:
                result = spec.work(i, value)
            metrics.serial_reexecutions += 1
            spec.commit(i, result, accumulator)
            committed(i)

    def _halt(self, producer, processes) -> None:
        """Emergency stop: terminate and reap every child, unconditionally.

        The degradation and crashed-committer path.  Cooperative shutdown
        is not enough here: with no consumer left a worker can be blocked
        mid-put (credit starvation polls forever), so the children are
        killed outright and joined — nothing may outlive the run and keep
        touching its shared state.  (The pool replaces killed leased
        workers on release.)
        """
        if self.external_runtime is not None:
            self.external_runtime.halt(
                producer, processes, self.policy.join_timeout
            )
            return
        procs = [producer] + list(processes.values())
        for proc in procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc is not None:
                proc.join(self.policy.join_timeout)
                if proc.is_alive():
                    proc.kill()
                    proc.join(self.policy.join_timeout)

    def _teardown(
        self, producer, processes, work: ProcessChannel, done: ProcessChannel
    ) -> None:
        """Normal completion and cooperative cancel: end the stream with one
        ``STOP`` per live worker — what wakes each out of its blocking
        ``work`` read — then wait for the children to exit."""
        if self.metrics.cancelled:
            work.drain()  # nothing a cancelled run queued goes ahead of STOP
        # A private view: in pool mode the phase-A thread owns the slot
        # channel's send buffer, and STOP flushes the buffer it is put on.
        tokens = work.for_caller()
        procs = [p for p in processes.values() if p is not None]
        try:
            # Counted before the first put: any worker may take any token,
            # so re-checking liveness between puts would short a sibling.
            for _ in [p for p in procs if p.is_alive()]:
                tokens.put(STOP, timeout=self.policy.poll_interval)
        except ChannelTimeout:
            pass  # no credit left: the idle poll ends whoever got no token
        if self.external_runtime is not None:
            # Pool workers flush, send their release, and go idle — they
            # are not joined or killed.
            self.external_runtime.teardown(
                producer, processes, done, self.policy.join_timeout
            )
            return
        deadline = time.monotonic() + self.policy.join_timeout
        for proc in [producer] + procs:
            while proc.is_alive() and time.monotonic() < deadline:
                # join() waits on the child's sentinel; the bounded slice
                # only re-drains, so a worker blocked on a full done channel
                # can finish its put and reach its token.
                done.drain()
                proc.join(self.policy.poll_interval)
            if proc.is_alive():
                proc.terminate()
            proc.join(self.policy.join_timeout)


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
