"""Who owns the stages of one run: the :class:`Runtime` protocol.

The engine's commit loop is the same whoever started the processes it
talks to.  What differs is *ownership* — who builds the channels, spawns
and replaces phase-B workers, and what "the run is over" means for them —
and that is all a runtime is.  There are exactly two: :class:`LocalRuntime`
(here) forks a producer and N workers for one run and reaps them at its
end; :class:`repro.service.pool.LeaseRuntime` borrows long-lived pool
workers and one of the pool's pre-built slots, and hands them back.  Both
are a :class:`StageSet` — the channel pair, throttle gate, shutdown event
and registry the stages share — plus a roster.
"""

from __future__ import annotations

import copy
import logging
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, Optional, Protocol

from repro.exec.channels import (
    STOP,
    ChannelChaos,
    ChannelTimeout,
    ProcessChannel,
)
from repro.exec.faults import FaultPlan, RobustnessPolicy
from repro.exec.rollback import CommittedStore
from repro.exec.workers import (
    HardExit,
    ShutdownGuard,
    ThrottleGate,
    done_capacity,
    producer_main,
    raise_hard_exit,
    worker_main,
)
from repro.obs.events import TraceConfig
from repro.obs.registry import (
    MetricsRegistry,
    WRITER_PRODUCER,
    WRITER_WORKER0,
    writers_for,
)
from repro.resilience.throttle import (
    SpeculationThrottle,
    ThrottleConfig,
    max_window_for,
)

logger = logging.getLogger(__name__)


class ThreadStage:
    """A process-like facade over a pipeline stage running as a thread.

    The ``thread`` transport keeps every stage in the calling process, and
    a pool lease runs phase A that way (the producer is cheap, sequential
    and stateful, and a thread spares a fork per job), but the committer's
    health machinery speaks the ``multiprocessing.Process`` dialect —
    ``is_alive``/``exitcode``/``terminate``/``join``.  Injected crashes
    arrive as :class:`HardExit` (raised by the injected ``hard_exit``) and
    land in ``exitcode`` exactly as ``os._exit`` codes would, so crash
    accounting and respawn budgets behave identically across transports.
    ``terminate`` is necessarily a no-op: a hung thread cannot be killed,
    only abandoned (the shutdown event stops a cooperative one) — it is
    daemonic and any late duplicate results it sends are dropped by the
    committer.
    """

    def __init__(self, target: Callable, args: tuple, name: str) -> None:
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


class StageSet:
    """The skeleton the stages of one pipeline share: the ``work`` and
    ``done`` channels, the throttle gate, the shutdown event and (with
    ``writer_rows``) the live-metrics registry.

    Everything here crosses into a child through its spawn-time arguments
    (the multiprocessing inheritance rule), so it exists before the first
    stage starts, and every stage is handed :meth:`for_stage` — its own
    view, made in the spawning process.
    """

    def __init__(
        self, ctx, capacity: int, workers: int, batch_size: int,
        flush_interval: float, transport: str, writer_rows: int = 0,
        chaos: Optional[ChannelChaos] = None,
    ) -> None:
        self.work = ProcessChannel(
            capacity, name="work", ctx=ctx, chaos=chaos,
            batch_size=batch_size, flush_interval=flush_interval,
            transport=transport,
        )
        self.done = ProcessChannel(
            done_capacity(capacity, workers, batch_size),
            name="done", ctx=ctx,
            batch_size=batch_size, flush_interval=flush_interval,
            transport=transport,
        )
        self.gate = ThrottleGate(ctx)
        self.shutdown = ctx.Event()
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry.create(ctx, writer_rows) if writer_rows else None
        )

    def for_stage(self) -> "StageSet":
        """The set as one stage about to be spawned gets it: the same
        skeleton seen through that stage's own channel and gate views
        (private buffers, its own seats on the wake-ups)."""
        view = object.__new__(StageSet)
        view.work = self.work.for_stage()
        view.done = self.done.for_stage()
        view.gate = self.gate.seat()
        view.shutdown = self.shutdown
        view.registry = self.registry
        return view

    def unseat(self, view: "StageSet") -> None:
        """Take back the seats of a stage that is gone (see
        :meth:`repro.exec.channels.ProcessChannel.unseat`)."""
        self.work.unseat(view.work)
        self.done.unseat(view.done)
        self.gate.unseat(view.gate)

    def signal_shutdown(self) -> None:
        """Set the stages' shutdown event *and* wake whoever is blocked on
        channel credit or the gate, so they see it now rather than when a
        backstop slice runs out."""
        self.shutdown.set()
        self.work.wake()
        self.done.wake()
        self.gate.wake()

    def end_stream(
        self, workers: Iterable[Any], cancelled: bool, timeout: float
    ) -> None:
        """End the stream with one ``STOP`` per live worker — what wakes
        each out of its blocking ``work`` read."""
        if cancelled:
            self.work.drain()  # nothing a cancelled run queued goes ahead of STOP
        try:
            # Counted before the first put: any worker may take any token,
            # so re-checking liveness between puts would short a sibling.
            for _ in [w for w in workers if w.is_alive()]:
                self.work.put(STOP, timeout=timeout)
        except ChannelTimeout:
            pass  # no credit left: the idle poll ends whoever got no token


class Runtime(Protocol):
    """What :class:`repro.exec.engine.ExecutionEngine` needs of whoever owns
    the stages of one run — a :class:`StageSet` plus a roster.  One runtime
    serves one run; ``docs/execution_engine.md`` § Runtimes has the table
    of who calls what, when, and what it may block on."""

    work: ProcessChannel
    done: ProcessChannel
    gate: ThrottleGate
    #: Cleared when the run starts; see :meth:`signal_shutdown`.
    shutdown: Any
    registry: Optional[MetricsRegistry]
    #: The speculation controller the committer reports to, or None
    #: (unthrottled).  A lease carries its tenant's across jobs.
    job_throttle: Optional[SpeculationThrottle]
    #: Phase A's process-like handle (``is_alive``/``exitcode``/
    #: ``terminate``/``join``); None until :meth:`start`.
    producer: Any
    #: The roster: ``{wid: handle}`` of every worker started and not reaped.
    processes: Dict[int, Any]

    def signal_shutdown(self) -> None:
        """:meth:`StageSet.signal_shutdown`."""

    def start(
        self, spec, store: CommittedStore, start: int, batch_size: int,
        fault_plan: Optional[FaultPlan],
    ) -> None:
        """Start phase A dispatching ``spec`` from iteration ``start`` and
        every worker, each speculating against ``store.snapshot()``."""

    def spawn_worker(self) -> int:
        """One more worker on the job (a replacement); its ``wid``."""

    def reap(self, wid: int) -> None:
        """Worker ``wid`` is dead or hung: terminate it if it still runs,
        join it and take it off the roster."""

    def cancelled(self) -> bool:
        """Has somebody asked for this run to stop committing?"""

    def teardown(self, cancelled: bool) -> None:
        """Cooperative end (completion, cancel): end the stream, then wait
        for the stages to leave on their own."""

    def halt(self) -> None:
        """Emergency end (degradation, a crashed committer, a failed
        start): nothing of this run may still be running, or touching its
        shared state, when this returns."""

    def close(self) -> None:
        """Release what only this run used."""


class LocalRuntime(StageSet):
    """A producer and ``workers`` phase-B replicas forked for one run —
    processes, or threads of the caller on the ``thread`` transport — and
    reaped at its end.  ``live`` asks for a metrics registry."""

    def __init__(
        self, workers: int, capacity: int, batch_size: int,
        flush_interval: float, transport: str, policy: RobustnessPolicy,
        throttle: ThrottleConfig, start_method: Optional[str] = None,
        chaos: Optional[ChannelChaos] = None,
        trace: Optional[TraceConfig] = None, live: bool = False,
    ) -> None:
        self._ctx = multiprocessing.get_context(start_method or None)
        # The shared-memory registry must exist before any child is
        # spawned (the shared arrays travel through process args).
        super().__init__(
            self._ctx, capacity, workers, batch_size, flush_interval,
            transport, chaos=chaos,
            writer_rows=writers_for(workers, policy.max_respawns) if live else 0,
        )
        self._workers = workers
        self._threaded = transport == "thread"
        self._policy = policy
        self._trace = trace
        # Children see parent death as shutdown, so a SIGKILLed engine
        # cannot strand orphans spinning on channel credit — and the
        # last orphan's exit is what lets the resource tracker unlink
        # any shm segments the run mapped.
        self._child_shutdown = (
            self.shutdown if self._threaded
            else ShutdownGuard(self.shutdown, os.getpid())
        )
        self.job_throttle = (
            SpeculationThrottle(
                throttle, max_window_for(workers, capacity, batch_size)
            )
            if throttle.enabled
            else None
        )
        self.producer: Any = None
        self.processes: Dict[int, Any] = {}
        self._views: Dict[int, StageSet] = {}
        self._job: tuple = ()

    def _start_stage(self, name: str, target, args: tuple):
        """One stage, as a thread or a process.  ``args`` end where the
        stage's ``hard_exit`` parameter comes next, and carry the stage's
        own views of the channels and the gate."""
        if self._threaded:
            stage = ThreadStage(target, args + (raise_hard_exit,), name=name)
        else:
            stage = self._ctx.Process(
                target=target, args=args, name=name, daemon=True
            )
        stage.start()
        return stage

    def start(self, spec, store, start, batch_size, fault_plan) -> None:
        self._job = (spec, store, batch_size, fault_plan)
        # A forked phase A has a copy of ``produce`` of its own; a thread
        # is handed one, so the committer's replay copy stays uncalled.
        produce = (
            copy.deepcopy(spec.produce) if self._threaded else spec.produce
        )
        self.producer = self._start_stage(
            "exec-A", producer_main,
            (self.work.for_stage(), spec.iterations, produce,
             fault_plan, self._child_shutdown, start, batch_size,
             self._trace, self.registry, WRITER_PRODUCER, True,
             self._workers),
        )
        for _ in range(self._workers):
            self.spawn_worker()

    def spawn_worker(self) -> int:
        spec, store, batch_size, fault_plan = self._job
        wid = len(self._views)
        # Every worker that ever exists gets its own counter row;
        # clamp defensively so an overrun aliases the last row instead
        # of corrupting foreign memory.
        row = WRITER_WORKER0 + wid
        if self.registry is not None and row >= self.registry.writers:
            row = self.registry.writers - 1
        view = self._views[wid] = self.for_stage()
        self.processes[wid] = self._start_stage(
            f"exec-B{wid}", worker_main,
            (wid, view.work, view.done, spec.work, spec.speculative,
             store.snapshot(), fault_plan, self._child_shutdown, view.gate,
             batch_size, self._trace, self.registry, row),
        )
        return wid

    def reap(self, wid: int) -> None:
        proc = self.processes.pop(wid)
        if proc.is_alive():
            proc.terminate()
        proc.join(self._policy.join_timeout)
        if not proc.is_alive():  # a hung thread is abandoned, still seated
            self.unseat(self._views[wid])

    def cancelled(self) -> bool:
        return False  # nobody else holds a run of the engine's own

    def teardown(self, cancelled: bool) -> None:
        policy = self._policy
        self.end_stream(self.processes.values(), cancelled, policy.poll_interval)
        deadline = time.monotonic() + policy.join_timeout
        for proc in [self.producer, *self.processes.values()]:
            while proc.is_alive() and time.monotonic() < deadline:
                # join() waits on the child's sentinel; the bounded slice
                # only re-drains, so a worker blocked on a full done channel
                # can finish its put and reach its token.
                self.done.drain()
                proc.join(policy.poll_interval)
            if proc.is_alive():
                proc.terminate()
            proc.join(policy.join_timeout)

    def halt(self) -> None:
        """Terminate and reap every child, unconditionally.  Cooperative
        shutdown is not enough here: with no consumer left a worker can be
        blocked mid-put (credit starvation polls forever), so the children
        are killed outright and joined."""
        procs = list(self.processes.values())
        if self.producer is not None:  # a start that failed before phase A
            procs.append(self.producer)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(self._policy.join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(self._policy.join_timeout)

    def close(self) -> None:
        # In the creating process this also unlinks an shm ring.
        self.work.close()
        self.done.close()
