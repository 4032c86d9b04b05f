"""Entry points for the pipeline stages.

Phase A runs in one producer and phase B in N replicated workers; phase C
(:mod:`repro.exec.committer`) stays in the engine's own process so commits
can touch the authoritative store and the user's accumulator without
cross-process state.  Who starts these functions, and as what, is the
runtime's business (:mod:`repro.exec.runtime`): :func:`producer_main` is a
forked process or a thread, :func:`worker_main` the whole life of a forked
worker or one lease of a pool worker
(:func:`repro.service.pool.pool_worker_main`).  It is the same code either
way.

Message protocol (all on the ``done`` channel, tagged tuples) — a chunk
costs two messages, whatever its size, and each carries its chunk as
columns, one entry per item, so nothing in it is built, pickled or
read per item but the items' own numbers and results:

``("claims", wid, ids, a_seconds)``
    A worker announces the chunk it dequeued **before** executing any of
    it: the iterations it now owns and their phase-A times, and no values.
    A task lost to a crash, hang, or soft fault is re-executed serially by
    the committer, which gets the phase-A value back by replaying phase A
    on its own copy of ``produce`` — in order, each iteration at most once
    per run, and only on that loss (or conflict) path
    (:class:`repro.exec.committer.PhaseAReplay`).  So a chunk's values
    cross the wire once, to the worker, never back.
``("results", wid, ids, values, rw, b_seconds)``
    The speculative outcomes of the tasks finished since the worker's last
    report, in execution order: each task's result and phase-B time, and
    for a speculative spec its ``(reads, writes)`` pair — read-set
    versions and buffered writes for commit-time validation.  ``rw`` is
    None for a non-speculative spec.
``("fault", wid, i, message)``
    A soft fault: the task raised; the worker survives and the committer
    re-executes the claimed task serially.
``("released", wid, [i, ...])``
    A worker about to die from an injected crash handed these claimed
    chunk-mates back to the ``work`` channel: whoever claims them next
    owns them.  Sent before the exit, so the committer reads it before it
    sees the worker dead (:meth:`ExecutionEngine._check_health` drains
    ``done`` first) and does not retry them serially behind the next
    claimant's back — a replayed fault seed takes one path every time.
    Only when every live worker is parked on the throttle gate, so none
    will read the hand-back, are they retried serially
    (:meth:`repro.exec.committer.Committer.strand_check`).
``("stopped", wid)``
    Clean worker exit.

End of stream travels the other way, on the ``work`` channel: once the
last iteration has committed (or the run is cancelled) the committer puts
one ``STOP`` per live worker, and a worker that reads one says
``stopped`` and leaves.  The shutdown event, checked whenever a bounded
wait (``_IDLE_POLL``) expires, is the backstop for a token that never
comes — a crashed committer, a SIGKILLed parent, the degrade/halt paths.

Every wire delivers one sender's messages in the order they were sent, so
a chunk's claims are visible before any of its results or faults.

**Chunked dispatch (the fast path).**  The producer accumulates iterations
into *chunks* and dispatches each chunk as one frame, sized by
:func:`chunk_target`: 1 at first so the pipeline fills and workers ramp
immediately, doubling per dispatch toward ``max_chunk`` for steady-state
amortization, and tapering again once less than two full chunks per
worker remain, so the workers finish together.  A worker sends a chunk's
claims and *flushes* before executing anything (crash recovery needs them
on the wire), executes the chunk's items in order, and reports: at chunk
end, before any wait that could block (throttle gate, ``done`` credit, an
empty ``work`` channel), and whenever its oldest unreported result is
``flush_interval`` old, so a slow item's chunk-mates commit without it.
At chunk end it first looks for the next chunk without blocking; if one
is waiting, that chunk's claims ride in the frame that carries the
results — one ``done`` frame per chunk instead of two.  A chunk executes
serially within its worker, so the committer exempts all but a worker's
oldest unresolved claim from the hung-task timeout.

Speculation throttling: the committer publishes its commit watermark and
the controller's current window in shared memory (:class:`ThrottleGate`);
a worker holding iteration ``i`` waits (after claiming, so the committer
knows whose it is) while ``i - watermark >= window``, and the
committer wakes the gate when the watermark has moved.  Finished results
are reported before the wait — gating must never hold back the very
commits that would open the window.
"""

from __future__ import annotations

import copy
import os
import time
from functools import partial
from typing import Any, Callable, Optional

from repro.exec.channels import ChannelTimeout, ProcessChannel, STOP, Wakeup
from repro.exec.faults import FaultPlan, InjectedFault, announce
from repro.exec.rollback import Snapshot, WriteBuffer
from repro.obs.clock import now_ns
from repro.obs.events import ChaosCode, EventKind, TraceConfig
from repro.obs.spool import open_tracer

#: How often an idle stage re-checks the shutdown event (seconds) — the
#: safety net for runs that end without an end-of-stream token.
_IDLE_POLL = 0.2


class HardExit(BaseException):
    """A fault injection's process death, expressed as control flow.

    Process-mode stages die with ``os._exit(code)``; thread-mode stages
    (the ``thread`` transport) cannot take the whole interpreter with
    them, so the engine injects a ``hard_exit`` that raises this instead —
    the thread handle catches it and records ``code`` as the exitcode,
    keeping the committer's crash accounting identical across transports.
    ``BaseException`` so no worker-side ``except Exception`` can swallow
    an injected death.
    """

    def __init__(self, code: int) -> None:
        super().__init__(f"hard exit with code {code}")
        self.code = code


def raise_hard_exit(code: int) -> None:
    """The thread-mode ``hard_exit``: unwind instead of killing the
    interpreter."""
    raise HardExit(code)


class ShutdownGuard:
    """The stages' shutdown event, plus parent-death detection — what
    every child process, the engine's own or a pool's, is given to watch.

    A parent killed with SIGKILL never sets the shutdown event (and a
    pool worker's control pipe never EOFs: its siblings inherited the
    other end at fork), so its children would idle (or spin on channel
    credit) forever — keeping shared-memory segments mapped and therefore
    leaked.  Exposing parent death through ``is_set()`` makes every
    existing cooperative exit check double as the orphan reaper: once the
    last mapper exits, the resource tracker unlinks the segments even for
    SIGKILLed runs.  Picklable (an event and a pid) so it rides the spawn
    args.
    """

    def __init__(self, shutdown, parent_pid: int) -> None:
        self._shutdown = shutdown
        self._parent = parent_pid

    def is_set(self) -> bool:
        return self._shutdown.is_set() or os.getppid() != self._parent


class ThrottleGate:
    """The speculative window as the stages share it: the committer's
    commit watermark, the controller's current window, and the wake a
    gated worker sleeps on.  Single writer (the committer), so the two
    cells are plain aligned stores with no lock to read through."""

    def __init__(self, ctx) -> None:
        self.watermark = ctx.RawValue("l", 0)
        self.window = ctx.RawValue("l", 0)
        self._opened = Wakeup(ctx)

    def seat(self) -> "ThrottleGate":
        """A view for one worker about to be spawned, with its own seat on
        the wake-up (see :class:`Wakeup`)."""
        view = copy.copy(self)
        view._opened = self._opened.seat()
        return view

    def unseat(self, view: "ThrottleGate") -> None:
        """Give back the seat of a worker that is gone."""
        self._opened.unseat(view._opened)

    def admits(self, i: int) -> bool:
        return i - self.watermark.value < self.window.value

    def wait(self, i: int, shutdown) -> None:
        """Block until iteration ``i`` is inside the window (or shutdown)."""
        self._opened.wait(lambda: self.admits(i) or shutdown.is_set())

    def wake(self) -> None:
        """For the committer, after it moved the watermark or the window
        — and for whoever sets ``shutdown``."""
        self._opened.wake()

    def reset(self, watermark: int, window: int) -> None:
        """Re-arm for another run; only legal while no worker waits."""
        self.watermark.value = watermark
        self.window.value = window
        self._opened.reset()


def _drain_flush(channel: ProcessChannel, shutdown) -> bool:
    """Blockingly flush everything pending; False when interrupted by
    shutdown (seen at once if the setter woke the channel, else when a
    bounded attempt expires)."""
    abort = shutdown.is_set if shutdown is not None else None
    while channel.pending_items:
        try:
            channel.flush(timeout=_IDLE_POLL, abort=abort)
        except ChannelTimeout:
            if shutdown is not None and shutdown.is_set():
                return False
    return True


def done_capacity(capacity: int, workers: int, batch_size: int) -> int:
    """Item credit of the ``done`` channel, in messages.  A chunk costs
    two — its claims and a results report — and can be as small as one
    item (the ramp, the taper, ``batch_size=1``), so the worst case is two
    per iteration in flight: everything the ``work`` channel holds plus a
    chunk in every worker.  One ``stopped`` per worker on top; the slack
    absorbs the extra reports of items slower than ``flush_interval`` and
    the odd fault.  Too small only ever means a worker waits for credit."""
    return 2 * (capacity + workers * batch_size) + workers + 8


def chunk_target(ramp: int, remaining: int, max_chunk: int, workers: int) -> int:
    """Items the producer puts in its next chunk: the doubling ``ramp``
    while the pipeline fills, ``max_chunk`` in steady state, and — guided
    self-scheduling — no more than half an even share of what ``remaining``
    once the end is near, so the last chunks are small enough to even out
    whatever imbalance the big ones left."""
    return max(1, min(max_chunk, ramp, -(-remaining // (2 * workers))))


def producer_main(
    work: ProcessChannel,
    iterations: int,
    produce: Callable[[int], Any],
    fault_plan: Optional[FaultPlan],
    shutdown,
    start: int = 0,
    max_chunk: int = 1,
    trace: Optional[TraceConfig] = None,
    registry=None,
    writer: int = 0,
    close_channel: bool = True,
    workers: int = 1,
    hard_exit: Callable[[int], None] = os._exit,
) -> None:
    """Phase A: run ``produce`` per iteration, dispatch chunks downstream
    (sized by :func:`chunk_target` for ``workers`` consumers).

    On resume (``start > 0``) every iteration is still *produced* — stateful
    producers must evolve deterministically — but only iterations at or past
    ``start`` are dispatched, and injections keyed below ``start`` are
    treated as already spent.

    ``registry``/``writer`` (live telemetry, may be None/unused): the
    ``produced`` counter advances once per *flushed* chunk — the same
    batch-amortized discipline as the channel's credit counters.

    ``close_channel=False`` skips the final ``flush_and_close`` — required
    when the channel outlives this producer (the worker-pool runtime runs
    phase A as a thread against a slot channel reused across jobs).
    """
    tracer = open_tracer(trace, "producer")
    work.tracer = tracer
    ramp = 1
    target = chunk_target(ramp, iterations - start, max_chunk, workers)
    staged = 0  # dispatched items not yet counted into the registry
    # The chunk's latency bound (the channel's flush_interval), checked
    # against the clock read that closed each item's produce.
    flush_interval_ns = int(work.flush_interval * 1e9)
    due_ns = 0

    def count_staged() -> None:
        nonlocal staged
        if registry is not None and staged:
            registry.add(writer, "produced", staged)
        staged = 0

    try:
        for i in range(iterations):
            if (
                fault_plan is not None
                and fault_plan.producer_crash_at == i
                and i >= start
            ):
                # Crash *before dispatching* iteration i: everything produced
                # so far must still reach the workers.
                _drain_flush(work, shutdown)
                work.flush_and_close()
                count_staged()
                announce(
                    ChaosCode.CRASH, i, "producer", tracer,
                    registry=registry, writer=writer, flush=True,
                )
                hard_exit(3)
            # One clock pair serves both the metrics (a_seconds) and the
            # trace span — tracing adds zero clock calls on this path.
            t0_ns = now_ns()
            value = produce(i)
            t1_ns = now_ns()
            elapsed = (t1_ns - t0_ns) * 1e-9
            if tracer is not None and i >= start:
                tracer.record(EventKind.TASK_A, t0_ns, t1_ns, arg=i)
            if i < start:
                continue
            pending = work.put_buffered((i, value, elapsed))
            staged += 1
            if staged == 1:
                due_ns = t1_ns + flush_interval_ns
            if pending >= target or t1_ns >= due_ns:
                if not _drain_flush(work, shutdown):
                    return
                count_staged()
                ramp = min(max_chunk, ramp * 2)
                target = chunk_target(
                    ramp, iterations - i - 1, max_chunk, workers
                )
        if not _drain_flush(work, shutdown):
            return
        count_staged()
        if close_channel:
            work.flush_and_close()
    finally:
        if tracer is not None:
            tracer.close()


def worker_main(
    worker_id: int,
    work: ProcessChannel,
    done: ProcessChannel,
    work_fn: Callable,
    speculative: bool,
    snapshot: Snapshot,
    fault_plan: Optional[FaultPlan],
    shutdown,
    gate: Optional[ThrottleGate] = None,
    max_chunk: int = 1,
    trace: Optional[TraceConfig] = None,
    registry=None,
    writer: int = 0,
    hard_exit: Callable[[int], None] = os._exit,
) -> None:
    """Phase B replica: claim a chunk, gate on the throttle window, execute
    speculatively, report in batched frames.

    ``registry``/``writer`` (live telemetry, may be None/unused): this
    worker's private counter row — ``claimed`` advances once per chunk,
    ``executed`` and the ``task_b_seconds`` histogram once per task.
    """
    tracer = open_tracer(trace, f"worker-{worker_id}")
    work.tracer = tracer
    done.tracer = tracer
    try:
        _worker_loop(
            worker_id, work, done, work_fn, speculative, snapshot,
            fault_plan, shutdown, gate, max_chunk, tracer,
            registry, writer, hard_exit,
        )
    finally:
        # A pool worker's channels outlive the lease; its spool does not.
        work.tracer = done.tracer = None
        if tracer is not None:
            tracer.close()


def _worker_loop(
    worker_id: int,
    work: ProcessChannel,
    done: ProcessChannel,
    work_fn: Callable,
    speculative: bool,
    snapshot: Snapshot,
    fault_plan: Optional[FaultPlan],
    shutdown,
    gate: Optional[ThrottleGate],
    max_chunk: int,
    tracer,
    registry=None,
    writer: int = 0,
    hard_exit: Callable[[int], None] = os._exit,
) -> None:
    # The tasks finished and not yet handed to the done channel, as the
    # columns of their ``results`` message (``result_rw`` only when
    # speculative).  A staged message keeps its lists: new ones replace them.
    result_ids: list = []
    result_values: list = []
    result_rw: Optional[list] = [] if speculative else None
    result_seconds: list = []
    chaos = partial(
        announce, where=f"worker {worker_id}", tracer=tracer,
        worker=worker_id, registry=registry, writer=writer,
    )
    #: when the oldest result or fault not yet sent was ready
    unsent_since_ns: Optional[int] = None
    flush_interval_ns = int(done.flush_interval * 1e9)
    # The throttle gate's two cells, read inline per item.
    watermark = window = None
    if gate is not None:
        watermark, window = gate.watermark, gate.window

    def stop() -> None:
        # Buffer (never blocks), then a bounded flush: the committer may
        # already be gone, and a goodbye must not wedge the exit.
        done.put_buffered(("stopped", worker_id))
        try:
            done.flush(timeout=1.0)
        except ChannelTimeout:
            pass

    def stage_results() -> None:
        nonlocal result_ids, result_values, result_rw, result_seconds
        if result_ids:
            done.put_buffered((
                "results", worker_id,
                result_ids, result_values, result_rw, result_seconds,
            ))
            result_ids, result_values, result_seconds = [], [], []
            if result_rw is not None:
                result_rw = []

    def report(claims: Optional[tuple] = None) -> bool:
        """Everything this worker holds goes out — finished results, then
        ``claims``, the ``(ids, a_seconds)`` columns of the chunk it is
        about to start; False on shutdown."""
        nonlocal unsent_since_ns
        stage_results()
        if claims is not None:
            done.put_buffered(("claims", worker_id, *claims))
        unsent_since_ns = None
        return _drain_flush(done, shutdown)

    while True:
        # Chunk end.  A chunk already waiting is claimed in the frame that
        # carries the last one's results; otherwise the results go first,
        # alone — nothing may sit here through a blocking read.
        items = None
        try:
            if result_ids or done.pending_items:
                try:
                    items = work.get_many(max_chunk, timeout=0)
                except ChannelTimeout:
                    pass
            if items is None:
                report()
                items = work.get_many(max_chunk, timeout=_IDLE_POLL)
        except ChannelTimeout:
            if shutdown.is_set():
                stop()
                return
            continue
        except (EOFError, OSError):
            # The producer's end of the channel is gone; the engine will
            # finish sequentially.
            return
        if items[0] == STOP:
            report()
            stop()
            return

        # Claim the whole chunk up front and *flush*: once the committer
        # knows whose the items are, any item this process loses to a
        # crash, hang, or soft fault can be re-executed serially.
        # (The chunk's values stay referenced from ``items`` alone, which
        # lets them go before the next blocking read: a chunk of large
        # values held across it costs the next chunk fresh pages.)
        if not report(claims=(
            [item[0] for item in items], [item[2] for item in items]
        )):
            return  # shutdown mid-claim: nothing executed, nothing lost
        if registry is not None:
            registry.add(writer, "claimed", len(items))

        for i, value, _ in items:
            # Throttle gate: hold execution until iteration i enters the
            # speculative window (ThrottleGate.admits, inline).  Report
            # first — finished results feed the very commits that advance
            # the watermark.
            if watermark is not None and i - watermark.value >= window.value:
                gate_t0 = now_ns()
                report()
                gate.wait(i, shutdown)
                if tracer is not None:
                    tracer.span(
                        EventKind.GATE_WAIT, gate_t0, now_ns(),
                        arg=i, arg2=worker_id,
                    )

            if fault_plan is not None:
                # Begin marker *before* the injection checks: a task this
                # process never finishes (crash, hang-then-kill) leaves an
                # unmatched begin that the merger recovers as an aborted
                # span.  Written only under an active fault plan — the one
                # regime where a process deliberately dies mid-task *and
                # flushes first*, so the marker can actually reach disk.  A
                # real crash loses the write buffer regardless, and
                # unconditional begins would double the worker's record
                # volume for insurance the buffer cannot honor.
                if tracer is not None:
                    tracer.instant(
                        EventKind.TASK_B_BEGIN, arg=i, arg2=worker_id
                    )
                if i in fault_plan.crash_iterations:
                    # A hard crash: no exception, no goodbye — only the exit
                    # code.  Hand the chunk-mates this process never reached
                    # back to the work channel so a live worker (with its
                    # per-iteration injections) picks them up, and tell the
                    # committer which ones went, so it waits for their next
                    # claimant instead of racing it with a serial retry.
                    # Those the hand-back could not send stay claimed here:
                    # the crash sends them to serial retry.
                    rest = [item for item in items if item[0] > i]
                    if rest:
                        work.chaos = None  # injections already applied
                        try:
                            # on the wire once this returns: exiting right
                            # after loses nothing
                            work.put_many(rest, timeout=0.5)
                        except ChannelTimeout:
                            pass
                        sent = len(rest) - work.pending_items
                        if sent:
                            done.put_buffered((
                                "released", worker_id,
                                [item[0] for item in rest[:sent]],
                            ))
                    stage_results()
                    done.flush_and_close()
                    chaos(ChaosCode.CRASH, i, flush=True)
                    hard_exit(1)
                if i in fault_plan.hang_iterations:
                    # A hung worker is killed, not asked: flush now so the
                    # injection survives the SIGTERM.
                    chaos(ChaosCode.HANG, i, flush=True)
                    time.sleep(fault_plan.hang_seconds)

            t0_ns = now_ns()
            try:
                if fault_plan is not None and (
                    i in fault_plan.error_iterations
                    or (i in fault_plan.conflict_iterations and not speculative)
                ):
                    # Forced conflicts degenerate to soft faults when there
                    # is no read set to poison: the serial-retry path still
                    # runs.
                    chaos(ChaosCode.SOFT_FAULT, i)
                    raise InjectedFault(f"injected fault at iteration {i}")
                if speculative:
                    buffer = WriteBuffer(snapshot)
                    result = work_fn(i, value, buffer)
                else:
                    result = work_fn(i, value)
            except Exception as error:
                # The task ran (and raised): record its span so the open
                # begin marker is matched — aborted spans mean the *process*
                # died mid-task, not that the task faulted.
                if tracer is not None:
                    tracer.record(
                        EventKind.TASK_B, t0_ns, now_ns(),
                        arg=i, arg2=worker_id,
                    )
                stage_results()  # they finished first
                done.put_buffered(("fault", worker_id, i, repr(error)))
                if unsent_since_ns is None:
                    unsent_since_ns = now_ns()
                continue
            # Same clock pair for b_seconds and the span (see producer).
            t1_ns = now_ns()
            elapsed = (t1_ns - t0_ns) * 1e-9
            if registry is not None:
                registry.add(writer, "executed")
                registry.observe(writer, "task_b_seconds", elapsed)
            if tracer is not None:
                tracer.record(
                    EventKind.TASK_B, t0_ns, t1_ns, arg=i, arg2=worker_id
                )

            if fault_plan is not None:
                if i in fault_plan.conflict_iterations and speculative:
                    # Forced misspeculation: report a read of a version that
                    # can never validate, so the committer must roll back
                    # and re-execute serially.
                    chaos(ChaosCode.FORCED_CONFLICT, i)
                    buffer.reads[("__chaos__", i)] = 0
                if i in fault_plan.latency_iterations:
                    chaos(ChaosCode.RESULT_LATENCY, i)
                    time.sleep(fault_plan.latency_seconds)
                if i in fault_plan.drop_result_iterations:
                    chaos(ChaosCode.RESULT_DROP, i)
                    continue  # the result message is lost on the wire
            result_ids.append(i)
            result_values.append(result)
            result_seconds.append(elapsed)
            if result_rw is not None:
                result_rw.append((buffer.reads, buffer.writes))
            if (
                fault_plan is not None
                and i in fault_plan.duplicate_result_iterations
            ):
                chaos(ChaosCode.RESULT_DUPLICATE, i)
                result_ids.append(i)
                result_values.append(result)
                result_seconds.append(elapsed)
                if result_rw is not None:
                    result_rw.append(result_rw[-1])
            # The clock read that closed the task also times the report:
            # a result waits for its chunk-mates at most flush_interval.
            if unsent_since_ns is None:
                unsent_since_ns = t1_ns
            elif t1_ns - unsent_since_ns >= flush_interval_ns and not report():
                return  # orphaned: nobody is left to read results
