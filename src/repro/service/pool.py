"""The shared worker pool: long-lived phase-B processes leased across jobs.

Fork-per-job pays a process spawn, a channel allocation, and a shared-memory
mapping for every pipeline run — fine for one run, ruinous for a job server.
This pool amortizes all of it: a fixed set of worker processes is spawned
once, every process inherits every *slot* (one slot = one
:class:`repro.exec.runtime.StageSet`: the channel pair, shutdown event,
throttle gate, and metrics registry for one concurrent job), and a job
*leases* workers into a slot instead of forking.

The split matters because of multiprocessing's inheritance rule: shared
primitives (queues, ``Value``/``RawArray``, events) can only reach a child
through its spawn-time arguments, never over a pipe afterwards.  So the
shareable skeleton of every future job must exist *before* the first worker
starts — hence slots — while the job-specific, plain-picklable payload
(work function, state snapshot, fault plan) travels over each worker's
control pipe at lease time.

:class:`LeaseRuntime` is the second of the engine's two runtimes
(:class:`repro.exec.runtime.Runtime`; the other forks a process tree per
run): the engine runs its one commit loop against the slot's channels, and
process lifecycle (respawn, teardown, halt, cancellation) is answered here.
A leased worker runs the engine's own :func:`repro.exec.workers.worker_main`
once per lease; phase A runs as a *thread* in the server process
(:class:`repro.exec.runtime.ThreadStage`) — the producer is cheap,
sequential, and stateful, and a thread spares a fork per job.  Consequence:
fault plans with ``producer_crash_at`` are rejected (the injected crash
closes its end of a channel that has to outlive the job).

Between leases a slot is scrubbed: channels are drained, local buffers and
the shared credit counters are reset, and the
registry is zeroed so each job's watchdog sees counters that start at zero.
Workers that died mid-job (chaos, hung-task kills) are retired at release —
their seats on every slot's channels and wake-ups given back — and the pool
respawns replacements to hold its configured size.  A job's phase A gives
its counter seat back when the slot is next claimed, its thread gone.

One staleness caveat, by design: a worker respawned *mid-job* is leased the
job's initial state snapshot, not the committed prefix (the prefix lives in
the committer and can be large).  Speculative tasks it runs may therefore
conflict more often — commit-time validation catches every such case and
the serial re-execution path preserves exactness.
"""

from __future__ import annotations

import copy
import logging
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import wait as wait_ready
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.channels import ProcessChannel
from repro.exec.faults import RobustnessPolicy
from repro.exec.runtime import StageSet, ThreadStage
from repro.exec.workers import (
    ShutdownGuard,
    producer_main,
    raise_hard_exit,
    worker_main,
)
from repro.obs.events import TraceConfig
from repro.obs.registry import WRITER_PRODUCER, WRITER_WORKER0
from repro.workloads.suite import LOAD_LOCK

logger = logging.getLogger(__name__)

#: How often an idle pool worker re-checks its control pipe / the pool
#: shutdown event (seconds).
_CONTROL_POLL = 0.2


def pool_worker_main(
    worker_id: int, control, slots: Tuple[StageSet, ...], pool_shutdown,
    row: int,
) -> None:
    """A pool worker's whole life: idle on the control pipe, run one lease
    at a time through the engine's own :func:`worker_main`, release, idle.

    ``slots`` are this worker's own views of every slot; ``row`` is its
    registry writer row — fixed at spawn, valid in every slot's registry
    (all are sized for the pool's row budget).
    """
    parent = os.getppid()
    while not pool_shutdown.is_set():
        if os.getppid() != parent:
            return  # orphaned: the server died without a goodbye
        if not control.poll(_CONTROL_POLL):
            continue
        try:
            message = control.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        if message[0] != "lease":
            continue
        (_, slot_index, work_fn, speculative, snapshot, fault_plan,
         max_chunk, trace) = message
        slot = slots[slot_index]
        # A previous lease of this slot may have left stale frames in this
        # process's local buffers (a flush that timed out at teardown);
        # they must never leak into this job's stream.
        slot.work.reset_local()
        slot.done.reset_local()
        try:
            # Per-lease tracing: the job's spool directory arrives as plain
            # picklable data in the lease message (the slot skeleton cannot
            # carry it — it predates every job), and the spool lives exactly
            # as long as the lease.  Role is the *pool* worker id, so a trace
            # names the same process across every job it serves.
            worker_main(
                worker_id, slot.work, slot.done, work_fn, speculative,
                snapshot, fault_plan, ShutdownGuard(slot.shutdown, parent),
                slot.gate, max_chunk, trace, slot.registry,
                min(row, slot.registry.writers - 1),
            )
        except (EOFError, OSError):
            pass
        try:
            control.send(("released", worker_id, slot_index))
        except (BrokenPipeError, OSError):
            return


class _PoolWorker:
    """Parent-side record of one pool worker process."""

    def __init__(
        self, wid: int, process, conn, row_index: int,
        views: Tuple[StageSet, ...],
    ) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        self.row_index = row_index
        #: Its view of every slot, kept to give the seats back at retirement.
        self.views = views
        self.leased_to: Optional["LeaseRuntime"] = None


class LeaseRuntime(StageSet):
    """One job's claim on a slot plus some pool workers — the
    :class:`repro.exec.runtime.Runtime` the engine's ``runtime=`` parameter
    takes in a job server.  It *is* the slot, as the one job that leased it
    sees it: the same channels, gate, event and registry, plus a roster."""

    def __init__(
        self, pool: "WorkerPool", index: int, members: List[_PoolWorker]
    ) -> None:
        self.__dict__.update(vars(pool._slots[index]))  # shared, not copied
        self.index = index
        self._pool = pool
        self._members: Dict[int, _PoolWorker] = {w.wid: w for w in members}
        self._cancel = threading.Event()
        self._job: tuple = ()
        self.producer: Optional[ThreadStage] = None
        #: Phase A's view of ``work``; its seat goes back to the slot once
        #: the thread is gone (:meth:`WorkerPool._claim_slot`).
        self.producer_view: Optional[ProcessChannel] = None
        #: Members holding this job's lease message (none before ``start``),
        #: less the ones reaped.
        self.processes: Dict[int, Any] = {}
        #: Per-tenant persistent speculation controller, set by the service
        #: before the engine is constructed (None = unthrottled).
        self.job_throttle: Any = None
        #: Per-job spool configuration, set by the service before the
        #: engine is constructed (None = untraced, the default).  Plain
        #: picklable data: it rides the lease message to every member.
        self.trace_config: Optional[TraceConfig] = None
        self.released = False

    # -- the engine's Runtime ----------------------------------------------------

    def start(self, spec, store, start, batch_size, fault_plan) -> None:
        if fault_plan is not None and fault_plan.producer_crash_at is not None:
            raise ValueError(
                "pool mode runs phase A as a thread on a channel that "
                "outlives the job; producer_crash_at would close it"
            )
        self._job = (
            spec.work, spec.speculative, store.snapshot(), fault_plan,
            batch_size, self.trace_config,
        )
        for worker in self._members.values():
            self._send_lease(worker)
        # Phase A gets buffers, a counter seat (and a tracer slot) of its
        # own but waits on the slot's own bell: the members were forked
        # before this job existed, and ring only the bells that existed
        # then.  It runs a copy of ``produce``: the spec's own is the
        # committer's, for replaying the values of re-executed tasks.
        self.producer_view = self.work.for_caller()
        self.producer = ThreadStage(
            producer_main,
            (self.producer_view, spec.iterations,
             copy.deepcopy(spec.produce), fault_plan,
             self.shutdown, start, batch_size, self.trace_config,
             self.registry, WRITER_PRODUCER, False, len(self._members),
             raise_hard_exit),
            name="pool-A",
        )
        self.producer.start()

    def _send_lease(self, worker: _PoolWorker) -> None:
        # Drop any stale "released" a prior lease's teardown never consumed
        # so this lease's teardown cannot mistake it for its own.
        try:
            while worker.conn.poll(0):
                worker.conn.recv()
        except (EOFError, OSError):
            pass
        worker.conn.send(("lease", self.index, *self._job))
        self.processes[worker.wid] = worker.process

    def spawn_worker(self) -> int:
        """A replacement for a worker that died mid-job: spawn fresh, lease
        immediately with the job's *initial* snapshot (see the module
        docstring's staleness note)."""
        with self._pool._lock:
            worker = self._pool._spawn_worker()
            worker.leased_to = self
            self._members[worker.wid] = worker
            self._send_lease(worker)
        return worker.wid

    def reap(self, wid: int) -> None:
        # The pool retires the casualty (and gives its seats back) at release.
        proc = self.processes.pop(wid)
        if proc.is_alive():
            proc.terminate()
        proc.join(self._pool.policy.join_timeout)

    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def teardown(self, cancelled: bool) -> None:
        """Cooperative end-of-job: one end-of-stream token per live member
        goes on ``work``, then this only waits for their releases —
        ``work`` is left alone (draining it would eat the tokens).  Pool
        workers flush, send their release, and go idle — they are not
        joined or killed; stragglers (a cancelled job's long task) are
        terminated and replaced at release time."""
        policy = self._pool.policy
        self.end_stream(self.processes.values(), cancelled, policy.poll_interval)
        deadline = time.monotonic() + max(policy.join_timeout, 1.0)
        self.producer.join(max(0.0, deadline - time.monotonic()))
        self._await_released(deadline, drain_work=False)

    def halt(self) -> None:
        """Emergency stop (degradation, committer crash, a poison job's
        commit raising, a start that failed half-way).  Cooperative first:
        shutdown is set and the members holding the job's lease get the
        join window to leave ``worker_main`` on their own.
        Terminating a worker that is blocked inside a channel ``get``
        would orphan the wire's shared read lock and wedge the slot for
        every later lease (each subsequent job stalls at commit frontier
        zero until its watchdog degrades it to sequential) — so only
        members that fail to exit in time are terminated.
        """
        self.signal_shutdown()
        deadline = time.monotonic() + max(self._pool.policy.join_timeout, 1.0)
        self._await_released(deadline, drain_work=True)
        if self.producer is not None:
            self.producer.join(max(0.1, deadline - time.monotonic()))
        self.done.drain()
        self.work.drain()

    def _await_released(self, deadline: float, drain_work: bool) -> None:
        """Wait on the control pipes for the "released" of every live
        member on the job (one never sent its lease has nothing to
        release); terminate whoever misses the deadline.  The bounded wait
        slice only re-drains the slot so no member wedges on a full pipe;
        ``drain_work`` (halt only) also starves members of work."""
        pending = {
            wid: self._members[wid]
            for wid, process in self.processes.items()
            if process.is_alive()
        }
        while pending and time.monotonic() < deadline:
            self.done.drain()
            if drain_work:
                self.work.drain()
            wait_ready(
                [w.conn for w in pending.values()],
                timeout=self._pool.policy.poll_interval,
            )
            for wid, worker in list(pending.items()):
                try:
                    while worker.conn.poll(0):
                        message = worker.conn.recv()
                        if message[0] == "released":
                            pending.pop(wid, None)
                            break
                except (EOFError, OSError):
                    pending.pop(wid, None)
        for worker in pending.values():
            logger.warning(
                "pool worker %d did not release slot %d in time; "
                "terminating", worker.wid, self.index,
            )
            worker.process.terminate()
            worker.process.join(1.0)

    def close(self) -> None:
        pass  # the slot outlives the job; WorkerPool.release scrubs it

    # -- service API --------------------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation; the committer loop observes it
        at its next poll and takes the normal teardown path."""
        self._cancel.set()

    @property
    def worker_ids(self) -> List[int]:
        return sorted(self._members)

    @property
    def worker_pids(self) -> List[int]:
        return sorted(
            w.process.pid for w in self._members.values()
            if w.process.pid is not None
        )


class WorkerPool:
    """A fixed-size pool of reusable phase-B processes with ``slots``
    concurrent job lanes.

    Thread-safe: the service's scheduler and several job-runner threads
    call in concurrently.  ``try_lease``/``release`` are the lifecycle;
    :class:`LeaseRuntime` handles everything mid-job.
    """

    def __init__(
        self,
        workers: int = 2,
        slots: int = 2,
        capacity: int = 16,
        batch_size: int = 8,
        policy: Optional[RobustnessPolicy] = None,
        start_method: Optional[str] = None,
        flush_interval: float = 0.005,
        transport: str = "pipe",
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one pool worker")
        if slots < 1:
            raise ValueError("need at least one slot")
        if transport not in ("pipe", "shm"):
            # Pool workers are separate processes by definition; the
            # in-process thread transport cannot reach them.
            raise ValueError(
                f"pool transport must be 'pipe' or 'shm', not {transport!r}"
            )
        self.policy = policy or RobustnessPolicy()
        self.capacity = capacity
        self.batch_size = min(batch_size, capacity)
        self.flush_interval = flush_interval
        self.transport = transport
        self.size = workers
        self._ctx = multiprocessing.get_context(start_method or None)
        # Registry rows every slot must be able to seat: the whole pool
        # plus every replacement the respawn budget could ever create.
        self._row_budget = workers + self.policy.max_respawns * slots + 2
        writer_rows = WRITER_WORKER0 + self._row_budget
        self._slots: List[StageSet] = [
            StageSet(self._ctx, capacity, workers, self.batch_size,
                     flush_interval, transport, writer_rows)
            for _ in range(slots)
        ]
        self._free_slots: List[int] = list(range(slots))
        #: Each slot's previous lease, whose phase A may still be unwinding.
        self._slot_leases: Dict[int, LeaseRuntime] = {}
        self._pool_shutdown = self._ctx.Event()
        self._workers: Dict[int, _PoolWorker] = {}
        self._free_rows = set(range(self._row_budget))
        self._next_wid = 0
        self._lock = threading.RLock()
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._lock:
            if self._started:
                return self
            for _ in range(self.size):
                self._spawn_worker()
            self._started = True
        return self

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop every worker and close the slot channels.  Idempotent."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            self._pool_shutdown.set()
            for slot in self._slots:
                slot.signal_shutdown()
            for worker in self._workers.values():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + join_timeout
            for worker in self._workers.values():
                worker.process.join(max(0.0, deadline - time.monotonic()))
            for worker in self._workers.values():
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(1.0)
                try:
                    worker.conn.close()
                except OSError:
                    pass
            self._workers.clear()
            for slot in self._slots:
                slot.work.close()
                slot.done.close()

    # -- leasing ------------------------------------------------------------------

    def can_lease(self) -> bool:
        with self._lock:
            if not self._started or not self._free_slots:
                return False
            return any(
                w.leased_to is None and w.process.is_alive()
                for w in self._workers.values()
            )

    def try_lease(self, workers: Optional[int] = None) -> Optional[LeaseRuntime]:
        """Claim a free slot and up to ``workers`` idle pool workers for one
        job; None when no slot or no idle worker is available (not an
        error — the scheduler retries)."""
        with self._lock:
            if not self._started:
                raise RuntimeError("pool is not started")
            self._maintain_size()
            idle = [
                w for w in self._workers.values()
                if w.leased_to is None and w.process.is_alive()
            ]
            if not idle:
                return None
            index = self._claim_slot()
            if index is None:
                return None
            count = len(idle) if workers is None else max(
                1, min(workers, len(idle))
            )
            members = idle[:count]
            lease = LeaseRuntime(self, index, members)
            for worker in members:
                worker.leased_to = lease
            return lease

    def release(self, lease: LeaseRuntime) -> None:
        """Return a finished lease's workers and slot to the pool.

        Scrubs the slot for reuse: joins the producer thread, drains what
        the channels still hold, zeroes counters
        and the registry, retires dead members, and tops the pool back up
        to its configured size.  Every counter is a single-writer cell, so
        a member killed mid-update leaves nothing that could wedge the
        reset.
        """
        with self._lock:
            if lease.released:
                return
            lease.released = True
            slot = self._slots[lease.index]
            producer = lease.producer
            if producer is not None:
                producer.join(0.5)
            self._settle_channel(slot.work)
            self._settle_channel(slot.done)
            for wid, worker in lease._members.items():
                if self._workers.get(wid) is not worker:
                    continue
                if worker.process.is_alive():
                    worker.leased_to = None
                else:
                    self._retire(worker)
            self._maintain_size()
            self._slot_leases[lease.index] = lease
            slot.work.reset_counters()
            slot.done.reset_counters()
            slot.registry.reset()
            self._free_slots.append(lease.index)

    def _settle_channel(self, channel: ProcessChannel) -> None:
        """Empty ``channel`` for the next lease.  Every writer has released
        or been terminated, and a frame is on the wire when its ``send``
        returns, so one drain sees everything there is.  Counters still
        apart afterwards mean a writer died between taking credit and
        finishing its frame; the reset that follows squares them."""
        channel.drain()
        if channel.produces > channel.consumes:
            logger.warning(
                "slot channel %r: %d items credited but never delivered "
                "(a writer was killed mid-send)", channel.name,
                channel.produces - channel.consumes,
            )
        channel.reset_local()

    # -- roster management ---------------------------------------------------------

    def _spawn_worker(self) -> _PoolWorker:
        wid = self._next_wid
        self._next_wid += 1
        row_index = (
            min(self._free_rows) if self._free_rows else self._row_budget - 1
        )
        self._free_rows.discard(row_index)
        parent_conn, child_conn = self._ctx.Pipe()
        views = tuple(slot.for_stage() for slot in self._slots)
        process = self._ctx.Process(
            target=pool_worker_main,
            args=(wid, child_conn, views,
                  self._pool_shutdown, WRITER_WORKER0 + row_index),
            name=f"pool-B{wid}",
            daemon=True,
        )
        # A worker imports an analog's module when it unpickles that
        # analog's first lease; never fork one half-imported.
        with LOAD_LOCK:
            process.start()
        child_conn.close()
        worker = _PoolWorker(wid, process, parent_conn, row_index, views)
        self._workers[wid] = worker
        return worker

    def _retire(self, worker: _PoolWorker) -> None:
        worker.process.join(0)
        self._free_rows.add(worker.row_index)
        for slot, view in zip(self._slots, worker.views):
            slot.unseat(view)
        try:
            worker.conn.close()
        except OSError:
            pass
        self._workers.pop(worker.wid, None)

    def _maintain_size(self) -> None:
        """Retire dead idle workers and top back up to the configured size."""
        for worker in list(self._workers.values()):
            if worker.leased_to is None and not worker.process.is_alive():
                self._retire(worker)
        alive = sum(
            1 for w in self._workers.values() if w.process.is_alive()
        )
        for _ in range(max(0, self.size - alive)):
            self._spawn_worker()

    def _claim_slot(self) -> Optional[int]:
        """Pop (the index of) a free slot whose previous producer thread
        has exited, give back that thread's counter seat, and arm the slot
        for the next job."""
        for position, index in enumerate(self._free_slots):
            slot = self._slots[index]
            previous = self._slot_leases.get(index)
            if previous is not None and previous.producer_view is not None:
                if previous.producer.is_alive():
                    continue  # stale phase-A thread still unwinding; skip
                slot.work.unseat(previous.producer_view)
            self._slot_leases.pop(index, None)
            self._free_slots.pop(position)
            slot.work.reset_local()
            slot.done.reset_local()
            slot.shutdown.clear()
            return index  # the engine re-arms the slot's gate for its run
        return None

    # -- introspection -------------------------------------------------------------

    def worker_pids(self) -> Dict[int, int]:
        with self._lock:
            return {
                wid: w.process.pid
                for wid, w in self._workers.items()
                if w.process.is_alive()
            }

    def stats(self) -> dict:
        with self._lock:
            alive = [
                w for w in self._workers.values() if w.process.is_alive()
            ]
            return {
                "size": self.size,
                "transport": self.transport,
                "pids": sorted(w.process.pid for w in alive),
                "alive": len(alive),
                "idle": sum(1 for w in alive if w.leased_to is None),
                "leased": sum(1 for w in alive if w.leased_to is not None),
                "slots": len(self._slots),
                "slots_free": len(self._free_slots),
                "spawned_total": self._next_wid,
            }
