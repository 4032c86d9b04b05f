"""Phase C as a state machine: the in-order committer, with no process in it.

The paper's whole contract lives here: every iteration commits exactly
once, in iteration order, so the parallel run is observationally the
sequential one.  A :class:`Committer` is fed the workers' reports (the
``done`` channel's messages, see :mod:`repro.exec.workers`) and told when to
advance; it validates, applies, re-executes and commits, and *says* what it
needs from the outside — which claims are overdue, which worker's work to
take back — through return values.  It never touches a process handle, a
channel, an event or ``sleep``, and reads no clock but the ``now_ns`` pair
around the commit callback and a serial re-execution (the latency samples);
every other instant is the caller's.  So it runs the same under the engine's
loop (:class:`repro.exec.engine.ExecutionEngine`), behind either runtime,
and in a test that hands it reports by hand.

The reports carry no phase-A values (a claim is an iteration and its
``a_seconds``), so the value of a task re-executed here — lost to a crash,
hang or soft fault, or misspeculated — is replayed here too, by one
:class:`PhaseAReplay` cursor per run: at most one extra phase-A pass per
run, on the loss and conflict path only.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Collection, Dict, List, Set, Tuple

from repro.exec.metrics import EngineMetrics
from repro.exec.rollback import CommittedStore, WriteBuffer
from repro.obs.clock import now_ns
from repro.obs.events import EventKind
from repro.obs.registry import WRITER_COMMITTER

logger = logging.getLogger(__name__)

#: A reorder-buffer miss: a task's result may itself be None.
_MISSING = object()


class PhaseAReplay:
    """Phase A run a second time, in the committer, for the values of the
    tasks it re-executes — a worker's claims name iterations and carry no
    value, so this is the only way back to one.

    One cursor per run over the committer's own copy of ``produce`` (the
    spec's; a phase A running as a thread of this process is handed a copy
    of its own): ``produce(0), produce(1), …`` in order, each at most once,
    which is what a stateful phase A needs to give the values the producer
    gave — workload determinism.  Re-execution only ever happens at the
    commit frontier, and the frontier only moves forward, so the cursor is
    asked for growing iterations and holds no value: those it steps over
    are committed.  Cost: none on a run that loses no task and has no
    conflict; otherwise at most ``iterations`` calls of ``produce`` in the
    whole run, however many tasks are re-executed.
    """

    def __init__(self, produce: Callable[[int], Any]) -> None:
        self._produce = produce
        #: the next iteration ``produce`` will be called for
        self.position = 0

    def value(self, i: int) -> Any:
        if i < self.position:
            raise RuntimeError(
                f"phase A was already replayed past iteration {i}"
            )
        produce = self._produce
        for skipped in range(self.position, i):
            produce(skipped)  # committed: only its state evolution counts
        self.position = i + 1
        return produce(i)


class Committer:
    """The reorder buffer, the commit frontier and everything decided there.

    ``store`` and ``accumulator`` are the authoritative state commits land
    in; ``watermark`` / ``window`` are the throttle gate's two cells
    (anything with a ``value``), written here and read by the workers;
    ``throttle``, ``manager`` (checkpoints), ``registry`` and ``tracer`` are
    optional collaborators.  ``metrics`` is the run's record, updated in
    place.

    State, all keyed by iteration: ``claims`` holds, per claimed and
    uncommitted iteration, a record ``[claimant, claim clock (hung-task
    timeout), first arrival (ns)]``; the claimant is None while a crashed
    worker's hand-back waits on the ``work`` channel for its next claim.
    Every item of a claims report shares one record, so a record is never
    changed in place: a re-claim, a hand-back or a clock refresh gives the
    item a record of its own (refreshing a queued chunk-mate's clock in
    the shared record would restart the running item's too).
    ``pending`` is the reorder buffer: per finished, uncommitted
    iteration, its result as the worker sent it — with its ``(reads,
    writes)`` pair, as ``(result, (reads, writes))``, when the spec is
    speculative.  ``serial_needed`` are the tasks owed a serial retry.
    ``next_commit`` is the frontier.  ``replay`` is where a re-executed
    task's phase-A value comes from (:class:`PhaseAReplay`): the claims
    name iterations, they carry no values.
    """

    def __init__(
        self,
        spec,
        store: CommittedStore,
        accumulator: Any,
        start: int,
        metrics: EngineMetrics,
        watermark,
        window,
        throttle=None,
        manager=None,
        registry=None,
        tracer=None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.accumulator = accumulator
        self.metrics = metrics
        self.throttle = throttle
        self.manager = manager
        self.registry = registry
        self.tracer = tracer
        self._watermark = watermark
        self._window = window
        self.next_commit = start
        self.claims: Dict[int, list] = {}
        self.pending: Dict[int, Any] = {}
        self.serial_needed: Set[int] = set()
        self.replay = PhaseAReplay(spec.produce)
        # Per-item latency samples collect in plain lists, a list append
        # per sample on the commit path.  ``hand_over_samples`` makes each
        # list the histogram's own, as it is: aggregates are derived when
        # somebody reads them, never after the last commit.
        self.samples: Dict[str, List[float]] = {
            "task_a": [], "task_b": [], "task_c": [], "commit_lag": [],
        }

    def hand_over_samples(self) -> None:
        for series, values in self.samples.items():
            self.metrics.adopt_samples(series, values)

    # -- reports in ---------------------------------------------------------------

    def report(self, message: tuple, now: float, arrived_ns: int) -> None:
        """One report from a worker: a chunk's claims, or the results
        finished since its last report.  ``now`` starts the claim clocks
        (the caller's clock, compared only with the ``now`` it later hands
        :meth:`overdue`); ``arrived_ns`` is the report's arrival on the
        ``now_ns`` axis — one timestamp serves commit-lag accounting and
        the CLAIM trace records of every item in it."""
        tag = message[0]
        if tag == "results":
            self._results(*message[1:])
        elif tag == "claims":
            self._claims(message[1], message[2], message[3], now, arrived_ns)
        elif tag == "fault":
            _, wid, i, fault_message = message
            self.metrics.soft_faults += 1
            if self.registry is not None:
                self.registry.add(WRITER_COMMITTER, "soft_faults")
            logger.warning(
                "worker %d reported soft fault on iteration %d: %s",
                wid, i, fault_message,
            )
            if self.tracer is not None:
                self.tracer.instant(EventKind.SOFT_FAULT, arg=i, arg2=wid)
            if i >= self.next_commit and i not in self.pending:
                self.serial_needed.add(i)
                self.metrics.retries += 1
        elif tag == "released":
            # Handed back to the work channel by a crashing claimant: no
            # one owns them until the next claim, so losing ``wid`` owes
            # them no serial retry.  A claim already re-made is kept.
            _, wid, items = message
            claims = self.claims
            for i in items:
                claim = claims.get(i)
                if claim is not None and claim[0] == wid:
                    claims[i] = [None, claim[1], claim[2]]
        # ("stopped", wid): a clean exit; the health check sees exitcode 0

    def _claims(
        self, wid: int, ids, a_seconds, now: float, arrived_ns: int
    ) -> None:
        """A chunk claimed by ``wid``: one record for all of it."""
        next_commit = self.next_commit
        if min(ids) < next_commit:  # late duplicates of committed tasks
            kept = [k for k, i in enumerate(ids) if i >= next_commit]
            ids = [ids[k] for k in kept]
            a_seconds = [a_seconds[k] for k in kept]
            if not ids:
                return
        claims = self.claims
        record = [wid, now, arrived_ns]
        if claims.keys().isdisjoint(ids):
            for i in ids:
                claims[i] = record
        else:
            for i in ids:
                claim = claims.get(i)
                # Re-claimed after a crash hand-back: the first arrival
                # stays, ownership moves.
                claims[i] = (
                    record if claim is None or claim is record
                    else [wid, now, claim[2]]
                )
        if self.tracer is not None:
            # a CLAIM record per new claim; a duplicated id is one claim
            for i in dict.fromkeys(ids):
                if claims[i] is record:
                    self.tracer.record(
                        EventKind.CLAIM, arrived_ns, arrived_ns,
                        arg=i, arg2=wid,
                    )
        # A fresh claim transfers ownership: the live claimant will deliver
        # a result or fault (or fall to the hung-task timeout), so a
        # previously scheduled serial retry yields.
        if self.serial_needed:
            self.serial_needed.difference_update(ids)
        self.samples["task_a"].extend(a_seconds)
        self.metrics.stage_seconds["A"] += sum(a_seconds)

    def _results(self, wid: int, ids, values, rw, b_seconds) -> None:
        """Results from ``wid`` into the reorder buffer, each judged as if
        it had arrived alone: against where the frontier will stand once
        the ones before it in the report have committed."""
        metrics = self.metrics
        pending = self.pending
        serial_needed = self.serial_needed
        entries = values if rw is None else list(zip(values, rw))
        frontier = self.next_commit
        if (
            ids and ids[0] >= frontier and not serial_needed
            and frontier not in pending
            and ids == list(range(ids[0], ids[0] + len(ids)))
            and pending.keys().isdisjoint(ids)
        ):
            # The common report, a run of new results: all in order if it
            # starts at the frontier, else all ahead of it.
            pending.update(zip(ids, entries))
            out_of_order = 0 if ids[0] == frontier else len(ids)
        else:
            out_of_order, dropped = self._take_one_by_one(ids, entries)
            if dropped:
                metrics.duplicates_dropped += len(dropped)
                b_seconds = [
                    seconds for k, seconds in enumerate(b_seconds)
                    if k not in dropped
                ]
        metrics.out_of_order_completions += out_of_order
        metrics.stage_seconds["B"] += sum(b_seconds)
        self.samples["task_b"].extend(b_seconds)
        metrics.worker_iterations[wid] = (
            metrics.worker_iterations.get(wid, 0) + len(b_seconds)
        )

    def _take_one_by_one(self, ids, entries) -> Tuple[int, List[int]]:
        """:meth:`_results` for any report — duplicates, gaps, ids behind
        the frontier: how many came out of order, and the positions of the
        duplicates it dropped."""
        pending, serial_needed = self.pending, self.serial_needed
        frontier = self.next_commit
        # Until a result is taken, the frontier may still stand on a task
        # taken by an earlier report that has not been advanced over yet.
        unsettled = True
        out_of_order = 0
        dropped = []
        for k, i in enumerate(ids):
            if i < frontier:
                dropped.append(k)
                continue
            if i != frontier:
                out_of_order += 1
            if i in pending:
                dropped.append(k)
                continue
            pending[i] = entries[k]
            if i == frontier or unsettled:
                unsettled = False
                while frontier in pending or frontier in serial_needed:
                    frontier += 1
        return out_of_order, dropped

    def lose_worker(self, wid: int) -> None:
        """Route a dead/hung worker's unresolved claims to serial retry."""
        for i, claim in self.claims.items():
            # (a claim re-made by a live worker since is that worker's)
            if (
                claim[0] == wid and i >= self.next_commit
                and i not in self.pending
            ):
                self.serial_needed.add(i)
                self.metrics.retries += 1

    def strand_check(self, alive: Collection[int]) -> None:
        """Send hand-backs no live worker can take to serial retry.

        A crashed worker's hand-back waits at the tail of the ``work``
        channel.  When every worker in ``alive`` holds a claim the
        speculative window keeps it waiting on, none of them reads that
        channel, and the window cannot open before the hand-back commits.
        A worker with nothing unresolved is still reading: no retry then."""
        next_commit, window = self.next_commit, self._window.value
        pending, serial_needed = self.pending, self.serial_needed
        oldest_claim: Dict[int, int] = {}
        unowned = []
        for i, claim in self.claims.items():
            if i < next_commit or i in pending or i in serial_needed:
                continue
            wid = claim[0]
            if wid is None:
                unowned.append(i)
            elif i < oldest_claim.get(wid, i + 1):
                oldest_claim[wid] = i
        if not unowned or any(
            oldest_claim.get(wid, next_commit) - next_commit < window
            for wid in alive
        ):
            return
        serial_needed.update(unowned)
        self.metrics.retries += len(unowned)

    def overdue(
        self, now: float, timeout: float, alive: Collection[int]
    ) -> List[Tuple[int, int]]:
        """The ``(wid, i)`` of every task claimed more than ``timeout`` ago
        by a worker in ``alive`` that could actually be running it — at most
        one per worker; the caller terminates the worker and hands its
        claims to :meth:`lose_worker`.  Claims that are merely waiting get
        their clocks restarted at ``now``."""
        pending, serial_needed = self.pending, self.serial_needed
        next_commit, window = self.next_commit, self._window.value
        # A chunk executes serially within its worker, so only each
        # worker's *oldest* unresolved claim can actually be running;
        # younger chunk-mates are queued behind it, not hung.
        unresolved = [
            (i, claim) for i, claim in self.claims.items()
            if i >= next_commit and i not in pending
            and i not in serial_needed
        ]
        oldest_claim: Dict[int, int] = {}
        for i, claim in unresolved:
            wid = claim[0]
            if wid not in oldest_claim or i < oldest_claim[wid]:
                oldest_claim[wid] = i
        claims = self.claims
        late = []
        for i, claim in unresolved:
            wid = claim[0]
            if wid not in alive:
                continue  # the caller's crash handling covers dead workers
            if i - next_commit >= window or i != oldest_claim[wid]:
                # Throttle-gated or queued behind a chunk-mate, not hung:
                # a full timeout from now once it can run.  A record of its
                # own — the one it shares may time the running chunk-mate.
                claims[i] = [wid, now, claim[2]]
            elif now - claim[1] > timeout:
                late.append((wid, i))
        return late

    # -- commits out --------------------------------------------------------------

    def advance(self) -> None:
        """Commit the contiguous run at the frontier: buffered results
        (validated first when speculative) and tasks owed a serial
        retry.  Per item: the callback, one clock pair, the latency
        samples, the trace span.  Counters, the watermark and the
        throttle settle once per run — a conflict or a checkpoint
        inside it only settles early."""
        i = self.next_commit
        pending = self.pending
        serial_needed = self.serial_needed
        if i not in pending and i not in serial_needed:
            return  # the common call: nothing new at the frontier
        # Bound once per run of commits, not looked up per item: the
        # fine-grain pipeline is bound by this loop.
        claims = self.claims
        store = self.store
        commit = self.spec.commit
        accumulator = self.accumulator
        speculative = self.spec.speculative
        iterations = self.spec.iterations
        throttled = self.throttle is not None
        manager = self.manager
        registry = self.registry
        tracer = self.tracer
        c_samples = self.samples["task_c"].append
        lag_samples = self.samples["commit_lag"].append
        clean_from = i  # the throttle has heard of the commits before this
        c_seconds = 0.0
        while i < iterations:
            result = pending.pop(i, _MISSING)
            if result is _MISSING:
                if i not in serial_needed:
                    break
                misspeculated = True
            elif speculative:
                result, (reads, writes) = result
                misspeculated = bool(store.validate(reads))
                if misspeculated:
                    self.metrics.conflicts += 1
                    if registry is not None:
                        registry.add(WRITER_COMMITTER, "conflicts")
                    if tracer is not None:
                        tracer.instant(EventKind.CONFLICT, arg=i)
                else:
                    store.apply(writes)
            else:
                misspeculated = False
            if misspeculated:
                result = self._reexecute(i)
            if serial_needed:
                serial_needed.discard(i)
            # One clock pair feeds stage_seconds, the latency histogram,
            # commit lag, *and* the trace span — tracing adds no clock calls.
            t0_ns = now_ns()
            commit(i, result, accumulator)
            commit_ns = now_ns()
            elapsed = (commit_ns - t0_ns) * 1e-9
            c_seconds += elapsed
            c_samples(elapsed)
            claim = claims.pop(i, None)
            if claim is not None and commit_ns >= claim[2]:
                lag_seconds = (commit_ns - claim[2]) / 1e9
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
            if misspeculated and throttled:
                # in commit order: the epochs must see what the
                # item-at-a-time committer showed them
                if i > clean_from:
                    self._tell_throttle(False, i - clean_from)
                self._tell_throttle(True, 1)
                clean_from = i + 1
            i += 1
            if manager is not None and manager.due(i):
                self._settle(i, c_seconds)
                c_seconds = 0.0
                self._checkpoint(i)
        self._settle(i, c_seconds)
        if throttled and i > clean_from:
            self._tell_throttle(False, i - clean_from)

    def finish_serially(self) -> None:
        """Graceful degradation: finish the run sequentially, in-process
        (the caller has already halted the pipeline's children).

        Every uncommitted iteration is marked owed a serial retry and the
        frontier advanced over it, on the commit path every other iteration
        takes; the values come from the run's one phase-A replay cursor
        (:class:`PhaseAReplay`), which goes on from wherever an earlier
        re-execution left it — a stateful ``produce`` can be replayed only
        once, never restarted at 0.  Results already waiting in
        ``pending`` are therefore still validated and reused, and the
        committed prefix keeps checkpointing, so even a degraded run can be
        resumed incrementally if it is interrupted.
        """
        self.throttle = None  # nobody is left to throttle
        for i in range(self.next_commit, self.spec.iterations):
            if i < self.next_commit:
                continue  # committed by the run the last advance made
            self.serial_needed.add(i)
            self.advance()

    def _reexecute(self, i: int) -> Any:
        """Misspeculation-as-re-execution: run task *i* on live state, on
        the phase-A value the replay cursor gives back."""
        spec, store, metrics = self.spec, self.store, self.metrics
        value = self.replay.value(i)
        t0_ns = now_ns()
        if spec.speculative:
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
        if self.registry is not None:
            self.registry.add(WRITER_COMMITTER, "serial_reexec")
        if self.tracer is not None:
            self.tracer.record(EventKind.SERIAL_REEXEC, t0_ns, t1_ns, arg=i)
        return result

    def _tell_throttle(self, misspeculated: bool, commits: int) -> None:
        new_window = self.throttle.record(misspeculated, commits)
        if new_window is None:
            return
        shrink = new_window < self._window.value
        self._window.value = new_window
        if self.registry is not None:
            self.registry.set_gauge("window", new_window)
        logger.debug(
            "throttle %s: speculative window now %d",
            "shrink" if shrink else "grow", new_window,
        )
        if self.tracer is not None:
            self.tracer.instant(
                EventKind.THROTTLE, arg=new_window,
                detail=0 if shrink else 1,
            )

    def _settle(self, frontier: int, c_seconds: float) -> None:
        """Book the commits ``next_commit .. frontier`` and publish the
        new watermark."""
        run = frontier - self.next_commit
        if not run:
            return
        metrics = self.metrics
        metrics.commits += run
        metrics.in_order_commits += run
        metrics.stage_seconds["C"] += c_seconds
        self.next_commit = self._watermark.value = frontier
        if self.registry is not None:
            self.registry.add(WRITER_COMMITTER, "committed", run)
            self.registry.set_gauge("watermark", frontier)

    def _checkpoint(self, i: int) -> None:
        manager, metrics = self.manager, self.metrics
        self.hand_over_samples()  # the cut's counters carry each sample count
        manager.take(i, self.store, self.accumulator, metrics)
        metrics.checkpoints_taken = manager.taken
        if self.registry is not None:
            self.registry.add(WRITER_COMMITTER, "checkpoints")
        logger.info(
            "checkpoint %d taken at commit watermark %d", manager.taken, i
        )
        if self.tracer is not None:
            self.tracer.instant(EventKind.CHECKPOINT, arg=i)
