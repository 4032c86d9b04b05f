"""Back-pressure is a wake-up, not a poll (``repro.exec.channels.Wakeup``).

Channel credit and the throttle gate block on one primitive: a waiter
declares itself parked, re-checks, then sleeps on its own bell; whoever
changes the condition rings every bell afterwards.  These tests pin the
properties the engine leans on, without timing anything: the backstop
slice is either pushed out of reach (so a lost wake is a failed join, not
a slow test) or counted through the ``_missed_wake`` seam.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    ExecutionEngine,
    FaultPlan,
    PipelineSpec,
    ProcessChannel,
    RobustnessPolicy,
    run_sequential,
)
from repro.exec import channels
from repro.exec.channels import ChannelTimeout, Wakeup
from repro.obs.events import EventKind, TraceConfig
from repro.obs.merge import merge_spool_dir
from repro.resilience.checkpoint import CheckpointConfig
from repro.resilience.throttle import (
    SpeculationThrottle,
    ThrottleConfig,
    max_window_for,
)
from repro.service.pool import WorkerPool

CTX = multiprocessing.get_context()

#: Every join/poll in this module gives up here; nothing should get close.
DEADLINE = 20.0


def _until(condition, what):
    """Poll a fact about another process into existence (bounded)."""
    deadline = time.monotonic() + DEADLINE
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def _joined(process):
    process.join(DEADLINE)
    assert not process.is_alive()
    return process.exitcode


@pytest.fixture
def no_backstop(monkeypatch):
    """The backstop slice out of reach: only a wake ends a wait."""
    monkeypatch.setattr("repro.exec.transport._WAIT_SLICE", 60.0)


@pytest.fixture
def missed_wakes(monkeypatch):
    """Counts, across forked stages, the waits only a backstop slice
    ended although their condition already held."""
    counter = CTX.Value("l", 0)

    def count():
        with counter.get_lock():
            counter.value += 1

    monkeypatch.setattr(channels, "_missed_wake", count)
    return counter


# -- the primitive -------------------------------------------------------------------


def _wait_for_level(seat, level, threshold):
    seat.wait(lambda: level.value >= threshold)


class TestWakeup:
    def _parked(self, wakeup, level, thresholds):
        waiters = [
            CTX.Process(
                target=_wait_for_level, args=(wakeup.seat(), level, threshold)
            )
            for threshold in thresholds
        ]
        for waiter in waiters:
            waiter.start()
        _until(lambda: wakeup.waiters == len(waiters), "waiters to park")
        return waiters

    def test_one_wake_releases_every_parked_waiter(self, no_backstop):
        wakeup, level = Wakeup(CTX), CTX.RawValue("l", 0)
        waiters = self._parked(wakeup, level, [1, 1, 1])
        level.value = 1
        wakeup.wake()
        assert [_joined(waiter) for waiter in waiters] == [0, 0, 0]
        assert wakeup.waiters == 0

    def test_a_waiter_woken_too_early_cannot_take_a_siblings_wake(
        self, no_backstop
    ):
        """Thresholds differ, so each wake sends two of the three back to
        sleep — on a shared semaphore they would re-take the token of
        whichever sibling the scheduler has not run yet."""
        wakeup, level = Wakeup(CTX), CTX.RawValue("l", 0)
        waiters = self._parked(wakeup, level, [1, 2, 3])
        for step, waiter in enumerate(waiters, start=1):
            level.value = step
            wakeup.wake()
            assert _joined(waiter) == 0
        assert wakeup.waiters == 0

    def test_wake_without_waiters_leaves_nothing_behind(self):
        wakeup = Wakeup(CTX)
        seat = wakeup.seat()
        wakeup.wake()
        # no ring was posted, so an unready wait runs into its deadline
        assert not seat.wait(lambda: False, deadline=time.monotonic())

    def test_killed_waiter_does_not_take_the_wake_with_it(self, no_backstop):
        wakeup, level = Wakeup(CTX), CTX.RawValue("l", 0)
        victim, survivor = self._parked(wakeup, level, [1, 1])
        os.kill(victim.pid, signal.SIGKILL)
        assert _joined(victim) == -signal.SIGKILL
        assert wakeup.waiters == 2  # the dead one never un-parked
        level.value = 1
        wakeup.wake()
        assert _joined(survivor) == 0
        wakeup.reset()
        assert wakeup.waiters == 0


# -- channel credit ------------------------------------------------------------------


def _blocked_put(view, item):
    view.put_many([item])


def _consume_then_die_before_waking(view):
    view._credit.wake = lambda: os.kill(os.getpid(), signal.SIGKILL)
    view.get(timeout=DEADLINE)


@pytest.mark.parametrize("transport", ["pipe", "shm"])
class TestCreditAcrossProcesses:
    def _full_channel_with_blocked_writers(self, transport, writers):
        channel = ProcessChannel(
            2, name="work", ctx=CTX, batch_size=2, transport=transport
        )
        channel.put_many(["a", "b"])
        blocked = [
            CTX.Process(target=_blocked_put, args=(channel.for_stage(), k))
            for k in range(writers)
        ]
        for writer in blocked:
            writer.start()
        _until(
            lambda: channel._credit.waiters == writers, "writers to block"
        )
        return channel, blocked

    def test_killed_writer_leaves_credit_and_reset_clears_its_mark(
        self, transport, no_backstop
    ):
        channel, (victim, survivor) = self._full_channel_with_blocked_writers(
            transport, 2
        )
        try:
            os.kill(victim.pid, signal.SIGKILL)
            assert _joined(victim) == -signal.SIGKILL
            assert channel.get_many(2, timeout=DEADLINE) == ["a", "b"]
            assert _joined(survivor) == 0
            assert channel.get(timeout=DEADLINE) == 1
            assert channel._credit.waiters == 1  # the victim's, stale
            channel.drain()
            channel.reset_counters()
            assert channel._credit.waiters == 0
            assert channel.produces == channel.consumes == 0
        finally:
            channel.close()

    def test_waker_killed_before_posting_costs_one_backstop_slice(
        self, transport, monkeypatch, missed_wakes
    ):
        monkeypatch.setattr("repro.exec.transport._WAIT_SLICE", 0.2)
        channel, (writer,) = self._full_channel_with_blocked_writers(
            transport, 1
        )
        try:
            reader = CTX.Process(
                target=_consume_then_die_before_waking,
                args=(channel.for_stage(),),
            )
            reader.start()
            # consume counter advanced, reader dead, nobody rang
            assert _joined(reader) == -signal.SIGKILL
            assert channel.consumes == 2
            assert _joined(writer) == 0
            assert missed_wakes.value == 1
            assert channel.get(timeout=DEADLINE) == 0
        finally:
            channel.close()


class TestCreditInvariants:
    @pytest.mark.parametrize("transport", ["pipe", "shm", "thread"])
    @settings(max_examples=15)
    @given(
        puts=st.lists(st.integers(1, 3), min_size=1, max_size=12),
        reads=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    )
    def test_occupancy_never_exceeds_capacity(self, transport, puts, reads):
        """A writer and a reader thread interleave however the scheduler
        likes; put sizes and read sizes come from hypothesis."""
        channel = ProcessChannel(
            2, name="work", ctx=CTX, batch_size=2, transport=transport
        )
        total = sum(puts)
        received, failures = [], []

        def write(view):
            try:
                sent = 0
                for size in puts:
                    view.put_many(
                        list(range(sent, sent + size)), timeout=DEADLINE
                    )
                    sent += size
            except BaseException as error:  # surfaced by the main thread
                failures.append(error)

        def read(view):
            try:
                turn = 0
                while len(received) < total:
                    received.extend(
                        view.get_many(
                            reads[turn % len(reads)], timeout=DEADLINE
                        )
                    )
                    turn += 1
            except BaseException as error:
                failures.append(error)

        stages = [
            threading.Thread(target=write, args=(channel.for_stage(),)),
            threading.Thread(target=read, args=(channel.for_stage(),)),
        ]
        try:
            for stage in stages:
                stage.start()
            while any(stage.is_alive() for stage in stages):
                channel.sample_occupancy()
            for stage in stages:
                stage.join(DEADLINE)
            assert failures == []
            assert received == list(range(total))
            # one writer: the bound is the capacity itself
            assert channel.occupancy_bound(producers=1) == channel.capacity
            assert channel.max_occupancy_seen <= channel.occupancy_bound(1)
            assert channel.produces == channel.consumes == total
            assert channel._credit.waiters == 0
        finally:
            channel.close()

    def test_full_channel_times_out_and_aborts_without_sleeping(self):
        channel = ProcessChannel(1, name="work", ctx=CTX, transport="thread")
        channel.put("x")
        channel.put_buffered("y")
        with pytest.raises(ChannelTimeout):
            channel.flush(timeout=0)
        # abort outranks the (absent) deadline once the flush is parked
        with pytest.raises(ChannelTimeout):
            channel.flush(abort=lambda: True)
        assert channel.pending_items == 1
        assert channel.get() == "x"
        channel.flush(abort=lambda: True)  # credit on the fast path: sent
        assert channel.get() == "y"


# -- the engine under a clamped window ------------------------------------------------

STORM_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01, join_timeout=5
)
STORM_ITEMS = 64
#: Every one of the first 24 commits misspeculates: three observation
#: epochs, each halving the window (10 -> 5 -> 2 -> 1).
STORM = FaultPlan(conflict_iterations=set(range(24)))


def produce_triple(i):
    return i * 3


def tagged_square(i, value, ctx):
    ctx.write("cell", i % 4, value)
    return (value * value + i) % 1009


def append_commit(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def take_out(acc):
    return acc.get("out", [])


def storm_spec(iterations=STORM_ITEMS):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_triple,
        work=tagged_square,
        commit=append_commit,
        finalize=take_out,
        speculative=True,
    )


MODES = [
    ("pipe", "own"), ("shm", "own"), ("thread", "own"),
    ("pipe", "pool"), ("shm", "pool"),
]


@pytest.mark.parametrize("transport,mode", MODES, ids="-".join)
def test_gated_run_is_exact_traced_and_never_needs_the_backstop(
    transport, mode, tmp_path, missed_wakes
):
    trace = TraceConfig(spool_dir=str(tmp_path))
    window = max_window_for(3, 4, 2)
    pool = lease = None
    if mode == "pool":
        pool = WorkerPool(
            workers=3, slots=1, capacity=4, batch_size=2,
            policy=STORM_POLICY, transport=transport,
        ).start()
        lease = pool.try_lease()
        lease.job_throttle = SpeculationThrottle(ThrottleConfig(), window)
        lease.trace_config = trace
    try:
        result = ExecutionEngine(
            workers=3, capacity=4, batch_size=2, policy=STORM_POLICY,
            transport=transport, fault_plan=STORM, trace=trace,
            runtime=lease,
        ).run(storm_spec())
    finally:
        if pool is not None:
            pool.release(lease)
            pool.shutdown()
    metrics = result.metrics
    assert result.output == run_sequential(storm_spec())[0]
    assert metrics.conflicts == 24 and metrics.min_window == 1
    assert not metrics.degraded_to_sequential
    assert metrics.respawns == metrics.worker_timeouts == 0
    assert missed_wakes.value == 0
    kinds = {span.kind for span in merge_spool_dir(str(tmp_path)).spans}
    assert EventKind.GATE_WAIT in kinds
    assert EventKind.QUEUE_PUT_WAIT in kinds


# -- shutdown reaches a blocked producer ----------------------------------------------

#: Inherited by the pool's workers at fork; holds them inside stage B.
HOLD = CTX.Event()


def held_work(i, value):
    assert HOLD.wait(60)
    return value + i


def arithmetic_spec(iterations, work):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_triple,
        work=work,
        commit=append_commit,
        finalize=take_out,
    )


def plain_work(i, value):
    return value + i


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_cancel_reaches_a_credit_blocked_producer_at_once(
    transport, monkeypatch, no_backstop
):
    """Both workers sit in stage B, the two-item ``work`` channel is full
    and phase A is parked on its credit.  With every poll out of reach,
    only the wake that comes with the shutdown event gets it out inside
    the join deadline — and only then is the slot free for the next job."""
    monkeypatch.setattr("repro.exec.workers._IDLE_POLL", 60.0)
    HOLD.clear()
    pool = WorkerPool(
        workers=2, slots=1, capacity=2, batch_size=2,
        policy=STORM_POLICY, transport=transport,
    ).start()
    try:
        pids = pool.worker_pids()
        lease = pool.try_lease()
        engine = ExecutionEngine(
            workers=2, capacity=2, batch_size=2, policy=STORM_POLICY,
            transport=transport, runtime=lease,
        )

        def cancel_once_blocked():
            _until(
                lambda: lease.work._credit.waiters == 1
                and lease.work.produces - lease.work.consumes == 2,
                "phase A to block on credit",
            )
            lease.cancel()
            _until(lambda: engine.metrics.cancelled, "the cancel to land")
            HOLD.set()

        side = threading.Thread(target=cancel_once_blocked)
        side.start()
        try:
            result = engine.run(arithmetic_spec(40, held_work))
        finally:
            HOLD.set()
            side.join(DEADLINE)
            pool.release(lease)
        assert not side.is_alive()
        assert result.metrics.cancelled and result.metrics.commits == 0
        expected, _ = run_sequential(arithmetic_spec(40, plain_work))
        lease = pool.try_lease()
        assert lease is not None, "slot still held by the last phase A"
        try:
            again = ExecutionEngine(
                workers=2, capacity=2, batch_size=2, policy=STORM_POLICY,
                transport=transport, runtime=lease,
            ).run(arithmetic_spec(40, plain_work))
        finally:
            pool.release(lease)
        assert again.output == expected
        assert pool.worker_pids() == pids
        assert pool.stats()["spawned_total"] == 2
    finally:
        HOLD.set()
        pool.shutdown()


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_cancel_reaches_gated_workers_at_once(
    transport, monkeypatch, no_backstop
):
    """The window is 1 and the committer is held inside commit 4, so all
    three workers are parked at the gate on later iterations.  The commit
    returning admits one of them; the cancel that follows moves no
    watermark, so the other two leave only because the shutdown came with
    a wake — inside the join deadline, or the pool replaces them."""
    monkeypatch.setattr("repro.exec.workers._IDLE_POLL", 60.0)
    held, release = threading.Event(), threading.Event()

    def holding_commit(i, result, acc):
        if i == 4:
            held.set()
            assert release.wait(60)
        append_commit(i, result, acc)

    spec = arithmetic_spec(40, plain_work)
    spec.commit = holding_commit
    pool = WorkerPool(
        workers=3, slots=1, capacity=4, batch_size=2,
        policy=STORM_POLICY, transport=transport,
    ).start()
    try:
        pids = pool.worker_pids()
        lease = pool.try_lease()
        lease.job_throttle = SpeculationThrottle(
            ThrottleConfig(), max_window_for(3, 4, 2)
        )
        lease.job_throttle.window = 1
        engine = ExecutionEngine(
            workers=3, capacity=4, batch_size=2, policy=STORM_POLICY,
            transport=transport, runtime=lease,
        )

        def cancel_once_gated():
            assert held.wait(DEADLINE)
            _until(
                lambda: lease.gate._opened.waiters == 3, "workers to gate"
            )
            lease.cancel()
            release.set()

        side = threading.Thread(target=cancel_once_gated)
        side.start()
        try:
            result = engine.run(spec)
        finally:
            release.set()
            side.join(DEADLINE)
            pool.release(lease)
        assert not side.is_alive()
        assert result.metrics.cancelled and result.metrics.commits == 5
        assert pool.worker_pids() == pids
        assert pool.stats()["spawned_total"] == 3
    finally:
        pool.shutdown()


# -- batched committer bookkeeping -----------------------------------------------------


def running_sum_work(i, value, ctx):
    total = ctx.read("acc", "total") or 0
    ctx.write("acc", "total", total + value)
    return total + value


def chaos_spec():
    return PipelineSpec(
        iterations=40,
        produce=produce_triple,
        work=running_sum_work,
        commit=append_commit,
        finalize=take_out,
        shared_state={("acc", "total"): 0},
        speculative=True,
    )


#: ``EngineMetrics.to_json()`` of the run below at the commit before the
#: committer took frames and folded samples in bulk (one ``done.get`` and
#: six ``LatencyHistogram.add`` per message), wall-clock fields left out.
#: One worker and a flush interval nothing reaches make the chunking —
#: hence every counter — a function of the fault plan alone.
PER_CALL_COUNTERS = {
    "workers": 1, "capacity": 4, "iterations": 40, "batch_size": 2,
    "transport": "pipe", "commits": 40, "in_order_commits": 40,
    "out_of_order_completions": 0, "duplicates_dropped": 0,
    "worker_iterations": {"0": 6, "1": 32}, "conflicts": 37,
    "misspeculation_rate": 0.925, "serial_reexecutions": 39,
    "worker_crashes": 1, "worker_timeouts": 0, "soft_faults": 1,
    "respawns": 1, "retries": 2, "producer_crashed": False,
    "degraded_to_sequential": False, "cancelled": False,
    "checkpoints_taken": 5, "resumed_from": None, "throttle_shrinks": 2,
    "throttle_grows": 0, "min_window": 1, "final_window": 1,
}
PER_CALL_SAMPLE_COUNTS = {
    "task_a": 40, "task_b": 38, "task_c": 40, "commit_lag": 40,
    "serial_reexec": 39,
}


def test_batched_bookkeeping_counts_what_the_per_call_path_counted():
    engine = ExecutionEngine(
        workers=1, capacity=4, batch_size=2, flush_interval=60.0,
        policy=RobustnessPolicy(
            task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
        ),
        fault_plan=FaultPlan(
            crash_iterations={6}, error_iterations={11},
            conflict_iterations={17, 26},
        ),
        checkpoints=CheckpointConfig(interval=8),
    )
    result = engine.run(chaos_spec())
    assert result.output == run_sequential(chaos_spec())[0]
    data = result.metrics.to_json()
    assert {key: data[key] for key in PER_CALL_COUNTERS} == PER_CALL_COUNTERS
    histograms = data["latency_histograms"]
    assert {
        series: histograms[series]["count"]
        for series in PER_CALL_SAMPLE_COUNTS
    } == PER_CALL_SAMPLE_COUNTS
    # one queue-wait sample per transport read (the last frame, a worker's
    # goodbye, is read by teardown) — not one per message
    reads = histograms["queue_wait"]["count"]
    assert reads == data["channels"]["done"]["flushes"] - 1
    assert reads < histograms["task_a"]["count"] + histograms["task_b"]["count"]
    # samples are folded before a checkpoint is cut, not at the end
    assert [c.next_commit for c in result.checkpoints] == [8, 16, 24, 32, 40]
    for checkpoint in result.checkpoints:
        folded = checkpoint.metrics["latency_counts"]
        assert checkpoint.metrics["commits"] == checkpoint.next_commit
        assert folded["task_c"] == checkpoint.next_commit
        assert folded["commit_lag"] == checkpoint.next_commit
