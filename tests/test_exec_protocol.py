"""The chunk-granular ``done`` protocol and the dispatch ramp, pinned.

Everything here runs over the ``thread`` transport with the test playing
the stages next to the one under test, so the order of events is decided by
the test, not by a scheduler or a clock: a worker's task blocks on an event
until the test has looked at the wire, ``now_ns`` is a counter the task
itself advances, and every read of ``done`` is exactly one frame.
"""

import multiprocessing
import pickle
import threading
import time
import weakref

import pytest

from repro.exec import (
    ExecutionEngine,
    FaultPlan,
    PipelineSpec,
    ProcessChannel,
    RobustnessPolicy,
    run_sequential,
)
from repro.exec import workers
from repro.exec.channels import STOP
from repro.exec.workers import (
    ThrottleGate,
    producer_main,
    raise_hard_exit,
    worker_main,
)
from repro.resilience.checkpoint import CheckpointConfig

CTX = multiprocessing.get_context()

#: Every wait in this module gives up here; nothing should get close.
DEADLINE = 20.0

WID = 7


def _until(condition, what):
    deadline = time.monotonic() + DEADLINE
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def chunk(first, count):
    """A work frame as phase A dispatches it: ``(i, value, a_seconds)``."""
    return [(i, i * 3, 0.0) for i in range(first, first + count)]


def claimed(first, count):
    """The claims message a worker answers ``chunk(first, count)`` with:
    the columns of iterations and their ``a_seconds``, no values."""
    return ("claims", WID, list(range(first, first + count)), [0.0] * count)


class _Value:
    """A phase-A value a weak reference can watch."""


class _Worker:
    """One phase-B replica on a thread; the test is producer and committer.

    ``hold`` lists iterations whose task waits for :meth:`release`, which
    is how a test looks at the wire while a chunk is half done."""

    def __init__(self, monkeypatch, hold=(), slow=(), done_capacity=64,
                 flush_interval=60.0, window=None, max_chunk=8, task=None):
        self.clock_ns = 0
        monkeypatch.setattr(workers, "now_ns", lambda: self.clock_ns)
        self.flush_interval = flush_interval
        self.work = ProcessChannel(
            64, name="work", ctx=CTX, batch_size=max_chunk, transport="thread"
        )
        self.done = ProcessChannel(
            done_capacity, name="done", ctx=CTX, batch_size=8,
            flush_interval=flush_interval, transport="thread",
        )
        self.gate = ThrottleGate(CTX)
        self.gate.reset(0, 2 ** 30 if window is None else window)
        self.shutdown = threading.Event()
        self.started = {i: threading.Event() for i in hold}
        self.released = {i: threading.Event() for i in hold}
        self.slow = set(slow)
        self.thread = threading.Thread(
            target=worker_main,
            args=(WID, self.work.for_stage(), self.done.for_stage(),
                  task or self.task, False, {}, None, self.shutdown,
                  self.gate.seat(), max_chunk),
            kwargs={"hard_exit": raise_hard_exit},
            daemon=True,
        )
        self.thread.start()

    def task(self, i, value):
        if i in self.slow:
            self.clock_ns += int(3 * self.flush_interval * 1e9)
        if i in self.started:
            self.started[i].set()
            assert self.released[i].wait(DEADLINE)
        return value + i

    def dispatch(self, items):
        self.work.put_many(items, timeout=DEADLINE)

    def running(self, i):
        assert self.started[i].wait(DEADLINE)

    def release(self, i):
        self.released[i].set()

    def frame(self):
        """The next frame on ``done``, whole."""
        return self.done.get_many(64, timeout=DEADLINE)

    def finish(self):
        self.work.put(STOP, timeout=DEADLINE)
        self.thread.join(DEADLINE)
        assert not self.thread.is_alive()


def results_of(message):
    tag, wid, ids, values, rw, b_seconds = message
    assert (tag, wid) == ("results", WID)
    assert rw is None  # a non-speculative spec sends no read/write sets
    assert len(values) == len(b_seconds) == len(ids)
    return ids


class TestWorkerReports:
    def test_claims_are_on_the_wire_before_anything_of_the_chunk_runs(
        self, monkeypatch
    ):
        worker = _Worker(monkeypatch, hold=[0])
        worker.dispatch(chunk(0, 4))
        assert worker.frame() == [claimed(0, 4)]
        worker.running(0)  # ...and only now does the first task exist
        worker.release(0)
        (report,) = worker.frame()
        assert results_of(report) == [0, 1, 2, 3]
        assert report[3] == [0, 4, 8, 12]
        worker.finish()
        assert worker.frame() == [("stopped", WID)]

    def test_a_waiting_chunk_is_claimed_in_the_frame_of_the_last_results(
        self, monkeypatch
    ):
        worker = _Worker(monkeypatch, hold=[0, 4])
        worker.dispatch(chunk(0, 4))
        assert worker.frame() == [claimed(0, 4)]
        worker.running(0)
        worker.dispatch(chunk(4, 4))  # waiting before chunk one ends
        worker.release(0)
        report, claims = worker.frame()
        assert results_of(report) == [0, 1, 2, 3]
        assert claims == claimed(4, 4)
        worker.running(4)  # claimed first, executed second
        worker.release(4)
        # nothing was waiting this time: the results travel alone
        (report,) = worker.frame()
        assert results_of(report) == [4, 5, 6, 7]
        worker.finish()

    def test_a_slow_item_is_reported_before_its_chunk_ends(self, monkeypatch):
        worker = _Worker(monkeypatch, hold=[2], slow=[1], flush_interval=0.05)
        worker.dispatch(chunk(0, 4))
        assert worker.frame() == [claimed(0, 4)]
        # item 1 took three flush intervals: it leaves with item 0 while
        # item 2 is still running
        (report,) = worker.frame()
        assert results_of(report) == [0, 1]
        assert report[5][1] == pytest.approx(0.15)  # its b_seconds
        worker.running(2)
        worker.release(2)
        (report,) = worker.frame()
        assert results_of(report) == [2, 3]
        worker.finish()

    def test_a_gated_worker_has_reported_everything_it_holds(self, monkeypatch):
        worker = _Worker(monkeypatch, window=2)
        worker.dispatch(chunk(0, 4))
        assert worker.frame() == [claimed(0, 4)]
        _until(lambda: worker.gate._opened.waiters == 1, "the worker to gate")
        (report,) = worker.frame()  # sent before the wait, not after it
        assert results_of(report) == [0, 1]
        worker.gate.watermark.value = 2
        worker.gate.wake()
        (report,) = worker.frame()
        assert results_of(report) == [2, 3]
        worker.finish()

    def test_a_credit_blocked_worker_has_staged_everything_it_holds(
        self, monkeypatch
    ):
        """``done`` holds one message.  The claims take it, so the chunk's
        report finds no credit; the moment the committer frees some, the
        one frame that comes is the whole chunk."""
        worker = _Worker(monkeypatch, done_capacity=1)
        worker.dispatch(chunk(0, 4))
        _until(lambda: worker.done._credit.waiters == 1, "the report to block")
        assert worker.frame() == [claimed(0, 4)]
        (report,) = worker.frame()
        assert results_of(report) == [0, 1, 2, 3]
        worker.finish()

    def test_claims_carry_no_values(self, monkeypatch):
        """A chunk of 16 blocks of 64 KiB is claimed in under 1 KiB: the
        values crossed the wire once, to the worker, and never come back
        (a lost task's value is the committer's phase-A replay)."""
        worker = _Worker(
            monkeypatch, max_chunk=16, task=lambda i, block: len(block)
        )
        worker.dispatch([(i, bytes(64 * 1024), 0.0) for i in range(16)])
        (claims,) = worker.frame()
        assert claims == claimed(0, 16)
        assert len(pickle.dumps(claims, pickle.HIGHEST_PROTOCOL)) < 1024
        (report,) = worker.frame()
        assert report[3] == [64 * 1024] * 16
        worker.finish()

    def test_a_finished_chunk_lets_its_values_go(self, monkeypatch):
        """While a worker waits for its next chunk it holds none of the
        last one's values but the one its loop variable still names: a
        chunk of large blocks kept alive across the wait would cost the
        next chunk's decode fresh pages."""
        worker = _Worker(monkeypatch, task=lambda i, value: i)
        values = [_Value() for _ in range(4)]
        watched = [weakref.ref(value) for value in values]
        worker.dispatch([(i, value, 0.0) for i, value in enumerate(values)])
        del values
        assert worker.frame() == [claimed(0, 4)]
        (report,) = worker.frame()
        assert results_of(report) == [0, 1, 2, 3]
        _until(
            lambda: sum(ref() is not None for ref in watched) <= 1,
            "the chunk's values to be released",
        )
        worker.finish()

    def test_shutdown_while_idle_says_goodbye(self, monkeypatch):
        monkeypatch.setattr(workers, "_IDLE_POLL", 0.01)
        worker = _Worker(monkeypatch)
        worker.shutdown.set()
        assert worker.frame() == [("stopped", WID)]
        worker.thread.join(DEADLINE)
        assert not worker.thread.is_alive()


# -- the dispatch ramp ----------------------------------------------------------------


def chunk_sizes(iterations, workers_, max_chunk=16):
    """Frame sizes phase A dispatches, read off the wire."""
    work = ProcessChannel(
        iterations, name="work", ctx=CTX, batch_size=max_chunk,
        flush_interval=60.0, transport="thread",
    )
    producer_main(
        work.for_stage(), iterations, int, None, threading.Event(),
        max_chunk=max_chunk, close_channel=False, workers=workers_,
    )
    sizes = []
    while sum(sizes) < iterations:
        frame = work.get_many(max_chunk, timeout=DEADLINE)
        assert [item[0] for item in frame] == list(
            range(sum(sizes), sum(sizes) + len(frame))
        )
        sizes.append(len(frame))
    return sizes


class TestDispatchRamp:
    def test_64_items_for_2_workers_ramp_then_taper(self):
        assert chunk_sizes(64, 2) == [
            1, 2, 4, 8, 13, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1,
        ]

    def test_12000_items_for_2_workers_hold_full_chunks_until_the_tail(self):
        sizes = chunk_sizes(12_000, 2)
        ramp, tail = [1, 2, 4, 8], [13, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1]
        body = sizes[len(ramp):-len(tail)]
        assert sizes[:len(ramp)] == ramp
        assert sizes[-len(tail):] == tail
        assert set(body) == {16} and len(body) == 746

    def test_one_worker_tapers_too_and_never_dispatches_nothing(self):
        assert chunk_sizes(40, 1, max_chunk=2) == [1] + [2] * 19 + [1]
        assert chunk_sizes(3, 4) == [1, 1, 1]


# -- the committer takes a report at a time -------------------------------------------

REPORT_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01, join_timeout=5
)


def produce_triple(i):
    return i * 3


def tagged_square(i, value, ctx):
    ctx.write("cell", i % 4, value)
    return (value * value + i) % 1009


def append_commit(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def take_out(acc):
    return acc.get("out", [])


def report_spec():
    return PipelineSpec(
        iterations=30, produce=produce_triple, work=tagged_square,
        commit=append_commit, finalize=take_out, speculative=True,
    )


def committer_view(batch_size):
    """One worker, so the chunking — and with it what each report holds —
    follows from ``batch_size`` alone.  At 8 the chunk 7..14 opens with a
    soft fault and its one report carries a forced conflict (9), a
    checkpoint boundary (10) and a duplicated result (12); at 1 every
    message holds one item, the delivery the committer used to get."""
    result = ExecutionEngine(
        workers=1, capacity=8, batch_size=batch_size, flush_interval=60.0,
        transport="thread", policy=REPORT_POLICY,
        fault_plan=FaultPlan(
            error_iterations={7}, conflict_iterations={9},
            duplicate_result_iterations={12},
        ),
        checkpoints=CheckpointConfig(interval=5),
    ).run(report_spec())
    data = result.metrics.to_json()
    counted = {
        key: data[key]
        for key in (
            "commits", "in_order_commits", "out_of_order_completions",
            "duplicates_dropped", "worker_iterations", "conflicts",
            "serial_reexecutions", "soft_faults", "retries", "respawns",
            "degraded_to_sequential", "checkpoints_taken",
            "throttle_shrinks", "throttle_grows",
        )
    }
    counted["samples"] = {
        series: data["latency_histograms"][series]["count"]
        for series in ("task_a", "task_b", "task_c", "commit_lag",
                       "serial_reexec")
    }
    counted["checkpoints"] = [
        (c.next_commit, c.metrics["commits"], c.metrics["conflicts"],
         c.metrics["latency_counts"]["task_c"])
        for c in result.checkpoints
    ]
    return result.output, counted, data["channels"]["done"]["flushes"]


def test_a_report_settles_what_its_items_would_have_one_at_a_time():
    expected, _ = run_sequential(report_spec())
    output, by_report, report_frames = committer_view(8)
    assert output == expected
    assert by_report["conflicts"] == by_report["soft_faults"] == 1
    assert by_report["duplicates_dropped"] == 1
    assert by_report["serial_reexecutions"] == by_report["retries"] + 1 == 2
    assert by_report["checkpoints"] == [
        (5, 5, 0, 5), (10, 10, 1, 10), (15, 15, 1, 15), (20, 20, 1, 20),
        (25, 25, 1, 25), (30, 30, 1, 30),
    ]
    output, by_item, item_frames = committer_view(1)
    assert output == expected
    assert by_item == by_report
    assert report_frames < item_frames / 2
