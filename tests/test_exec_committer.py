"""The committer with nothing around it: no process, thread, channel or
sleep.  Reports are written by hand and fed to a bare
:class:`repro.exec.Committer`; every scenario ends on the sequential
output and on exact counters, so what the paper promises — each iteration
commits once, in order, whatever the workers did — is checked in
microseconds and on any number of CPUs."""

from __future__ import annotations

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    CommittedStore,
    Committer,
    EngineMetrics,
    PipelineSpec,
    WriteBuffer,
    run_sequential,
)
from repro.resilience.checkpoint import CheckpointConfig, CheckpointManager
from repro.resilience.throttle import SpeculationThrottle, ThrottleConfig

UNTHROTTLED = 2 ** 30


def _append(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def arithmetic(iterations):
    return PipelineSpec(
        iterations=iterations,
        produce=lambda i: i * 3,
        work=lambda i, value: value + i,
        commit=_append,
        finalize=lambda acc: acc.get("out", []),
    )


def nones(iterations):
    """Every task's result is None: a value, not a missing one."""
    return PipelineSpec(
        iterations=iterations,
        produce=lambda i: i,
        work=lambda i, value: None,
        commit=_append,
        finalize=lambda acc: acc.get("out", []),
    )


def _add_to_sum(i, value, ctx):
    total = ctx.read("sum") + value
    ctx.write("sum", None, total)
    return total


class RunningTotal:
    """A stateful phase A: value ``i`` is ``0 + 1 + … + i``, so only calls
    for ``0, 1, …`` in order give the producer's values — a replay that
    skips, repeats or restarts at 0 does not.  Counts its calls."""

    def __init__(self):
        self.calls = 0
        self.total = 0

    def __call__(self, i):
        self.calls += 1
        self.total += i
        return self.total


def running_total(iterations):
    return PipelineSpec(
        iterations=iterations,
        produce=RunningTotal(),
        work=lambda i, value: value * 2 + i,
        commit=_append,
        finalize=lambda acc: acc.get("out", []),
    )


def running_sum(iterations):
    """Every task reads and writes one location: whatever ran against a
    stale snapshot conflicts."""
    return PipelineSpec(
        iterations=iterations,
        produce=lambda i: i + 1,
        work=_add_to_sum,
        commit=_append,
        finalize=lambda acc: acc.get("out", []),
        shared_state={("sum", None): 0},
        speculative=True,
    )


class Bench:
    """A committer on a bench: the spec's collaborators, hand-made gate
    cells, and a worker's half of the protocol written out."""

    def __init__(self, spec, start=0, window=UNTHROTTLED, throttle=None,
                 manager=None):
        self.spec = spec
        self.metrics = EngineMetrics(iterations=spec.iterations)
        self.store = CommittedStore(spec.shared_state)
        self.accumulator = spec.init()
        self.watermark = SimpleNamespace(value=start)
        self.window = SimpleNamespace(value=window)
        #: what every worker speculates against: the state at spawn
        self.snapshot = self.store.snapshot()
        # Phase A as the producer ran it, and the sequential output, both
        # on copies: the spec's own ``produce`` is the committer's replay.
        phase_a = copy.deepcopy(spec.produce)
        self.values = [phase_a(i) for i in range(spec.iterations)]
        self.expected = run_sequential(copy.deepcopy(spec))[0]
        self.committer = Committer(
            spec, self.store, self.accumulator, start, self.metrics,
            self.watermark, self.window, throttle, manager,
        )

    def claims(self, wid, items, now=0.0):
        ids = list(items)
        self.committer.report(
            ("claims", wid, ids, [0.0] * len(ids)), now, 0,
        )

    def entry(self, i):
        """What a worker sends for task ``i``: its result, and its
        ``(reads, writes)`` pair when the spec is speculative."""
        value = self.values[i]
        if not self.spec.speculative:
            return self.spec.work(i, value), None
        buffer = WriteBuffer(self.snapshot)
        result = self.spec.work(i, value, buffer)
        return result, (buffer.reads, buffer.writes)

    def message(self, wid, items, b_seconds=0.0):
        """The ``results`` report of tasks ``items``, as columns."""
        ids = list(items)
        entries = [self.entry(i) for i in ids]
        rw = [pair for _, pair in entries] if self.spec.speculative else None
        return (
            "results", wid, ids, [result for result, _ in entries], rw,
            [b_seconds] * len(ids),
        )

    def results(self, wid, items):
        self.committer.report(self.message(wid, items), 0.0, 0)
        self.committer.advance()

    def fault(self, wid, i):
        self.committer.report(("fault", wid, i, "boom"), 0.0, 0)
        self.committer.advance()

    @property
    def output(self):
        return self.spec.finalize(self.accumulator)

    def assert_done(self, **counters):
        committer, metrics = self.committer, self.metrics
        assert self.output == self.expected
        assert committer.next_commit == self.spec.iterations
        assert self.watermark.value == self.spec.iterations
        assert not committer.pending and not committer.claims
        assert not committer.serial_needed
        assert metrics.commits == metrics.in_order_commits
        expected = {
            "commits": self.spec.iterations, "conflicts": 0,
            "serial_reexecutions": 0, "retries": 0, "soft_faults": 0,
            "duplicates_dropped": 0, "out_of_order_completions": 0,
        }
        expected.update(counters)
        assert {
            name: getattr(metrics, name) for name in expected
        } == expected


# -- scenarios: what the workers did, and the exact counters it must leave ---------


def out_of_order_and_duplicate_results(bench):
    bench.claims(0, range(6))
    bench.results(0, [2, 3])  # both ahead of the frontier
    assert bench.committer.next_commit == 0
    bench.results(0, [0, 1, 1])  # in order; the second 1 is behind by then
    assert bench.committer.next_commit == 4
    bench.results(0, [4, 5, 2])  # a late copy of a committed task


def conflict_is_reexecuted_on_live_state(bench):
    bench.claims(0, [0])
    bench.claims(1, [1])
    bench.results(1, [1])
    bench.results(0, [0])  # commits 0; 1 read the version 0 replaced


def soft_fault_is_retried_serially(bench):
    bench.claims(0, range(3))
    bench.results(0, [0])
    bench.fault(0, 1)
    bench.results(0, [2])


def reclaim_after_hand_back_moves_ownership(bench):
    """Worker 0 crashes at task 1 and hands 2, 3 back; worker 1 claims
    them before the committer notices the crash."""
    bench.claims(0, range(4))
    bench.results(0, [0])
    bench.claims(1, [2, 3])
    bench.committer.lose_worker(0)  # only task 1 is still worker 0's
    assert bench.committer.serial_needed == {1}
    bench.results(1, [2, 3])


def reclaim_after_the_loss_was_noticed_cancels_the_retry(bench):
    bench.claims(0, range(4))
    bench.results(0, [0])
    bench.committer.lose_worker(0)
    assert bench.committer.serial_needed == {1, 2, 3}
    bench.claims(1, [2, 3])  # a live claimant: the serial retry yields
    assert bench.committer.serial_needed == {1}
    bench.committer.advance()
    assert bench.committer.next_commit == 2  # waits for worker 1 now
    bench.results(1, [2, 3])


def released_hand_back_waits_for_its_next_claimant(bench):
    """Worker 0 crashes at task 1 and says it handed 2, 3 back: losing it
    owes only 1 a serial retry, and 2 waits for its next claimant, whose
    soft fault is retried as a fault."""
    bench.claims(0, range(4))
    bench.results(0, [0])
    bench.committer.report(("released", 0, [2, 3]), 0.0, 0)
    bench.committer.lose_worker(0)
    assert bench.committer.serial_needed == {1}
    bench.committer.advance()
    assert bench.committer.next_commit == 2
    bench.claims(1, [2, 3])
    bench.fault(1, 2)
    bench.results(1, [3])


def lost_worker_with_half_its_chunk_reported(bench):
    bench.claims(0, range(4))
    bench.results(0, [0, 1])
    bench.committer.lose_worker(0)
    bench.committer.advance()


def none_results_commit_like_any_other(bench):
    bench.claims(0, range(4))
    bench.results(0, [1, 2])  # None waits in the reorder buffer
    assert bench.committer.next_commit == 0
    bench.results(0, [0, 3])


def results_may_overtake_their_claims(bench):
    """Not something one sender's wire does, but nothing breaks."""
    bench.results(0, range(3))
    bench.claims(0, range(3))  # every one a late duplicate


SCENARIOS = [
    (out_of_order_and_duplicate_results, arithmetic(6),
     dict(out_of_order_completions=2, duplicates_dropped=2)),
    (conflict_is_reexecuted_on_live_state, running_sum(2),
     dict(conflicts=1, serial_reexecutions=1, out_of_order_completions=1)),
    (soft_fault_is_retried_serially, arithmetic(3),
     dict(soft_faults=1, retries=1, serial_reexecutions=1)),
    (reclaim_after_hand_back_moves_ownership, arithmetic(4),
     # 2 arrives ahead of the retry owed for 1; by 3 the frontier is past
     dict(retries=1, serial_reexecutions=1, out_of_order_completions=1)),
    (reclaim_after_the_loss_was_noticed_cancels_the_retry, arithmetic(4),
     dict(retries=3, serial_reexecutions=1)),
    (released_hand_back_waits_for_its_next_claimant, arithmetic(4),
     dict(retries=2, serial_reexecutions=2, soft_faults=1)),
    (lost_worker_with_half_its_chunk_reported, arithmetic(4),
     dict(retries=2, serial_reexecutions=2)),
    (none_results_commit_like_any_other, nones(4),
     dict(out_of_order_completions=2)),
    (results_may_overtake_their_claims, arithmetic(3), {}),
]


@pytest.mark.parametrize(
    "scenario,spec,counters", SCENARIOS, ids=[row[0].__name__ for row in SCENARIOS]
)
def test_scenario_commits_the_sequential_output(scenario, spec, counters):
    bench = Bench(spec)
    scenario(bench)
    bench.assert_done(**counters)


def test_hand_back_is_retried_serially_once_every_live_worker_is_parked():
    """A hand-back waits at the tail of ``work``; a worker parked on the
    throttle gate will not read it, so when every live worker is parked
    it is retried serially."""
    bench = Bench(arithmetic(4), window=1)
    committer = bench.committer
    bench.claims(0, range(3))
    committer.report(("released", 0, [1, 2]), 0.0, 0)
    committer.lose_worker(0)  # crashed at task 0
    bench.claims(1, [3])  # outside the window of one: parked
    committer.strand_check([1, 2])  # worker 2 holds nothing: still reading
    assert committer.serial_needed == {0}
    committer.strand_check([1])
    assert committer.serial_needed == {0, 1, 2}
    committer.advance()
    bench.results(1, [3])
    bench.assert_done(retries=3, serial_reexecutions=3)


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_boundary_inside_one_report_settles_early():
    spec = arithmetic(8)
    manager = CheckpointManager(CheckpointConfig(interval=3), "fp")
    bench = Bench(spec, manager=manager)
    bench.claims(0, range(8))
    bench.results(0, range(8))  # one report, one run of commits, two cuts
    bench.assert_done()
    assert [c.next_commit for c in manager.checkpoints] == [3, 6]
    # each snapshot is exact at its cut, not at the end of the run
    assert [c.metrics["commits"] for c in manager.checkpoints] == [3, 6]
    assert [len(c.restore_accumulator()["out"]) for c in manager.checkpoints] == [3, 6]
    assert bench.metrics.checkpoints_taken == 2


# -- the hung-task timeout ----------------------------------------------------------


def test_overdue_names_only_each_workers_oldest_running_claim():
    bench = Bench(arithmetic(8), window=4)
    committer = bench.committer
    bench.claims(0, [0, 1, 2], now=0.0)
    bench.claims(1, [3, 4], now=0.0)  # 4 is outside the window: gated
    assert committer.overdue(4.0, 5.0, {0, 1}) == []
    assert committer.overdue(10.0, 5.0, {0, 1}) == [(0, 0), (1, 3)]
    # chunk-mates queued behind the running task, and the gated claim,
    # had their clocks restarted — not the two that are running
    assert [committer.claims[i][1] for i in range(5)] == [
        0.0, 10.0, 10.0, 0.0, 10.0
    ]
    # a dead worker's claims are the crash path's, never "hung"
    assert committer.overdue(10.0, 5.0, {1}) == [(1, 3)]
    bench.results(0, [0])
    # task 1 is worker 0's oldest now, with a full timeout ahead of it
    assert committer.overdue(12.0, 5.0, {0, 1}) == [(1, 3)]
    assert committer.overdue(16.0, 5.0, {0, 1}) == [(0, 1), (1, 3)]
    # resolved claims (a result waiting, a serial retry owed) never are
    bench.results(1, [3])
    committer.lose_worker(0)
    assert committer.overdue(99.0, 5.0, {0, 1}) == [(1, 4)]


def test_refreshing_queued_chunk_mates_leaves_the_running_items_clock():
    """A chunk's items share one claim record; the clock refresh of the
    queued ones must not restart the running one's."""
    bench = Bench(arithmetic(8))
    committer = bench.committer
    bench.claims(0, range(4), now=0.0)
    assert committer.overdue(4.0, 5.0, {0}) == []  # 1..3 restart at 4.0
    assert committer.overdue(6.0, 5.0, {0}) == [(0, 0)]
    assert [committer.claims[i][1] for i in range(4)] == [0.0, 6.0, 6.0, 6.0]
    # a hand-back and a re-claim leave the others' records alone too
    committer.report(("released", 0, [3]), 0.0, 0)
    bench.claims(1, [2], now=7.0)
    assert [committer.claims[i][0] for i in range(4)] == [0, 0, 1, None]
    assert committer.overdue(8.0, 5.0, {0, 1}) == [(0, 0)]


# -- a report of many items ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.integers(0, 11), min_size=1, max_size=10),
    committed=st.integers(0, 4),
    owed=st.sets(st.integers(0, 11), max_size=3),
    speculative=st.booleans(),
)
def test_a_report_leaves_the_state_its_items_leave_one_at_a_time(
    ids, committed, owed, speculative
):
    """Duplicates, gaps (a dropped result) and ids below the frontier, in
    one ``results`` message, leave the committer exactly where the same
    items leave it sent one report each, with an advance after each."""
    def state(deliveries):
        spec = (running_sum if speculative else arithmetic)(12)
        bench = Bench(spec)
        bench.claims(0, range(12))
        bench.results(0, range(committed))
        bench.committer.serial_needed.update(
            i for i in owed if i >= committed
        )
        for items in deliveries:
            bench.committer.report(bench.message(0, items, 0.5), 0.0, 0)
            bench.committer.advance()
        committer, metrics = bench.committer, bench.metrics
        return (
            bench.output, committer.next_commit, sorted(committer.pending),
            sorted(committer.serial_needed), sorted(committer.claims),
            metrics.duplicates_dropped, metrics.out_of_order_completions,
            metrics.conflicts, metrics.worker_iterations,
            committer.samples["task_b"],
        )

    assert state([ids]) == state([[i] for i in ids])


# -- throttle epochs ----------------------------------------------------------------


class _Recorder:
    """A throttle that only listens."""

    def __init__(self):
        self.heard = []

    def record(self, misspeculated, commits=1):
        self.heard.extend([misspeculated] * commits)


def _storm(reports, throttle):
    """16 running-sum tasks — every one but the first conflicts — with a
    fault thrown in, delivered as ``reports``."""
    bench = Bench(running_sum(16), throttle=throttle)
    bench.claims(0, range(16))
    for items in reports:
        faulted = [i for i in items if i == 5]
        bench.results(0, [i for i in items if i != 5])
        for i in faulted:
            bench.fault(0, i)
    bench.assert_done(
        conflicts=14, serial_reexecutions=15, soft_faults=1, retries=1,
        out_of_order_completions=bench.metrics.out_of_order_completions,
    )
    return bench


def test_throttle_hears_a_run_of_commits_as_it_would_item_at_a_time():
    one_by_one, at_once = _Recorder(), _Recorder()
    _storm([[i] for i in range(16)], one_by_one)
    _storm([range(16)], at_once)
    assert at_once.heard == one_by_one.heard == [False] + [True] * 15

    windows = []
    for reports in ([[i] for i in range(16)], [range(16)], [range(8), range(8, 16)]):
        throttle = SpeculationThrottle(ThrottleConfig(), 64)
        bench = _storm(reports, throttle)
        windows.append(
            (throttle.window, throttle.shrinks, throttle.grows,
             throttle.min_window_seen, bench.window.value)
        )
    assert windows[0] == windows[1] == windows[2]
    assert windows[0][1] > 0  # and the storm did move the window


# -- the serial finish --------------------------------------------------------------


@pytest.mark.parametrize("spec_of", [arithmetic, running_sum])
def test_serial_finish_from_a_partly_filled_reorder_buffer(spec_of):
    """Degradation: 0 committed, 3 and 4 waiting in the reorder buffer,
    1, 2, 5 claimed and lost with their workers, 6 and 7 never dispatched."""
    bench = Bench(spec_of(8), throttle=_Recorder())
    bench.claims(0, range(6))
    bench.results(0, [0])
    bench.results(0, [3, 4])
    assert bench.committer.next_commit == 1
    bench.committer.finish_serially()
    stale = 2 if bench.spec.speculative else 0  # 3 and 4 read version 0
    bench.assert_done(
        out_of_order_completions=2, conflicts=stale,
        serial_reexecutions=5 + stale,
    )
    assert bench.committer.throttle is None  # nobody left to throttle


def test_serial_finish_keeps_checkpointing_at_the_same_cuts():
    manager = CheckpointManager(CheckpointConfig(interval=5), "fp")
    bench = Bench(arithmetic(17), manager=manager)
    bench.claims(0, range(4))
    bench.results(0, range(4))
    bench.committer.finish_serially()
    bench.assert_done(serial_reexecutions=13)
    assert [c.next_commit for c in manager.checkpoints] == [5, 10, 15]
    assert [c.metrics["commits"] for c in manager.checkpoints] == [5, 10, 15]


def test_serial_finish_goes_on_from_where_a_reexecution_left_the_replay():
    """A soft fault on 1 is re-executed on a replayed value (phase A called
    for 0 and 1); the degradation that follows goes on from 2 instead of
    replaying from 0, so phase A runs once in all, and a stateful one
    still gives the producer's values."""
    spec = running_total(8)
    bench = Bench(spec)
    bench.claims(0, range(4))
    bench.results(0, [0])
    bench.fault(0, 1)
    assert spec.produce.calls == bench.committer.replay.position == 2
    bench.results(0, [3])  # 2 is lost; 4..7 were never dispatched
    bench.committer.finish_serially()
    bench.assert_done(
        soft_faults=1, retries=1, serial_reexecutions=6,
        out_of_order_completions=1,
    )
    # 3's result was reused: the cursor stepped over it, once
    assert spec.produce.calls == bench.committer.replay.position == 8


def test_reexecutions_at_the_frontier_never_replay_phase_a_twice():
    spec = running_total(6)
    bench = Bench(spec)
    bench.claims(0, range(6))
    bench.committer.lose_worker(0)
    bench.committer.advance()  # all six re-executed, one replay pass
    bench.assert_done(retries=6, serial_reexecutions=6)
    assert spec.produce.calls == 6
    with pytest.raises(RuntimeError, match="already replayed"):
        bench.committer.replay.value(3)


def test_resumed_committer_starts_at_the_checkpoint():
    spec = arithmetic(6)
    bench = Bench(spec, start=4)
    bench.accumulator["out"] = run_sequential(arithmetic(4))[0]
    bench.claims(0, [4, 5])
    bench.results(0, [3, 5, 4])  # 3 was committed before the checkpoint
    assert bench.output == run_sequential(spec)[0]
    assert bench.metrics.commits == 2
    assert bench.metrics.duplicates_dropped == 1


# -- any delivery order -------------------------------------------------------------

_ITEMS = 12
#: two workers' chunks, as (wid, items)
_CHUNKS = [(0, [0]), (1, [1, 2]), (0, [3, 4, 5, 6]), (1, [7, 8]),
           (0, [9]), (1, [10, 11])]


@settings(max_examples=200, deadline=None)
@given(
    order=st.permutations(range(len(_CHUNKS))),
    extra=st.lists(st.integers(0, len(_CHUNKS) - 1), max_size=8),
    speculative=st.booleans(),
    data=st.data(),
)
def test_any_permutation_or_duplication_commits_the_same_order(
    order, extra, speculative, data
):
    """Whatever order the chunks' reports arrive in, and however many
    arrive twice, the commit callback sees 0, 1, 2, … — a growing prefix
    of the sequential order, with the sequential results."""
    spec = (running_sum if speculative else arithmetic)(_ITEMS)
    expected = run_sequential(spec)[0]
    bench = Bench(spec)
    deliveries = list(order)
    for chunk in extra:  # duplicates, slipped in anywhere
        deliveries.insert(
            data.draw(st.integers(0, len(deliveries)), label="at"), chunk
        )
    for wid, items in _CHUNKS:
        bench.claims(wid, items)
    for chunk in deliveries:
        bench.results(*_CHUNKS[chunk])
        assert bench.output == expected[: bench.committer.next_commit]
    assert bench.output == expected
    assert bench.metrics.commits == _ITEMS
    assert bench.metrics.duplicates_dropped == sum(
        len(_CHUNKS[chunk][1]) for chunk in extra
    )
