"""One engine path, two runtimes: the same spec on a process tree of the
engine's own (``LocalRuntime``: pipe, shm, thread) and on a worker-pool
lease (``LeaseRuntime``: pipe, shm) must be the same run — output and the
counters that do not depend on timing.  The thread transport is also run
over every worker count and queue capacity: it is the repo's threaded
pipeline.  Plus what the runtime owns now that the engine does not: the
roster's seats on the wake-ups, and a start-up that fails half-way.

Nothing here passes by timing: every deadline is far out of reach, and the
injected faults (soft faults, forced conflicts, ``os._exit`` at a named
iteration) happen at points the iteration number decides.  ``CHAOS_SEED``
moves the injections of the seeded row.
"""

import multiprocessing
import os
import pickle
import random
import threading

import pytest

from repro.exec import (
    ExecutionEngine,
    FaultPlan,
    LocalRuntime,
    PipelineSpec,
    RobustnessPolicy,
    run_sequential,
)
from repro.exec.channels import SEATS, Wakeup
from repro.obs.events import TraceConfig
from repro.resilience.throttle import SpeculationThrottle, ThrottleConfig
from repro.service.pool import WorkerPool

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))
CTX = multiprocessing.get_context()
DEADLINE = 20.0
PATIENT = RobustnessPolicy(
    task_timeout=DEADLINE, stall_timeout=DEADLINE, poll_interval=0.01,
    join_timeout=DEADLINE,
)
ITEMS = 48


def produce_triple(i):
    return i * 3


def square(i, value):
    return (value * value + i) % 1009


def nothing(i, value):
    """A result that is None: a value the reorder buffer must keep."""
    return None


def own_cell(i, value, ctx):
    """Speculative, but every task has a location of its own: only an
    injected conflict misspeculates."""
    ctx.write("cell", i, ctx.read("cell", i) or value)
    return square(i, value)


#: Shared with every process the module forks, pool workers included.
BUMPS = multiprocessing.Value("i", 0)


def bump(i, value):
    """A Commutative update from phase B: any order, under its lock."""
    with BUMPS.get_lock():
        BUMPS.value += 1
    return square(i, value)


def running_sum(i, value, ctx):
    """One location for everybody: each task but the first read what its
    predecessor replaced."""
    total = ctx.read("sum") + value
    ctx.write("sum", None, total)
    return total


def append_commit(i, result, acc):
    acc.setdefault("out", []).append(result)


def take_out(acc):
    return acc.get("out", [])


def _spec(work, **kwargs):
    return PipelineSpec(
        iterations=ITEMS, produce=produce_triple, work=work,
        commit=append_commit, finalize=take_out, **kwargs,
    )


def _seeded_faults():
    picks = random.Random(CHAOS_SEED).sample(range(ITEMS), 7)
    return FaultPlan(
        error_iterations=set(picks[:3]), conflict_iterations=set(picks[3:])
    )


#: name -> (spec, fault plan, conflicts, serial re-executions, soft faults,
#: bumps of the Commutative counter)
ROWS = {
    "independent": (_spec(square), None, 0, 0, 0, 0),
    "none-results": (_spec(nothing), None, 0, 0, 0, 0),
    "all-conflict": (
        _spec(running_sum, speculative=True, shared_state={("sum", None): 0}),
        None, ITEMS - 1, ITEMS - 1, 0, 0,
    ),
    "seeded-faults": (
        _spec(own_cell, speculative=True), _seeded_faults(), 4, 7, 3, 0,
    ),
    "commutative": (_spec(bump), None, 0, 0, 0, ITEMS),
}

#: (owner, transport, workers, capacity): every runtime and transport at
#: the pool's shape, then the thread transport over workers x capacity
MODES = [
    ("local", "pipe", 2, 8), ("local", "shm", 2, 8), ("local", "thread", 2, 8),
    ("lease", "pipe", 2, 8), ("lease", "shm", 2, 8),
] + [
    ("local", "thread", workers, capacity)
    for workers in (1, 2, 4, 8) for capacity in (1, 4, 32)
]
MODE_IDS = [f"{owner}-{transport}" for owner, transport, _, _ in MODES[:5]] + [
    f"{transport}-w{workers}c{capacity}" for _, transport, workers, capacity in MODES[5:]
]


@pytest.fixture(scope="module")
def pools():
    """``pools(transport)``: one two-worker pool per transport, started
    on first use and shared by the module."""
    started = {}

    def pool_for(transport):
        if transport not in started:
            started[transport] = WorkerPool(
                workers=2, slots=1, capacity=8, batch_size=4, policy=PATIENT,
                transport=transport,
            ).start()
        return started[transport]

    yield pool_for
    for pool in started.values():
        pool.shutdown()


def _run(pools, owner, transport, workers, capacity, spec, fault_plan):
    pool = pools(transport) if owner == "lease" else None
    lease = pool.try_lease() if pool is not None else None
    if lease is not None:
        # what a LocalRuntime builds for itself
        lease.job_throttle = SpeculationThrottle(ThrottleConfig(), 64)
    try:
        return ExecutionEngine(
            workers=workers, capacity=capacity, batch_size=4, policy=PATIENT,
            transport=transport, fault_plan=fault_plan, runtime=lease,
        ).run(spec)
    finally:
        if lease is not None:
            pool.release(lease)


@pytest.mark.parametrize("owner,transport,workers,capacity", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("row", ROWS)
def test_every_runtime_and_transport_is_the_same_run(
    pools, row, owner, transport, workers, capacity
):
    spec, fault_plan, conflicts, serial, soft_faults, bumps = ROWS[row]
    expected = run_sequential(spec)[0]
    BUMPS.value = 0
    result = _run(pools, owner, transport, workers, capacity, spec, fault_plan)
    metrics = result.metrics
    assert BUMPS.value == bumps
    assert result.output == expected
    assert not metrics.degraded_to_sequential
    assert metrics.transport == transport
    assert (
        metrics.commits, metrics.in_order_commits, metrics.conflicts,
        metrics.serial_reexecutions, metrics.soft_faults,
        metrics.respawns, metrics.duplicates_dropped,
    ) == (ITEMS, ITEMS, conflicts, serial, soft_faults, 0, 0)
    # every iteration reached the committer exactly once: as a result, in
    # order or ahead of the frontier, or as a fault retried without one
    arrived = sum(metrics.worker_iterations.values())
    assert 0 <= metrics.out_of_order_completions <= arrived
    assert arrived + soft_faults == ITEMS
    if fault_plan is None and not conflicts:
        # a clean run: one sample of every per-item series per commit
        histograms = metrics.to_json()["latency_histograms"]
        assert {
            series: histograms[series]["count"]
            for series in ("task_a", "task_b", "task_c", "commit_lag")
        } == dict.fromkeys(("task_a", "task_b", "task_c", "commit_lag"), ITEMS)


# -- the roster's seats on the wake-ups ----------------------------------------------


@pytest.fixture
def no_backstop(monkeypatch):
    """The backstop slice out of reach: only a wake ends a wait."""
    monkeypatch.setattr("repro.exec.transport._WAIT_SLICE", 60.0)


def _bells(stages):
    return (
        len(stages.work._credit._bells), len(stages.done._credit._bells),
        len(stages.gate._opened._bells),
    )


def _seats_taken(channel):
    return SEATS - 1 - len(channel._free_seats)


def test_unseated_bell_is_gone_and_a_parked_survivor_is_still_woken(
    no_backstop,
):
    wakeup = Wakeup(CTX)
    survivor, casualty = wakeup.seat(), wakeup.seat()
    wakeup.unseat(casualty)
    wakeup.unseat(casualty)  # retiring twice is harmless
    assert len(wakeup._bells) == 2
    opened = []
    waiter = threading.Thread(target=survivor.wait, args=(lambda: opened,))
    waiter.start()
    while not wakeup.waiters:
        pass
    opened.append(True)
    wakeup.wake()
    waiter.join(DEADLINE)
    assert not waiter.is_alive()


def test_pool_gives_back_the_bells_of_every_worker_it_replaces(no_backstop):
    """Three jobs each lose a worker to an injected ``os._exit``; the pool
    retires the casualty and its respawned replacement serves on.  The
    slots' wake-ups must ring the workers there are, not every worker
    there ever was — and still reach the ones parked on the gate."""
    spec = _spec(square)
    expected = run_sequential(spec)[0]
    pool = WorkerPool(
        workers=2, slots=2, capacity=8, batch_size=4, policy=PATIENT
    ).start()
    try:
        seated = [_bells(slot) for slot in pool._slots]
        assert seated == [(3, 3, 3)] * 2  # the slot's own and one a worker
        for round_ in range(3):
            lease = pool.try_lease()
            # a window of one: everybody but the frontier's owner parks
            lease.job_throttle = SpeculationThrottle(ThrottleConfig(), 64)
            lease.job_throttle.window = 1
            try:
                result = ExecutionEngine(
                    workers=2, capacity=8, batch_size=4, policy=PATIENT,
                    fault_plan=FaultPlan(crash_iterations={5 + round_}),
                    runtime=lease,
                ).run(spec)
            finally:
                pool.release(lease)
            assert result.output == expected
            assert result.metrics.worker_crashes == 1
            assert result.metrics.respawns == 1
            assert not result.metrics.degraded_to_sequential
            assert [_bells(slot) for slot in pool._slots] == seated
            # counter seats too: the two members' views, plus on ``work``
            # the last job's phase A until its slot is claimed again
            for slot in pool._slots:
                assert _seats_taken(slot.done) == 2
                assert _seats_taken(slot.work) in (2, 3)
        assert pool.stats()["spawned_total"] == 2 + 3
        assert pool.stats()["alive"] == 2
    finally:
        pool.shutdown()


@pytest.mark.parametrize("transport", ["pipe", "thread"])
def test_local_runtime_gives_back_the_bells_of_a_worker_it_reaps(
    transport, monkeypatch
):
    closed = []
    real_close = LocalRuntime.close
    monkeypatch.setattr(
        LocalRuntime, "close",
        lambda runtime: (closed.append(runtime), real_close(runtime)),
    )
    spec = _spec(square)
    result = ExecutionEngine(
        workers=2, capacity=8, batch_size=4, policy=PATIENT,
        transport=transport, fault_plan=FaultPlan(crash_iterations={7}),
    ).run(spec)
    assert result.output == run_sequential(spec)[0]
    assert result.metrics.worker_crashes == result.metrics.respawns == 1
    (runtime,) = closed
    # three workers were spawned, the crashed one was reaped: what is left
    # is the runtime's own bell, two workers', and phase A's on ``work``
    assert len(runtime.processes) == 2
    assert _bells(runtime) == (4, 3, 3)


# -- a start-up that fails half-way --------------------------------------------------


def test_failed_local_start_leaves_no_child_and_a_closed_spool(
    tmp_path, monkeypatch
):
    """Under ``spawn`` phase A starts, then the first worker's ``start()``
    cannot pickle its task: the error must propagate with the started
    producer reaped, the channels released and the committer's spool
    closed — and the engine as good as new."""
    from repro.exec import engine as engine_module

    spools = []
    real_open = engine_module.open_tracer
    monkeypatch.setattr(
        engine_module, "open_tracer",
        lambda *args: spools.append(real_open(*args)) or spools[-1],
    )
    engine = ExecutionEngine(
        workers=2, capacity=8, batch_size=4, policy=PATIENT,
        start_method="spawn", trace=TraceConfig(spool_dir=str(tmp_path)),
    )
    unpicklable = PipelineSpec(
        iterations=8, produce=int, work=lambda i, value: value,
        commit=append_commit, finalize=take_out,
    )
    children = set(multiprocessing.active_children())  # the module's pools
    with pytest.raises((AttributeError, pickle.PicklingError)):
        engine.run(unpicklable)
    assert set(multiprocessing.active_children()) == children
    (spool,) = spools
    assert spool is not None and spool._closed
    spec = PipelineSpec(
        iterations=8, produce=int, work=square,
        commit=append_commit, finalize=take_out,
    )
    assert engine.run(spec).output == run_sequential(spec)[0]
    assert set(multiprocessing.active_children()) == children


def test_failed_lease_start_leaves_the_slot_as_it_was(pools, tmp_path):
    """``producer_crash_at`` is refused at start: no member was sent the
    job, so none is waited for or terminated, nothing of the run stays on
    the slot's channels, and the slot's next lease is an ordinary run."""
    pool = pools("pipe")
    spec = _spec(square)
    before = pool.stats()
    lease = pool.try_lease()
    try:
        with pytest.raises(ValueError, match="producer_crash_at"):
            ExecutionEngine(
                workers=2, capacity=8, batch_size=4, policy=PATIENT,
                fault_plan=FaultPlan(producer_crash_at=3), runtime=lease,
                trace=TraceConfig(spool_dir=str(tmp_path)),
            ).run(spec)
        assert lease.done.tracer is None
        assert lease.processes == {} and lease.producer is None
    finally:
        pool.release(lease)
    assert pool.stats() == before  # same pids: nobody was replaced
    assert _run(pools, "lease", "pipe", 2, 8, spec, None).output == (
        run_sequential(spec)[0]
    )
    assert pool.stats() == before
