"""Tests for the real multiprocess pipeline execution engine (repro.exec).

The engine's contract mirrors the paper's runtime guarantees: outputs are
bit-identical to sequential execution for any worker count and channel
capacity, every iteration commits exactly once and in order no matter what
the worker processes do (crash, hang, raise), and detected read-write
conflicts roll back and re-execute serially.
"""

import multiprocessing
import threading
import time

import pytest

from repro.exec import (
    CommittedStore,
    ExecutionEngine,
    FaultPlan,
    LocalRuntime,
    PipelineSpec,
    ProcessChannel,
    RobustnessPolicy,
    WriteBuffer,
    run_sequential,
    spec_from_task_graph,
)
from repro.profiling.tracer import Tracer
from repro.resilience import chaos_plan
from repro.resilience.chaos import INJECT_FAULTS
from repro.service.pool import LeaseRuntime, WorkerPool
from repro.workloads.base import Workload
from repro.workloads.bzip2_w import Bzip2Workload
from repro.workloads.parser_w import ParserWorkload
from repro.workloads.suite import SUITE, exec_names

# Small analog instances keep each engine run well under a second while
# still spanning multiple blocks/sentences.
BZIP2_ARGS = dict(block_size=1024, blocks=5)
PARSER_ARGS = dict(sentence_count=60, command_every=20)
SMALL_ARGS = {"256.bzip2": BZIP2_ARGS, "197.parser": PARSER_ARGS}

#: Analogs whose traced run is ``Workload.run`` driving their own spec.
DERIVED_RUNS = [name for name in exec_names() if SUITE[name].run is Workload.run]

#: A fast-failing policy so fault tests never wait on production defaults.
FAST_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
)


# -- module-level stage functions (picklable across processes) ---------------------


def produce_triple(i):
    return i * 3


def square_work(i, value):
    return (value * value + i) % 1009


def append_commit(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def take_out(acc):
    return acc.get("out", [])


def running_sum_work(i, value, ctx):
    """Speculative B stage with a genuine loop-carried dependence."""
    total = ctx.read("acc", "total") or 0
    ctx.write("acc", "total", total + value)
    return total + value


def slow_even_work(i, value):
    if i % 4 == 0:
        time.sleep(0.002)  # let later iterations overtake
    return value + 1


def arithmetic_spec(iterations=40):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_triple,
        work=square_work,
        commit=append_commit,
        finalize=take_out,
    )


# -- determinism: engine output == sequential output -------------------------------


class TestBitIdenticalOutputs:
    """ISSUE acceptance: bit-identical outputs across >=3 worker counts and
    >=2 channel capacities for the bzip2 and parser analogs."""

    @pytest.fixture(scope="class")
    def bzip2_reference(self):
        return Bzip2Workload(**BZIP2_ARGS).run(Tracer())

    @pytest.fixture(scope="class")
    def parser_reference(self):
        return ParserWorkload(**PARSER_ARGS).run(Tracer())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("capacity", [2, 8])
    def test_bzip2_identical(self, workers, capacity, bzip2_reference):
        engine = ExecutionEngine(workers=workers, capacity=capacity)
        result = engine.run(Bzip2Workload(**BZIP2_ARGS).exec_spec())
        assert result.output == bzip2_reference
        assert result.metrics.commits == result.metrics.iterations
        assert not result.metrics.degraded_to_sequential

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("capacity", [2, 8])
    def test_parser_identical(self, workers, capacity, parser_reference):
        engine = ExecutionEngine(workers=workers, capacity=capacity)
        result = engine.run(ParserWorkload(**PARSER_ARGS).exec_spec())
        assert result.output == parser_reference
        assert result.metrics.commits == result.metrics.iterations

    @pytest.mark.parametrize("name", DERIVED_RUNS)
    def test_sequential_reference_matches_traced_run(self, name):
        analog = SUITE[name](**SMALL_ARGS.get(name, {}))
        output, seconds = run_sequential(analog.exec_spec())
        assert output == analog.run(Tracer())
        assert seconds > 0

    def test_commit_order_despite_reordering(self):
        spec = PipelineSpec(
            iterations=60,
            produce=produce_triple,
            work=slow_even_work,
            commit=append_commit,
            finalize=take_out,
        )
        result = ExecutionEngine(workers=4, capacity=8).run(spec)
        assert [i for i, _ in result.output] == list(range(60))


# -- fault tolerance ---------------------------------------------------------------


class TestFaultTolerance:
    def test_killed_worker_task_retried_and_committed_exactly_once(self):
        """ISSUE acceptance: a killed worker's task is retried and committed
        exactly once."""
        expected, _ = run_sequential(arithmetic_spec())
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(crash_iterations={7}),
            policy=FAST_POLICY,
        )
        result = engine.run(arithmetic_spec())
        assert result.output == expected
        metrics = result.metrics
        assert metrics.worker_crashes == 1
        assert metrics.retries >= 1
        assert metrics.serial_reexecutions >= 1
        # Exactly-once: every iteration committed once, in order.
        assert metrics.commits == metrics.iterations
        assert [i for i, _ in result.output] == list(range(40))
        # The replacement worker joined the pipeline.
        assert metrics.respawns == 1

    def test_soft_fault_retried(self):
        expected, _ = run_sequential(arithmetic_spec())
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(error_iterations={3, 11}),
            policy=FAST_POLICY,
        )
        result = engine.run(arithmetic_spec())
        assert result.output == expected
        assert result.metrics.soft_faults == 2
        assert result.metrics.serial_reexecutions == 2
        assert result.metrics.worker_crashes == 0  # the worker survived

    def test_hung_worker_killed_and_task_retried(self):
        expected, _ = run_sequential(arithmetic_spec(20))
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(hang_iterations={5}, hang_seconds=60.0),
            policy=RobustnessPolicy(
                task_timeout=0.3, stall_timeout=15.0, poll_interval=0.01
            ),
        )
        started = time.monotonic()
        result = engine.run(arithmetic_spec(20))
        elapsed = time.monotonic() - started
        assert result.output == expected
        assert result.metrics.worker_timeouts == 1
        assert elapsed < 10  # did not wait for the 60s sleep

    def test_producer_crash_degrades_to_sequential(self):
        expected, _ = run_sequential(arithmetic_spec(30))
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(producer_crash_at=9),
            policy=FAST_POLICY,
        )
        result = engine.run(arithmetic_spec(30))
        assert result.output == expected
        assert result.metrics.producer_crashed
        assert result.metrics.degraded_to_sequential
        assert result.metrics.commits == 30

    def test_persistent_crashes_exhaust_budget_then_degrade(self):
        """Graceful degradation: when workers keep dying the engine finishes
        sequentially and still produces the exact output."""
        expected, _ = run_sequential(arithmetic_spec(16))
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(crash_iterations=frozenset(range(16))),
            policy=RobustnessPolicy(
                task_timeout=5.0,
                stall_timeout=5.0,
                max_respawns=1,
                poll_interval=0.01,
            ),
        )
        result = engine.run(arithmetic_spec(16))
        assert result.output == expected
        assert result.metrics.degraded_to_sequential
        assert result.metrics.worker_crashes >= 2
        assert result.metrics.respawns == 1
        assert result.metrics.commits == 16

    @pytest.mark.parametrize("transport", ("pipe", "shm", "thread"))
    def test_crash_and_fault_in_one_chunk_replay_identically(self, transport):
        """``exec --inject-faults --seed 1686196946`` draws a crash at
        iteration 1 and a soft fault at 2, and both ride in one chunk.  The
        crashing worker hands 2 back to the work channel and says so
        before it exits, so the committer waits for 2's next claimant
        (who raises the fault) instead of racing it with a serial retry:
        every replay gives the same counts."""
        plan = chaos_plan(7, 1686196946, INJECT_FAULTS)
        assert (plan.crash_iterations, plan.error_iterations) == ({1}, {2})
        expected, _ = run_sequential(arithmetic_spec(7))
        counts = set()
        for _ in range(20):
            result = ExecutionEngine(
                workers=2, fault_plan=plan, transport=transport,
            ).run(arithmetic_spec(7))
            assert result.output == expected
            metrics = result.metrics
            counts.add((
                metrics.worker_crashes, metrics.soft_faults,
                metrics.respawns, metrics.retries,
                metrics.serial_reexecutions,
            ))
        assert counts == {(1, 1, 1, 2, 2)}

    def test_fault_injected_run_still_bit_identical_on_real_workload(self):
        reference = Bzip2Workload(**BZIP2_ARGS).run(Tracer())
        spec = Bzip2Workload(**BZIP2_ARGS).exec_spec()
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            # one crash and one soft error among the 5 blocks
            fault_plan=FaultPlan(crash_iterations={1}, error_iterations={3}),
            policy=FAST_POLICY,
        )
        result = engine.run(spec)
        assert result.output == reference
        assert result.metrics.worker_crashes == 1


# -- speculation and rollback ------------------------------------------------------


class TestSpeculation:
    def speculative_spec(self, iterations=24):
        return PipelineSpec(
            iterations=iterations,
            produce=produce_triple,
            work=running_sum_work,
            commit=append_commit,
            finalize=take_out,
            shared_state={("acc", "total"): 0},
            speculative=True,
        )

    def test_conflicts_detected_and_reexecuted(self):
        expected, _ = run_sequential(self.speculative_spec())
        engine = ExecutionEngine(workers=3, capacity=4)
        result = engine.run(self.speculative_spec())
        assert result.output == expected
        # The running sum is a loop-carried RAW dependence: almost every
        # speculative execution read a stale total and had to roll back.
        assert result.metrics.conflicts > 0
        assert result.metrics.serial_reexecutions == result.metrics.conflicts
        assert result.state[("acc", "total")] == sum(
            produce_triple(i) for i in range(24)
        )

    def test_single_worker_speculation_still_conflicts(self):
        # Even one worker misspeculates: its snapshot never refreshes.
        expected, _ = run_sequential(self.speculative_spec(8))
        result = ExecutionEngine(workers=1, capacity=2).run(
            self.speculative_spec(8)
        )
        assert result.output == expected

    def test_write_buffer_semantics(self):
        store = CommittedStore({("x", None): 10})
        buffer = WriteBuffer(store.snapshot())
        assert buffer.read("x") == 10
        buffer.write("x", None, 11)
        assert buffer.read("x") == 11  # own version visible
        assert buffer.reads == {("x", None): 0}
        assert store.value("x") == 10  # nothing escaped before commit
        assert store.validate(buffer.reads) == []
        store.apply(buffer.writes)
        assert store.value("x") == 11

    def test_stale_read_detected(self):
        store = CommittedStore({("x", None): 10})
        speculative = WriteBuffer(store.snapshot())
        speculative.read("x")
        # An older task commits a write underneath the speculation.
        committer = WriteBuffer(store.snapshot())
        committer.write("x", None, 99)
        store.apply(committer.writes)
        assert store.validate(speculative.reads) == [("x", None)]
        assert store.conflicts_detected == 1

    def test_rollback_discard(self):
        buffer = WriteBuffer({})
        buffer.write("x", None, 1)
        buffer.read("y")
        buffer.discard()
        assert buffer.writes == {} and buffer.reads == {}


# -- channels and metrics ----------------------------------------------------------


class TestChannels:
    def test_full_blocking_put_times_out(self):
        channel = ProcessChannel(capacity=1, name="t")
        channel.put("a")
        from repro.exec.channels import ChannelTimeout

        with pytest.raises(ChannelTimeout):
            channel.put("b", timeout=0.05)

    def test_empty_blocking_get_times_out(self):
        channel = ProcessChannel(capacity=1, name="t")
        from repro.exec.channels import ChannelTimeout

        with pytest.raises(ChannelTimeout):
            channel.get(timeout=0.05)

    def test_fifo_and_counters(self):
        channel = ProcessChannel(capacity=4, name="t")
        for item in (1, 2, 3):
            channel.put(item)
        assert [channel.get(timeout=1) for _ in range(3)] == [1, 2, 3]
        assert channel.produces == 3
        assert channel.consumes == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ProcessChannel(capacity=0)


class TestMetricsAndEdges:
    def test_metrics_json_roundtrip(self):
        engine = ExecutionEngine(workers=2, capacity=4)
        result = engine.run(arithmetic_spec(12))
        data = result.metrics.to_json()
        assert data["commits"] == 12
        assert data["workers"] == 2
        assert set(data["stage_seconds"]) == {"A", "B", "C"}
        assert "work" in data["channels"] and "done" in data["channels"]
        # the fixed costs are the two ends of the wall, named
        assert data["startup_seconds"] > 0 and data["teardown_seconds"] > 0
        assert (
            data["startup_seconds"] + data["teardown_seconds"]
            <= data["wall_seconds"]
        )
        assert "fixed costs" in result.metrics.format_summary()
        import json

        json.loads(result.metrics.to_json_str())  # serializable

    def test_empty_pipeline(self):
        result = ExecutionEngine(workers=2).run(arithmetic_spec(0))
        assert result.output == []
        assert result.metrics.commits == 0
        # the CLI's summary of a run that executed nothing (``exec
        # --resume`` of a finished run): no speedup to print
        result.metrics.sequential_seconds = 0.5
        assert "sequential        0.500s\n" in result.metrics.format_summary()

    def test_invalid_engine_parameters(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)
        with pytest.raises(ValueError):
            ExecutionEngine(capacity=0)

    def test_engine_from_execution_plan(self):
        from repro.core.plan import ExecutionPlan
        from repro.hw.machine import MachineConfig

        plan = ExecutionPlan.for_machine(MachineConfig(cores=6))
        engine = ExecutionEngine(plan=plan, capacity=4)
        assert engine.workers == plan.replication_width == 4
        result = engine.run(arithmetic_spec(10))
        assert len(result.output) == 10

    def test_task_graph_replay(self):
        from repro.core.tasks import Phase, Task, TaskGraph

        tasks = []
        for i in range(6):
            for offset, (phase, cost) in enumerate(
                [(Phase.A, 10), (Phase.B, 100), (Phase.C, 5)]
            ):
                tasks.append(
                    Task(index=3 * i + offset, phase=phase, iteration=i, cost=cost)
                )
        spec = spec_from_task_graph(TaskGraph(tasks), seconds_per_unit=1e-5)
        result = ExecutionEngine(workers=2, capacity=4).run(spec)
        assert result.output == 6
        assert result.metrics.commits == 6


# -- end of stream is a message, not a timeout -------------------------------------

#: ``join_timeout`` is the only clock in these tests, and it is a deadline
#: nothing may reach: a stage it had to terminate shows as a non-zero
#: exitcode (own processes) or a replaced pool worker.
EOS_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01, join_timeout=5
)

EOS_MODES = [
    ("pipe", "own"), ("shm", "own"), ("thread", "own"),
    ("pipe", "pool"), ("shm", "pool"),
]


class _StreamHarness:
    """Runs specs either on the engine's own process tree or on a lease of
    a two-worker :class:`WorkerPool`, and remembers the stage handles the
    last cooperative teardown was given."""

    def __init__(self, transport, mode, monkeypatch):
        self.transport = transport
        self.stages = []
        self.pool = None
        runtime_class = LeaseRuntime if mode == "pool" else LocalRuntime
        real_teardown = runtime_class.teardown

        def spy(runtime, cancelled):
            real_teardown(runtime, cancelled)
            self.stages = [runtime.producer, *runtime.processes.values()]

        monkeypatch.setattr(runtime_class, "teardown", spy)
        if mode == "pool":
            self.pool = WorkerPool(
                workers=2, slots=1, capacity=8, batch_size=4,
                policy=EOS_POLICY, transport=transport,
            ).start()

    def run(self, spec, fault_plan=None, during=None):
        """``during(engine, lease)`` runs on a side thread while the engine
        does (the cancel case drives the lease from there)."""
        lease = self.pool.try_lease() if self.pool is not None else None
        try:
            engine = ExecutionEngine(
                workers=2, capacity=8, batch_size=4, policy=EOS_POLICY,
                transport=self.transport, fault_plan=fault_plan,
                runtime=lease,
            )
            side = None
            if during is not None:
                side = threading.Thread(target=during, args=(engine, lease))
                side.start()
            try:
                return engine.run(spec)
            finally:
                if side is not None:
                    side.join(60)
                    assert not side.is_alive()
        finally:
            if lease is not None:
                self.pool.release(lease)

    def assert_nobody_terminated(self, respawned=0):
        if self.pool is None:
            # every stage left on its own: a join-deadline kill is -SIGTERM,
            # a thread that never finished has no exitcode at all
            assert [stage.exitcode for stage in self.stages] == [0] * len(
                self.stages
            )
        else:
            # a member terminated at the release deadline is replaced
            stats = self.pool.stats()
            assert stats["spawned_total"] == 2 + respawned
            assert stats["alive"] == stats["idle"] == 2


@pytest.fixture(params=EOS_MODES, ids="-".join)
def stream(request, monkeypatch):
    # With the idle poll pushed out of reach, the only way a worker leaves
    # its blocking ``work`` read inside the join deadline is its STOP token
    # (children inherit the patched constant through fork).
    monkeypatch.setattr("repro.exec.workers._IDLE_POLL", 60.0)
    harness = _StreamHarness(*request.param, monkeypatch)
    yield harness
    if harness.pool is not None:
        harness.pool.shutdown()


def _work_channel_balanced(result):
    stats = result.metrics.channel_stats["work"]
    return stats["produces"] == stats["consumes"]


class TestEndOfStream:
    def test_clean_run_ends_on_tokens(self, stream):
        expected, _ = run_sequential(arithmetic_spec(40))
        result = stream.run(arithmetic_spec(40))
        assert result.output == expected
        assert not result.metrics.degraded_to_sequential
        # one token per worker, every one of them read
        assert _work_channel_balanced(result)
        stream.assert_nobody_terminated()
        if stream.pool is not None:
            # the same processes, woken the same way, serve the next job
            pids = stream.pool.worker_pids()
            assert stream.run(arithmetic_spec(40)).output == expected
            assert stream.pool.worker_pids() == pids
            stream.assert_nobody_terminated()

    def test_token_count_follows_live_workers_after_respawn(self, stream):
        """A worker dies mid-run and is replaced: the dead one gets no
        token (it would be left in the channel), the replacement does."""
        expected, _ = run_sequential(arithmetic_spec(40))
        result = stream.run(
            arithmetic_spec(40), fault_plan=FaultPlan(crash_iterations={9})
        )
        assert result.output == expected
        assert result.metrics.worker_crashes == 1
        assert result.metrics.respawns == 1
        assert not result.metrics.degraded_to_sequential
        assert _work_channel_balanced(result)
        stream.assert_nobody_terminated(respawned=1)

    @pytest.mark.parametrize(
        "stream", [mode for mode in EOS_MODES if mode[1] == "pool"],
        indirect=True, ids="-".join,
    )
    def test_cancel_ends_on_tokens(self, stream):
        """Cooperative cancel (only a lease can be cancelled) takes the same
        token path: the workers are released, not terminated, and serve the
        next job."""
        reached, gate = threading.Event(), threading.Event()

        def gated_produce(i):
            # phase A of a lease is a thread of this process; the four
            # iterations it still dispatches afterwards fit the channel
            if i == 8:
                reached.set()
                assert gate.wait(30)
            return i * 3

        def cancel_at_gate(engine, lease):
            assert reached.wait(30)
            lease.cancel()
            deadline = time.monotonic() + 30
            while not engine.metrics.cancelled:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            gate.set()

        spec = arithmetic_spec(12)
        spec.produce = gated_produce
        pids = stream.pool.worker_pids()
        result = stream.run(spec, during=cancel_at_gate)
        assert result.metrics.cancelled
        assert result.metrics.commits <= 8
        assert result.output == run_sequential(arithmetic_spec(12))[0][
            : result.metrics.commits
        ]
        stream.assert_nobody_terminated()
        expected, _ = run_sequential(arithmetic_spec(40))
        assert stream.run(arithmetic_spec(40)).output == expected
        assert stream.pool.worker_pids() == pids
