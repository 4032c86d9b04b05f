"""Tests for repro.resilience: checkpoint/resume, adaptive speculation
throttling, the seeded chaos harness, and cross-layer invariant checking.

The acceptance contract (ISSUE 2): a chaos run with >= 20 randomized
injected faults completes bit-identical to the sequential oracle with zero
invariant violations, and a run killed mid-stream resumes from its last
checkpoint re-executing only the uncommitted suffix — asserted via commit
counters.  Chaos seeds honour ``CHAOS_SEED`` so CI can sweep a seed matrix.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exec import (
    ChannelChaos,
    ExecutionEngine,
    FaultPlan,
    PipelineSpec,
    ProcessChannel,
    RobustnessPolicy,
    run_sequential,
)
from repro.resilience import (
    ChaosConfig,
    ChaosReport,
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    CheckpointManager,
    InvariantError,
    InvariantKind,
    SpeculationThrottle,
    ThrottleConfig,
    chaos_channel_plan,
    chaos_plan,
    check_checkpoints,
    check_run,
    run_chaos,
    spec_fingerprint,
)
from repro.resilience.chaos import INJECT_FAULTS
from tests.test_exec_committer import RunningTotal

#: CI's chaos job sweeps this through a fixed seed matrix.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))


@pytest.fixture(autouse=True, scope="module")
def _no_shm_orphans():
    """Chaos runs kill processes on purpose; none of that may leak a
    shared-memory segment.  Fails the module loudly if one survives."""
    from repro.exec.transport import assert_no_orphans

    yield
    assert_no_orphans(timeout=10.0)

FAST_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
)


# -- module-level stage functions (picklable across processes) ---------------------


def produce_triple(i):
    return i * 3


def square_work(i, value):
    return (value * value + i) % 1009


def slow_first_work(i, value):
    if i == 0:
        import time

        time.sleep(0.2)  # hold the commit frontier so pending fills up
    return square_work(i, value)


def running_sum_work(i, value, ctx):
    total = ctx.read("acc", "total") or 0
    ctx.write("acc", "total", total + value)
    return total + value


def append_commit(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def take_out(acc):
    return acc.get("out", [])


class CrashingCommit:
    """An engine-level crash: the committer itself dies at iteration ``at``."""

    def __init__(self, at):
        self.at = at

    def __call__(self, i, result, acc):
        if i == self.at:
            raise RuntimeError(f"injected engine crash at commit {i}")
        append_commit(i, result, acc)


def arithmetic_spec(iterations=50, commit=append_commit):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_triple,
        work=square_work,
        commit=commit,
        finalize=take_out,
    )


def speculative_spec(iterations=32):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_triple,
        work=running_sum_work,
        commit=append_commit,
        finalize=take_out,
        shared_state={("acc", "total"): 0},
        speculative=True,
    )


# -- checkpoint/resume -------------------------------------------------------------


class TestCheckpointing:
    def test_checkpoints_taken_at_interval(self):
        engine = ExecutionEngine(
            workers=2, capacity=4, checkpoints=CheckpointConfig(interval=10)
        )
        result = engine.run(arithmetic_spec(50))
        assert result.metrics.checkpoints_taken >= 4
        assert [c.index for c in result.checkpoints] == sorted(
            c.index for c in result.checkpoints
        )
        covers = [c.next_commit for c in result.checkpoints]
        assert covers == sorted(covers)
        assert check_checkpoints(result.checkpoints) == []

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            checkpoints=CheckpointConfig(interval=10, path=path),
        )
        engine.run(arithmetic_spec(50))
        checkpoint = Checkpoint.load(path)
        assert checkpoint.next_commit >= 40
        assert checkpoint.fingerprint == spec_fingerprint(arithmetic_spec(50))

    def test_resume_reexecutes_only_the_suffix(self, tmp_path):
        """ISSUE acceptance: resume re-executes only iterations after the
        last committed checkpoint, asserted via commit counters."""
        expected, _ = run_sequential(arithmetic_spec(50))
        path = str(tmp_path / "crash.ckpt")
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            checkpoints=CheckpointConfig(interval=5, path=path),
        )
        with pytest.raises(RuntimeError, match="injected engine crash"):
            engine.run(arithmetic_spec(50, commit=CrashingCommit(31)))

        checkpoint = Checkpoint.load(path)
        assert 0 < checkpoint.next_commit <= 31

        resumed = ExecutionEngine(
            workers=2,
            capacity=4,
            checkpoints=CheckpointConfig(interval=5, path=path),
        )
        result = resumed.run(arithmetic_spec(50), resume_from=path)
        assert result.output == expected
        assert result.metrics.resumed_from == checkpoint.next_commit
        assert result.metrics.commits == 50 - checkpoint.next_commit
        # Indices keep climbing across the resumed segment.
        assert all(
            c.index > checkpoint.index for c in result.checkpoints
        )
        assert check_run(result, sequential_output=expected) == []

    def test_resume_speculative_state_restored(self, tmp_path):
        expected, _ = run_sequential(speculative_spec(32))
        path = str(tmp_path / "spec.ckpt")
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            checkpoints=CheckpointConfig(interval=4, path=path),
        )
        engine.run(speculative_spec(32))
        checkpoint = Checkpoint.load(path)
        result = ExecutionEngine(workers=2, capacity=4).run(
            speculative_spec(32), resume_from=checkpoint
        )
        assert result.output == expected
        assert result.metrics.commits == 32 - checkpoint.next_commit
        assert result.state[("acc", "total")] == sum(
            produce_triple(i) for i in range(32)
        )

    def test_resume_from_complete_checkpoint_is_a_noop_run(self):
        engine = ExecutionEngine(
            workers=2, capacity=4, checkpoints=CheckpointConfig(interval=1)
        )
        first = engine.run(arithmetic_spec(12))
        final = first.checkpoints[-1]
        assert final.next_commit == 12
        result = ExecutionEngine(workers=2).run(
            arithmetic_spec(12), resume_from=final
        )
        assert result.output == first.output
        assert result.metrics.commits == 0

    def test_fingerprint_mismatch_refuses_resume(self):
        engine = ExecutionEngine(
            workers=2, capacity=4, checkpoints=CheckpointConfig(interval=5)
        )
        result = engine.run(arithmetic_spec(20))
        checkpoint = result.checkpoints[-1]
        with pytest.raises(CheckpointError, match="fingerprint"):
            ExecutionEngine(workers=2).run(
                arithmetic_spec(21), resume_from=checkpoint
            )

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(path))

    def test_manager_rejects_regression(self):
        manager = CheckpointManager(CheckpointConfig(interval=1), "fp")
        from repro.exec import CommittedStore, EngineMetrics

        store = CommittedStore()
        manager.take(10, store, {}, EngineMetrics())
        with pytest.raises(CheckpointError, match="regression"):
            manager.take(9, store, {}, EngineMetrics())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval=0)
        with pytest.raises(ValueError):
            CheckpointConfig(keep=0)


# -- the on-disk checkpoint log ----------------------------------------------------


def take_cuts(path, cuts, first=1):
    """``cuts`` checkpoints of one run into the log at ``path``; returns
    the file size after each cut."""
    from repro.exec import CommittedStore, EngineMetrics

    manager = CheckpointManager(CheckpointConfig(interval=1, path=path), "fp")
    store = CommittedStore()
    sizes = []
    for next_commit in range(first, first + cuts):
        manager.take(next_commit, store, list(range(next_commit)),
                     EngineMetrics())
        sizes.append(os.path.getsize(path))
    return sizes


class TestCheckpointLog:
    def test_truncation_at_every_byte_keeps_the_newest_complete_record(
        self, tmp_path
    ):
        """A kill mid-append leaves a prefix of the log; every prefix loads
        the newest record it holds whole, never a partial one."""
        path = str(tmp_path / "run.ckpt")
        ends = take_cuts(path, 3)
        raw = open(path, "rb").read()
        assert ends[-1] == len(raw)
        cut_path = tmp_path / "cut.ckpt"
        for cut in range(len(raw) + 1):
            cut_path.write_bytes(raw[:cut])
            whole = sum(end <= cut for end in ends)
            if whole == 0:
                with pytest.raises(CheckpointError):
                    Checkpoint.load(str(cut_path))
                continue
            checkpoint = Checkpoint.load(str(cut_path))
            assert checkpoint.next_commit == whole
            assert checkpoint.accumulator == list(range(whole))

    def test_flipped_byte_in_last_body_falls_back(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        ends = take_cuts(path, 3)
        raw = open(path, "rb").read()
        body_start = ends[1] + 12  # the header is magic, length, crc32
        flipped = tmp_path / "flipped.ckpt"
        for offset in range(body_start, len(raw)):
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            flipped.write_bytes(bytes(damaged))
            assert Checkpoint.load(str(flipped)).next_commit == 2

    def test_raw_pickle_file_is_rejected(self, tmp_path):
        import pickle

        path = str(tmp_path / "run.ckpt")
        take_cuts(path, 1)
        old = tmp_path / "old.ckpt"
        old.write_bytes(pickle.dumps(Checkpoint.load(path)))
        with pytest.raises(CheckpointError, match="no complete"):
            Checkpoint.load(str(old))

    def test_first_cut_renames_later_cuts_append_and_size_is_bounded(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience.checkpoint import LOG_RECORDS

        path = str(tmp_path / "run.ckpt")
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        cuts = 2 * LOG_RECORDS + 1
        sizes = take_cuts(path, cuts)
        # cuts 1, LOG_RECORDS + 1, 2 * LOG_RECORDS + 1 start the log over
        assert replaced == [path] * 3
        assert sizes[LOG_RECORDS] < sizes[LOG_RECORDS - 1]
        # records grow with the accumulator: the last one is the largest
        assert max(sizes) <= LOG_RECORDS * sizes[-1]
        assert Checkpoint.load(path).next_commit == cuts
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_a_new_run_starts_the_log_over(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        take_cuts(path, 3)
        (size,) = take_cuts(path, 1, first=7)
        assert take_cuts(str(tmp_path / "fresh.ckpt"), 1, first=7) == [size]
        assert Checkpoint.load(path).next_commit == 7


def checksum_commit(i, result, acc):
    """A constant-size accumulator: one byte-sized checksum."""
    acc["checksum"] = (acc.get("checksum", 0) * 31 + result) % 251


class TestCutCost:
    def test_a_cut_does_no_work_that_grows_with_commits(
        self, tmp_path, monkeypatch
    ):
        """A cut records counters: no histogram is summarized and no
        verdict estimated while the run is on, and every record the log
        is written is the size of the first."""
        import repro.obs.analyze as analyze
        from repro.obs.hist import LatencyHistogram

        calls = {"summary": 0, "estimate_bottleneck": 0}
        real_summary = LatencyHistogram.summary
        real_estimate = analyze.estimate_bottleneck

        def counting_summary(self):
            calls["summary"] += 1
            return real_summary(self)

        def counting_estimate(metrics):
            calls["estimate_bottleneck"] += 1
            return real_estimate(metrics)

        record_sizes = []
        real_record = Checkpoint._record

        def sizing_record(self):
            record = real_record(self)
            record_sizes.append(len(record))
            return record

        monkeypatch.setattr(LatencyHistogram, "summary", counting_summary)
        monkeypatch.setattr(analyze, "estimate_bottleneck", counting_estimate)
        monkeypatch.setattr(Checkpoint, "_record", sizing_record)
        path = str(tmp_path / "run.ckpt")
        spec = arithmetic_spec(2000, commit=checksum_commit)
        result = ExecutionEngine(
            workers=1, policy=FAST_POLICY,
            checkpoints=CheckpointConfig(interval=8, path=path),
        ).run(spec)
        assert calls == {"summary": 0, "estimate_bottleneck": 0}
        assert result.output == run_sequential(spec)[0]
        assert len(record_sizes) == result.metrics.checkpoints_taken == 250
        # Counters that pass 255 pickle one byte wider; nothing else grows.
        assert max(record_sizes) - record_sizes[0] <= 12
        assert Checkpoint.load(path).next_commit == 2000


# -- adaptive speculation throttling -----------------------------------------------


class TestThrottle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThrottleConfig(observation=0)
        with pytest.raises(ValueError):
            ThrottleConfig(backoff=1.5)
        with pytest.raises(ValueError):
            ThrottleConfig(min_window=0)
        with pytest.raises(ValueError):
            ThrottleConfig(low_watermark=0.9, high_watermark=0.5)

    def test_exponential_backoff_to_serial_floor(self):
        throttle = SpeculationThrottle(
            ThrottleConfig(observation=4), max_window=16
        )
        windows = []
        for _ in range(10 * 4):
            changed = throttle.record(misspeculated=True)
            if changed is not None:
                windows.append(changed)
        assert windows == [8, 4, 2, 1]  # multiplicative halving, floor 1
        assert throttle.min_window_seen == 1
        assert throttle.shrinks == 4

    def test_probes_back_up_when_storm_passes(self):
        throttle = SpeculationThrottle(
            ThrottleConfig(observation=4, probe_step=1), max_window=8
        )
        for _ in range(8):
            throttle.record(True)  # storm: 8 -> 4 -> 2
        assert throttle.window == 2
        grown = []
        for _ in range(6 * 4):
            changed = throttle.record(False)
            if changed is not None:
                grown.append(changed)
        assert grown == [3, 4, 5, 6, 7, 8]  # additive probing, capped at max
        assert throttle.window == 8
        assert throttle.grows == 6

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.booleans(), st.integers(1, 40)), max_size=12
        ),
        observation=st.integers(1, 8),
        high_watermark=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_a_run_of_commits_moves_it_as_one_commit_at_a_time(
        self, runs, observation, high_watermark
    ):
        """Whole clean epochs at the ceiling are skipped, not decided one
        by one: the window, its history and every return value stay
        those of one call per commit."""
        config = ThrottleConfig(
            observation=observation, high_watermark=high_watermark,
            low_watermark=min(0.125, high_watermark),
        )
        by_run = SpeculationThrottle(config, max_window=6)
        by_commit = SpeculationThrottle(config, max_window=6)
        for misspeculated, commits in runs:
            changes = [by_commit.record(misspeculated) for _ in range(commits)]
            last = [change for change in changes if change is not None]
            assert by_run.record(misspeculated, commits) == (
                last[-1] if last else None
            )
            assert vars(by_run) == vars(by_commit)

    def test_disabled_controller_never_moves(self):
        throttle = SpeculationThrottle(
            ThrottleConfig(enabled=False, observation=1), max_window=4
        )
        assert throttle.record(True) is None
        assert throttle.window == 4

    def test_engine_throttles_under_conflict_storm(self):
        """The live engine backs off to (near-)serial execution under a
        loop-carried RAW dependence and still commits bit-identically."""
        expected, _ = run_sequential(speculative_spec(48))
        engine = ExecutionEngine(
            workers=3, capacity=8, throttle=ThrottleConfig(observation=4)
        )
        result = engine.run(speculative_spec(48))
        assert result.output == expected
        assert result.metrics.throttle_shrinks >= 1
        assert result.metrics.min_window == 1
        assert result.metrics.final_window >= 1

    def test_clean_pipeline_never_shrinks(self):
        engine = ExecutionEngine(workers=2, capacity=4)
        result = engine.run(arithmetic_spec(40))
        assert result.metrics.throttle_shrinks == 0
        assert result.metrics.min_window == result.metrics.final_window


# -- the seeded chaos harness ------------------------------------------------------


class TestChaosHarness:
    def test_plan_reproducible_from_seed(self):
        first = chaos_plan(80, CHAOS_SEED)
        second = chaos_plan(80, CHAOS_SEED)
        assert first == second
        assert first != chaos_plan(80, CHAOS_SEED + 1)

    def test_plan_disjoint_and_counted(self):
        plan = chaos_plan(80, CHAOS_SEED)
        categories = [
            plan.crash_iterations,
            plan.hang_iterations,
            plan.error_iterations,
            plan.conflict_iterations,
            plan.latency_iterations,
            plan.duplicate_result_iterations,
            plan.drop_result_iterations,
        ]
        total = sum(len(category) for category in categories)
        union = set().union(*categories)
        assert len(union) == total  # disjoint sampling
        assert plan.injected_fault_count == total

    def test_config_fits_small_runs(self):
        config = ChaosConfig().fitted(10)
        assert config.worker_total <= 5
        plan = chaos_plan(10, CHAOS_SEED)
        assert plan.injected_fault_count >= 1

    def test_chaos_run_acceptance(self):
        """ISSUE acceptance: >= 20 randomized injections, bit-identical
        output, zero invariant violations."""
        report = run_chaos(lambda: arithmetic_spec(80), CHAOS_SEED)
        assert report.injected_faults + report.channel_injections >= 20
        assert report.output_identical
        assert report.ok, report.format_summary()
        report.raise_on_violation()  # must not raise
        assert isinstance(report, ChaosReport)
        data = report.to_json()
        assert data["seed"] == CHAOS_SEED
        assert data["violations"] == []

    def test_chaos_run_speculative(self):
        report = run_chaos(
            lambda: speculative_spec(48),
            CHAOS_SEED + 7,
            config=ChaosConfig(crashes=1, hangs=1, drops=1),
        )
        assert report.ok, report.format_summary()
        assert report.output_identical

    def test_chaos_with_channel_drop_degrades_but_stays_exact(self):
        """A lost work item can only be healed by degradation — which must
        still produce the exact sequential output."""
        config = ChaosConfig(
            crashes=0, hangs=0, drops=0, channel_drops=1,
            channel_latencies=0, channel_duplicates=0,
        )
        policy = RobustnessPolicy(
            task_timeout=2.0, stall_timeout=1.0, poll_interval=0.01,
            max_respawns=8,
        )
        report = run_chaos(
            lambda: arithmetic_spec(40), CHAOS_SEED, config=config,
            policy=policy,
        )
        assert report.output_identical
        assert report.ok, report.format_summary()

    def test_chaos_killed_and_resumed_mid_stream(self, tmp_path):
        """ISSUE acceptance: a chaos run killed mid-stream resumes from its
        checkpoint, re-executing only the uncommitted suffix."""
        expected, _ = run_sequential(arithmetic_spec(60))
        path = str(tmp_path / "chaos.ckpt")
        plan = chaos_plan(60, CHAOS_SEED, ChaosConfig(crashes=1, hangs=1))
        engine = ExecutionEngine(
            workers=3,
            capacity=8,
            policy=RobustnessPolicy(
                task_timeout=1.0, stall_timeout=20.0, max_respawns=8,
                poll_interval=0.01,
            ),
            fault_plan=plan,
            checkpoints=CheckpointConfig(interval=5, path=path),
        )
        with pytest.raises(RuntimeError, match="injected engine crash"):
            engine.run(arithmetic_spec(60, commit=CrashingCommit(41)))

        checkpoint = Checkpoint.load(path)
        resumed = ExecutionEngine(
            workers=3,
            capacity=8,
            policy=FAST_POLICY,
            fault_plan=plan,
            checkpoints=CheckpointConfig(interval=5, path=path),
        )
        result = resumed.run(arithmetic_spec(60), resume_from=path)
        assert result.output == expected
        assert result.metrics.commits == 60 - checkpoint.next_commit
        assert check_run(result, sequential_output=expected) == []

    def test_worker_side_duplicates_and_drops_direct(self):
        """Duplicated results dedup; dropped results recover via timeout."""
        expected, _ = run_sequential(arithmetic_spec(30))
        plan = FaultPlan(
            duplicate_result_iterations={3, 9},
            drop_result_iterations={15},
        )
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=plan,
            policy=RobustnessPolicy(
                task_timeout=0.5, stall_timeout=15.0, poll_interval=0.01,
            ),
        )
        result = engine.run(arithmetic_spec(30))
        assert result.output == expected
        assert result.metrics.duplicates_dropped >= 1
        assert result.metrics.commits == 30

    def test_forced_conflict_on_speculative_spec(self):
        expected, _ = run_sequential(arithmetic_spec(20))
        plan = FaultPlan(conflict_iterations={4, 11})
        result = ExecutionEngine(
            workers=2, capacity=4, fault_plan=plan, policy=FAST_POLICY
        ).run(arithmetic_spec(20))
        # Non-speculative spec: forced conflicts degenerate to soft faults.
        assert result.output == expected
        assert result.metrics.soft_faults == 2

        expected_spec, _ = run_sequential(speculative_spec(20))
        result = ExecutionEngine(
            workers=2, capacity=4, fault_plan=plan, policy=FAST_POLICY
        ).run(speculative_spec(20))
        assert result.output == expected_spec
        assert result.metrics.commits == 20


# -- one sampler: replay with --seed is pinned -------------------------------------

#: ``FaultPlan`` fields in the order the golden rows list them.
PLAN_FIELDS = (
    "crash_iterations",
    "hang_iterations",
    "error_iterations",
    "conflict_iterations",
    "latency_iterations",
    "duplicate_result_iterations",
    "drop_result_iterations",
)

#: ``(seed, iterations) -> (worker-side sets, (channel latency indices,
#: channel duplicates, channel drops))``, captured from the sampler before
#: ``--inject-faults`` and ``params.chaos`` were folded into it: the
#: schedules every recorded ``--seed`` replays.
GOLDEN_DEFAULT_MIX = {
    (1337, 10): (((), (), (9,), (8,), (), (), ()), ((5, 9), (0,), ())),
    (1337, 80): (((68, 79), (46,), (21, 42, 49, 73, 74), (26, 39, 50, 71, 77), (8, 13, 51, 54), (32, 44, 76), (22,)), ((42, 74), (2,), ())),
    (1337, 200): (((136, 158), (181,), (42, 93, 146, 149, 187), (85, 92, 98, 162, 198), (52, 78, 100, 178), (27, 168, 194), (108,)), ((85, 148), (5,), ())),
    (20071209, 10): (((), (), (7,), (2,), (), (), ()), ((3, 4), (2,), ())),
    (20071209, 80): (((20, 59), (23,), (51, 62, 64, 66, 79), (0, 15, 42, 53, 67), (32, 33, 48, 58), (43, 57, 70), (22,)), ((27, 34), (76,), ())),
    (20071209, 200): (((40, 119), (46,), (102, 124, 129, 132, 168), (85, 106, 157, 184, 198), (0, 31, 135, 196), (177, 178, 199), (67,)), ((55, 69), (153,), ())),
    (424242, 10): (((), (), (8,), (3,), (), (), ()), ((3, 6), (2,), ())),
    (424242, 80): (((29, 64), (40,), (5, 25, 34, 43, 67), (17, 44, 48, 51, 70), (19, 58, 61, 72), (42, 46, 66), (79,)), ((25, 51), (16,), ())),
    (424242, 200): (((58, 129), (81,), (11, 69, 87, 134, 179), (35, 51, 88, 97, 141), (39, 103, 116, 139), (122, 169, 186), (78,)), ((51, 166), (102,), ())),
}
#: The same, for ``exec --chaos 20``: ``ChaosConfig.sized(20)`` fitted to
#: the run as :func:`run_chaos` fits it.
GOLDEN_SIZED_20 = {
    (1337, 10): (((), (), (9,), (8,), (), (), ()), ((5, 9), (0,), ())),
    (1337, 80): (((68, 79), (46,), (21, 42, 73, 74), (39, 49, 50, 77), (13, 26, 71), (51, 54), (8,)), ((42, 74), (2,), ())),
    (20071209, 10): (((), (), (7,), (2,), (), (), ()), ((3, 4), (2,), ())),
    (20071209, 80): (((20, 59), (23,), (51, 62, 64, 66), (42, 53, 67, 79), (0, 15, 33), (32, 48), (58,)), ((27, 34), (76,), ())),
    (424242, 10): (((), (), (8,), (3,), (), (), ()), ((3, 6), (2,), ())),
    (424242, 80): (((29, 64), (40,), (5, 34, 43, 67), (17, 25, 48, 70), (44, 51, 58), (19, 72), (61,)), ((25, 51), (16,), ())),
}


def _schedule(plan, channel):
    return (
        tuple(tuple(sorted(getattr(plan, name))) for name in PLAN_FIELDS),
        (
            tuple(sorted(channel.latency_by_index)),
            tuple(sorted(channel.duplicate_indices)),
            tuple(sorted(channel.drop_indices)),
        ),
    )


def frozen_seeded(iterations, seed):
    """``FaultPlan.seeded`` as it was when it was the ``--inject-faults``
    sampler: the reference its replacement must keep matching."""
    import random

    if iterations <= 0:
        return FaultPlan()
    rng = random.Random(seed)
    picks = rng.sample(range(iterations), min(2, iterations))
    crash = {picks[0]}
    error = {picks[1]} if len(picks) > 1 else set()
    return FaultPlan(crash_iterations=crash, error_iterations=error)


class TestOneSampler:
    @pytest.mark.parametrize("key", sorted(GOLDEN_DEFAULT_MIX))
    def test_default_mix_replays_its_recorded_schedule(self, key):
        seed, iterations = key
        assert _schedule(
            chaos_plan(iterations, seed), chaos_channel_plan(iterations, seed)
        ) == GOLDEN_DEFAULT_MIX[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN_SIZED_20))
    def test_sized_mix_replays_its_recorded_schedule(self, key):
        seed, iterations = key
        config = ChaosConfig.sized(20).fitted(iterations)
        assert _schedule(
            chaos_plan(iterations, seed, config),
            chaos_channel_plan(iterations, seed, config),
        ) == GOLDEN_SIZED_20[key]

    @settings(max_examples=300)
    @given(
        iterations=st.integers(min_value=0, max_value=500),
        seed=st.integers(),
    )
    # the runs too short for the default mix's fit to leave both in place
    @example(iterations=1, seed=CHAOS_SEED)
    @example(iterations=2, seed=CHAOS_SEED)
    @example(iterations=3, seed=CHAOS_SEED)
    def test_inject_faults_draws_what_seeded_drew(self, iterations, seed):
        plan = chaos_plan(iterations, seed, INJECT_FAULTS)
        reference = frozen_seeded(iterations, seed)
        assert plan.crash_iterations == reference.crash_iterations
        assert plan.error_iterations == reference.error_iterations
        assert plan.injected_fault_count == reference.injected_fault_count

    def test_an_explicit_config_is_drawn_in_full(self):
        config = ChaosConfig(
            crashes=1, hangs=0, soft_faults=1, conflicts=1, latencies=0,
            duplicates=0, drops=0,
        )
        # the default fit would keep one injection of three at 3 iterations
        assert chaos_plan(3, CHAOS_SEED, config).injected_fault_count == 3


class TestChannelChaos:
    def test_latency_duplicate_drop(self):
        chaos = ChannelChaos(
            latency_by_index={0: 0.01},
            duplicate_indices=frozenset({1}),
            drop_indices=frozenset({2}),
        )
        channel = ProcessChannel(capacity=8, name="t", chaos=chaos)
        channel.put("a")  # delayed
        channel.put("b")  # duplicated
        channel.put("c")  # dropped
        channel.put("d")
        got = [channel.get(timeout=1) for _ in range(4)]
        assert got == ["a", "b", "b", "d"]
        assert chaos.injection_count == 3

    def test_chaosless_channel_unchanged(self):
        channel = ProcessChannel(capacity=2, name="t")
        channel.put(1)
        assert channel.get(timeout=1) == 1


# -- cross-layer invariant checking ------------------------------------------------


class TestInvariants:
    def _clean_result(self):
        engine = ExecutionEngine(workers=2, capacity=4)
        return engine.run(arithmetic_spec(20))

    def test_clean_run_has_no_violations(self):
        result = self._clean_result()
        expected, _ = run_sequential(arithmetic_spec(20))
        assert check_run(result, sequential_output=expected) == []

    def test_exactly_once_violation_detected(self):
        result = self._clean_result()
        result.metrics.commits = 19  # doctor a lost commit
        kinds = {v.kind for v in check_run(result)}
        assert InvariantKind.EXACTLY_ONCE_COMMIT in kinds

    def test_in_order_violation_detected(self):
        result = self._clean_result()
        result.metrics.in_order_commits -= 1
        kinds = {v.kind for v in check_run(result)}
        assert InvariantKind.IN_ORDER_COMMIT in kinds

    def test_output_divergence_detected(self):
        result = self._clean_result()
        violations = check_run(result, sequential_output=["wrong"])
        kinds = {v.kind for v in violations}
        assert InvariantKind.OUTPUT_DIVERGENCE in kinds

    def test_queue_occupancy_violation_detected(self):
        result = self._clean_result()
        result.metrics.channel_stats["work"]["max_occupancy"] = 999
        kinds = {v.kind for v in check_run(result)}
        assert InvariantKind.QUEUE_OCCUPANCY in kinds

    def test_metric_consistency_violation_detected(self):
        result = self._clean_result()
        result.metrics.conflicts = 5
        result.metrics.serial_reexecutions = 0
        kinds = {v.kind for v in check_run(result)}
        assert InvariantKind.METRIC_CONSISTENCY in kinds

    def test_checkpoint_monotonicity_violation_detected(self):
        class Stub:
            def __init__(self, index, next_commit):
                self.index = index
                self.next_commit = next_commit

        violations = check_checkpoints([Stub(0, 10), Stub(0, 5)])
        kinds = {v.kind for v in violations}
        assert kinds == {InvariantKind.CHECKPOINT_MONOTONICITY}
        assert len(violations) == 2

    def test_invariant_error_is_taxonomized(self):
        result = self._clean_result()
        result.metrics.commits = 0
        result.metrics.in_order_commits = 5
        with pytest.raises(InvariantError) as excinfo:
            from repro.resilience import assert_run

            assert_run(result)
        message = str(excinfo.value)
        assert "exactly-once-commit" in message
        assert "in-order-commit" in message
        assert len(excinfo.value.violations) >= 2


# -- RobustnessPolicy edge cases (satellite) ---------------------------------------


class TestRobustnessPolicyEdges:
    def test_zero_respawn_budget_still_exact(self):
        """Budget 0: dead workers stay dead; the survivor (or degradation)
        still produces the exact output."""
        expected, _ = run_sequential(arithmetic_spec(24))
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(crash_iterations={5}),
            policy=RobustnessPolicy(
                task_timeout=5.0, stall_timeout=10.0, max_respawns=0,
                poll_interval=0.01,
            ),
        )
        result = engine.run(arithmetic_spec(24))
        assert result.output == expected
        assert result.metrics.respawns == 0
        assert result.metrics.worker_crashes == 1
        assert result.metrics.commits == 24

    def test_nonpositive_timeouts_rejected(self):
        with pytest.raises(ValueError):
            RobustnessPolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            RobustnessPolicy(task_timeout=-1.0)
        with pytest.raises(ValueError):
            RobustnessPolicy(stall_timeout=0.0)
        with pytest.raises(ValueError):
            RobustnessPolicy(max_respawns=-1)

    def test_hang_seconds_clamped_to_task_timeout(self):
        policy = RobustnessPolicy(
            task_timeout=0.3, stall_timeout=10.0, poll_interval=0.01
        )
        plan = FaultPlan(hang_iterations={3}, hang_seconds=60.0)
        clamped = plan.clamped_to(policy)
        assert clamped.hang_seconds <= policy.task_timeout + 1.0 + 1e-9
        # The engine applies the clamp at construction.
        engine = ExecutionEngine(
            workers=2, capacity=4, fault_plan=plan, policy=policy
        )
        assert engine.fault_plan.hang_seconds == clamped.hang_seconds
        # A short plan is left alone.
        short = FaultPlan(hang_iterations={3}, hang_seconds=0.1)
        assert short.clamped_to(policy) is short

    def test_degradation_with_partially_drained_reorder_buffer(self):
        """Producer death while completed results sit in the reorder buffer
        behind a slow head-of-line commit: pending results are reused and
        the output stays exact."""
        expected, _ = run_sequential(
            PipelineSpec(
                iterations=30,
                produce=produce_triple,
                work=slow_first_work,
                commit=append_commit,
                finalize=take_out,
            )
        )
        engine = ExecutionEngine(
            workers=3,
            capacity=8,
            fault_plan=FaultPlan(producer_crash_at=9),
            policy=RobustnessPolicy(
                task_timeout=5.0, stall_timeout=5.0, poll_interval=0.01
            ),
        )
        result = engine.run(
            PipelineSpec(
                iterations=30,
                produce=produce_triple,
                work=slow_first_work,
                commit=append_commit,
                finalize=take_out,
            )
        )
        assert result.output == expected
        assert result.metrics.producer_crashed
        assert result.metrics.degraded_to_sequential
        assert result.metrics.commits == 30
        assert result.metrics.in_order_commits == 30

    def test_resume_after_degrade(self, tmp_path):
        """A degraded run keeps checkpointing; its checkpoints remain valid
        resume points for a fresh engine."""
        expected, _ = run_sequential(arithmetic_spec(30))
        path = str(tmp_path / "degrade.ckpt")
        engine = ExecutionEngine(
            workers=2,
            capacity=4,
            fault_plan=FaultPlan(producer_crash_at=9),
            policy=FAST_POLICY,
            checkpoints=CheckpointConfig(interval=5, path=path),
        )
        degraded = engine.run(arithmetic_spec(30))
        assert degraded.metrics.degraded_to_sequential
        assert degraded.output == expected
        assert degraded.metrics.checkpoints_taken >= 1

        checkpoint = Checkpoint.load(path)
        result = ExecutionEngine(workers=2, capacity=4).run(
            arithmetic_spec(30), resume_from=checkpoint
        )
        assert result.output == expected
        assert result.metrics.commits == 30 - checkpoint.next_commit
        assert result.metrics.resumed_from == checkpoint.next_commit


# -- a stateful phase A on the recovery paths ----------------------------------------


def running_total_spec(iterations):
    """In an engine run ``produce.calls`` counts the committer's calls."""
    return PipelineSpec(
        iterations=iterations,
        produce=RunningTotal(),
        work=square_work,
        commit=append_commit,
        finalize=take_out,
    )


TRANSPORTS = ["pipe", "shm", "thread"]


class TestStatefulPhaseA:
    @pytest.mark.parametrize("crash_at", [15, 35])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_degraded_parser_run_is_the_sequential_one(
        self, transport, crash_at
    ):
        """197.parser's phase A toggles echo mode on every command; a
        producer crash degrades the run to the committer's own replay of
        phase A, which must never be the object a phase-A thread has
        already advanced."""
        from repro.workloads.parser_w import ParserWorkload

        def spec():
            return ParserWorkload(
                sentence_count=120, command_every=10
            ).exec_spec()

        expected, _ = run_sequential(spec())
        result = ExecutionEngine(
            workers=2, capacity=4, transport=transport,
            fault_plan=FaultPlan(producer_crash_at=crash_at),
            policy=FAST_POLICY,
        ).run(spec())
        assert result.metrics.degraded_to_sequential
        assert result.output == expected

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_phase_a_is_replayed_at_most_once(self, transport):
        """A soft fault, two lost workers (no respawns, so the second loss
        degrades the run): every recovery reads one phase-A replay in the
        committer, which calls ``produce`` at most once per iteration."""
        iterations = 40
        spec = running_total_spec(iterations)
        expected, _ = run_sequential(running_total_spec(iterations))
        result = ExecutionEngine(
            workers=2, capacity=4, transport=transport,
            fault_plan=FaultPlan(
                error_iterations={5}, crash_iterations={10, 20}
            ),
            policy=RobustnessPolicy(
                task_timeout=5.0, stall_timeout=10.0, max_respawns=0,
                poll_interval=0.01,
            ),
        ).run(spec)
        assert result.output == expected
        metrics = result.metrics
        assert metrics.soft_faults == 1
        assert metrics.worker_crashes == 2
        assert metrics.degraded_to_sequential
        assert metrics.serial_reexecutions >= 3
        assert 0 < spec.produce.calls <= iterations


# -- CLI surface -------------------------------------------------------------------


class TestResilienceCLI:
    def test_exec_seeded_fault_injection_prints_seed(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                ["exec", "256.bzip2", "--workers", "2",
                 "--inject-faults", "--seed", "11"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fault injection seed: 11" in output
        assert "bit-identical to sequential execution" in output

    def test_exec_chaos_subcommand(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "chaos.json"
        code = main(
            ["exec", "256.bzip2", "--workers", "2", "--chaos", "8",
             "--seed", str(CHAOS_SEED), "--json", str(path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"chaos seed: {CHAOS_SEED}" in output
        assert "OK" in output
        import json

        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert data["seed"] == CHAOS_SEED

    def test_exec_checkpoint_and_resume_flags(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "cli.ckpt"
        assert (
            main(
                ["exec", "256.bzip2", "--workers", "2",
                 "--checkpoint", str(path), "--checkpoint-interval", "2"]
            )
            == 0
        )
        assert path.exists()
        capsys.readouterr()
        assert (
            main(
                ["exec", "256.bzip2", "--workers", "2",
                 "--resume", str(path)]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "bit-identical to sequential execution" in output
        assert "resumed from iteration" in output
