"""Tests for the hardware model: machine, the timed queue rule, versioned memory."""

import pytest

from repro.core.simulator import QueueFullError, schedule
from repro.hw.machine import MachineConfig
from repro.hw.versioned_memory import ConflictError, EpochState, VersionedMemory


class TestMachineConfig:
    def test_defaults_match_paper(self):
        machine = MachineConfig()
        assert machine.queue_count == 256
        assert machine.queue_capacity == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(cores=0)
        with pytest.raises(ValueError):
            MachineConfig(queue_capacity=0)

    def test_with_cores_preserves_other_fields(self):
        machine = MachineConfig(communication_latency=3)
        resized = machine.with_cores(8)
        assert resized.cores == 8
        assert resized.communication_latency == 3


def _two_stage(producer_costs, consumer_costs, capacity, latency=0, consumers=1):
    """One producer core, ``consumers`` consumer cores, one token per row."""
    rows = [
        ((2 * i, a, (), ()), (2 * i + 1, b, (), ()))
        for i, (a, b) in enumerate(zip(producer_costs, consumer_costs))
    ]
    stages = ((0,), tuple(range(1, consumers + 1)))
    return schedule(rows, stages, (capacity,), (latency,), 2 * len(rows))


class TestTimedQueueModel:
    """The timed queue rule as :func:`repro.core.simulator.schedule`
    applies it between two stages: produce k completes no earlier than
    consume k - capacity, consume k no earlier than produce k."""

    def test_produce_unblocked_when_space(self):
        run = _two_stage([10], [1], capacity=2)
        assert run.ends[0] == 10
        assert run.queue_stall == 0

    def test_produce_blocked_by_full_queue(self):
        # Token 0 is consumed at 1 and token 1 at 6, when the slow consumer
        # frees up; with one slot, produce 2 (ready at 3) must wait for it.
        run = _two_stage([1, 1, 1, 1], [5, 5, 5, 5], capacity=1)
        assert [run.starts[1], run.starts[3]] == [1, 6]
        assert run.ends[4] == 6
        assert run.queue_stall == 3 + 4  # produce 3 is ready at 7, waits to 11
        # ... and the producer's core is held until the produce completes.
        assert run.starts[6] == 6

    def test_consume_waits_for_produce(self):
        assert _two_stage([10], [1], capacity=2).starts[1] == 10
        assert _two_stage([10], [1], capacity=2, latency=3).starts[1] == 13

    def test_deadlock_detection_on_overfull(self):
        # A queue with no slot can never complete a produce.
        with pytest.raises(QueueFullError):
            _two_stage([1], [1], capacity=0)

    def test_each_core_pair_has_its_own_queue(self):
        run = _two_stage([1] * 5, [5] * 5, capacity=1, consumers=2)
        assert run.cores[1::2] == [1, 2, 1, 2, 1]
        # Row 3's token goes to core 2, whose one slot holds row 1's token,
        # taken at 2: no stall.  A slot shared by both cores would still
        # hold row 2's, taken at 6.
        assert run.ends[6] == 4
        # Row 4's goes to core 1, whose slot holds row 2's until 6.
        assert run.ends[8] == 6


class TestVersionedMemory:
    def test_privatization_isolates_epochs(self):
        memory = VersionedMemory()
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        memory.write(e1, "x", None, 42)
        # e0 is OLDER than e1: the younger epoch's buffered write must not be
        # visible backwards.
        assert memory.read(e0, "x") is None

    def test_eager_forwarding_to_younger(self):
        memory = VersionedMemory()
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        memory.write(e0, "x", None, 7)
        assert memory.read(e1, "x") == 7

    def test_forwarding_disabled(self):
        memory = VersionedMemory(eager_forwarding=False)
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        memory.write(e0, "x", None, 7)
        assert memory.read(e1, "x") is None

    def test_in_order_commit_enforced(self):
        memory = VersionedMemory()
        memory.begin_epoch()
        e1 = memory.begin_epoch()
        with pytest.raises(ConflictError):
            memory.commit(e1)

    def test_stale_read_squashed_on_commit(self):
        memory = VersionedMemory(eager_forwarding=False)
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        assert memory.read(e1, "x") is None  # speculative read, will be stale
        memory.write(e0, "x", None, 99)
        squashed = memory.commit(e0)
        assert squashed == [e1]
        assert e1.state is EpochState.SQUASHED
        assert memory.conflicts_detected == 1

    def test_forwarded_read_survives_commit(self):
        memory = VersionedMemory()
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        memory.write(e0, "x", None, 99)
        assert memory.read(e1, "x") == 99  # eager forwarding: correct value
        squashed = memory.commit(e0)
        assert squashed == []

    def test_silent_store_triggers_no_conflict(self):
        memory = VersionedMemory()
        e_init = memory.begin_epoch()
        memory.write(e_init, "x", None, 5)
        memory.commit(e_init)
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        assert memory.read(e1, "x") == 5
        memory.write(e0, "x", None, 5)  # silent: writes back the same value
        squashed = memory.commit(e0)
        assert squashed == []
        assert memory.silent_stores_suppressed >= 1

    def test_reissue_takes_commit_slot(self):
        memory = VersionedMemory(eager_forwarding=False)
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        memory.read(e1, "x")
        memory.write(e0, "x", None, 1)
        (squashed,) = memory.commit(e0)
        fresh = memory.reissue(squashed)
        assert memory.read(fresh, "x") == 1
        memory.commit(fresh)
        assert memory.committed_value("x") == 1

    def test_stale_handle_rejected(self):
        memory = VersionedMemory(eager_forwarding=False)
        e0 = memory.begin_epoch()
        e1 = memory.begin_epoch()
        memory.read(e1, "x")
        memory.write(e0, "x", None, 1)
        (squashed,) = memory.commit(e0)
        memory.reissue(squashed)
        with pytest.raises(ConflictError, match="stale"):
            memory.read(squashed, "y")

    def test_architectural_state_only_after_commit(self):
        memory = VersionedMemory()
        e0 = memory.begin_epoch()
        memory.write(e0, "x", None, 1)
        assert memory.committed_value("x") is None
        memory.commit(e0)
        assert memory.committed_value("x") == 1
