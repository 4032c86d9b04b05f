"""Tests for the task graph, execution plans and the pipeline simulator."""

import pytest

from repro.core.plan import ExecutionPlan
from repro.core.simulator import PipelineSimulator
from repro.core.tasks import Phase, SerializationEdge, Task, TaskGraph
from repro.hw.machine import MachineConfig


def make_graph(iterations=20, a=2, b=50, c=3, edges=()):
    tasks = []
    index = 0
    for i in range(iterations):
        for phase, cost in (("A", a), ("B", b), ("C", c)):
            tasks.append(Task(index, Phase(phase), i, cost))
            index += 1
    return TaskGraph(tasks, edges)


class TestTaskGraph:
    def test_indices_must_be_sequential(self):
        with pytest.raises(ValueError, match="sequential order"):
            TaskGraph([Task(1, Phase.A, 0, 1)])

    def test_backward_edge_rejected(self):
        graph = make_graph(2)
        with pytest.raises(ValueError, match="forward"):
            graph.add_edge(SerializationEdge(3, 1, "misspeculation"))

    def test_total_and_phase_costs(self):
        graph = make_graph(10, a=2, b=50, c=3)
        assert graph.total_cost() == 10 * 55
        assert graph.phase_cost(Phase.B) == 500

    def test_iterations(self):
        assert make_graph(7).iterations() == 7

    def test_edge_added_after_a_simulation_is_not_missed(self):
        """The graph caches what it compiled for the simulator; ``add_edge``
        must discard that, not leave the next run on the old edges."""
        graph = make_graph(4, a=1, b=30, c=1)
        simulator = PipelineSimulator(MachineConfig(cores=8))
        before = simulator.simulate(graph)
        assert graph.incoming(10) == ()

        edge = SerializationEdge(1, 10, "misspeculation")  # B0 -> B3
        graph.add_edge(edge)
        after = simulator.simulate(graph)
        assert after.task_start_times[10] >= after.task_end_times[1]
        assert after.makespan > before.makespan
        assert after.serialization_wait_time > before.serialization_wait_time
        assert graph.incoming(10) == (edge,)
        assert graph.edges == graph.misspeculation_edges() == [edge]
        # Edges do not change what the tasks cost.
        assert graph.total_cost() == before.sequential_time == after.sequential_time


class TestExecutionPlan:
    def test_one_core_sequential(self):
        plan = ExecutionPlan.for_machine(MachineConfig(cores=1))
        assert plan.is_sequential

    def test_two_cores_shares_sequential_phases(self):
        plan = ExecutionPlan.for_machine(MachineConfig(cores=2))
        assert plan.a_core == plan.c_core == 0
        assert plan.b_cores == [1]
        assert not plan.is_sequential

    def test_many_cores_dedicated_endpoints(self):
        plan = ExecutionPlan.for_machine(MachineConfig(cores=32))
        assert plan.a_core == 0
        assert plan.c_core == 31
        assert plan.replication_width == 30

    def test_missing_phases_free_cores(self):
        plan = ExecutionPlan.for_machine(MachineConfig(cores=4), has_a=False, has_c=False)
        assert plan.replication_width == 4


class TestPipelineSimulator:
    def test_single_core_time_equals_total(self):
        graph = make_graph()
        result = PipelineSimulator(MachineConfig(cores=1)).simulate(graph)
        assert result.makespan == graph.total_cost()
        assert result.speedup == 1.0

    def test_speedup_bounded_by_core_count(self):
        graph = make_graph(iterations=100)
        for cores in (2, 4, 8, 16, 32):
            result = PipelineSimulator(MachineConfig(cores=cores)).simulate(graph)
            assert result.speedup <= cores + 1e-9

    def test_perfectly_parallel_scales(self):
        graph = make_graph(iterations=300, a=1, b=100, c=1)
        result = PipelineSimulator(MachineConfig(cores=12)).simulate(graph)
        # 10 B cores; B dominates => speedup close to 10.
        assert result.speedup > 8.5

    def test_sequential_phase_bounds_speedup(self):
        # A as heavy as B: pipeline can never beat total/sum(A).
        graph = make_graph(iterations=100, a=50, b=50, c=1)
        result = PipelineSimulator(MachineConfig(cores=32)).simulate(graph)
        bound = graph.total_cost() / graph.phase_cost(Phase.A)
        assert result.speedup <= bound + 1e-9
        assert result.speedup > 0.8 * bound

    def test_serialization_chain_limits_speedup(self):
        # Every B depends on the previous B: no parallelism at all.
        iterations = 50
        edges = []
        for i in range(1, iterations):
            source = (i - 1) * 3 + 1  # B of iteration i-1
            target = i * 3 + 1
            edges.append(SerializationEdge(source, target, "misspeculation"))
        graph = make_graph(iterations, edges=edges)
        result = PipelineSimulator(MachineConfig(cores=16)).simulate(graph)
        assert result.speedup < 1.3
        assert result.serialization_wait_time > 0

    def test_misspeculation_charges_no_extra_cost(self):
        # A fully serialized B chain on many cores must cost exactly the
        # sequential B time plus pipeline fill, never more.
        iterations = 50
        edges = [
            SerializationEdge((i - 1) * 3 + 1, i * 3 + 1, "misspeculation")
            for i in range(1, iterations)
        ]
        graph = make_graph(iterations, a=1, b=20, c=1, edges=edges)
        result = PipelineSimulator(MachineConfig(cores=8)).simulate(graph)
        b_total = graph.phase_cost(Phase.B)
        assert result.makespan <= b_total + iterations * 2 + 50

    def test_queue_capacity_throttles_runahead(self):
        # Tiny queues + slow consumer: producer must stall.
        machine = MachineConfig(cores=3, queue_capacity=2)
        graph = make_graph(iterations=40, a=1, b=1, c=30)
        result = PipelineSimulator(machine).simulate(graph)
        assert result.queue_stall_time > 0

    def test_commutative_lock_serializes_sections(self):
        # Each B task spends ALL its time in one group's section: the lock
        # forces full serialization despite many cores.
        tasks = []
        index = 0
        for i in range(30):
            task = Task(index, Phase.B, i, 10, section_costs={"alloc": 10})
            tasks.append(task)
            index += 1
        graph = TaskGraph(tasks)
        result = PipelineSimulator(MachineConfig(cores=16)).simulate(graph)
        assert result.speedup < 1.5
        assert result.lock_wait_time > 0

    def test_small_sections_barely_hurt(self):
        tasks = []
        for i in range(64):
            tasks.append(Task(i, Phase.B, i, 100, section_costs={"alloc": 1}))
        graph = TaskGraph(tasks)
        result = PipelineSimulator(MachineConfig(cores=16)).simulate(graph)
        assert result.speedup > 10

    def test_communication_latency_slows_pipeline(self):
        graph = make_graph(iterations=50, a=5, b=5, c=5)
        fast = PipelineSimulator(MachineConfig(cores=4)).simulate(graph)
        slow = PipelineSimulator(
            MachineConfig(cores=4, communication_latency=20)
        ).simulate(graph)
        assert slow.makespan >= fast.makespan

    def test_two_b_tasks_same_iteration_rejected(self):
        tasks = [
            Task(0, Phase.B, 0, 1),
            Task(1, Phase.B, 0, 1),
        ]
        graph = TaskGraph(tasks)
        with pytest.raises(ValueError, match="two B tasks"):
            PipelineSimulator(MachineConfig(cores=4)).simulate(graph)

    def test_utilization_and_busy_accounting(self):
        graph = make_graph(iterations=100, a=1, b=50, c=1)
        result = PipelineSimulator(MachineConfig(cores=8)).simulate(graph)
        assert 0 < result.utilization <= 1.0
        assert sum(result.core_busy_time.values()) == graph.total_cost()

    def test_makespan_at_least_critical_path(self):
        graph = make_graph(iterations=10, a=1, b=30, c=1)
        result = PipelineSimulator(MachineConfig(cores=32)).simulate(graph)
        # One iteration's A+B+C chain is a lower bound.
        assert result.makespan >= 32
