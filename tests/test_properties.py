"""Property-based tests (hypothesis) for the core invariants.

- the pipeline recurrence's queues never exceed capacity or break FIFO timing;
- versioned-memory TLS execution always equals sequential execution;
- the pipeline simulator obeys conservation laws on random task graphs;
- SCC condensation partitions the PDG and stays acyclic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan
from repro.core.simulator import PipelineSimulator, schedule
from repro.core.tasks import Phase, SerializationEdge, Task, TaskGraph
from repro.hw.machine import MachineConfig
from repro.hw.versioned_memory import VersionedMemory
from repro.tls.epochs import TLSExecution


# ---------------------------------------------------------------------------------
# Queue invariants of the pipeline recurrence
# ---------------------------------------------------------------------------------

@given(
    costs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=60,
    ),
    consumers=st.integers(min_value=1, max_value=3),
    capacity=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=0, max_value=3),
)
def test_timed_queue_capacity_never_exceeded(costs, consumers, capacity, latency):
    """A producer core feeding ``consumers`` cores, one queue per pair: a
    produce completes only once its queue, the new token included, holds at
    most ``capacity``; consumes follow their produce by the latency; both
    are in order."""
    rows = [
        ((2 * i, a, (), ()), (2 * i + 1, b, (), ()))
        for i, (a, b) in enumerate(costs)
    ]
    stages = ((0,), tuple(range(1, consumers + 1)))
    run = schedule(rows, stages, (capacity,), (latency,), 2 * len(rows))
    for consumer in stages[1]:
        taken = [i for i in range(len(rows)) if run.cores[2 * i + 1] == consumer]
        produce_times = [run.ends[2 * i] for i in taken]
        consume_times = [run.starts[2 * i + 1] for i in taken]
        for k, produced in enumerate(produce_times):
            assert consume_times[k] >= produced + latency
            if k >= capacity:
                assert produced >= consume_times[k - capacity]
        assert produce_times == sorted(produce_times)
        assert consume_times == sorted(consume_times)


# ---------------------------------------------------------------------------------
# Versioned memory: TLS execution == sequential execution
# ---------------------------------------------------------------------------------

@given(
    program=st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "rmw"]),
            st.integers(min_value=0, max_value=3),   # location
            st.integers(min_value=0, max_value=9),   # value
        ),
        min_size=1,
        max_size=8,
    ),
    iterations=st.integers(min_value=1, max_value=12),
    window=st.integers(min_value=1, max_value=6),
    forwarding=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_tls_execution_equals_sequential(program, iterations, window, forwarding):
    def body_factory(store):
        def body(view, i):
            observed = []
            for op, loc, val in program:
                key = f"x{loc}"
                if op == "read":
                    observed.append(view.read(key))
                elif op == "write":
                    view.write(key, None, val + i)
                else:
                    current = view.read(key) or 0
                    view.write(key, None, (current + val + i) % 97)
            return tuple(observed)
        return body

    # Sequential reference.
    memory = {}

    def sequential(i):
        observed = []
        for op, loc, val in program:
            key = (f"x{loc}", None)
            if op == "read":
                observed.append(memory.get(key))
            elif op == "write":
                memory[key] = val + i
            else:
                current = memory.get(key) or 0
                memory[key] = (current + val + i) % 97
        return tuple(observed)

    expected = [sequential(i) for i in range(iterations)]

    execution = TLSExecution(
        VersionedMemory(eager_forwarding=forwarding), max_epochs_in_flight=window
    )
    results = execution.execute(body_factory(None), iterations)
    assert results == expected
    assert execution.memory.architectural_state() == memory


# ---------------------------------------------------------------------------------
# Pipeline simulator conservation laws on random task graphs
# ---------------------------------------------------------------------------------

@st.composite
def task_graphs(draw):
    iterations = draw(st.integers(min_value=1, max_value=30))
    costs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),     # A
                st.integers(min_value=1, max_value=100),   # B
                st.integers(min_value=0, max_value=8),     # C
            ),
            min_size=iterations,
            max_size=iterations,
        )
    )
    tasks = []
    index = 0
    for i, (a, b, c) in enumerate(costs):
        for phase, cost in (("A", a + 1), ("B", b), ("C", c + 1)):
            tasks.append(Task(index, Phase(phase), i, cost))
            index += 1
    graph = TaskGraph(tasks)
    edge_count = draw(st.integers(min_value=0, max_value=min(10, iterations - 1)))
    for _ in range(edge_count):
        target_iteration = draw(st.integers(min_value=1, max_value=iterations - 1)) if iterations > 1 else None
        if target_iteration is None:
            break
        source_iteration = draw(st.integers(min_value=0, max_value=target_iteration - 1))
        graph.add_edge(
            SerializationEdge(
                source_iteration * 3 + 1, target_iteration * 3 + 1, "misspeculation"
            )
        )
    return graph


@given(graph=task_graphs(), cores=st.sampled_from([1, 2, 3, 4, 8, 16, 32]))
@settings(max_examples=80, deadline=None)
def test_simulator_conservation(graph, cores):
    result = PipelineSimulator(MachineConfig(cores=cores)).simulate(graph)
    total = graph.total_cost()
    # Work conservation: busy time across cores equals total task cost.
    assert sum(result.core_busy_time.values()) == total
    # Speedup bounded by core count and by 1x from below... (pipelining can
    # never lose work, only add waiting).
    assert result.makespan >= -(-total // cores)  # ceil(total/cores)
    assert result.speedup <= cores + 1e-9
    # Every task finished within the makespan.
    assert max(result.task_end_times) == result.makespan
    if cores == 1:
        assert result.makespan == total


@given(graph=task_graphs())
@settings(max_examples=40, deadline=None)
def test_fully_serialized_graph_never_beats_sequential_b(graph):
    """Chain every B task: makespan must cover the whole B phase."""
    chained = TaskGraph(
        [Task(t.index, t.phase, t.iteration, t.cost) for t in graph.tasks]
    )
    iterations = chained.iterations()
    for i in range(1, iterations):
        chained.add_edge(
            SerializationEdge((i - 1) * 3 + 1, i * 3 + 1, "misspeculation")
        )
    result = PipelineSimulator(MachineConfig(cores=8)).simulate(chained)
    assert result.makespan >= chained.phase_cost(Phase.B)


# ---------------------------------------------------------------------------------
# SCC condensation of random dependence graphs
# ---------------------------------------------------------------------------------

@given(
    node_count=st.integers(min_value=1, max_value=20),
    edges=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60
    ),
)
@settings(max_examples=60, deadline=None)
def test_scc_condensation_partitions_and_is_acyclic(node_count, edges):
    from repro.ir.instructions import BinOp
    from repro.ir.values import Constant
    from repro.pdg.graph import PDG, PDGEdge
    from repro.pdg.scc import condense

    pdg = PDG()
    instructions = []
    for _ in range(node_count):
        instruction = BinOp("add", Constant(1), Constant(2))
        instructions.append(instruction)
        pdg.add_node(instruction)
    for a, b in edges:
        if a < node_count and b < node_count and a != b:
            pdg.add_edge(
                PDGEdge(instructions[a].id, instructions[b].id, "register")
            )
    dag = condense(pdg)
    # Partition: every node in exactly one SCC.
    seen = set()
    for scc in dag.sccs:
        assert seen.isdisjoint(scc.node_ids)
        seen |= scc.node_ids
    assert len(seen) == node_count
    # Acyclic and topologically ordered.
    order = {scc.index: i for i, scc in enumerate(dag.topological_order())}
    for a, b in dag.edges:
        assert order[a] < order[b]
