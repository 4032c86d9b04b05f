"""Performance microbenchmarks of the reproduction's own machinery.

Unlike the figure/table benches (which run once and assert shapes), these
use pytest-benchmark's real repeated timing: they track the throughput of
the components a user pays for — the pipeline simulator, the tracer, the
memory profiler, the task-graph build, mem2reg, PDG condensation, the
whole-program alias analysis, and the analogs' hottest kernels (bzip2's BWT
and the text generator) — so regressions in the infrastructure itself are
visible.
"""

import pytest

from repro.analysis.alias import AliasAnalysis
from repro.core.simulator import PipelineSimulator
from repro.core.tasks import Phase, SerializationEdge, Task, TaskGraph
from repro.hw.machine import MachineConfig
from repro.pdg.builder import build_loop_pdg
from repro.pdg.scc import condense
from repro.profiling.memory_profile import MemoryProfile
from repro.profiling.tracer import Tracer
from repro.speculation.manager import plan_from_profile


def build_big_graph(iterations=2000):
    tasks = []
    index = 0
    for i in range(iterations):
        for phase, cost in (("A", 2), ("B", 50 + (i * 7919) % 60), ("C", 2)):
            tasks.append(Task(index, Phase(phase), i, cost))
            index += 1
    graph = TaskGraph(tasks)
    for i in range(16, iterations, 16):
        graph.add_edge(
            SerializationEdge((i - 16) * 3 + 1, i * 3 + 1, "misspeculation")
        )
    return graph


def test_perf_pipeline_simulator(benchmark):
    """Steady cost: the graph's compiled rows are built by the first round
    and reused by every later one, as the 15 later core counts of an
    evaluation reuse them."""
    graph = build_big_graph()
    machine = MachineConfig(cores=32)

    result = benchmark(lambda: PipelineSimulator(machine).simulate(graph))
    assert result.makespan > 0


def test_perf_pipeline_simulator_cold(benchmark):
    """Compile + steady cost: every round simulates a fresh ``TaskGraph``
    over the same tasks and edges, as the first core count of an evaluation
    does."""
    warm = build_big_graph()
    machine = MachineConfig(cores=32)

    result = benchmark(
        lambda: PipelineSimulator(machine).simulate(TaskGraph(warm.tasks, warm.edges))
    )
    assert result.makespan == PipelineSimulator(machine).simulate(warm).makespan


def test_perf_memory_profile(benchmark):
    tracer = Tracer()
    for i in range(3000):
        with tracer.task("B", i):
            tracer.work(1)
            tracer.load("shared", i % 64)
            tracer.store("shared", i % 64, value=i)
            tracer.load("private", i)
    trace = tracer.finish()

    profile = benchmark(lambda: MemoryProfile(trace))
    assert profile.dependences


def test_perf_tracer_hot_path(benchmark):
    """Task brackets, work and loads/stores (some inside a Commutative
    group): the hooks every analog calls on every profiled access."""

    def trace():
        tracer = Tracer()
        for i in range(2000):
            with tracer.task("B", i):
                tracer.work(3)
                tracer.load("shared", i % 64)
                with tracer.commutative("alloc"):
                    tracer.store("heap", "top", value=i)
                tracer.store("shared", i % 64, value=i % 3)
        return tracer.finish()

    result = benchmark(trace)
    assert len(result.accesses) == 6000


def test_perf_task_graph_from_trace(benchmark):
    tracer = Tracer()
    for i in range(2000):
        for phase in "ABC":
            with tracer.task(phase, i):
                tracer.work(2)
                tracer.load("shared", i % 32)
                if phase == "B":
                    tracer.store("shared", (i * 7) % 32, value=i)
    trace = tracer.finish()
    profile = MemoryProfile(trace)
    plan = plan_from_profile(profile)

    graph = benchmark(lambda: TaskGraph.from_trace(trace, profile, plan))
    assert graph.edges


def test_perf_mem2reg_gcc_functions(benchmark):
    """mem2reg over every function of the gcc analog's unit, each lowered
    afresh per round (the pass rewrites its input)."""
    from repro.ir.ssa import promote_memory_to_registers
    from repro.workloads.gcc_compiler import Lowerer, Parser, generate_source, tokenize

    unit = Parser(tokenize(generate_source(176, 60))).parse_unit()

    def setup():
        return ([Lowerer().lower(ast) for ast in unit],), {}

    def promote(functions):
        return sum(promote_memory_to_registers(function) for function in functions)

    promoted = benchmark.pedantic(promote, setup=setup, rounds=10)
    assert promoted > 0


def test_perf_bwt_4k_block(benchmark):
    """256.bzip2's suffix sort on one block at the benchmark's block size."""
    from repro.workloads.bzip2_w import burrows_wheeler_transform
    from repro.workloads.generators import generate_text

    block = generate_text(256, 4096)
    last_column, work = benchmark(lambda: burrows_wheeler_transform(block))
    assert len(last_column) == 4097 and work > 4097


def test_perf_generate_text_96k(benchmark):
    """164.gzip's input at the benchmark's size, built on every round as
    the benchmark builds it inside each timed evaluation."""
    from repro.workloads.generators import generate_text

    text = benchmark(lambda: generate_text(164, 96 * 1024))
    assert len(text) == 96 * 1024


def test_perf_scc_condensation(benchmark, pipeline_program_and_loop):
    program, loop = pipeline_program_and_loop
    pdg = build_loop_pdg(program, loop)

    dag = benchmark(lambda: condense(pdg))
    assert dag.sccs


def test_perf_alias_analysis(benchmark):
    from repro.workloads.gcc_compiler import Lowerer, Parser, generate_source, tokenize
    from repro.ir.program import Program

    unit = Parser(tokenize(generate_source(5, 25))).parse_unit()
    program = Program("big")
    for ast in unit:
        program.add_function(Lowerer().lower(ast))

    analysis = benchmark(lambda: AliasAnalysis(program))
    assert analysis.all_objects()


@pytest.fixture
def pipeline_program_and_loop():
    from repro.ir.builder import ProgramBuilder
    from repro.ir.loops import find_loops
    from repro.ir.types import IntType

    pb = ProgramBuilder("perf")
    total = pb.global_variable("total")
    data = pb.global_variable("data")
    fb = pb.function("main")
    fb.block("entry")
    fb.jump("loop")
    fb.block("loop")
    i = fb.phi(IntType(64), [(0, "entry")], name="i")
    value = fb.load(data, [data], name="value", cost=2)
    result = value
    for step in range(30):  # a wide loop body: 30 chained operations
        result = fb.mul(result, result, name=f"step{step}", cost=3)
    running = fb.load(total, [total], name="running")
    fb.store(fb.add(running, result), total, [total])
    next_i = fb.add(i, 1, name="next_i")
    phi = fb.function.block("loop").phis()[0]
    phi.operands.append(next_i)
    phi.incoming_blocks.append("loop")
    fb.branch(fb.compare("lt", next_i, 1000), "loop", "exit")
    fb.block("exit")
    fb.ret()
    return pb.finish(), find_loops(pb.program.function("main")).outermost()
