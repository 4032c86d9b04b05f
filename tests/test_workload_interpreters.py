"""Tests for the perlbmk and gap interpreter analogs."""

import pytest

from repro.core.framework import FrameworkConfig, ParallelizationFramework
from repro.profiling.tracer import Tracer
from repro.workloads.gap_w import GapWorkload, _Heap, gap_alloc, generate_statements
from repro.workloads.perlbmk_w import (
    ADD,
    LOAD,
    MUL,
    NEG,
    NEXTSTATE,
    PRINT,
    PUSH,
    STORE,
    PerlbmkWorkload,
    generate_program,
)


def reference_execute(program):
    """Direct (non-traced, non-stack) evaluation for cross-checking."""
    variables = {}
    output = []
    modulus = 1 << 31
    for statement in program:
        stack = []
        for opcode, operand in statement:
            if opcode == PUSH:
                stack.append(operand)
            elif opcode == LOAD:
                stack.append(variables.get(operand, 0))
            elif opcode == STORE:
                variables[operand] = stack.pop() % modulus
            elif opcode == ADD:
                b, a = stack.pop(), stack.pop()
                stack.append((a + b) % modulus)
            elif opcode == MUL:
                b, a = stack.pop(), stack.pop()
                stack.append((a * b) % modulus)
            elif opcode == NEG:
                stack.append((-stack.pop()) % modulus)
            elif opcode == PRINT:
                output.append(stack.pop())
    return output


class TestPerlbmk:
    def test_interpreter_matches_reference(self):
        workload = PerlbmkWorkload(statements=100)
        tracer = Tracer()
        from repro.profiling.context import activate

        with activate(tracer):
            result = workload.run(tracer)
        expected = reference_execute(workload.program)
        assert result["printed"] == len(expected)
        digest = sum(i * v for i, v in enumerate(expected)) % (1 << 32)
        assert result["digest"] == digest

    def test_statement_dependences_are_real(self):
        """Consecutive statements truly share data: RAW deps must exist."""
        evaluation = ParallelizationFramework().evaluate(
            PerlbmkWorkload(statements=120)
        )
        raw = [e for e in evaluation.graph.edges if e.location and e.location[0] == "perl.var"]
        assert len(raw) > 50

    def test_low_speedup_signature(self):
        evaluation = ParallelizationFramework().evaluate(PerlbmkWorkload())
        assert evaluation.report.best_speedup < 2.0  # paper: 1.21

    def test_value_sites_predictable(self):
        from repro.profiling.value_profile import ValueProfile

        evaluation = ParallelizationFramework().evaluate(
            PerlbmkWorkload(statements=100)
        )
        profile = ValueProfile(evaluation.parallel_trace)
        assert profile.predictability("PL_temp_ixs") == 1.0

    def test_program_generation_deterministic(self):
        assert generate_program(5, 50) == generate_program(5, 50)


class TestGapHeap:
    def test_allocation_and_value(self):
        heap = _Heap(capacity=100)
        slot, gc = heap.allocate("int", 42, 1, {}, None)
        assert gc == 0
        assert heap.value(slot) == 42

    def test_collection_preserves_live_values(self):
        heap = _Heap(capacity=10)
        roots = {}
        for i in range(8):
            slot, _ = heap.allocate("int", i * 11, 1, roots, None)
            roots[f"v{i}"] = slot
        # Drop half the roots; the next overflow collects the garbage.
        for i in range(0, 8, 2):
            del roots[f"v{i}"]
        heap.allocate("list", [1, 2, 3, 4, 5, 6], 7, roots, None)
        assert heap.collections >= 1
        for i in range(1, 8, 2):
            assert heap.value(roots[f"v{i}"]) == i * 11

    def test_collection_reclaims_space(self):
        heap = _Heap(capacity=10)
        roots = {}
        for i in range(30):
            slot, _ = heap.allocate("int", i, 1, roots, None)
            roots["only"] = slot  # keep just the newest alive
        assert heap.collections >= 2
        # Only the single root survives each collection, so occupancy never
        # exceeds the capacity even after 3x overallocation.
        assert heap.live_cells <= heap.capacity

    def test_gc_writes_visible_to_tracer(self):
        tracer = Tracer()
        heap = _Heap(capacity=4)
        roots = {}
        with tracer.task("B", 0):
            tracer.work(1)
            for i in range(6):
                slot, _ = heap.allocate("int", i, 1, roots, tracer)
                roots[f"v{i}"] = slot
        trace = tracer.finish()
        stores = [
            location for _, _, location, _, _ in trace.accesses
            if location[0] == "gap.heap"
        ]
        assert len(stores) > 6  # allocations + GC copy writes


class TestGapWorkload:
    def test_deterministic(self):
        fw = ParallelizationFramework()
        first = fw.profile_workload(GapWorkload(), False)[1]
        second = fw.profile_workload(GapWorkload(), False)[1]
        assert first == second

    def test_collections_happen(self):
        output = ParallelizationFramework().profile_workload(GapWorkload(), False)[1]
        assert output["collections"] >= 3

    def test_gc_limits_speedup(self):
        evaluation = ParallelizationFramework().evaluate(GapWorkload())
        assert evaluation.report.best_speedup < 3.5  # paper: 1.94

    def test_commutative_allocator_required(self):
        with_annotation = ParallelizationFramework().evaluate(GapWorkload())
        without = ParallelizationFramework(
            FrameworkConfig(enable_commutative=False)
        ).evaluate(GapWorkload())
        assert without.report.best_speedup <= with_annotation.report.best_speedup

    def test_statement_mix(self):
        statements = generate_statements(254, 1000)
        kinds = [s[0] for s in statements]
        assert all(0 <= k <= 3 for k in kinds)
        # The Last-using statements are the plurality serialization source.
        assert kinds.count(3) > 300
