"""Reusable example-program builders for tests, benchmarks and docs.

These construct small IR programs with well-understood dependence shapes:

- :func:`build_caller_callee_loop` — heavy compute behind a call, the
  whole-program-scope case that inlining exposes;
- :func:`build_two_hump_loop` — two heavy DOALL regions split by a
  sequential recurrence, the shape where multi-stage PS-DSWP beats the
  paper's 3-phase plan.
"""

from __future__ import annotations

from typing import Tuple

from repro.ir.builder import ProgramBuilder
from repro.ir.loops import Loop, find_loops
from repro.ir.program import Program
from repro.ir.types import IntType


def build_caller_callee_loop(
    trip_count: int = 1000, callee_cost: int = 80, commutative_helper: bool = False
) -> Tuple[Program, Loop]:
    """A loop whose heavy compute hides behind a function call.

    The whole-program-scope case (Section 2.2): until the call is inlined,
    the partitioner sees one opaque node; after ``inline_loop_calls`` the
    callee's pure compute becomes the parallel stage.
    """
    pb = ProgramBuilder("scoped")
    total = pb.global_variable("total")
    data = pb.global_variable("data")

    helper = pb.function("heavy", [IntType(64)], ["x"])
    helper.block("entry")
    squared = helper.mul(helper.param(0), helper.param(0), name="squared",
                         cost=callee_cost)
    helper.ret(squared)
    if commutative_helper:
        helper.function.mark_commutative(group="heavy")

    fb = pb.function("main")
    fb.block("entry")
    fb.jump("loop")
    fb.block("loop")
    i = fb.phi(IntType(64), [(0, "entry")], name="i")
    element = fb.load(data, [data], name="element", cost=2)
    call = fb.call("heavy", [element], name="result", cost=1)
    running = fb.load(total, [total], name="running", cost=1)
    fb.store(fb.add(running, call.result), total, [total], cost=1)
    next_i = fb.add(i, 1, name="next_i")
    phi = fb.function.block("loop").phis()[0]
    phi.operands.append(next_i)
    phi.incoming_blocks.append("loop")
    fb.branch(fb.compare("lt", next_i, trip_count, name="cond"), "loop", "exit")
    fb.block("exit")
    fb.ret()
    program = pb.finish()
    program.set_main("main")
    return program, find_loops(program.function("main")).outermost()


def build_two_hump_loop(
    trip_count: int = 100000, hump_cost: int = 100
) -> Tuple[Program, Loop]:
    """B1 (heavy, pure) -> S (carried recurrence) -> B2 (heavy, pure).

    B2 consumes S's per-iteration output, so no topological order can merge
    the humps — the multi-stage planner's motivating shape.
    """
    pb = ProgramBuilder("two_hump")
    mid = pb.global_variable("mid")
    out = pb.global_variable("out")
    data = pb.global_variable("data")
    fb = pb.function("main")
    fb.block("entry")
    fb.jump("loop")
    fb.block("loop")
    i = fb.phi(IntType(64), [(0, "entry")], name="i")
    element = fb.load(data, [data], name="element", cost=2)
    hump1 = fb.mul(element, element, name="hump1", cost=hump_cost)
    carried = fb.load(mid, [mid], name="carried", cost=1)
    mixed = fb.add(carried, hump1, name="mixed", cost=1)
    fb.store(mixed, mid, [mid], cost=1)
    hump2 = fb.mul(mixed, 3, name="hump2", cost=hump_cost)
    acc = fb.load(out, [out], name="acc", cost=1)
    fb.store(fb.add(acc, hump2, name="acc2", cost=1), out, [out], cost=1)
    next_i = fb.add(i, 1, name="next_i")
    phi = fb.function.block("loop").phis()[0]
    phi.operands.append(next_i)
    phi.incoming_blocks.append("loop")
    fb.branch(fb.compare("lt", next_i, trip_count, name="cond"), "loop", "exit")
    fb.block("exit")
    fb.ret()
    program = pb.finish()
    return program, find_loops(program.function("main")).outermost()
