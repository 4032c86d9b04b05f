"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os

import pytest
from hypothesis import settings

# Deterministic property tests: same examples on every machine, every run.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")

from repro.ir.builder import ProgramBuilder
from repro.ir.loops import find_loops
from repro.ir.types import IntType

#: Per-test deadline, seconds: far above the slowest test (about 13 s on
#: 2 vCPUs), so only a hang reaches it.
TEST_DEADLINE_S = 180

#: A descriptor of the terminal's stderr, taken while output capture is
#: suspended: during a test, descriptor 2 is pytest's capture file, and
#: what is written there is lost when the run exits.
_terminal_stderr: list = []


def pytest_configure(config):
    _terminal_stderr.append(os.dup(2))


def pytest_unconfigure(config):
    while _terminal_stderr:
        os.close(_terminal_stderr.pop())


@pytest.fixture(autouse=True)
def _hang_deadline():
    """A test still running after ``TEST_DEADLINE_S`` is a hang: dump
    every thread's stack to the terminal and end the run with exit status
    1, instead of waiting silently for an outer timeout that shows
    nothing."""
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, exit=True, file=_terminal_stderr[0]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def job_gate(monkeypatch):
    """Holds every ``synthetic`` service job open at its fifth iteration
    until the test sets the returned event — "still running" stated as a
    fact instead of hoped for from job size and teardown latency.  Phase A
    of a pooled job runs on a server thread, so the gate only works for an
    in-process :class:`PipelineService`."""
    import threading

    from repro.service import jobs

    gate = threading.Event()

    def gated_produce(i: int) -> int:
        if i == 4:
            gate.wait(60)
        return i

    monkeypatch.setattr(jobs, "_synthetic_produce", gated_produce)
    yield gate
    gate.set()


@pytest.fixture
def counter_program():
    """A tiny program with a global-counter loop (one natural loop)."""
    pb = ProgramBuilder("counter")
    counter = pb.global_variable("counter")
    fb = pb.function("main")
    fb.block("entry")
    fb.jump("loop")
    fb.block("loop")
    value = fb.load(counter, [counter], name="value")
    incremented = fb.add(value, 1, name="incremented")
    fb.store(incremented, counter, [counter])
    done = fb.compare("lt", incremented, 100, name="done")
    fb.branch(done, "loop", "exit")
    fb.block("exit")
    fb.ret(0)
    return pb.finish()


@pytest.fixture
def counter_loop(counter_program):
    nest = find_loops(counter_program.function("main"))
    return nest.outermost()


@pytest.fixture
def pipeline_program():
    """A loop with a clean A (induction) / B (heavy pure compute) / C
    (accumulator) structure: the canonical DSWP-friendly shape."""
    pb = ProgramBuilder("pipeline")
    total = pb.global_variable("total")
    data = pb.global_variable("data")
    fb = pb.function("main")
    fb.block("entry")
    fb.jump("loop")
    fb.block("loop")
    i = fb.phi(IntType(64), [(0, "entry")], name="i")
    element = fb.load(data, [data], name="element", cost=2)
    squared = fb.mul(element, element, name="squared", cost=50)
    running = fb.load(total, [total], name="running", cost=1)
    updated = fb.add(running, squared, name="updated", cost=1)
    fb.store(updated, total, [total], cost=1)
    next_i = fb.add(i, 1, name="next_i", cost=1)
    phi = fb.function.block("loop").phis()[0]
    phi.operands.append(next_i)
    phi.incoming_blocks.append("loop")
    cond = fb.compare("lt", next_i, 1000, name="cond")
    fb.branch(cond, "loop", "exit")
    fb.block("exit")
    fb.ret()
    return pb.finish()


@pytest.fixture
def pipeline_loop(pipeline_program):
    nest = find_loops(pipeline_program.function("main"))
    return nest.outermost()
