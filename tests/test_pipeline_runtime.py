"""Tests for the threaded DSWP pipeline: ``ExecutionEngine(transport="thread")``.

Phase A produces on the engine's thread, phase B runs on worker threads
that may finish out of order, and phase C commits strictly in iteration
order.  The output-equals-sequential sweep over workers x capacity lives
in ``test_exec_runtimes``; these are the threaded pipeline's edge cases.
"""

import time

import pytest

from repro.exec import ExecutionEngine, PipelineSpec


def identity_produce(i):
    return i


def jittery_work(i, value):
    if i % 7 == 0:
        time.sleep(0.001)  # let later iterations overtake
    return value


def append_index(i, result, acc):
    acc.setdefault("out", []).append(i)


def take_out(acc):
    return acc.get("out", [])


class TestPipelineRuntime:
    def test_commit_order_despite_reordering(self):
        spec = PipelineSpec(
            iterations=100,
            produce=identity_produce,
            work=jittery_work,
            commit=append_index,
            finalize=take_out,
        )
        engine = ExecutionEngine(workers=4, capacity=16, transport="thread")
        result = engine.run(spec)
        assert result.output == list(range(100))
        assert result.metrics.commits == result.metrics.iterations == 100

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0, transport="thread")
