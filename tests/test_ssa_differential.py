"""Differential oracle: the linear mem2reg against its frozen reference.

``tests/reference_ssa.py`` holds ``promote_memory_to_registers`` as it was
when every promoted load walked the whole function to rewrite its uses.
Both run on the same lowering with the IR's id counters restarted at the
same point, so equal output means the same IR, down to the ``t<id>`` names
of unnamed registers: the new pass creates the same phis and undefs in the
same order.
"""

import itertools

import pytest
from hypothesis import given, settings

import repro.ir.instructions as instructions
import repro.ir.ssa as ssa
import repro.ir.values as values
from repro.analysis.dominators import DominatorTree
from repro.ir.printer import format_function
from repro.workloads.gcc_compiler import (
    Lowerer,
    Parser,
    compile_function,
    generate_source,
    tokenize,
)
from tests.reference_ssa import (
    reference_children,
    reference_promote_memory_to_registers,
)
from tests.test_compiler_fuzzing import functions

#: Far above any id a test session hands out, so restarted counters never
#: collide with a live object's id.
_ID_BASE = 10 ** 9

GCC_SEEDS = (176, 5, 1)


def _restart_ids():
    instructions._instruction_ids = itertools.count(_ID_BASE)
    values._value_ids = itertools.count(_ID_BASE)


@pytest.fixture(autouse=True)
def _keep_id_counters():
    saved = instructions._instruction_ids, values._value_ids
    yield
    instructions._instruction_ids, values._value_ids = saved


def gcc_functions(seed):
    return Parser(tokenize(generate_source(seed, 60))).parse_unit()


def promoted_ir(promote, ast):
    _restart_ids()
    function = Lowerer().lower(ast)
    promoted = promote(function)
    return promoted, format_function(function)


def compiled(promote, ast, index, monkeypatch):
    monkeypatch.setattr(ssa, "promote_memory_to_registers", promote)
    _restart_ids()
    return compile_function(ast, index)


def assert_same(ast, index, monkeypatch):
    assert promoted_ir(ssa.promote_memory_to_registers, ast) == promoted_ir(
        reference_promote_memory_to_registers, ast
    )
    shipped = ssa.promote_memory_to_registers
    assert compiled(shipped, ast, index, monkeypatch) == compiled(
        reference_promote_memory_to_registers, ast, index, monkeypatch
    )


@pytest.mark.parametrize("seed", GCC_SEEDS)
def test_gcc_analog_functions_match_reference(seed, monkeypatch):
    unit = gcc_functions(seed)
    assert len(unit) == 60
    for index, ast in enumerate(unit):
        assert_same(ast, index, monkeypatch)


@given(source=functions())
@settings(max_examples=60, deadline=None)
def test_fuzzed_programs_match_reference(source):
    ast = Parser(tokenize(source)).parse_unit()[0]
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same(ast, 0, monkeypatch)


@pytest.mark.parametrize("seed", GCC_SEEDS)
def test_dominator_children_match_the_scan(seed):
    for ast in gcc_functions(seed):
        function = Lowerer().lower(ast)
        dom = DominatorTree(function)
        for block in function.blocks:
            assert dom.children(block.name) == reference_children(dom, block.name)
