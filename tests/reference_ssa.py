"""Frozen reference mem2reg the linear one is diffed against.

Test-only: nothing in ``src/`` imports this module.  It holds
``promote_memory_to_registers`` as ``repro.ir.ssa`` had it before mem2reg
became linear: every promoted load rewrote its uses by walking the whole
function, phi placeholders asked each block for its predecessors (a scan of
every block), and dominator-tree children were found by scanning the
immediate-dominator map.  ``tests/test_ssa_differential.py`` asserts the
shipped pass prints identical IR and compiles to identical output.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Load, Phi, Store
from repro.ir.ssa import promotable_objects
from repro.ir.types import IntType
from repro.ir.values import MemoryObject, UndefValue, Value


def reference_children(dom: DominatorTree, name: str) -> List[str]:
    """Dominator-tree children by scanning the immediate-dominator map."""
    return sorted(
        node
        for node, idom in dom._engine.idom.items()
        if idom == name and node != name
    )


def reference_promote_memory_to_registers(function: Function) -> int:
    objects = promotable_objects(function)
    if not objects:
        return 0
    dom = DominatorTree(function)
    frontiers = dom.frontier()

    for target in objects:
        _promote_one(function, dom, frontiers, target)
    return len(objects)


def _promote_one(
    function: Function,
    dom: DominatorTree,
    frontiers: Dict[str, List[str]],
    target: MemoryObject,
) -> None:
    defining_blocks = {
        instruction.block.name
        for instruction in function.instructions()
        if isinstance(instruction, Store)
        and len(instruction.may_access) == 1
        and instruction.may_access[0] is target
    }

    phi_blocks: Set[str] = set()
    worklist = list(defining_blocks)
    while worklist:
        block_name = worklist.pop()
        for frontier_block in frontiers.get(block_name, []):
            if frontier_block not in phi_blocks:
                phi_blocks.add(frontier_block)
                worklist.append(frontier_block)

    phis: Dict[str, Phi] = {}
    for block_name in sorted(phi_blocks):
        block = function.block(block_name)
        placeholders = [
            (UndefValue(IntType(64)), predecessor.name)
            for predecessor in block.predecessors()
        ]
        phi = Phi(IntType(64), placeholders, name=f"{target.name}.phi")
        block.insert(len(block.phis()), phi)
        phis[block_name] = phi

    def rename(block_name: str, reaching: Value) -> None:
        block = function.block(block_name)
        if block_name in phis:
            reaching = phis[block_name].result
        for instruction in list(block.instructions):
            if (
                isinstance(instruction, Load)
                and len(instruction.may_access) == 1
                and instruction.may_access[0] is target
            ):
                _replace_uses(function, instruction.result, reaching)
                block.remove(instruction)
            elif (
                isinstance(instruction, Store)
                and len(instruction.may_access) == 1
                and instruction.may_access[0] is target
            ):
                reaching = instruction.operands[0]
                block.remove(instruction)
        for successor in block.successors():
            phi = phis.get(successor.name)
            if phi is not None:
                for index, incoming_block in enumerate(phi.incoming_blocks):
                    if incoming_block == block_name:
                        phi.operands[index] = reaching
        for child in reference_children(dom, block_name):
            rename(child, reaching)

    rename(function.entry_name, UndefValue(IntType(64)))


def _replace_uses(function: Function, old: Value, new: Value) -> None:
    if old is None:
        return
    for instruction in function.instructions():
        instruction.replace_operand(old, new)
