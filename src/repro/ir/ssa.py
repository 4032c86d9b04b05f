"""SSA construction (mem2reg) and loop-invariant code motion.

Front ends like the mini-C lowerer keep local variables in memory objects
(one load/store per mention).  That is simple but pessimizes everything
downstream: the PDG sees memory dependences where there is only scalar
dataflow.  :func:`promote_memory_to_registers` is the classic mem2reg:

1. find *promotable* objects — accessed only by whole-object loads/stores
   whose address operand is the object itself (no escaping pointers);
2. place phi nodes at the iterated dominance frontier of the defining
   blocks (Cytron et al.);
3. rename along the dominator tree, replacing loads with the reaching
   definition and deleting the stores.

:func:`hoist_loop_invariants` then moves computations whose operands are
loop-invariant into a preheader — the other classic enabling transformation
for the paper's outer-loop parallelization scope.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dominators import DominatorTree
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Instruction, Jump, Load, Phi, Store, UnOp
from repro.ir.loops import Loop
from repro.ir.types import IntType
from repro.ir.values import Constant, MemoryObject, UndefValue, Value


def promotable_objects(function: Function) -> List[MemoryObject]:
    """Objects safe to promote: every access is a direct load/store of the
    object, and the object's address is never used any other way."""
    direct: Dict[int, MemoryObject] = {}
    disqualified: Set[int] = set()

    for instruction in function.instructions():
        if isinstance(instruction, Load):
            address = instruction.operands[0]
            objects = instruction.may_access
            if (
                len(objects) == 1
                and isinstance(address, MemoryObject)
                and address is objects[0]
            ):
                direct[objects[0].id] = objects[0]
            else:
                disqualified.update(o.id for o in objects)
        elif isinstance(instruction, Store):
            value, address = instruction.operands
            objects = instruction.may_access
            if (
                len(objects) == 1
                and isinstance(address, MemoryObject)
                and address is objects[0]
                and value is not objects[0]
            ):
                direct[objects[0].id] = objects[0]
            else:
                disqualified.update(o.id for o in objects)
            if isinstance(value, MemoryObject):
                disqualified.add(value.id)  # address escapes through a store
        else:
            for operand in instruction.operands:
                if isinstance(operand, MemoryObject):
                    disqualified.add(operand.id)

    from repro.ir.values import GlobalVariable

    return [
        obj
        for oid, obj in sorted(direct.items())
        if oid not in disqualified and not isinstance(obj, GlobalVariable)
    ]


def promote_memory_to_registers(function: Function) -> int:
    """Run mem2reg over every promotable object; return how many promoted.

    Linear: one scan files each promoted access under its object and block,
    and operands are rewritten once, at the end."""
    objects = promotable_objects(function)
    if not objects:
        return 0
    dom = DominatorTree(function)
    frontiers = dom.frontier()
    accesses: Dict[int, Dict[str, List[Instruction]]] = {obj.id: {} for obj in objects}
    for block in function.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, (Load, Store)) and len(instruction.may_access) == 1:
                by_block = accesses.get(instruction.may_access[0].id)
                if by_block is not None:
                    by_block.setdefault(block.name, []).append(instruction)

    # ``id`` of a promoted load's result -> the value reaching that load.
    replacements: Dict[int, Value] = {}
    removed: Set[int] = set()
    for target in objects:
        _promote_one(
            function, dom, frontiers, target, accesses[target.id], replacements, removed
        )

    # A reaching value may itself be a promoted load: follow each chain to
    # its end, then rewrite every operand in one walk.
    for key, value in replacements.items():
        while id(value) in replacements:
            value = replacements[id(value)]
        replacements[key] = value
    for block in function.blocks:
        if removed:
            block.instructions[:] = [i for i in block.instructions if i.id not in removed]
        for instruction in block.instructions:
            operands = instruction.operands
            for index, operand in enumerate(operands):
                value = replacements.get(id(operand))
                if value is not None:
                    operands[index] = value
    return len(objects)


def _promote_one(
    function: Function,
    dom: DominatorTree,
    frontiers: Dict[str, List[str]],
    target: MemoryObject,
    accesses: Dict[str, List[Instruction]],
    replacements: Dict[int, Value],
    removed: Set[int],
) -> None:
    """Place ``target``'s phis and rename its reachable accesses: each one
    goes into ``removed`` and each load's reaching value into
    ``replacements``."""
    # Iterated dominance frontier: phi placement sites.
    phi_blocks: Set[str] = set()
    worklist = [
        name for name, found in accesses.items()
        if any(isinstance(instruction, Store) for instruction in found)
    ]
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
            (UndefValue(IntType(64)), predecessor)
            for predecessor in dom.predecessors(block_name)
        ]
        phi = Phi(IntType(64), placeholders, name=f"{target.name}.phi")
        block.insert(len(block.phis()), phi)
        phis[block_name] = phi

    # Rename along the dominator tree.  Each block writes only its own
    # loads' entries and its own phi edges, so visiting order is free.
    stack: List[Tuple[str, Value]] = [(function.entry_name, UndefValue(IntType(64)))]
    while stack:
        block_name, reaching = stack.pop()
        if block_name in phis:
            reaching = phis[block_name].result
        for instruction in accesses.get(block_name, ()):
            if isinstance(instruction, Load):
                replacements[id(instruction.result)] = reaching
            else:
                reaching = instruction.operands[0]
            instruction.block = None
            removed.add(instruction.id)
        if phis:
            for successor in function.block(block_name).successor_names():
                phi = phis.get(successor)
                if phi is not None:
                    for index, incoming_block in enumerate(phi.incoming_blocks):
                        if incoming_block == block_name:
                            phi.operands[index] = reaching
        stack.extend((child, reaching) for child in dom.children(block_name))


def hoist_loop_invariants(function: Function, loop: Loop) -> int:
    """Move loop-invariant pure computations into a fresh preheader.

    An instruction is invariant when it is a pure BinOp/UnOp whose operands
    are constants, values defined outside the loop, or other already-hoisted
    invariants.  Returns the number of instructions hoisted.
    """
    body_ids = {instruction.id for instruction in loop.instructions()}
    defined_inside = {
        instruction.result.id
        for instruction in loop.instructions()
        if instruction.result is not None
    }

    invariant: List[Instruction] = []
    invariant_results: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for instruction in loop.instructions():
            if instruction.id in {i.id for i in invariant}:
                continue
            if not isinstance(instruction, (BinOp, UnOp)):
                continue
            if all(
                isinstance(op, Constant)
                or op.id not in defined_inside
                or op.id in invariant_results
                for op in instruction.operands
            ):
                invariant.append(instruction)
                if instruction.result is not None:
                    invariant_results.add(instruction.result.id)
                changed = True
    if not invariant:
        return 0

    preheader = _make_preheader(function, loop)
    for instruction in invariant:
        instruction.block.remove(instruction)
        preheader.insert(len(preheader.instructions) - 1, instruction)
    return len(invariant)


def _make_preheader(function: Function, loop: Loop) -> BasicBlock:
    """Insert a preheader block on every entry edge into the loop header."""
    header = loop.header
    preheader = function.new_block(f"{header.name}.preheader")
    latch_names = {latch.name for latch in loop.latches}
    for predecessor in header.predecessors():
        if predecessor.name in latch_names or predecessor is preheader:
            continue
        terminator = predecessor.terminator
        if isinstance(terminator, Jump):
            terminator.target = preheader.name
        else:
            if getattr(terminator, "true_target", None) == header.name:
                terminator.true_target = preheader.name
            if getattr(terminator, "false_target", None) == header.name:
                terminator.false_target = preheader.name
        # Phi incoming edges move to the preheader.
        for phi in header.phis():
            for index, block_name in enumerate(phi.incoming_blocks):
                if block_name == predecessor.name:
                    phi.incoming_blocks[index] = preheader.name
    preheader.append(Jump(header.name))
    return preheader
