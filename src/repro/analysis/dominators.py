"""Dominator and post-dominator trees.

Implements the Cooper–Harvey–Kennedy "simple, fast dominance" algorithm over
reverse-postorder numbering.  Post-dominance runs the same engine on the
reversed CFG with a virtual exit that fuses all function exits (returns and
endless-loop latches are both handled).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.function import Function

VIRTUAL_EXIT = "<exit>"


class _DominanceEngine:
    """Shared fixed-point engine, parameterized by edge direction."""

    def __init__(self, nodes: List[str], preds: Dict[str, List[str]], root: str) -> None:
        self.root = root
        order = _reverse_postorder(nodes, preds, root)
        self._number = {name: i for i, name in enumerate(order)}
        self._order = order
        self.idom: Dict[str, Optional[str]] = {root: root}

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == root:
                    continue
                candidates = [p for p in preds.get(node, []) if p in self.idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = self._intersect(new_idom, other)
                if self.idom.get(node) != new_idom:
                    self.idom[node] = new_idom
                    changed = True
        self.idom[root] = None

    def _intersect(self, a: str, b: str) -> str:
        while a != b:
            while self._number[a] > self._number[b]:
                a = self.idom[a]  # type: ignore[assignment]
            while self._number[b] > self._number[a]:
                b = self.idom[b]  # type: ignore[assignment]
        return a

    def dominates(self, a: str, b: str) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False

    def dominator_chain(self, node: str) -> List[str]:
        chain = [node]
        current = self.idom.get(node)
        while current is not None:
            chain.append(current)
            current = self.idom.get(current)
        return chain


def _reverse_postorder(nodes: List[str], preds: Dict[str, List[str]], root: str) -> List[str]:
    succs: Dict[str, List[str]] = {n: [] for n in nodes}
    for node, plist in preds.items():
        for p in plist:
            succs.setdefault(p, []).append(node)
    seen = set()
    postorder: List[str] = []

    def visit(name: str) -> None:
        stack = [(name, iter(succs.get(name, [])))]
        seen.add(name)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succs.get(nxt, []))))
                    advanced = True
                    break
            if not advanced:
                postorder.append(node)
                stack.pop()

    visit(root)
    return list(reversed(postorder))


class DominatorTree:
    """Forward dominance for one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        blocks = function.blocks
        nodes = [b.name for b in blocks]
        self._preds: Dict[str, List[str]] = {name: [] for name in nodes}
        for block in blocks:
            for successor in dict.fromkeys(block.successor_names()):
                if successor in self._preds:
                    self._preds[successor].append(block.name)
        self._engine = _DominanceEngine(nodes, self._preds, function.entry_name)
        # ``idom`` is final once the engine returns: index the tree once.
        self._children: Dict[str, List[str]] = {}
        for node, idom in self._engine.idom.items():
            if idom is not None and idom != node:
                self._children.setdefault(idom, []).append(node)
        for kids in self._children.values():
            kids.sort()

    def dominates(self, a: str, b: str) -> bool:
        return self._engine.dominates(a, b)

    def immediate_dominator(self, name: str) -> Optional[str]:
        return self._engine.idom.get(name)

    def dominator_chain(self, name: str) -> List[str]:
        return self._engine.dominator_chain(name)

    def predecessors(self, name: str) -> List[str]:
        """CFG predecessors of ``name`` at construction, in block order."""
        return self._preds[name]

    def children(self, name: str) -> List[str]:
        """Blocks immediately dominated by ``name`` (dominator-tree kids)."""
        return list(self._children.get(name, ()))

    def frontier(self) -> Dict[str, List[str]]:
        """Dominance frontiers (Cytron et al.): DF[b] = blocks where b's
        dominance ends — exactly where SSA construction places phis."""
        frontiers: Dict[str, List[str]] = {b.name: [] for b in self.function.blocks}
        for block in self.function.blocks:
            predecessors = self._preds[block.name]
            if len(predecessors) < 2:
                continue
            idom = self.immediate_dominator(block.name)
            for predecessor in predecessors:
                runner: Optional[str] = predecessor
                while runner is not None and runner != idom:
                    if block.name not in frontiers[runner]:
                        frontiers[runner].append(block.name)
                    runner = self.immediate_dominator(runner)
        return frontiers


class PostDominatorTree:
    """Reverse dominance, with a virtual exit fusing all function exits."""

    def __init__(self, function: Function) -> None:
        self.function = function
        nodes = [b.name for b in function.blocks] + [VIRTUAL_EXIT]
        # Post-dominance = dominance on the reversed CFG: predecessors of a
        # node are its CFG successors; exits gain an edge to the virtual exit.
        preds: Dict[str, List[str]] = {VIRTUAL_EXIT: []}
        exit_blocks = [b.name for b in function.blocks if not b.successor_names()]
        if not exit_blocks:
            # Endless loop: treat every latch-reachable block conservatively
            # by connecting all blocks to the virtual exit.
            exit_blocks = [b.name for b in function.blocks]
        for block in function.blocks:
            preds[block.name] = list(block.successor_names())
            if block.name in exit_blocks:
                preds[block.name].append(VIRTUAL_EXIT)
        # Reversed direction: engine's "preds" are reverse-CFG predecessors,
        # i.e. CFG successors.  preds[VIRTUAL_EXIT] on the reversed graph are
        # the exit blocks themselves.
        reversed_preds: Dict[str, List[str]] = {n: [] for n in nodes}
        for node, successor_list in preds.items():
            for successor in successor_list:
                reversed_preds[node] = reversed_preds.get(node, [])
        for block in function.blocks:
            for successor in block.successor_names():
                reversed_preds[block.name].append(successor)
        for name in exit_blocks:
            reversed_preds[name].append(VIRTUAL_EXIT)
        self._engine = _DominanceEngine(nodes, reversed_preds, VIRTUAL_EXIT)

    def post_dominates(self, a: str, b: str) -> bool:
        return self._engine.dominates(a, b)

    def immediate_post_dominator(self, name: str) -> Optional[str]:
        return self._engine.idom.get(name)
