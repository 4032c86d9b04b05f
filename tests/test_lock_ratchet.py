"""No lock that a kill can orphan under ``src/repro/exec/``.

A stage killed while it holds a process-shared lock leaves the lock held
for good, and every survivor that reaches for it without a timeout waits
forever (``tests/test_exec_kill_in_update.py`` shows the hang).  The
channels' counters are single-writer cells for that reason; this AST
ratchet keeps them so: no ``get_lock()`` (the lock of a ``ctx.Value``) and
no ``acquire(`` that can block without a timeout — a timeout (keyword or
second positional argument) or a non-blocking first argument of ``False``
is what makes an acquire safe.
"""

from __future__ import annotations

import ast
import os

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
EXEC = os.path.join(SRC, "repro", "exec")


def _calls(name: str):
    """``(file:line, call)`` of every call of a method called ``name``."""
    for entry in sorted(os.listdir(EXEC)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(EXEC, entry)
        with open(path) as source:
            tree = ast.parse(source.read(), path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == name
            ):
                yield f"{entry}:{node.lineno}", node


def _bounded(call: ast.Call) -> bool:
    if len(call.args) >= 2 or any(
        keyword.arg == "timeout" for keyword in call.keywords
    ):
        return True
    blocking = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "blocking"), None
    )
    return isinstance(blocking, ast.Constant) and blocking.value is False


def test_no_get_lock_under_exec():
    assert [where for where, _ in _calls("get_lock")] == []


def test_every_acquire_under_exec_is_bounded():
    assert [where for where, call in _calls("acquire") if not _bounded(call)] == []


def test_the_ratchet_sees_what_it_forbids():
    unsafe = ast.parse("lock.acquire()\nlock.acquire(True)\n").body
    safe = ast.parse(
        "lock.acquire(timeout=1)\nlock.acquire(True, 0.5)\n"
        "lock.acquire(False)\nlock.acquire(blocking=False)\n"
    ).body
    assert not any(_bounded(line.value) for line in unsafe)
    assert all(_bounded(line.value) for line in safe)
