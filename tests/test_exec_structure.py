"""The engine stays decomposed (AST only — nothing is imported or run).

``ExecutionEngine._run_pipeline`` was once a 690-line function holding
twelve closures, forked on whether a worker pool had been passed in.  What
replaced it — a process-free ``Committer``, a ``Runtime`` protocol with
two implementations, a loop that does not know which one it has — is easy
to erode one convenient ``if`` at a time; these checks are the ratchet.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ENGINE = SRC / "exec" / "engine.py"
COMMITTER = SRC / "exec" / "committer.py"
RUNTIME = SRC / "exec" / "runtime.py"
POOL = SRC / "service" / "pool.py"

MAX_FUNCTION_LINES = 150


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


@pytest.mark.parametrize(
    "path", [ENGINE, COMMITTER, RUNTIME], ids=lambda path: path.name
)
def test_no_function_outgrows_a_screenful_or_three(path):
    too_long = {
        function.name: function.end_lineno - function.lineno + 1
        for function in _functions(_tree(path))
        if function.end_lineno - function.lineno + 1 > MAX_FUNCTION_LINES
    }
    assert not too_long


def test_the_engine_defines_no_closures():
    """State shared by nesting is how the closure nest grew; the loop's
    steps are methods, the committer's state is the ``Committer``'s."""
    (engine,) = [
        node for node in _tree(ENGINE).body
        if isinstance(node, ast.ClassDef) and node.name == "ExecutionEngine"
    ]
    nested = [
        f"{method.name}.{inner.name}"
        for method in engine.body if isinstance(method, ast.FunctionDef)
        for inner in _functions(method) if inner is not method
    ]
    assert not nested


def test_the_engine_does_not_ask_which_runtime_it_has():
    source = ENGINE.read_text()
    assert "external_runtime" not in source
    offenders = []
    for node in ast.walk(_tree(ENGINE)):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            tested = ast.unparse(node.left)
            if "runtime" in tested or tested == "rt":
                offenders.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
            "isinstance", "type"
        ):
            if "Runtime" in ast.unparse(node):
                offenders.append(ast.unparse(node))
    # the one place a missing runtime becomes a LocalRuntime
    assert offenders == ["self._caller_runtime is not None"]


def test_the_committer_knows_no_process_channel_or_clock_but_now_ns():
    imported = set()
    for node in ast.walk(_tree(COMMITTER)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    forbidden = {
        name for name in imported
        if name.split(".")[0] in ("multiprocessing", "threading", "time")
        or name in ("repro.exec.channels", "repro.exec.transport",
                    "repro.exec.runtime", "repro.exec.workers")
    }
    assert not forbidden


# -- both runtimes implement the whole protocol -------------------------------------


def _classes(*paths):
    return {
        node.name: node
        for path in paths for node in _tree(path).body
        if isinstance(node, ast.ClassDef)
    }


def _own_members(cls):
    """Methods, annotated class attributes, and ``self.x = ...`` anywhere
    in the class body."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    for node in ast.walk(cls):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                if (
                    isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"
                ):
                    names.add(leaf.attr)
    return names


def _members(name, classes):
    cls = classes[name]
    names = _own_members(cls)
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            names |= _members(base.id, classes)
    return names


@pytest.mark.parametrize("runtime", ["LocalRuntime", "LeaseRuntime"])
def test_runtime_defines_every_member_of_the_protocol(runtime):
    classes = _classes(RUNTIME, POOL)
    protocol = {
        name for name in _own_members(classes["Runtime"])
        if not name.startswith("_")
    }
    assert {"start", "spawn_worker", "reap", "cancelled", "teardown",
            "halt", "close", "work", "done", "gate", "registry"} <= protocol
    assert protocol - _members(runtime, classes) == set()


def test_there_is_one_of_each_helper():
    """One thread-stage handle, one parent-death guard, under ``src/``."""
    thread_handles, guards = [], []
    for path in SRC.rglob("*.py"):
        tree = _tree(path)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name for node in cls.body
                if isinstance(node, ast.FunctionDef)
            }
            source = ast.unparse(cls)
            if {"is_alive", "terminate", "join"} <= methods and (
                "threading.Thread(" in source
            ):
                thread_handles.append(cls.name)
            if "is_set" in methods and "getppid" in source:
                guards.append(cls.name)
    assert thread_handles == ["ThreadStage"]
    assert guards == ["ShutdownGuard"]


def _enclosing_functions(tree):
    """``{id(node): name of the innermost function around it}``."""
    owner = {}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) else function
            owner[id(child)] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_every_injection_is_announced_in_one_place():
    """The ``chaos_injections`` counter and the ``CHAOS`` trace instant are
    written by ``faults.announce`` alone, so a stage that injects a fault
    cannot count it one way and trace it another."""
    writers = set()
    for path in (SRC / "exec").glob("*.py"):
        tree = _tree(path)
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and node.value == "chaos_injections"
            ) or (
                isinstance(node, ast.Attribute)
                and ast.unparse(node) == "EventKind.CHAOS"
            ):
                writers.add((path.name, owner[id(node)]))
    assert writers == {("faults.py", "announce")}


def test_every_seeded_schedule_comes_from_one_sampler():
    """``exec --chaos``, ``exec --inject-faults`` and the service's
    ``params.chaos`` all draw through ``chaos_plan``; nothing else under
    ``src/`` builds a fault schedule."""
    builders = set()
    for path in SRC.rglob("*.py"):
        tree = _tree(path)
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "FaultPlan", "ChannelChaos"
            ):
                builders.add((ast.unparse(node.func), owner[id(node)]))
    assert builders == {
        ("FaultPlan", "chaos_plan"),
        ("ChannelChaos", "chaos_channel_plan"),
    }
