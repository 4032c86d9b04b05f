"""The pipeline is written once (AST only — nothing is imported or run).

``repro.core.simulator.schedule`` is the §3.1 recurrence.  The 3-phase
simulator, the multi-stage simulator and the analyzer's what-if replay are
plans over it; each once had its own copy of the loop, with its own queue
model and its own worker pick.  These checks are the ratchet: building rows
in a comprehension is fine, a scheduling loop of its own is not.

The executable pipeline is written once too: :mod:`repro.exec` (its
``thread`` transport included).  The threaded prototype it replaced
(``repro.dswp.runtime`` on ``repro.hw.queues``) and the event kernel no
simulator used (``repro.hw.events``) must not come back.

Each analog writes its A/B/C loop once: a workload that declares
``spec(rec)`` gets its traced ``run`` and its ``exec_spec`` from
``workloads/base.py``, so no second copy of the loop (an inline ``run``, an
``exec_spec`` of its own, a ``has_exec_spec`` flag) comes back.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _function(path, qualified_name):
    scope = _tree(path)
    for name in qualified_name.split("."):
        (scope,) = [
            node for node in scope.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
    return scope


def test_no_timed_queue_model_under_src():
    defined = [
        f"{path.relative_to(SRC)}:{node.name}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and node.name == "TimedQueueModel"
    ]
    assert not defined


PLANS = [
    (SRC / "dswp" / "multistage.py", "MultiStageSimulator.simulate"),
    (SRC / "obs" / "analyze.py", "replay"),
    (SRC / "core" / "simulator.py", "PipelineSimulator._simulate_pipeline"),
]


@pytest.mark.parametrize("path, name", PLANS[:2], ids=[name for _, name in PLANS[:2]])
def test_plans_have_no_loop_of_their_own(path, name):
    loops = [
        ast.unparse(node).splitlines()[0]
        for node in ast.walk(_function(path, name))
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor))
    ]
    assert not loops


@pytest.mark.parametrize("path, name", PLANS, ids=[name for _, name in PLANS])
def test_the_plans_call_the_one_recurrence(path, name):
    called = {
        ast.unparse(node.func)
        for node in ast.walk(_function(path, name))
        if isinstance(node, ast.Call)
    }
    assert "schedule" in called


#: Modules and classes of the prototype executable pipeline.
PROTOTYPE_MODULES = ("repro.dswp.runtime", "repro.hw.queues", "repro.hw.events")
PROTOTYPE_NAMES = {"BoundedQueue", "BlockingBoundedQueue", "EventKernel"}


def test_one_executable_pipeline_under_src():
    found = []
    for path in SRC.rglob("*.py"):
        module = ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
        if module in PROTOTYPE_MODULES:
            found.append(module)
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                imported = []
            found += [f"{module}: import {name}" for name in imported
                      if name in PROTOTYPE_MODULES]
            name = getattr(node, "name", None) or getattr(node, "id", None) \
                or getattr(node, "attr", None)
            if name in PROTOTYPE_NAMES:
                found.append(f"{module}:{node.lineno}: {name}")
    assert not found


WORKLOADS = SRC / "workloads"

#: Classes that declare ``spec`` and keep a ``run`` of their own, with why.
OWN_RUN = {
    "GzipWorkload": "its traced program is the Y-branch heuristic, whose next "
                    "block start depends on the previous phase B: not a pipeline",
}


def test_each_analog_declares_its_loop_once():
    found = []
    for path in WORKLOADS.rglob("*.py"):
        where = path.relative_to(SRC)
        for node in ast.walk(_tree(path)):
            name = getattr(node, "name", None) or getattr(node, "id", None) \
                or getattr(node, "attr", None)
            if name == "has_exec_spec":
                found.append(f"{where}:{node.lineno}: has_exec_spec")
            if isinstance(node, ast.FunctionDef) and node.name == "exec_spec" \
                    and path.name != "base.py":
                found.append(f"{where}:{node.lineno}: exec_spec")
            if isinstance(node, ast.ClassDef):
                methods = {item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)}
                if {"spec", "run"} <= methods and node.name not in OWN_RUN:
                    found.append(f"{where}:{node.lineno}: {node.name} has spec and run")
    assert not found
