"""The pipeline model is written once (AST only — nothing is imported or run).

``repro.core.simulator.schedule`` is the §3.1 recurrence.  The 3-phase
simulator, the multi-stage simulator and the analyzer's what-if replay are
plans over it; each once had its own copy of the loop, with its own queue
model and its own worker pick.  These checks are the ratchet: building rows
in a comprehension is fine, a scheduling loop of its own is not.
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
