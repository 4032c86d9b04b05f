"""Which ``src/`` functions the repo's entry points and tests enter.

Runs the repo's entry points and its tests under a stdlib call collector
and writes ``docs/reachability.md``: the ``src/`` functions nothing enters,
and the modules only tests enter::

    python benchmarks/reach.py              # run everything, rewrite the doc
    python benchmarks/reach.py --check      # run everything, fail if the
                                            # nothing-enters list grew

The inputs are tier-1 (``tests/``), the figure/table/ablation pytest files,
the CLI (suite, figures 4-7, ``exec`` on every transport, chaos, checkpoint
and resume, trace + ``obs analyze``, history, ``serve`` with a job over
HTTP, ``obs report``, ``shm-audit``), the six examples, both smokes and a
short ``bench/run.py --trace 1`` pass.  A label names each input; a
``tests/...`` label is a test, every other label an entry point.

The collector is this file, loaded by a ``sitecustomize`` placed first on
``PYTHONPATH``, so every Python process an input starts is measured:

- ``sys.setprofile`` / ``threading.setprofile`` record each code object
  entered, into the set of the current label (pytest items switch it);
- ``os.register_at_fork`` gives a forked child empty sets of its own;
- each process writes its sets at exit, and before ``os._exit`` (how
  ``multiprocessing`` children leave);
- a child that gets ``PYTHONPATH`` of its own loses the collector; the
  ``subprocess.Popen`` it was started with is recorded, and the report
  names it as unmeasured.  So is every process that started but never
  wrote its sets (killed by a signal).

Import-time code (module and class bodies) is not counted as entering: a
function is entered when its body runs.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
DOC = os.path.join(REPO, "docs", "reachability.md")

# -- the collector: runs inside every measured process --------------------------------

_box = [set()]  # the current label's set of entered code objects
_seen = {}  # label -> set of code objects
_state = {"label": "", "token": "", "unmeasured": []}
_real_exit = os._exit


def _profile(frame, event, arg, _box=_box):
    # bound as a default: module globals are gone at interpreter shutdown
    if event == "call":
        _box[0].add(frame.f_code)


def set_label(label):
    """Record what runs from now on under ``label`` (also for children)."""
    _state["label"] = label
    _box[0] = _seen.setdefault(label, set())
    os.environ["REACH_LABEL"] = label


def _begin():
    _seen.clear()
    _state["unmeasured"] = []
    _state["token"] = f"{os.getpid()}-{os.urandom(4).hex()}"
    set_label(_state["label"])
    path = os.path.join(os.environ["REACH_DIR"], _state["token"] + ".start")
    with open(path, "w") as handle:
        handle.write(_state["label"])


def _exit(code):
    dump()
    _real_exit(code)


def start():
    """Measure this process and every process it starts."""
    if not os.environ.get("REACH_DIR"):
        return
    import subprocess

    class WatchedPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            env = kwargs.get("env")
            argv = [args] if isinstance(args, (str, bytes)) else list(args)
            if (
                env is not None
                and os.environ["REACH_HOOK"]
                not in env.get("PYTHONPATH", "").split(os.pathsep)
                and "python" in os.path.basename(str(argv[0]))
            ):
                command = " ".join(str(part) for part in argv)
                _state["unmeasured"].append((_state["label"], command))
            super().__init__(args, *rest, **kwargs)

    subprocess.Popen = WatchedPopen
    _state["label"] = os.environ.get("REACH_LABEL", "?")
    _begin()
    os.register_at_fork(after_in_child=_begin)
    os._exit = _exit
    atexit.register(dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def dump():
    """Write this process's sets: ``src/`` code only, as (file, line)."""
    import json

    entered = {}
    for label, codes in list(_seen.items()):
        keys = set()
        for code in codes.copy():
            name = code.co_filename
            if name.startswith(SRC + os.sep):
                keys.add((name[len(SRC) + 1:], code.co_firstlineno))
        if keys:
            entered[label] = sorted(keys)
    record = {"entered": entered, "unmeasured": _state["unmeasured"]}
    path = os.path.join(os.environ["REACH_DIR"], _state["token"])
    with open(path + ".tmp", "w") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path + ".json")


def pytest_runtest_logstart(nodeid, location):
    """pytest hook (``-p reach_collector``), before each test's fixtures:
    label what runs by the test's file."""
    set_label(nodeid.split("::")[0])


# -- the inputs ------------------------------------------------------------------------

SITECUSTOMIZE = """\
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location(
    "reach_collector", os.environ["REACH_FILE"])
module = importlib.util.module_from_spec(spec)
sys.modules["reach_collector"] = module
spec.loader.exec_module(module)
module.start()
"""

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "reach_collector",
          "-p", "no:cacheprovider"]
FIGURES = [
    "benchmarks/test_fig4_framework.py", "benchmarks/test_fig5_commutative.py",
    "benchmarks/test_fig6_improved.py", "benchmarks/test_fig7_ybranch.py",
    "benchmarks/test_table1_summary.py", "benchmarks/test_table2_speedup.py",
    "benchmarks/test_ablations.py",
]
TERMINAL = ("done", "failed", "cancelled", "dead_letter")
EXAMPLES = [
    "commutative_rng", "compile_and_partition", "multistage_pipeline",
    "quickstart", "suite_report", "ybranch_compression",
]


def _cli_commands(work):
    """``repro`` argument lists, in order (later ones read earlier output)."""
    at = lambda name: os.path.join(work, name)  # noqa: E731
    history = ["--history", at("history.jsonl")]
    commands = [["list"], ["suite"], ["bench", "253.perlbmk"]]
    commands += [["figure", str(number)] for number in (4, 5, 6, 7)]
    commands += [
        ["exec", "256.bzip2", "--transport", transport, "--no-history"]
        for transport in ("pipe", "shm", "thread")
    ]
    commands += [
        ["exec", "197.parser", "--inject-faults", "--seed", "7", "--no-history"],
        ["exec", "256.bzip2", "--chaos", "8", "--seed", "1337",
         "--json", at("chaos.json"), "--no-history"],
        ["exec", "256.bzip2", "--calibrate", "--compare",
         "--json", at("calibrate.json"), "--label", "a"] + history,
        ["exec", "256.bzip2", "--trace", at("trace.json"),
         "--metrics-out", at("metrics.json"), "--label", "b"] + history,
        ["exec", "164.gzip", "--checkpoint", at("run.ckpt"),
         "--checkpoint-interval", "2", "--no-history"],
        ["exec", "164.gzip", "--resume", at("run.ckpt"), "--no-history"],
        ["obs", "analyze", at("trace.json"), "--metrics", at("metrics.json"),
         "--json", at("bottleneck.json")],
        ["history"] + history,
        # the gate's code path, not a verdict on two short runs' timing
        ["history", "--check", "--tolerance", "10"] + history,
        ["shm-audit", "--timeout", "1"],
    ]
    return commands


def _serve_session(env, work, log):
    """``repro serve`` with one traced job over HTTP, then a SIGTERM drain;
    returns the job id (or None) and the server's exit status."""
    import json
    import signal
    import subprocess
    import time
    import urllib.request

    state = os.path.join(work, "state")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--slots", "1",
         "--state-dir", state, "--history", os.path.join(work, "serve.jsonl"),
         "--trace-jobs"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
    )
    job_id = None
    try:
        base = None
        for line in server.stdout:
            if line.startswith("serving on "):
                base = line.split()[-1]
                break
        if base is None:
            return None, server.wait()
        body = json.dumps({"tenant": "acme", "workload": "synthetic",
                           "params": {"iterations": 24}}).encode()
        request = urllib.request.Request(
            base + "/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            job_id = json.loads(response.read())["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with urllib.request.urlopen(f"{base}/jobs/{job_id}", timeout=30) as r:
                if json.loads(r.read())["state"] in TERMINAL:
                    break
            time.sleep(0.1)
        time.sleep(0.5)  # the trace merges just after the job ends
        for path in ("result", "trace", "timeline", "bottleneck"):
            try:
                urllib.request.urlopen(f"{base}/jobs/{job_id}/{path}", timeout=30).read()
            except OSError:
                pass
        for path in ("/metrics", "/health", "/snapshot", "/jobs"):
            try:
                urllib.request.urlopen(base + path, timeout=30).read()
            except OSError:
                pass
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            status = server.wait(60)
        except subprocess.TimeoutExpired:
            server.kill()
            status = server.wait()
    return job_id, status


def run_inputs(work):
    """Run every input under the collector; return ``[(label, command,
    exit status)]``."""
    hook = os.path.join(work, "hook")
    os.makedirs(hook, exist_ok=True)
    os.makedirs(os.path.join(work, "dumps"), exist_ok=True)
    with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE)
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join((hook, SRC)),
        REACH_DIR=os.path.join(work, "dumps"), REACH_HOOK=hook,
        REACH_FILE=os.path.abspath(__file__), PYTHONUNBUFFERED="1",
    )
    with open(os.path.join(work, "inputs.log"), "a") as log:
        return _run_all(env, work, log)


def _run_all(base_env, work, log):
    import subprocess

    results = []

    def run(label, argv, timeout=1800):
        env = dict(base_env, REACH_LABEL=label)
        log.write(f"\n### {label}: {' '.join(argv)}\n")
        log.flush()
        try:
            status = subprocess.run(
                argv, cwd=REPO, env=env, stdout=log, stderr=log,
                timeout=timeout,
            ).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        print(f"reach: {display(argv)}: exit {status}", flush=True)
        results.append((label, display(argv), status))

    # the figure tests rewrite benchmarks/results.json: put it back
    results_json = os.path.join(REPO, "benchmarks", "results.json")
    with open(results_json, "rb") as handle:
        committed_results = handle.read()
    try:
        run("tests/", PYTEST + ["tests"], timeout=3600)
        run("benchmarks/ (figures, tables, ablations)", PYTEST + FIGURES)
    finally:
        with open(results_json, "wb") as handle:
            handle.write(committed_results)
    for argv in _cli_commands(work):
        run(f"cli: repro {argv[0]}", [sys.executable, "-m", "repro"] + argv)
    job_id, status = _serve_session(
        dict(base_env, REACH_LABEL="cli: repro serve"), work, log
    )
    command = "python -m repro serve --slots 1 --state-dir … --history … --trace-jobs"
    print(f"reach: {command}: exit {status}", flush=True)
    results.append(("cli: repro serve", command + " (one job over HTTP)", status))
    state = os.path.join(work, "state")
    run("cli: repro obs", [sys.executable, "-m", "repro", "obs", "report", state])
    if job_id is not None:
        run("cli: repro obs", [sys.executable, "-m", "repro", "obs", "analyze",
                               job_id, "--state-dir", state])
    for name in EXAMPLES:
        run(f"examples/{name}.py", [sys.executable, f"examples/{name}.py"])
    run("benchmarks/service_smoke.py",
        [sys.executable, "benchmarks/service_smoke.py", os.path.join(work, "svc")])
    run("benchmarks/live_smoke.py",
        [sys.executable, "benchmarks/live_smoke.py",
         os.path.join(work, "live.jsonl")])
    run("bench/run.py --trace 1",
        [sys.executable, "bench/run.py", "--trace", "1", "--seconds", "2"])
    return results


def display(argv):
    """A command as the report shows it: ``python`` for the interpreter and
    ``…`` for every path but a repo script's (no host paths in the doc)."""
    shown = ["python"]
    for part in argv[1:]:
        part = str(part)
        if os.sep in part and not (
            part.endswith(".py") and not os.path.isabs(part)
        ):
            part = "…"
        shown.append(part)
    return " ".join(shown)


# -- the report ------------------------------------------------------------------------


def is_test(label):
    return label.startswith("tests/")


class Function:
    """One ``def`` under ``src/``: where it is, how long, who entered it."""

    def __init__(self, module, qualname, first, last, parent):
        self.module = module
        self.qualname = qualname
        self.first = first  # the first decorator's line: the code's firstlineno
        self.lines = last - first + 1
        self.own_lines = self.lines  # minus the functions nested in it
        self.parent = parent
        self.labels = set()

    @property
    def category(self):
        if any(not is_test(label) for label in self.labels):
            return "entry"
        return "tests" if self.labels else "nothing"


def index_functions():
    """Every function under ``src/repro`` by (relative path, first line)."""
    import ast

    functions = {}
    root = os.path.join(SRC, "repro")
    for directory, _, files in sorted(os.walk(root)):
        for file_name in sorted(files):
            if not file_name.endswith(".py"):
                continue
            path = os.path.join(directory, file_name)
            relative = os.path.relpath(path, SRC)
            with open(path) as handle:
                tree = ast.parse(handle.read(), filename=path)

            def visit(node, prefix, parent):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [
                            decorator.lineno for decorator in child.decorator_list
                        ])
                        function = Function(
                            relative, prefix + child.name, first,
                            child.end_lineno, parent,
                        )
                        functions[(relative, first)] = function
                        if parent is not None:
                            parent.own_lines -= function.lines
                        visit(child, function.qualname + ".", function)
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".", parent)
                    else:
                        visit(child, prefix, parent)

            visit(tree, "", None)
    return functions


def read_dumps(dumps, functions):
    """Attach the labels to the functions; return what was not measured:
    ``(unmeasured children, {label: processes that wrote nothing})``."""
    import json

    unmeasured = set()
    lost = {}
    for name in sorted(os.listdir(dumps)):
        path = os.path.join(dumps, name)
        if name.endswith(".start"):
            if not os.path.exists(path[:-len(".start")] + ".json"):
                with open(path) as handle:
                    label = handle.read()
                lost[label] = lost.get(label, 0) + 1
            continue
        if not name.endswith(".json"):
            continue
        with open(path) as handle:
            record = json.load(handle)
        for label, keys in record["entered"].items():
            for relative, first in keys:
                function = functions.get((relative, first))
                if function is not None:
                    function.labels.add(label)
        for label, command in record["unmeasured"]:
            unmeasured.add((label, display(command.split())))
    return sorted(unmeasured), lost


def _line_count(relative):
    with open(os.path.join(SRC, relative)) as handle:
        return sum(1 for _ in handle)


def render(functions, inputs, unmeasured, lost):
    """The markdown report."""
    everything = list(functions.values())
    totals = {}
    for function in everything:
        count, lines = totals.get(function.category, (0, 0))
        totals[function.category] = (count + 1, lines + function.own_lines)
    # nothing enters: the outermost such functions (a nested one goes with
    # its parent), whole lines
    nothing = [
        f for f in everything
        if f.category == "nothing"
        and (f.parent is None or f.parent.category != "nothing")
    ]
    modules = {}
    for function in everything:
        modules.setdefault(function.module, []).append(function)
    test_only = []
    for module, members in sorted(modules.items()):
        categories = {f.category for f in members}
        if "entry" not in categories and "tests" in categories:
            labels = sorted({label for f in members for label in f.labels})
            entered = sum(1 for f in members if f.labels)
            test_only.append((module, _line_count(module), entered,
                              len(members), labels))

    out = [
        "# Reachability of `src/`",
        "",
        "Generated by `python benchmarks/reach.py` from the committed tree;",
        "do not edit by hand.  `python benchmarks/reach.py --check` (CI job",
        "`reachability`) fails when a function joins the nothing-enters list",
        "below.  A function is *entered* when its body runs; module and class",
        "bodies, which run at import, are not counted.",
        "",
        "## Inputs",
        "",
        "A `tests/` label is tier-1; every other label is an entry point.",
        "",
        "| label | command | exit |",
        "|---|---|---|",
    ]
    out += [
        f"| {label} | `{command}` | {status} |"
        for label, command, status in inputs
    ]
    out += ["", "## Totals", "",
            "Lines are each function's own lines (a nested function's lines",
            "count once, for the innermost function).", "",
            "| functions | count | lines |", "|---|---:|---:|"]
    names = {"entry": "entered by an entry point",
             "tests": "entered only by tests", "nothing": "entered by nothing"}
    for key in ("entry", "tests", "nothing"):
        count, lines = totals.get(key, (0, 0))
        out.append(f"| {names[key]} | {count} | {lines} |")
    count = sum(c for c, _ in totals.values())
    lines = sum(n for _, n in totals.values())
    out.append(f"| all under `src/repro` | {count} | {lines} |")
    out += ["", "## What it could not see", ""]
    out += [
        "- Python children started with a `PYTHONPATH` of their own, so the",
        "  collector was not loaded in them (what they ran counts as not",
        "  entered unless another input enters it):",
        "",
    ]
    by_command = {}
    for label, command in unmeasured:
        by_command.setdefault(command, set()).add(label)
    out += [
        f"  - `{command}` (from {', '.join(sorted(labels))})"
        for command, labels in sorted(by_command.items())
    ] or ["  - none"]
    if any(label.startswith("bench/") for label, _ in unmeasured):
        out += [
            "",
            "  `bench/workloads.py` keeps the `PYTHONPATH` it sets: `bench/` is",
            "  the benchmark's own tree and changes only with the benchmark.",
        ]
    out += [
        "- processes that started but ended before writing their record",
        "  (killed by a signal, or a hard crash): "
        + (", ".join(f"{count} under {label or '(no label)'}"
                     for label, count in sorted(lost.items()))
           or "none") + ";",
        "- threads started before the collector (none: it starts first).",
        "",
        "## Modules only tests enter",
        "",
        "No entry point enters any function of these modules; the tests that",
        "do are listed.",
        "",
        "| module | lines | functions entered | entered by |",
        "|---|---:|---:|---|",
    ]
    for module, size, entered, total, labels in test_only:
        tests = ", ".join(f"`{label}`" for label in labels)
        out.append(f"| `{module}` | {size} | {entered}/{total} | {tests} |")
    out += [
        "",
        "## Functions nothing enters",
        "",
        f"{len(nothing)} functions, "
        f"{sum(f.lines for f in nothing)} lines (a nested function goes with",
        "the function that holds it).",
        "",
        "| module | function | lines |",
        "|---|---|---:|",
    ]
    for function in sorted(nothing, key=lambda f: (f.module, f.first)):
        out.append(f"| `{function.module}` | `{function.qualname}` | {function.lines} |")
    return "\n".join(out) + "\n"


def listed_as_nothing(text):
    """The (module, function) pairs of a report's nothing-enters table."""
    import re

    section = text.split("## Functions nothing enters", 1)[-1]
    return set(re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| \d+ \|$", section, re.M))


def main(argv=None):
    import argparse
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if a function joins the committed "
                             "nothing-enters list (the doc is not rewritten)")
    parser.add_argument("--work", default=None, metavar="DIR",
                        help="keep dumps and logs in DIR (default: a temp dir, "
                             "removed afterwards)")
    args = parser.parse_args(argv)
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="reach-"))
    os.makedirs(work, exist_ok=True)
    try:
        inputs = run_inputs(work)
        functions = index_functions()
        unmeasured, lost = read_dumps(os.path.join(work, "dumps"), functions)
        report = render(functions, inputs, unmeasured, lost)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    if not args.check:
        with open(DOC, "w") as handle:
            handle.write(report)
        print(f"reach: wrote {os.path.relpath(DOC, REPO)}")
        return 0
    with open(DOC) as handle:
        committed = listed_as_nothing(handle.read())
    grown = sorted(listed_as_nothing(report) - committed)
    for module, function in grown:
        print(f"reach: nothing enters {module}::{function} "
              "(not in docs/reachability.md)")
    if grown:
        print("reach: enter it from a test or an entry point, delete it, or "
              "regenerate docs/reachability.md with a reason in the PR")
        return 1
    print("reach: the nothing-enters list did not grow")
    return 0


if __name__ == "__main__":
    sys.exit(main())
