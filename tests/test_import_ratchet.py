"""Each entry point compiles only the code it runs.

``python -m repro serve`` and ``import repro.service`` must not pull in the
compiler, the profiling / speculation / parallelization stacks, the trace
analyzer or the eleven SPEC analogs; ``import repro.exec`` must not pull in
``http.server``.  A forked stage must import nothing after its fork: a
child forked while another thread holds a module's import lock hangs the
moment it imports that module, so everything a stage runs is loaded before
any fork.  Each probe runs in a fresh interpreter, because this process has
long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.workloads.suite import SUITE, exec_names

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Stacks that only the simulator commands (``suite``, ``bench``,
#: ``figure``) and ``exec --calibrate`` / ``--compare`` run.
FORBIDDEN_PACKAGES = (
    "repro.ir", "repro.pdg", "repro.analysis", "repro.speculation",
    "repro.profiling", "repro.tls", "repro.dswp",
)
FORBIDDEN_MODULES = (
    "repro.core.framework", "repro.obs.analyze", "repro.hw.versioned_memory",
)

PACKAGES = (
    "repro", "repro.core", "repro.exec", "repro.hw", "repro.obs",
    "repro.resilience", "repro.service", "repro.workloads",
)


def _probe(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _too_heavy(modules) -> list:
    return sorted(
        name for name in modules
        if name in FORBIDDEN_MODULES
        or name.startswith(tuple(p + "." for p in FORBIDDEN_PACKAGES))
        or name in FORBIDDEN_PACKAGES
        or re.fullmatch(r"repro\.workloads\.\w+_w", name)
    )


class TestEntryPoints:
    def test_service_and_serve_parser_load_no_simulator_stack(self):
        loaded = _probe(
            "import json, sys\n"
            "import repro.service\n"
            "from repro.__main__ import _build_parser\n"
            "_build_parser().parse_args(['serve'])\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert "repro.service.server" in loaded  # the probe ran
        assert _too_heavy(loaded) == []

    def test_exec_loads_no_http_server(self):
        loaded = _probe(
            "import json, sys\n"
            "import repro.exec\n"
            "bare = sorted(sys.modules)\n"
            "from repro.exec import ExecutionEngine\n"
            "print(json.dumps([bare, sorted(sys.modules)]))\n"
        )
        bare, engine = loaded
        assert "http.server" not in bare
        assert "repro.exec.engine" in engine
        assert "http.server" not in engine
        assert _too_heavy(engine) == []

    def test_list_loads_no_analog(self):
        """Nor the engine or the job server: ``exec`` and ``serve`` read
        their flag defaults off those only when one of them is parsed."""
        loaded = _probe(
            "import json, sys, contextlib, io\n"
            "from repro.__main__ import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['list'])\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert "repro.workloads.suite" in loaded  # the probe ran
        assert _too_heavy(loaded) == []
        assert "repro.exec.engine" not in loaded
        assert "repro.service.server" not in loaded


class TestPublicNames:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_imports(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in dir(module), name

    def test_unknown_name_is_an_attribute_error(self):
        import repro.obs

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.obs.no_such_name

    def test_bench_probe_imports(self):
        from repro.obs import TraceConfig, analyze_trace, merge_spool_dir

        assert callable(analyze_trace) and callable(merge_spool_dir)
        assert isinstance(TraceConfig, type)

    def test_exec_names_are_the_analogs_that_declare_a_spec(self):
        assert exec_names() == [
            name for name in SUITE if hasattr(SUITE[name], "spec")
        ]


#: Runs the engine's own process tree (with a crash and a soft fault, so a
#: respawned worker is forked mid-run) and a pool lease, traced and not.
#: Every forked stage reports the modules it imported after its fork.
_FORKED_STAGES = r"""
import json, os, sys, tempfile
from repro.exec import ExecutionEngine, FaultPlan, PipelineSpec
from repro.obs import TraceConfig
from repro.service.pool import WorkerPool

AT_FORK = []
os.register_at_fork(
    after_in_child=lambda: AT_FORK.append(frozenset(sys.modules))
)


def imported_since_fork():
    return sorted(set(sys.modules) - AT_FORK[-1]) if AT_FORK else []


def produce(i):
    return imported_since_fork()


def work(i, value):
    return sorted(set(value) | set(imported_since_fork()))


def commit(i, result, acc):
    acc.update(result)


def spec():
    return PipelineSpec(
        iterations=24, produce=produce, work=work, init=set, commit=commit
    )


report = {}
faults = FaultPlan(
    crash_iterations=frozenset({5}), error_iterations=frozenset({9})
)
for transport in ("pipe", "shm"):
    spool = tempfile.mkdtemp()
    result = ExecutionEngine(
        workers=2, transport=transport, fault_plan=faults,
        trace=TraceConfig(spool_dir=spool) if transport == "shm" else None,
    ).run(spec())
    assert result.metrics.respawns >= 1, result.metrics.respawns
    report["engine-" + transport] = sorted(result.output)

pool = WorkerPool(workers=2, slots=1).start()
try:
    for traced in (False, True):
        lease = pool.try_lease()
        trace = TraceConfig(spool_dir=tempfile.mkdtemp()) if traced else None
        lease.trace_config = trace
        try:
            result = ExecutionEngine(
                workers=2, trace=trace, runtime=lease
            ).run(spec())
        finally:
            pool.release(lease)
        report["pool-traced" if traced else "pool"] = sorted(result.output)
finally:
    pool.shutdown()
print(json.dumps(report))
"""


def test_forked_stages_import_nothing_after_their_fork():
    report = _probe(_FORKED_STAGES)
    assert report == {
        "engine-pipe": [], "engine-shm": [], "pool": [], "pool-traced": [],
    }


def test_sigterm_at_the_banner_drains_cleanly():
    """A harness may send SIGTERM the moment it reads ``serving on``:
    the server must already be ready to drain, not die of the signal."""
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    for _ in range(3):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--slots", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            assert "serving on" in banner, banner
            server.send_signal(signal.SIGTERM)
            tail, _ = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, (server.returncode, tail)
        assert "drained cleanly" in tail
