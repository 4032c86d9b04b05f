"""The five workloads.

Each one has an *operation* (``op_wall_s``) and the same-run *reference*
the ROADMAP compares it against (``ref_wall_s``), interleaved inside one
timed window so drift hits both alike:

================  ==============================  ===========================
workload          operation                       reference
================  ==============================  ===========================
pipeline-coarse   ``ExecutionEngine.run`` (pipe)  ``run_sequential``
pipeline-fine     ``ExecutionEngine.run`` (pipe)  ``ExecutionEngine.run`` (shm)
pipeline-bulk     ``ExecutionEngine.run`` (pipe)  ``ExecutionEngine.run`` (shm)
service-jobs      job, POST -> terminal poll      bare engine, same spec
suite-simulate    11 x ``evaluate(analog)``       11 x sequential profile run
================  ==============================  ===========================

All loops are closed: the next request goes out when the previous one has
completed.  Engine and pool width is ``W = max(1, min(4, cpus))``; every
other engine knob is the constructor default, because the benchmark
measures what ``ExecutionEngine()`` gives a user.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, Tuple

import check
import inputs
import probes
from measure import OUT_DIR, Run
from probes import engine_run

from repro.core.framework import ParallelizationFramework
from repro.exec import PipelineSpec, run_sequential
from repro.service import TERMINAL_STATES, ServiceConfig
from repro.service.jobs import build_spec

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # not Linux
    CPUS = os.cpu_count() or 1
W = max(1, min(4, CPUS))
SERVICE_SLOTS = 2
CLIENTS = min(2, CPUS)
POLL_S = 0.005
#: Jobs each client runs between two reference phases.
JOBS_PER_CYCLE = 6
TERMINAL = tuple(state.value for state in TERMINAL_STATES)
#: Printed beside any engine-vs-sequential ratio taken on a single CPU.
PARALLELISM_FLAG = (
    f"UNMEASURED_PARALLELISM: {CPUS} cpu, stage B cannot overlap"
    if CPUS < 2 else ""
)


def _warmup_spec(spec: PipelineSpec) -> PipelineSpec:
    """A discarded short run is enough to load the engine's lazy imports
    and fault in the fork path; the timed runs use the full spec."""
    return replace(spec, iterations=max(16, spec.iterations // 8))


class Workload:
    """``setup`` builds inputs from the seed and does one discarded
    warm-up; ``measure`` fills ``run.samples`` with ``op``/``ref`` walls
    for about ``seconds``; ``probe`` adds this workload's per-layer
    metrics to a traced run; ``close`` undoes ``setup``."""

    name = ""
    why = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def measure(self, run: Run, seconds: float) -> None:
        raise NotImplementedError

    def probe(self, run: Run) -> None:
        pass

    def end_to_end(self, run: Run) -> Dict[str, float]:
        """Repetitions of one deterministic operation: the fastest one."""
        return {
            "op_wall_s": run.samples.best("op"),
            "ref_wall_s": run.samples.best("ref"),
        }

    def derived(self, run: Run) -> Dict[str, Tuple[float, str]]:
        """Readable restatements of the two walls, name -> (value, unit)."""
        return {}


class _EnginePipeline(Workload):
    """An engine workload: pipe runs are the operation; the reference is
    ``run_sequential`` (coarse) or the shm transport (fine, bulk)."""

    reference = "shm"

    def build(self, seed: int) -> PipelineSpec:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        self.spec = self.build(seed)
        self.fingerprint = inputs.spec_fingerprint(self.spec)
        # The coarse reference *is* the sequential run: its first timed
        # repetition supplies the expected output instead of a second
        # full-length run here.
        self.expected = (
            None if self.reference == "sequential"
            else run_sequential(self.spec)[0]
        )
        warm = _warmup_spec(self.spec)
        warm_expected, _ = run_sequential(warm)
        scratch = Run(self.name, traced=False)
        engine_run(scratch, warm, warm_expected, W)
        if self.reference == "shm":
            engine_run(scratch, warm, warm_expected, W, "shm")
        if scratch.failures:
            raise RuntimeError(f"warm-up failed: {scratch.failures}")

    def _reference(self, run: Run) -> float:
        if self.reference == "shm":
            return engine_run(run, self.spec, self.expected, W, "shm")
        with run.rec.span("run_sequential"):
            started = time.perf_counter()
            output, _ = run_sequential(self.spec)
            wall = time.perf_counter() - started
        if self.expected is None:
            self.expected = output
        run.check("run_sequential", [] if output == self.expected else
                  ["sequential output not repeatable"])
        return wall

    def measure(self, run: Run, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            with run.rec.span("cycle"):
                run.samples.add("ref", self._reference(run))
                run.samples.add("op", engine_run(
                    run, self.spec, self.expected, W, read_layers=True
                ))
        run.check("shm leak audit", check.leak_failures())

    def probe(self, run: Run) -> None:
        probes.exec_layers(run, self.spec, W)
        if self.reference == "sequential":
            sequential = run.samples.best("ref")
        else:
            with run.rec.span("run_sequential"):
                started = time.perf_counter()
                run_sequential(self.spec)
                sequential = time.perf_counter() - started
        run.layers["engine.speedup_vs_seq"] = (
            sequential / run.samples.best("op")
        )
        if PARALLELISM_FLAG:
            run.unmeasured["engine.speedup_vs_seq"] = PARALLELISM_FLAG


class PipelineCoarse(_EnginePipeline):
    name = "pipeline-coarse"
    why = ("bzip2 blocks, ~16 ms of pure stage B each: op = engine run, "
           "ref = run_sequential; dispatch, load balance and committer "
           "show here, the wire must not")
    reference = "sequential"

    def build(self, seed: int) -> PipelineSpec:
        return inputs.coarse_spec(seed)

    def derived(self, run: Run) -> Dict[str, Tuple[float, str]]:
        op, ref = run.samples.best("op"), run.samples.best("ref")
        return {
            "engine_wall_s": (op, "s"),
            "seq_wall_s": (ref, "s"),
            "speedup_vs_seq": (ref / op, "ratio"),
        }


class PipelineFine(_EnginePipeline):
    name = "pipeline-fine"
    why = ("12k tiny tuples, stage B a few integer ops: framing, credit, "
           "pickling and wakeups are the whole run; op = pipe, ref = shm "
           "in the same window")

    def build(self, seed: int) -> PipelineSpec:
        return inputs.fine_spec(seed)

    def derived(self, run: Run) -> Dict[str, Tuple[float, str]]:
        items = self.spec.iterations
        return {
            "items_per_s.pipe": (items / run.samples.best("op"), "1/s"),
            "items_per_s.shm": (items / run.samples.best("ref"), "1/s"),
        }


class PipelineBulk(_EnginePipeline):
    name = "pipeline-bulk"
    why = ("4k raw 64 KiB blocks, stage B one crc32: few large frames, so "
           "the zero-copy bytes path carries it; op = pipe, ref = shm in "
           "the same window")

    def build(self, seed: int) -> PipelineSpec:
        return inputs.bulk_spec(seed)

    def derived(self, run: Run) -> Dict[str, Tuple[float, str]]:
        megabytes = self.spec.iterations * inputs.BULK_BLOCK_BYTES / 1e6
        return {
            "mb_per_s.pipe": (megabytes / run.samples.best("op"), "MB/s"),
            "mb_per_s.shm": (megabytes / run.samples.best("ref"), "MB/s"),
        }


class _Client:
    """One tenant's HTTP client: a keep-alive connection, one job at a
    time, a status poll every ``POLL_S``."""

    def __init__(self, host: str, port: int, tenant: str) -> None:
        self.tenant = tenant
        self.connection = http.client.HTTPConnection(host, port, timeout=30)
        self.connection.connect()
        # http.client writes headers and body separately; send both at
        # once so no request waits on the client's own Nagle timer.
        self.connection.sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )

    def request(self, method: str, path: str, body: Any = None):
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def run_job(self, params: dict) -> dict:
        """Submit, poll to a terminal state, fetch the result."""
        sent = time.perf_counter()
        status, body = self.request(
            "POST", "/jobs",
            {"tenant": self.tenant, "workload": "synthetic", "params": params},
        )
        accepted = time.perf_counter()
        if status != 202:
            return {"refused": f"{status} {body.get('error')}", "sent": sent,
                    "accepted": accepted, "seen": accepted, "params": params}
        while True:
            _, state = self.request("GET", f"/jobs/{body['id']}")
            if state.get("state") in TERMINAL:
                break
            time.sleep(POLL_S)
        seen = time.perf_counter()
        output = None
        if state["state"] == "done":
            _, result = self.request("GET", f"/jobs/{body['id']}/result")
            output = result.get("output")
        return {"sent": sent, "accepted": accepted, "seen": seen,
                "state": state, "output": output, "params": params}

    def close(self) -> None:
        self.connection.close()


class ServiceJobs(Workload):
    name = "service-jobs"
    why = ("two tenants submit small synthetic jobs to `repro serve` one "
           "after another: admit, WAL fsync, lease and engine start/teardown "
           "are the latency; ref = bare engine on the same specs")

    def setup(self, seed: int) -> None:
        self.plan = inputs.job_plan(seed)
        self.fingerprint = inputs.fingerprint(self.plan)
        self.expected = {
            params["iterations"]:
                run_sequential(build_spec("synthetic", params))[0]
            for params in self.plan[inputs.TENANTS[0]]
        }
        self.cursor = {tenant: 0 for tenant in self.plan}
        defaults = ServiceConfig()
        #: what one lease gives a job, so the bare engine is the same
        #: pipeline minus the service
        self.bare_engine = {
            "workers": max(1, W // SERVICE_SLOTS),
            "capacity": defaults.capacity,
            "batch_size": defaults.batch_size,
        }
        self.state_dir = os.path.join(OUT_DIR, f"state-{os.getpid()}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        self.clients: List[_Client] = []
        self._start_server()
        try:
            self.clients = [
                _Client(self.host, self.port, tenant)
                for tenant in list(self.plan)[:CLIENTS]
            ]
            scratch = Run(self.name, traced=False)
            self._client_phase(scratch, jobs_each=1)
            self._bare_engine(scratch, self.plan[inputs.TENANTS[0]][0])
            if scratch.failures:
                raise RuntimeError(f"warm-up failed: {scratch.failures}")
        except BaseException:
            self.close()  # never leave the server running
            raise

    def _start_server(self) -> None:
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(REPO_DIR, "src"),
            PYTHONUNBUFFERED="1",
            TMPDIR=OUT_DIR,
        )
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workers", str(W), "--slots", str(SERVICE_SLOTS),
             "--state-dir", self.state_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        while True:
            line = self.server.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited before its banner "
                    f"(rc={self.server.wait()})"
                )
            match = re.search(r"serving on http://([\d.]+):(\d+)", line)
            if match:
                break
        self.host, self.port = match.group(1), int(match.group(2))

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.send_signal(signal.SIGTERM)
        try:
            tail, _ = self.server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            tail, _ = self.server.communicate()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        if self.server.returncode != 0 or "drained cleanly" not in tail:
            raise RuntimeError(
                f"repro serve did not drain cleanly "
                f"(rc={self.server.returncode}): {tail.strip()!r}"
            )

    def _next_params(self, tenant: str) -> dict:
        jobs = self.plan[tenant]
        params = jobs[self.cursor[tenant] % len(jobs)]
        self.cursor[tenant] += 1
        return params

    def _client_phase(self, run: Run, jobs_each: int) -> None:
        """Every client runs ``jobs_each`` jobs, all clients at once."""
        done: List[dict] = []
        errors: List[BaseException] = []

        def drive(client: _Client, batch: List[dict]) -> None:
            try:
                for params in batch:
                    done.append(client.run_job(params))
            except Exception as error:  # re-raised below, in the caller
                errors.append(error)

        threads = [
            threading.Thread(target=drive, args=(
                client,
                [self._next_params(client.tenant) for _ in range(jobs_each)],
            ))
            for client in self.clients
        ]
        with run.rec.span("client_phase"):
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            run.samples.add("client_phase_s", time.perf_counter() - started)
            if errors:
                raise errors[0]
            for job in done:
                self._account(run, job)

    def _account(self, run: Run, job: dict) -> None:
        if "refused" in job:
            run.check("POST /jobs", [f"refused: {job['refused']}"])
            run.samples.add("rejected", 1)
            return
        state = job["state"]
        run.check(
            f"job {state.get('id')}",
            check.job_failures(
                state, job["output"],
                self.expected[job["params"]["iterations"]],
            ),
        )
        run.samples.add("op", job["seen"] - job["sent"])
        run.samples.add("retries", state.get("attempts", 1) - 1)
        if not run.rec.enabled:
            return
        # The server's own clocks for this job, laid end to end from the
        # moment the POST was acknowledged.
        waited = state.get("queue_wait_s") or 0.0
        ran = (state.get("finished_unix") or 0.0) - (
            state.get("started_unix") or 0.0
        )
        run.layer_samples.add("service.post_s", job["accepted"] - job["sent"])
        run.layer_samples.add("service.queue_wait_s", waited)
        run.layer_samples.add("service.run_s", ran)
        queued = job["accepted"] + waited
        span = run.rec.open("job", job["sent"])
        run.rec.record("http.post", job["sent"], job["accepted"])
        run.rec.record("service.queue_wait", job["accepted"], queued)
        run.rec.record("service.run", queued, min(job["seen"], queued + ran))
        run.rec.close(span, job["seen"])

    def _bare_engine(self, run: Run, params: dict) -> float:
        spec = build_spec("synthetic", params)
        return engine_run(
            run, spec, self.expected[params["iterations"]],
            read_layers=True, **self.bare_engine
        )

    def measure(self, run: Run, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        reference_jobs = self.plan[inputs.TENANTS[0]]
        cycle = 0
        while time.perf_counter() < deadline:
            with run.rec.span("cycle"):
                self._client_phase(run, JOBS_PER_CYCLE)
                for k in range(2):
                    params = reference_jobs[(2 * cycle + k) % len(reference_jobs)]
                    run.samples.add("ref", self._bare_engine(run, params))
            cycle += 1
        run.check("shm leak audit", check.leak_failures())

    def end_to_end(self, run: Run) -> Dict[str, float]:
        """A stream of requests, not repetitions of one: median latency."""
        return {
            "op_wall_s": run.samples.median("op"),
            "ref_wall_s": run.samples.median("ref"),
        }

    def derived(self, run: Run) -> Dict[str, Tuple[float, str]]:
        latencies = run.samples.get("op")
        return {
            "job_latency_p50_s": (statistics.median(latencies), "s"),
            "job_latency_p90_s": (
                statistics.quantiles(latencies, n=10)[-1], "s"
            ),
            "jobs_per_s": (
                len(latencies) / sum(run.samples.get("client_phase_s")), "1/s"
            ),
            "bare_engine_wall_s": (run.samples.median("ref"), "s"),
        }

    def probe(self, run: Run) -> None:
        spec = build_spec("synthetic", self.plan[inputs.TENANTS[0]][0])
        probes.exec_layers(run, spec, self.bare_engine["workers"])
        probes.service_layer(run, self.plan, W, SERVICE_SLOTS)
        derived = self.derived(run)
        run.layers.update({
            "service.job_latency_p90_s": derived["job_latency_p90_s"][0],
            "service.jobs_per_s": derived["jobs_per_s"][0],
            "service.overhead_s":
                run.samples.median("op") - run.samples.median("ref"),
            "service.rejected": len(run.samples.get("rejected")),
            "service.retries": sum(run.samples.get("retries")),
        })


class SuiteSimulate(Workload):
    name = "suite-simulate"
    why = ("profile -> speculation plan -> task graph -> 16 simulations "
           "over all 11 SPEC analogs at reduced size: bypasses exec and "
           "service, so only core changes may move it; ref = sequential "
           "profile run")
    WARMUP = "253.perlbmk"

    def setup(self, seed: int) -> None:
        self.order = inputs.analog_order(seed)
        self.fingerprint = inputs.fingerprint(self.order)
        self.expected = check.load_expected_sim()
        self.framework = ParallelizationFramework()
        self.curves: Dict[str, dict] = {}
        scratch = Run(self.name, traced=False)
        self._evaluate(scratch, self.WARMUP)
        if scratch.failures:
            raise RuntimeError(f"warm-up failed: {scratch.failures}")

    def _evaluate(self, run: Run, name: str) -> None:
        with run.rec.span(f"evaluate.{name}"):
            started = time.perf_counter()
            evaluation = self.framework.evaluate(inputs.analog(name))
            run.samples.add(f"op.{name}", time.perf_counter() - started)
        self.curves[name] = check.curve_of(evaluation)
        run.check(
            f"evaluate {name}",
            check.sim_failures(name, evaluation, self.expected),
        )
        workload = evaluation.workload
        with run.rec.span(f"profile.{name}"):
            started = time.perf_counter()
            self.framework.profile_workload(workload, parallel_policy=False)
            run.samples.add(f"ref.{name}", time.perf_counter() - started)
        if run.rec.enabled:
            with run.rec.span(f"simulate.{name}"):
                started = time.perf_counter()
                for threads in self.framework.config.thread_counts:
                    self.framework.simulate_graph(evaluation.graph, threads)
                run.samples.add(
                    f"simulate.{name}", time.perf_counter() - started
                )
            run.samples.add(
                f"tasks.{name}",
                len(evaluation.graph.tasks)
                * len(self.framework.config.thread_counts),
            )

    def measure(self, run: Run, seconds: float) -> None:
        """Whole passes until the window is over; the last one may stop
        early, but every analog is evaluated at least once."""
        deadline = time.perf_counter() + seconds
        first_pass = True
        while first_pass or time.perf_counter() < deadline:
            with run.rec.span("pass"):
                for name in self.order:
                    if not first_pass and time.perf_counter() >= deadline:
                        break
                    self._evaluate(run, name)
            first_pass = False

    def _per_pass(self, run: Run, prefix: str) -> float:
        """Per 11-analog pass: the sum of each analog's best reading."""
        return sum(
            run.samples.best(f"{prefix}.{name}") for name in self.order
        )

    def end_to_end(self, run: Run) -> Dict[str, float]:
        return {
            "op_wall_s": self._per_pass(run, "op"),
            "ref_wall_s": self._per_pass(run, "ref"),
        }

    def derived(self, run: Run) -> Dict[str, Tuple[float, str]]:
        return {"suite_host_s": (self._per_pass(run, "op"), "s")}

    def probe(self, run: Run) -> None:
        simulate = self._per_pass(run, "simulate")
        tasks = self._per_pass(run, "tasks")
        run.layers.update({
            "core.profile_s": self._per_pass(run, "ref"),
            "core.simulate_s": simulate,
            "core.tasks_simulated": tasks,
            "core.sim_tasks_per_s": tasks / simulate,
        })
        for name in self.order:
            run.layers[f"core.evaluate_s.{name}"] = run.samples.best(
                f"op.{name}"
            )


WORKLOADS = [
    PipelineCoarse, PipelineFine, PipelineBulk, ServiceJobs, SuiteSimulate,
]
