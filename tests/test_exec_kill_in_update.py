"""A stage killed inside a channel counter update costs the run nothing.

A worker is killed — SIGKILL, and SIGTERM with its default action — in
the middle of taking credit on the ``done`` channel: the fault hook is an
``int`` standing in for the worker's own view of the channel's capacity,
which kills its process the third time the credit check compares against
it, between reading the counters and booking its frame.  The run must
still end, with the output of :func:`run_sequential`, on the engine's own
process tree and on a worker-pool lease, over the pipe and the shm ring.

Each case runs in a child interpreter and the deadline is enforced here,
in the parent: a counter kept behind a process-shared lock is orphaned by
such a kill, and the survivors that reach for it wait forever — a hang no
in-process timeout could report.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Seconds the parent gives one child (two engine runs, one per signal).
DEADLINE = 60.0

_CHILD = r"""
import json, os, signal, sys
from repro.exec import ExecutionEngine, PipelineSpec, RobustnessPolicy, run_sequential
from repro.exec.runtime import StageSet
from repro.service.pool import WorkerPool

OWNER, TRANSPORT = sys.argv[1], sys.argv[2]
ARMED = []


class KillOnCompare(int):
    '''The capacity a credit check compares against; its third comparison
    sends the comparing process the signal it carries.'''

    def __new__(cls, value, sig):
        self = super().__new__(cls, value)
        self.sig, self.calls = sig, 0
        return self

    def _hit(self):
        self.calls += 1
        if self.calls == 3:
            os.kill(os.getpid(), self.sig)

    def __lt__(self, other):
        self._hit()
        return int(self) < other

    def __le__(self, other):
        self._hit()
        return int(self) <= other

    def __gt__(self, other):
        self._hit()
        return int(self) > other

    def __ge__(self, other):
        self._hit()
        return int(self) >= other


_for_stage = StageSet.for_stage


def for_stage(self):
    '''The first stage view made while armed is the victim's: its worker
    dies inside its third credit check on ``done``.'''
    view = _for_stage(self)
    if ARMED:
        view.done.capacity = KillOnCompare(view.done.capacity, ARMED.pop())
    return view


StageSet.for_stage = for_stage


def produce(i):
    return i * 7 + 1


def work(i, value):
    return (value * value + i) % 10007


def commit(i, result, acc):
    acc.append(result)


SPEC = PipelineSpec(
    iterations=600, produce=produce, work=work, commit=commit,
    init=list, finalize=list,
)
# The victim may die holding a chunk it has taken from ``work`` but not
# yet claimed: nobody knows to retry it, and the run degrades to
# sequential once ``stall_timeout`` passes without a commit.
POLICY = RobustnessPolicy(task_timeout=20.0, stall_timeout=2.0, join_timeout=5.0)
ENGINE = dict(workers=2, capacity=8, batch_size=4, policy=POLICY, transport=TRANSPORT)


def run():
    if OWNER == "local":
        return ExecutionEngine(**ENGINE).run(SPEC)
    pool = WorkerPool(
        workers=2, slots=1, capacity=8, batch_size=4, policy=POLICY,
        transport=TRANSPORT,
    ).start()
    try:
        lease = pool.try_lease()
        try:
            return ExecutionEngine(**ENGINE, runtime=lease).run(SPEC)
        finally:
            pool.release(lease)
    finally:
        pool.shutdown()


expected = run_sequential(SPEC)[0]
seen = {}
for sig in (signal.SIGKILL, signal.SIGTERM):
    ARMED[:] = [sig]
    result = run()
    seen[sig.name] = {
        "identical": result.output == expected,
        "crashes": result.metrics.worker_crashes,
        "degraded": result.metrics.degraded_to_sequential,
    }
print(json.dumps(seen))
"""


@pytest.mark.parametrize("transport", ["pipe", "shm"])
@pytest.mark.parametrize("owner", ["local", "pool"])
def test_worker_killed_inside_a_credit_update_leaves_the_run_whole(
    owner, transport
):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, owner, transport], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # a hang is ended with everything it forked
    )
    try:
        stdout, stderr = child.communicate(timeout=DEADLINE)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(
            f"{owner}/{transport}: the run did not end within {DEADLINE}s "
            "of a worker killed inside a counter update"
        )
    assert child.returncode == 0, stderr
    seen = json.loads(stdout.strip().splitlines()[-1])
    for name in ("SIGKILL", "SIGTERM"):
        assert seen[name]["identical"], (name, seen)
        # the hook fired: the victim died where it was meant to
        assert seen[name]["crashes"] >= 1, (name, seen)
