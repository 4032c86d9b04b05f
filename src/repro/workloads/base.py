"""The workload protocol: executable SPEC CINT2000 analogs.

Each workload is a real program (a compressor, a chess search, a placer, an
interpreter, ...) whose hot loop has been decomposed into the paper's
A/B/C phase pattern and instrumented with the tracer.  The framework runs
it twice — once under sequential annotation policies (the single-threaded
baseline, bit-exact original semantics) and once under parallel policies
(Y-branches may fire on their intervals) — then simulates the second trace
on 1-32 cores.

An analog whose phase B is pure declares its loop once, as
``spec(rec) -> PipelineSpec``: the stages make their trace-only calls
(``work`` / ``load`` / ``store``) on ``rec``.  :meth:`Workload.run` drives
that spec under the tracer's phases, and :meth:`Workload.exec_spec` hands
the same spec, with :data:`NULL_RECORDER`, to the real engine — the
simulated analog and the measured engine run the same code.

Workloads also carry the Table 1 metadata (loop location, execution-time
share, lines changed, techniques) so the benchmark harness can regenerate
that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence, Tuple

from repro.profiling.tracer import Tracer

Location = Tuple[str, Hashable]


@dataclass(frozen=True)
class WorkloadInfo:
    """Static description — the columns of Table 1.

    ``exec_time_pct`` holds one entry per loop in ``loops`` (the paper's
    "Approx. Exec. Time" column is per loop); a single string is accepted
    and applies to every loop.
    """

    name: str                      # e.g. "164.gzip"
    loops: Tuple[str, ...]         # "deflate (deflate.c:664-762)" style
    exec_time_pct: Tuple[str, ...] # approximate runtime share, per loop
    lines_changed_all: int
    lines_changed_model: int       # within the augmented sequential model only
    techniques: Tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.exec_time_pct, str):
            object.__setattr__(
                self, "exec_time_pct", (self.exec_time_pct,) * len(self.loops)
            )
        if len(self.exec_time_pct) != len(self.loops):
            raise ValueError(
                f"{self.name}: exec_time_pct needs one entry per loop "
                f"({len(self.exec_time_pct)} given for {len(self.loops)} loops)"
            )


@dataclass
class OutputComparison:
    """How the parallel-policy output relates to the sequential output.

    The paper's Section 2.3/4.4 point: some parallelizations legally change
    the output (gzip's compression ratio, gcc's label strings, twolf's random
    choices) while remaining semantically acceptable.  ``equivalent`` means
    byte-identical; ``acceptable`` means within the declared tolerance;
    ``note`` explains (e.g. "compression loss 0.4% < 1%").
    """

    equivalent: bool
    acceptable: bool
    note: str = ""


class _NullRecorder:
    """What the engine's stages record into: every trace-only call is a
    no-op."""

    def work(self, units: int = 1) -> None:
        pass

    def load(self, obj: str, key: Hashable = None) -> None:
        pass

    def store(self, obj: str, key: Hashable = None, value: Hashable = None) -> None:
        pass


NULL_RECORDER = _NullRecorder()


class Workload:
    """One benchmark analog.

    A subclass declares ``spec(rec)`` — its loop as a
    :class:`repro.exec.PipelineSpec` whose stages record into ``rec`` — or,
    when its loop is not a pipeline of pure phase-B tasks, implements
    :meth:`run` itself.  :meth:`compare_outputs` judges output
    acceptability.  All randomness must come from seeds fixed in
    ``__init__`` so runs are deterministic.
    """

    info: WorkloadInfo

    @property
    def name(self) -> str:
        return self.info.name

    def run(self, tracer: Tracer) -> Any:
        """Execute the workload under ``tracer``; return the program output.

        Derived from ``spec(tracer)``: ``init``, then per iteration
        ``produce`` as task A, ``work`` as task B and ``commit`` as task C,
        then ``finalize``.
        """
        spec = self.spec(tracer)
        accumulator = spec.init()
        for i in range(spec.iterations):
            with tracer.task("A", i):
                value = spec.produce(i)
            with tracer.task("B", i):
                result = spec.work(i, value)
            with tracer.task("C", i):
                spec.commit(i, result, accumulator)
        return spec.finalize(accumulator)

    # -- real execution (repro.exec) -------------------------------------------------

    def exec_spec(self):
        """The :class:`repro.exec.PipelineSpec` the engine runs: ``spec``
        with every trace-only call a no-op.

        Where :meth:`run` is derived from the same spec, the spec's
        sequential reference is bit-identical to it by construction.  A
        workload that keeps its own :meth:`run` (164.gzip) holds its spec to
        it through :meth:`compare_outputs` instead.  ``produce`` and
        ``work`` cross process boundaries and must be picklable; bind only
        the recorder to ``work`` (the service pool pickles it at every
        lease), never the input.
        """
        return self.spec(NULL_RECORDER)

    # -- parallelization hints (the case studies' manual choices) -------------------

    def forced_synchronized(self) -> Sequence[Location]:
        """Locations the case study synchronizes instead of speculating."""
        return ()

    def forced_speculated(self) -> Sequence[Location]:
        """Locations the case study speculates regardless of conflict rate."""
        return ()

    @property
    def synchronize_rate_threshold(self) -> float:
        """Conflict-rate threshold above which a location is synchronized."""
        return 0.6

    @property
    def uses_ybranch(self) -> bool:
        """True when parallel-policy runs produce a different trace/output."""
        return False

    def compare_outputs(self, sequential: Any, parallel: Any) -> OutputComparison:
        """Default: outputs must be identical (most benchmarks)."""
        same = sequential == parallel
        return OutputComparison(equivalent=same, acceptable=same)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
