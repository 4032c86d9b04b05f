"""What the forked stages of a ``pipeline-bulk`` run cost in CPU and page
faults.

Runs the benchmark's bulk spec (``bench/inputs.py``: 4 000 raw 64 KiB
blocks, stage B one crc32) through ``ExecutionEngine`` ``--runs`` times
after one discarded run, and prints the median over runs of the stages'
user and system seconds, minor page faults and voluntary context
switches: the ``RUSAGE_CHILDREN``
delta across each run, i.e. the producer and the workers, which read every
work frame.  The committer's own share is not in it::

    PYTHONPATH=src python benchmarks/wire_cpu.py [--runs 12] [--transport pipe]

Point ``PYTHONPATH`` at another checkout's ``src`` to get its column.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import inputs  # noqa: E402
from workloads import W as WORKERS  # noqa: E402  (the benchmark's width)

from repro.exec import ExecutionEngine, run_sequential  # noqa: E402


def one_run(engine: ExecutionEngine, spec, expected) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    result = engine.run(spec)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if result.output != expected:
        raise SystemExit("output differs from the sequential run")
    return {
        "wall_ms": 1e3 * wall,
        "user_ms": 1e3 * (after.ru_utime - before.ru_utime),
        "sys_ms": 1e3 * (after.ru_stime - before.ru_stime),
        "minflt": after.ru_minflt - before.ru_minflt,
        "nvcsw": after.ru_nvcsw - before.ru_nvcsw,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=12)
    parser.add_argument("--transport", default="pipe", choices=("pipe", "shm"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = inputs.bulk_spec(args.seed)
    expected, _ = run_sequential(spec)
    engine = ExecutionEngine(workers=WORKERS, transport=args.transport)
    one_run(engine, spec, expected)  # warm-up, discarded
    runs = [one_run(engine, spec, expected) for _ in range(args.runs)]
    print(f"{args.transport} bulk, {WORKERS} workers, median of {args.runs} runs:")
    for key in ("wall_ms", "user_ms", "sys_ms", "minflt", "nvcsw"):
        print(f"  {key:8} {statistics.median(run[key] for run in runs):10.1f}")


if __name__ == "__main__":
    main()
