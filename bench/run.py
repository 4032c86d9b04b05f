#!/usr/bin/env python3
"""One layered, same-run benchmark for the stack:
wire -> channel -> engine -> service -> simulator.

    python3 bench/run.py                      # all five workloads, untraced
    python3 bench/run.py --workload pipeline-fine --seed 7
    python3 bench/run.py --traced             # per-layer metrics + out/trace.json
    python3 bench/run.py --repeat-check       # two sets, must agree within bounds
    python3 bench/run.py --regen-expected     # rewrite expected_sim.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; names, units and
bounds of the metrics are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

IMPORT_STARTED = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit(f"bench: no program to measure: {SRC_DIR}/repro is missing")
sys.path.insert(0, SRC_DIR)

import check  # noqa: E402
from measure import OUT_DIR, Run  # noqa: E402
from workloads import CPUS, PARALLELISM_FLAG, W, WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_STARTED
DEFAULT_SEED = 20071201
#: ``setup_s`` is the median of a run's set-ups: at least ``MIN_SETUPS``,
#: and a cheap set-up (0.1 s on suite-simulate) is repeated until the
#: set-ups took ``SETUP_BUDGET_S`` together, because the median of five
#: 0.1 s readings moves by a fifth from run to run on a shared host.
MIN_SETUPS = 5
MAX_SETUPS = 15
SETUP_BUDGET_S = 2.0

with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
END_TO_END = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in CONTRACT["per_layer"]}


def run_workload(cls, seed: int, seconds: float, traced: bool) -> dict:
    """Set up several times, measure once, close.  The untraced pass
    yields the end-to-end metrics; the traced pass measures a third of the
    window plain and a third under the span recorder, then probes the
    layers this workload passes through."""
    workload = cls()
    setups = []
    while True:
        started = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - started)
        if len(setups) >= MAX_SETUPS or (
            len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_BUDGET_S
        ):
            break
        workload.close()
    try:
        run = Run(workload.name, traced)
        if traced:
            plain = Run(workload.name, traced=False)
            workload.measure(plain, seconds / 3)
            workload.measure(run, seconds / 3)
            workload.probe(run)
            run.layers["bench.trace_overhead_ratio"] = (
                workload.end_to_end(run)["op_wall_s"]
                / workload.end_to_end(plain)["op_wall_s"]
            )
            run.attempted += plain.attempted
            run.failures += plain.failures
        else:
            workload.measure(run, seconds)
    finally:
        workload.close()
    values = {"setup_s": statistics.median(setups)}
    values.update(workload.end_to_end(run))
    result = {
        "workload": workload.name,
        "seed": seed,
        "fingerprint": workload.fingerprint,
        "attempted": run.attempted,
        "failures": run.failures,
        "end_to_end": values,
        "derived": workload.derived(run),
        "setups_s": setups,
        "samples": {
            name: run.samples.describe(name)
            for name in sorted(run.samples.by_name)
        },
    }
    if traced:
        produced = run.layer_metrics()
        unknown = sorted(set(produced) - set(PER_LAYER))
        if unknown:
            raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
        # A layer this workload bypasses did no work and took no time.
        result["per_layer"] = {
            name: produced.get(name, 0.0) for name in PER_LAYER
        }
        result["unmeasured"] = run.unmeasured
        result["self_time_s"] = run.rec.self_times()
        run.rec.write(os.path.join(OUT_DIR, "trace.json"))
    return result


def report(result: dict, traced: bool) -> None:
    name = result["workload"]
    print(f"\n== {name}  seed={result['seed']} "
          f"inputs={result['fingerprint']} ==")
    for metric, value in result["end_to_end"].items():
        spec = END_TO_END[metric]
        print(f"  {metric:<28} {value:>14.6g} {spec['unit']:<6} "
              f"({spec['better']} is better, bound {spec['bound']:.0%})")
    for metric, (value, unit) in result["derived"].items():
        flag = PARALLELISM_FLAG if metric == "speedup_vs_seq" else ""
        print(f"    = {metric:<24} {value:>14.6g} {unit}  {flag}")
    print(f"  setups_s {[round(s, 4) for s in result['setups_s']]}")
    for series, text in result["samples"].items():
        print(f"  samples {series:<20} {text}")
    if traced:
        print(f"  -- per layer ({name}; 0 = layer not on this workload's path)")
        for metric, value in result["per_layer"].items():
            note = result["unmeasured"].get(metric, "")
            print(f"  {metric:<36} {value:>14.6g} "
                  f"{PER_LAYER[metric]['unit']:<6} {note}")
        print("  -- self time per span (s)")
        for span, seconds in sorted(result["self_time_s"].items()):
            print(f"  {span:<36} {seconds:>14.6f}")
    failed = len(result["failures"])
    print(f"  operations: {result['attempted']} attempted, {failed} failed "
          f"(failed_share {failed / max(result['attempted'], 1):.4f})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def final_line(results: list, traced: bool, single: bool) -> str:
    """The contract's result object.  With one workload the metric names
    are bare; a pass over several prefixes them ``<workload>:``."""
    metrics = {}
    for result in results:
        table, spec = (
            (result["per_layer"], PER_LAYER) if traced
            else (result["end_to_end"], END_TO_END)
        )
        prefix = "" if single else f"{result['workload']}:"
        for name, value in table.items():
            metrics[prefix + name] = {"value": value, "unit": spec[name]["unit"]}
    failed = sum(len(result["failures"]) for result in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": metrics,
    })


def repeat_check(selected: list, seed: int, seconds: float) -> int:
    """Two untraced sets on neighbouring seeds: inputs must differ, nothing
    may fail, and every end-to-end metric of set 2 must sit within its own
    bound of set 1."""
    verdict = 0
    for cls in selected:
        first = run_workload(cls, seed, seconds, traced=False)
        second = run_workload(cls, seed + 1, seconds, traced=False)
        for result in (first, second):
            report(result, traced=False)
        if first["fingerprint"] == second["fingerprint"]:
            print(f"  REPEAT-CHECK {cls.name}: seeds {seed} and {seed + 1} "
                  f"generated the same inputs")
            verdict = 1
        if first["failures"] or second["failures"]:
            verdict = 1
        for metric, spec in END_TO_END.items():
            a, b = first["end_to_end"][metric], second["end_to_end"][metric]
            gap = (b - a) / a
            ok = abs(gap) <= spec["bound"]
            verdict |= not ok
            print(f"  REPEAT-CHECK {cls.name:<16} {metric:<12} set1 {a:.6g} "
                  f"set2 {b:.6g} gap {gap:+.2%} bound {spec['bound']:.0%} "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
    print(f"\nrepeat-check: {'FAILED' if verdict else 'passed'}")
    return verdict


def regen_expected() -> int:
    import inputs
    from repro.core.framework import ParallelizationFramework

    framework = ParallelizationFramework()
    check.write_expected_sim({
        name: check.curve_of(framework.evaluate(inputs.analog(name)))
        for name in inputs.ANALOG_SIZES
    })
    print(f"wrote {check.EXPECTED_SIM}")
    return 0


def stop_resource_tracker() -> None:
    """Shared-memory runs make the stdlib spawn a resource-tracker child;
    end it and wait for it, so no process of ours outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    names = [cls.name for cls in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float,
                        default=CONTRACT["run_seconds"],
                        help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass: per-layer metrics + trace.json")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two untraced sets and compare them")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected_sim.json from this checkout")
    args = parser.parse_args(argv)

    stale = check.stale_state()
    if stale:
        print("bench: refusing to start, a previous run left these behind "
              f"(they would perturb the measurement): {stale}\n"
              "  stop the server / run `python -m repro shm-audit --unlink`",
              file=sys.stderr)
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)
    # The program's own temporary files stay inside the checkout too.
    os.environ["TMPDIR"] = OUT_DIR
    if args.regen_expected:
        return regen_expected()

    traced = bool(args.trace)
    selected = [cls for cls in WORKLOADS if args.workload in (None, cls.name)]
    print(f"bench: cpus={CPUS} W={W} python={platform.python_version()} "
          f"seed={args.seed} seconds={args.seconds:g} traced={traced} "
          f"import_s={IMPORT_S:.3f}")
    results = []
    try:
        if args.repeat_check:
            return repeat_check(selected, args.seed, args.seconds)
        for cls in selected:
            results.append(run_workload(cls, args.seed, args.seconds, traced))
            report(results[-1], traced)
    finally:
        stop_resource_tracker()
    with open(os.path.join(OUT_DIR, "result.json"), "w") as handle:
        json.dump(results, handle, indent=1)
    print(final_line(results, traced, single=args.workload is not None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
