"""Perf-regression gate: compare fresh benchmark results against a baseline.

The CI perf job snapshots the committed ``benchmarks/results.json`` (the
recorded baseline), re-runs the throughput benchmarks (which overwrite the
file in place), and then calls this script::

    python benchmarks/check_perf.py /tmp/perf_baseline.json \
        benchmarks/results.json --tolerance 0.30

Every throughput leaf (``items_per_sec`` and ``speedup_batch64_vs_1``)
under the perf sections must stay within ``tolerance`` of the baseline —
a fresh value below ``baseline * (1 - tolerance)`` fails the gate, as does
a leaf that disappeared.  Higher-is-better everywhere; improvements are
reported but never fail.  The per-transport wire-matrix ratios are held
to *absolute* floors instead (see ``ABSOLUTE_FLOORS``) — they swing too
much with box load for a snapshot-relative tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Tuple

#: results.json sections this gate audits (others track figures/tables).
PERF_SECTIONS = ("channel_throughput", "exec_fast_path")
#: Leaves under those sections that are gated (higher is better).
GATED_LEAVES = ("items_per_sec", "speedup_batch64_vs_1")

#: Absolute floors for the per-transport wire matrix (ISSUE 8).  These are
#: deliberately NOT tolerance-vs-baseline gated: the ratios legitimately
#: swing ~2x with box load, so a snapshot-relative gate would flake on
#: healthy runs.  The floors mirror the assertions inside
#: ``test_transport_matrix`` — the shm wire must stay >=5x the PR 3
#: batched-pipe anchors, and no slower than the same-run pipe on 64 KiB
#: blocks (a floor above 1 would fail the build for a *faster pipe*).
ABSOLUTE_FLOORS = {
    "transport_matrix.shm_vs_pr3_batched_pipe.tuples": 5.0,
    "transport_matrix.shm_vs_pr3_batched_pipe.raw_bytes": 5.0,
    "transport_matrix.shm_vs_pipe.blocks_64k": 1.0,
}


def _walk(prefix: str, node) -> Iterator[Tuple[str, float]]:
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(f"{prefix}.{key}", value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix, float(node)


def gated_metrics(results: dict) -> Dict[str, float]:
    """``section.leaf...path -> value`` for every gated throughput number."""
    metrics: Dict[str, float] = {}
    for section in PERF_SECTIONS:
        data = results.get(section)
        if not isinstance(data, dict):
            continue
        for leaf in GATED_LEAVES:
            if leaf in data:
                metrics.update(_walk(f"{section}.{leaf}", data[leaf]))
    return metrics


def compare(
    baseline: dict, current: dict, tolerance: float
) -> Tuple[list, list]:
    """Returns (failures, report_lines)."""
    base_metrics = gated_metrics(baseline)
    fresh_metrics = gated_metrics(current)
    failures = []
    lines = []
    for path, base_value in sorted(base_metrics.items()):
        fresh_value = fresh_metrics.get(path)
        if fresh_value is None:
            failures.append(f"{path}: present in baseline, missing now")
            continue
        floor = base_value * (1.0 - tolerance)
        delta = (fresh_value - base_value) / base_value if base_value else 0.0
        verdict = "ok" if fresh_value >= floor else "REGRESSION"
        lines.append(
            f"{verdict:>10}  {path}: {base_value:,.1f} -> {fresh_value:,.1f} "
            f"({delta:+.1%}, floor {floor:,.1f})"
        )
        if fresh_value < floor:
            failures.append(
                f"{path}: {fresh_value:,.1f} is below {floor:,.1f} "
                f"(baseline {base_value:,.1f} - {tolerance:.0%})"
            )
    if not base_metrics:
        failures.append(
            "baseline has no gated perf metrics — run the throughput "
            "benchmarks and commit benchmarks/results.json first"
        )
    flat_current: Dict[str, float] = {}
    for section, data in current.items():
        if isinstance(data, dict):
            flat_current.update(_walk(section, data))
    for path, floor in sorted(ABSOLUTE_FLOORS.items()):
        value = flat_current.get(path)
        if value is None:
            failures.append(f"{path}: required wire-matrix ratio missing")
            continue
        verdict = "ok" if value >= floor else "REGRESSION"
        lines.append(
            f"{verdict:>10}  {path}: {value:,.2f} (absolute floor {floor})"
        )
        if value < floor:
            failures.append(
                f"{path}: {value:,.2f} is below the absolute floor {floor}"
            )
    return failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline results.json snapshot")
    parser.add_argument("current", help="freshly generated results.json")
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional slowdown before failing (default 0.30)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)
    failures, lines = compare(baseline, current, args.tolerance)
    for line in lines:
        print(line)
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nperf gate passed: {len(lines)} metric(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
