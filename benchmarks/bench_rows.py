"""Before/after table rows for docs/performance.md, from two traced
``bench/out/result.json`` files — so the doc's per-layer tables are what
``python3 bench/run.py --traced`` wrote, not what somebody retyped.

    python3 bench/run.py --workload pipeline-fine --traced   # on the parent
    cp bench/out/result.json /tmp/before.json
    python3 bench/run.py --workload pipeline-fine --traced   # on the change
    python benchmarks/bench_rows.py /tmp/before.json bench/out/result.json

Prints one markdown row per metric and workload present in both files;
metric names default to the rows the protocol/committer work is read by.
End-to-end metrics can be named too (in a traced file they were read
under the span recorder, in a third of the window):

    python benchmarks/bench_rows.py before.json after.json \
        op_wall_s setup_s core.simulate_s core.sim_tasks_per_s
"""

import json
import sys

DEFAULT_METRICS = (
    "channels.work.flushes",
    "channels.work.mean_frame_items",
    "channels.done.flushes",
    "channels.pipe.items_per_s",
    "transport.pipe.frames_per_s",
    "engine.steady_items_per_s",
    "engine.queue_wait_s",
    "engine.stage_c_s",
    "engine.breakeven_b_us",
    "engine.worker_imbalance",
    "engine.b_utilization",
    "engine.out_of_order_share",
)


def metrics_of(path):
    with open(path) as handle:
        return {
            result["workload"]: {
                **result["end_to_end"], **result.get("per_layer", {})
            }
            for result in json.load(handle)
        }


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    before, after = metrics_of(argv[0]), metrics_of(argv[1])
    metrics = argv[2:] or DEFAULT_METRICS
    print("| workload | metric | before | after |")
    print("|---|---|---|---|")
    for workload in before:
        for metric in metrics:
            if metric in before[workload] and metric in after.get(workload, {}):
                print(
                    f"| `{workload}` | `{metric}` "
                    f"| {before[workload][metric]:.6g} "
                    f"| {after[workload][metric]:.6g} |"
                )


if __name__ == "__main__":
    main(sys.argv[1:])
