"""Fail a CI step when a ``bench/run.py`` run had a failed operation.

``bench/run.py`` exits 0 whatever its correctness gates found and reports
them in its last stdout line: one JSON object with ``attempted`` and
``failed``.  Pipe the run through this script to turn that line into an
exit status::

    python3 bench/run.py --workload service-jobs --seconds 6 \\
        | python3 benchmarks/check_bench_line.py

The run's output is echoed unchanged.  The exit status is non-zero when
the last line is missing or is not that JSON object, or when it reports
``failed > 0``.
"""

import json
import sys


def check(lines) -> str:
    """An error message, or ``""`` when the summary says nothing failed."""
    last = ""
    for line in lines:
        sys.stdout.write(line)
        if line.strip():
            last = line
    sys.stdout.flush()
    try:
        summary = json.loads(last)
        failed, attempted = summary["failed"], summary["attempted"]
    except (ValueError, TypeError, KeyError):
        return "bench: the run did not end with its JSON summary line"
    if failed:
        return f"bench: {failed} of {attempted} operations failed"
    return ""


def main() -> int:
    error = check(sys.stdin)
    if error:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
