"""``benchmarks/check_bench_line.py`` turns a bench run's last line into an
exit status (CI pipes every ``bench/run.py`` step through it)."""

import json
import pathlib
import subprocess
import sys

CHECKER = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "check_bench_line.py"
)


def _check(text):
    return subprocess.run(
        [sys.executable, str(CHECKER)], input=text, capture_output=True,
        text=True, timeout=60,
    )


def _summary(failed):
    return json.dumps({"correct": not failed, "attempted": 12,
                       "failed": failed, "metrics": {}})


def test_clean_run_passes_and_is_echoed():
    text = "bench: cpus=2\n  operations: 12 attempted\n" + _summary(0) + "\n"
    done = _check(text)
    assert done.returncode == 0
    assert done.stdout == text


def test_failed_operations_fail_the_step():
    done = _check("bench: cpus=2\n" + _summary(2) + "\n\n")
    assert done.returncode == 1
    assert "2 of 12 operations failed" in done.stderr


def test_a_run_without_its_summary_fails_the_step():
    for text in ("", "Traceback (most recent call last):\n", "[1, 2]\n"):
        assert _check(text).returncode == 1
