"""Regenerate the golden Prometheus exposition files.

Run after an *intentional* format change to ``repro.obs.serve``:

    PYTHONPATH=src python tests/make_golden.py

then review the diff of ``tests/golden/metrics_exposition.prom`` (the
engine's ``/metrics``) and ``tests/golden/service_exposition.prom`` (the
job server's) — both are wire contracts pinned byte-for-byte by
``tests/test_live.py``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from test_live import (  # noqa: E402
    _GOLDEN_LABELS,
    _GOLDEN_WATCHDOG,
    _golden_registry,
    _golden_service,
)

from repro.obs.serve import prometheus_exposition  # noqa: E402


def _write(name: str, text: str) -> None:
    path = os.path.join(HERE, "golden", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path} ({len(text)} bytes)")


def main() -> None:
    _write(
        "metrics_exposition.prom",
        prometheus_exposition(
            _golden_registry().snapshot(),
            labels=_GOLDEN_LABELS,
            watchdog=_GOLDEN_WATCHDOG,
        ),
    )
    _write("service_exposition.prom", _golden_service().metrics_text())


if __name__ == "__main__":
    main()
