"""Tests for the ``python -m repro`` command-line interface."""

import inspect
import json

import pytest

from repro.__main__ import _build_parser, _service_config, main
from repro.exec import ExecutionEngine
from repro.exec.metrics import EngineMetrics
from repro.obs.history import (
    HISTORY_SCHEMA,
    append_record,
    load_history,
    make_record,
)
from repro.service import ServiceConfig


class TestFlagDefaults:
    """A flag that sets a constructor argument defaults to that
    constructor's own default, so each default is written once."""

    def test_exec_defaults_are_the_engines(self):
        args = _build_parser().parse_args(["exec", "256.bzip2"])
        engine = inspect.signature(ExecutionEngine).parameters
        for name in ("capacity", "batch_size", "flush_interval", "transport"):
            assert getattr(args, name) == engine[name].default, name

    def test_serve_defaults_are_the_service_configs(self):
        args = _build_parser().parse_args(["serve"])
        assert args.weight == []
        assert _service_config(args, {}) == ServiceConfig()


def test_list(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "164.gzip" in output
    assert "300.twolf" in output


def test_bench_single(capsys):
    assert main(["bench", "256.bzip2", "--threads", "1", "8"]) == 0
    output = capsys.readouterr().out
    assert "256.bzip2" in output
    assert "paper reference" in output


def test_bench_unknown_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "999.unknown"])


def test_figure(capsys):
    assert main(["figure", "5", "--threads", "1", "8"]) == 0
    output = capsys.readouterr().out
    assert "176.gcc" in output
    assert "254.gap" in output


def test_ablation_flags(capsys):
    assert main(
        ["bench", "300.twolf", "--threads", "1", "8", "--no-commutative"]
    ) == 0
    output = capsys.readouterr().out
    assert "300.twolf" in output


def test_threads_deduplicated_and_sorted(capsys):
    assert main(["bench", "253.perlbmk", "--threads", "8", "1", "8"]) == 0
    output = capsys.readouterr().out
    lines = [l for l in output.splitlines() if "|" in l]
    assert len(lines) == 2  # 1 and 8 only


class TestExecCommand:
    """The ``exec`` subcommand: real multiprocess execution."""

    def test_exec_bzip2(self, capsys):
        assert main(["exec", "256.bzip2", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "bit-identical to sequential execution" in output
        assert "measured speedup" in output
        assert "commits" in output

    def test_exec_with_fault_injection(self, capsys):
        assert main(
            ["exec", "256.bzip2", "--workers", "2", "--inject-faults"]
        ) == 0
        output = capsys.readouterr().out
        assert "bit-identical to sequential execution" in output
        # The injected crash and soft fault were absorbed and retried.
        assert "1 crashes" in output
        assert "1 soft faults" in output

    def test_exec_json_export(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(
            ["exec", "197.parser", "--workers", "2", "--json", str(path)]
        ) == 0
        import json

        data = json.loads(path.read_text())
        assert data["commits"] == data["iterations"] > 0
        assert data["measured_speedup"] is not None

    def test_exec_compare_prints_the_measured_timeline(
        self, capsys, tmp_path, monkeypatch
    ):
        """``--calibrate --compare --trace``: one simulation of the analog
        serves both tables, and the traced run is drawn beside it."""
        from repro.core.framework import ParallelizationFramework

        evaluate = ParallelizationFramework.evaluate
        calls = []

        def counting_evaluate(framework, workload):
            calls.append(workload.name)
            return evaluate(framework, workload)

        monkeypatch.setattr(
            ParallelizationFramework, "evaluate", counting_evaluate
        )
        trace = tmp_path / "trace.json"
        assert main(
            ["exec", "256.bzip2", "--workers", "2", "--calibrate",
             "--compare", "--trace", str(trace), "--no-history"]
        ) == 0
        output = capsys.readouterr().out
        assert "-- measured timeline --" in output
        assert "=== predicted vs measured: 256.bzip2 ===" in output
        assert trace.exists()
        assert calls == ["256.bzip2"]

    def test_exec_rejects_workload_without_spec(self):
        # 186.crafty has no exec spec; argparse rejects it up front.
        with pytest.raises(SystemExit):
            main(["exec", "186.crafty"])

    def test_exec_gzip_has_real_spec(self, capsys):
        assert main(["exec", "164.gzip", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "bit-identical to sequential execution" in output


class TestExecExitCode:
    """``exec`` must not exit 0 when the run only finished by giving up
    on parallelism."""

    def test_clean_run_is_zero(self):
        from repro.__main__ import _exec_exit_code

        metrics = EngineMetrics()
        metrics.watchdog = {"health": "ok"}
        assert _exec_exit_code(True, metrics) == 0

    def test_mismatch_wins_over_health(self):
        from repro.__main__ import _exec_exit_code

        metrics = EngineMetrics()
        metrics.watchdog = {"health": "degraded"}
        assert _exec_exit_code(False, metrics) == 1

    def test_degraded_watchdog_is_two(self, capsys):
        from repro.__main__ import _exec_exit_code

        for health in ("degraded", "aborted"):
            metrics = EngineMetrics()
            metrics.watchdog = {"health": health}
            assert _exec_exit_code(True, metrics) == 2

    def test_degraded_to_sequential_is_two(self):
        from repro.__main__ import _exec_exit_code

        metrics = EngineMetrics()
        metrics.degraded_to_sequential = True
        assert _exec_exit_code(True, metrics) == 2

    def test_no_watchdog_stays_zero(self):
        from repro.__main__ import _exec_exit_code

        assert _exec_exit_code(True, EngineMetrics()) == 0


class TestExecLiveFlags:
    """The live-telemetry and output-path flags of ``exec``."""

    def test_serve_attaches_live_plane_and_records_history(
        self, capsys, tmp_path
    ):
        history = tmp_path / "nested" / "history.jsonl"
        assert main(
            [
                "exec", "256.bzip2", "--workers", "2",
                "--serve", "0", "--live-interval", "0.05",
                "--history", str(history), "--label", "smoke",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "live: served /metrics /snapshot /health on port" in output
        assert "live health" in output
        # The run appended a schema-versioned record, creating the
        # missing parent directory on the way.
        records = load_history(str(history))
        assert len(records) == 1
        assert records[0]["label"] == "smoke"
        assert records[0]["watchdog"] is not None
        assert records[0]["counters"]["commits"] > 0

    def test_watch_renders_status_to_stderr(self, capsys, tmp_path):
        assert main(
            [
                "exec", "256.bzip2", "--workers", "2",
                "--watch", "--live-interval", "0.01",
                "--history", str(tmp_path / "h.jsonl"),
            ]
        ) == 0
        assert "live:" in capsys.readouterr().err

    def test_no_history_skips_the_store(self, tmp_path):
        history = tmp_path / "h.jsonl"
        assert main(
            [
                "exec", "256.bzip2", "--workers", "2",
                "--history", str(history), "--no-history",
            ]
        ) == 0
        assert not history.exists()

    def test_metrics_out_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "metrics.json"
        assert main(
            [
                "exec", "256.bzip2", "--workers", "2",
                "--metrics-out", str(path), "--no-history",
            ]
        ) == 0
        assert json.loads(path.read_text())["commits"] > 0

    def test_trace_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.json"
        assert main(
            [
                "exec", "256.bzip2", "--workers", "2",
                "--trace", str(path), "--no-history",
            ]
        ) == 0
        assert "traceEvents" in json.loads(path.read_text())

    def test_json_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "run.json"
        assert main(
            [
                "exec", "256.bzip2", "--workers", "2",
                "--json", str(path), "--no-history",
            ]
        ) == 0
        assert json.loads(path.read_text())["commits"] > 0


class TestHistoryCommand:
    """The ``history`` subcommand: cross-run diffs and the CI gate."""

    def _store(self, tmp_path, runs):
        """A synthetic store: (wall_seconds, label) per record."""
        path = tmp_path / "history.jsonl"
        for wall, label in runs:
            metrics = EngineMetrics(
                workers=2, capacity=8, iterations=100, batch_size=16,
                wall_seconds=wall, commits=100,
            )
            append_record(
                str(path),
                make_record(name="256.bzip2", metrics=metrics, label=label),
            )
        return str(path)

    def test_diff_against_auto_baseline(self, capsys, tmp_path):
        path = self._store(tmp_path, [(2.0, None), (2.1, None)])
        assert main(["history", "--history", path]) == 0
        output = capsys.readouterr().out
        assert "verdict: ok" in output
        assert "items_per_sec" in output

    def test_check_fails_on_regression(self, capsys, tmp_path):
        path = self._store(tmp_path, [(2.0, None), (4.0, None)])
        # Without --check the regression is reported but not fatal.
        assert main(["history", "--history", path]) == 0
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["history", "--history", path, "--check"]) == 1

    def test_tolerance_loosens_the_gate(self, tmp_path):
        path = self._store(tmp_path, [(2.0, None), (4.0, None)])
        assert main(
            ["history", "--history", path, "--check", "--tolerance", "0.6"]
        ) == 0

    def test_baseline_by_label(self, tmp_path):
        path = self._store(
            tmp_path, [(2.0, "golden"), (3.9, None), (4.1, None)]
        )
        assert main(
            ["history", "--history", path, "--baseline", "golden", "--check"]
        ) == 1

    def test_no_records_exits_nonzero(self, capsys, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        assert main(["history", "--history", path]) == 1
        assert "no records" in capsys.readouterr().out

    def test_single_record_has_no_baseline(self, capsys, tmp_path):
        path = self._store(tmp_path, [(2.0, None)])
        # Informational without --check, fatal with it (a CI gate that
        # silently has nothing to compare is not a gate).
        assert main(["history", "--history", path]) == 0
        assert "not found" in capsys.readouterr().out
        assert main(["history", "--history", path, "--check"]) == 1

    def test_list_and_json_export(self, capsys, tmp_path):
        path = self._store(tmp_path, [(2.0, "a"), (2.1, None)])
        json_path = tmp_path / "out" / "records.json"
        assert main(
            [
                "history", "--history", path, "--list",
                "--json", str(json_path),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "256.bzip2" in output
        assert "[a]" in output
        assert len(json.loads(json_path.read_text())) == 2

    def test_exec_to_history_round_trip(self, capsys, tmp_path):
        """The full chain: two real engine runs through the CLI append two
        schema-valid records, and ``history`` diffs them.  Only the round
        trip is asserted: the verdict compares p95s of two short real runs,
        which is the host's timing, not the code's — the hand-written
        ``_store`` records above drive the verdict paths."""
        history = str(tmp_path / "history.jsonl")
        for _ in range(2):
            assert main(
                [
                    "exec", "256.bzip2", "--workers", "2",
                    "--history", history,
                ]
            ) == 0
        with open(history, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2
        records = load_history(history)
        assert len(records) == 2
        for record in records:
            assert record["schema"] == HISTORY_SCHEMA
            assert record["name"] == "256.bzip2"
            assert record["workers"] == 2
            assert record["ok"] is True
            assert record["counters"]["commits"] == record["iterations"] > 0
            assert record["items_per_sec"] > 0
            assert {"task_b", "commit_lag"} <= set(record["latency"])
        capsys.readouterr()
        assert main(["history", "--history", history]) == 0
        output = capsys.readouterr().out
        assert "history: 256.bzip2 (2w batch" in output
        assert "items_per_sec" in output and "task_b.p95" in output
        assert "verdict: " in output
