"""CLI smoke tests for ``python -m repro.experiments trace-report``."""

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.trace_report import TRACE_KERNELS, build_trace_report_parser
from repro.observe import CHROME_TRACE_REQUIRED_KEYS, validate_chrome_trace


class TestTraceReportCLI:
    def test_sequential_dimtree_with_exports_and_drift_check(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "trace-report",
                "--kernel",
                "dimtree",
                "--shape",
                "6",
                "7",
                "8",
                "--rank",
                "3",
                "--sweeps",
                "3",
                "--export-trace",
                str(trace_path),
                "--export-metrics",
                str(metrics_path),
                "--check-drift",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Traced ALS sweeps" in out
        assert "drift check (dimtree" in out and "OK" in out
        assert "Sweep latency: p50" in out

        payload = json.loads(trace_path.read_text())
        validate_chrome_trace(payload)
        sweeps = [e for e in payload["traceEvents"] if e["name"] == "sweep"]
        assert len(sweeps) == 3
        for event in payload["traceEvents"]:
            for key in CHROME_TRACE_REQUIRED_KEYS:
                assert key in event

        snapshot = json.loads(metrics_path.read_text())
        # Four subtree builds in each of the three sweeps, all misses: the
        # kernel drops a node before the update that stales it.
        assert snapshot["counters"]["dimtree.partial.miss"] == 12

    def test_sequential_fused_drift_check(self, capsys):
        code = main(
            [
                "trace-report",
                "--kernel",
                "sampled-dimtree",
                "--shape",
                "6",
                "7",
                "8",
                "--rank",
                "3",
                "--sweeps",
                "2",
                "--check-drift",
            ]
        )
        assert code == 0
        assert "drift check (sampled-dimtree" in capsys.readouterr().out

    def test_parallel_drift_check(self, capsys):
        code = main(
            [
                "trace-report",
                "--kernel",
                "dimtree",
                "--shape",
                "6",
                "7",
                "8",
                "--rank",
                "3",
                "--sweeps",
                "2",
                "--procs",
                "4",
                "--check-drift",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift check (parallel-dimtree, parallel words): OK" in out

    @pytest.mark.parametrize("shape", [["8", "9", "10"], ["12", "4", "4", "3"]])
    def test_msdt_drift_check(self, shape, capsys):
        """The multi-sweep kernel is held to its own replay, on a shape it
        serves and on one it declines."""
        code = main(
            ["trace-report", "--kernel", "msdt", "--shape", *shape, "--rank", "3",
             "--sweeps", "5", "--check-drift"]
        )
        assert code == 0
        assert "drift check (msdt, flops/words): OK" in capsys.readouterr().out

    def test_msdt_on_the_machine_exits_2(self, capsys):
        assert main(["trace-report", "--kernel", "msdt", "--procs", "4"]) == 2
        assert "--kernel msdt" in capsys.readouterr().err

    def test_bad_sweep_count_exits_2(self, capsys):
        assert main(["trace-report", "--sweeps", "0"]) == 2
        assert "--sweeps" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "trace-report",
                "--shape",
                "4",
                "5",
                "6",
                "--rank",
                "2",
                "--sweeps",
                "2",
                "--output",
                str(report_path),
            ]
        )
        assert code == 0
        assert "Traced ALS sweeps" in report_path.read_text()
        assert str(report_path) in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_trace_report_parser().parse_args([])
        assert args.kernel == "dimtree"
        assert args.kernel in TRACE_KERNELS
        assert args.procs == 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_trace_report_parser().parse_args(["--kernel", "exact"])


class TestFlatCLIUnchanged:
    """The subcommand dispatch must not disturb the established flag CLI."""

    def test_quick_single_experiment_still_runs(self, capsys):
        assert main(["--only", "tab-matmul-factors"]) == 0
        assert "tab-matmul-factors" in capsys.readouterr().out

    def test_unknown_experiment_still_a_parse_error(self):
        with pytest.raises(SystemExit):
            main(["--only", "does-not-exist"])
