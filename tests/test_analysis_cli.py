"""Tests for the hit-ratio study subcommand (``cli hitratio``)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness.cli import main as cli_main
from repro.workloads import save_trace
from repro.workloads.traces import SyntheticTrace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestAnalysisCli:
    def test_workload_mode(self, capsys):
        assert cli_main(["hitratio", "--workload", "dbt1", "--policies",
                         "2q", "clock", "--fractions", "0.1",
                         "--accesses", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Hit ratios" in out
        assert "2q" in out and "clock" in out

    def test_trace_mode(self, tmp_path, capsys):
        trace = SyntheticTrace(seed=5).zipf("t", 100, 2000).accesses
        path = tmp_path / "t.txt"
        save_trace(path, trace)
        assert cli_main(["hitratio", "--trace", str(path), "--policies",
                         "lru", "--capacities", "20", "50"]) == 0
        out = capsys.readouterr().out
        assert "20" in out and "50" in out

    def test_wrapped_column(self, capsys):
        assert cli_main(["hitratio", "--workload", "tablescan",
                         "--policies", "2q", "--wrapped", "--capacities",
                         "500", "--accesses", "4000"]) == 0
        out = capsys.readouterr().out
        assert "2q+BP" in out

    def test_missing_trace_file_reports_error(self, capsys):
        assert cli_main(["hitratio", "--trace",
                         "/nonexistent/file.txt"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["hitratio", "--policies", "not-a-policy"])

    def test_truncated_trace_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_bytes(b"t 1\nt 2\n\xe2\x82")
        done = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "hitratio",
             "--trace", str(path)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
