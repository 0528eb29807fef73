"""Tests for the figure/table drivers and the CLI (small targets).

The benchmarks run these drivers at full scale and assert the paper's
shapes; here we only verify plumbing — row layout, rendering, CSV
emission — with tiny access targets so the whole module stays fast.
"""

from __future__ import annotations

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.figures import FIG2_BATCH_SIZES, fig2, fig8
from repro.harness.tables import table1, table2, table3


class TestFig2Driver:
    def test_row_layout(self):
        result = fig2(target_accesses=6000, seed=3)
        assert len(result.rows) == len(FIG2_BATCH_SIZES)
        assert [row[0] for row in result.rows] == list(FIG2_BATCH_SIZES)
        for row in result.rows:
            assert row[1] >= 0  # lock us/access
        rendered = result.render()
        assert "Figure 2" in rendered
        assert "batch size" in rendered

    def test_raw_results_attached(self):
        result = fig2(target_accesses=6000, seed=3)
        assert len(result.raw) == len(FIG2_BATCH_SIZES)
        assert all(r.accesses > 0 for r in result.raw)


class TestFig8Driver:
    def test_row_layout(self):
        result = fig8(target_accesses=6000, seed=3,
                      trace_accesses=20_000)
        # Two workloads x five fractions.
        assert len(result.rows) == 10
        workloads = {row[0] for row in result.rows}
        assert workloads == {"dbt1", "dbt2"}
        for row in result.rows:
            _, pages, frac, hit_clock, hit_2q, hit_wrapped, t0, t1, t2 \
                = row
            assert pages >= 128
            assert 0.0 <= hit_clock <= 1.0
            assert 0.0 <= hit_2q <= 1.0
            assert t0 == 1.0  # normalized to pgclock


#: The columns benchmarks/bench_tab2.py and bench_tab3.py index by position.
SENSITIVITY_COLUMNS = ("tps DBT-1", "tps DBT-2", "tps TableScan",
                       "cont/M DBT-1", "cont/M DBT-2", "cont/M TableScan")


class TestTableDrivers:
    def test_table1_static(self):
        result = table1()
        assert len(result.rows) == 5
        assert result.rows[0][0] == "pgclock"
        assert "Table I" in result.render()

    def test_table2_layout(self):
        result = table2(target_accesses=5000, seed=3)
        assert [row[0] for row in result.rows] == [2, 4, 8, 16, 32, 64]
        assert len(result.raw) == 18  # 6 sizes x 3 workloads
        # What benchmarks/bench_tab2.py indexes into.
        assert tuple(result.headers) == ("queue",) + SENSITIVITY_COLUMNS
        assert result.raw[0].config.target_accesses == 5000
        assert [(r.config.queue_size, r.config.batch_threshold)
                for r in result.raw[::3]] == [
            (2, 1), (4, 2), (8, 4), (16, 8), (32, 16), (64, 32)]
        assert "Table II" in result.render()

    def test_table3_layout(self):
        result = table3(target_accesses=5000, seed=3)
        assert [row[0] for row in result.rows] == [2, 4, 8, 16, 32, 64]
        # Throughputs present for all three workloads.
        for row in result.rows:
            assert all(value >= 0 for value in row[1:4])
        assert tuple(result.headers) == ("threshold",) + SENSITIVITY_COLUMNS
        assert len(result.raw) == 18
        assert [(r.config.queue_size, r.config.batch_threshold)
                for r in result.raw[::3]] == [
            (64, t) for t in (2, 4, 8, 16, 32, 64)]
        assert "Table III" in result.render()


class TestCli:
    def test_table1_prints(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "pgBatPre" in out
        assert "regenerated" in out

    def test_csv_emission(self, tmp_path, capsys):
        assert cli_main(["table1", "--csv", str(tmp_path)]) == 0
        csv_file = tmp_path / "table1.csv"
        assert csv_file.exists()
        content = csv_file.read_text()
        assert content.splitlines()[0] == "Name,Replacement,Enhancement"
        assert "pgclock" in content

    def test_rejected_config_exits_2_without_traceback(self, capsys):
        assert cli_main(["run", "--system", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown system" in err
        assert "Traceback" not in err

    def test_sweep_rejected_mid_grid_exits_2(self, tmp_path, capsys):
        from repro.errors import ConfigError
        from repro.harness.cli import macro_main
        argv = ["--shards", "0", "2", "--runtime", "native", "--queries",
                "12", "--threads", "2", "--no-disk", "--out", str(tmp_path)]
        assert cli_main(["macro"] + argv) == 2
        captured = capsys.readouterr()
        assert "shards=0" in captured.out  # the first cell did run
        assert captured.err.startswith("error: ")
        assert "sim-only" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "macro.json").exists()
        with pytest.raises(ConfigError):  # the subcommand itself raises
            macro_main(argv)

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["figNope"])

    def test_type_error_inside_figure_render_propagates(self, monkeypatch):
        from repro.harness import cli
        from repro.harness.report import ArtifactResult

        class Broken(ArtifactResult):
            def render(self, include_charts=False):
                if include_charts:
                    raise TypeError("boom")
                return "rendered without charts"

        monkeypatch.setitem(
            cli._ARTIFACTS, "fig2",
            lambda seed, max_workers: Broken("fig2", ["h"], [[1]]))
        with pytest.raises(TypeError, match="boom"):
            cli_main(["fig2", "--charts"])
