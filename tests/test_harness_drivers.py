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

    def test_table3_layout(self):
        result = table3(target_accesses=5000, seed=3)
        assert [row[0] for row in result.rows] == [2, 4, 8, 16, 32, 64]
        # Throughputs present for all three workloads.
        for row in result.rows:
            assert all(value >= 0 for value in row[1:4])


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

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["figNope"])

    def test_type_error_inside_figure_render_propagates(self, monkeypatch):
        from repro.harness import cli
        from repro.harness.figures import FigureResult

        class Broken(FigureResult):
            def render(self, include_charts=False):
                if include_charts:
                    raise TypeError("boom")
                return "rendered without charts"

        monkeypatch.setitem(
            cli._ARTIFACTS, "fig2",
            lambda seed, max_workers: Broken("fig2", ["h"], [[1]]))
        with pytest.raises(TypeError, match="boom"):
            cli_main(["fig2", "--charts"])
