"""Tests for the ASCII chart renderer."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness.plots import ascii_chart


class TestAsciiChart:
    def test_basic_layout(self):
        chart = ascii_chart({"up": [(1, 1.0), (2, 2.0), (4, 4.0)]},
                            title="test chart", width=20, height=6)
        lines = chart.splitlines()
        assert lines[0] == "test chart"
        assert "A=up" in chart
        # Axis frame present.
        assert any(line.strip().startswith("+") for line in lines)
        # Max on top row, min on bottom row labels.
        assert lines[1].lstrip().startswith("4")
        assert lines[6].lstrip().startswith("1")

    def test_monotone_series_positions(self):
        chart = ascii_chart({"s": [(1, 1.0), (10, 10.0)]},
                            width=20, height=6)
        lines = [line for line in chart.splitlines() if "|" in line]
        first_row = next(i for i, line in enumerate(lines) if "A" in line)
        last_row = max(i for i, line in enumerate(lines) if "A" in line)
        # Higher value renders on a higher (earlier) row.
        assert first_row < last_row

    def test_overlapping_points_marked(self):
        chart = ascii_chart({"a": [(1, 1.0)], "b": [(1, 1.0)]},
                            width=20, height=6)
        assert "~" in chart

    def test_log_axis_clips_zeros(self):
        chart = ascii_chart({"c": [(1, 0.0), (2, 10.0), (4, 10000.0)]},
                            width=24, height=8, log_y=True)
        assert "(log y axis)" in chart
        # Renders without error and keeps every x position drawable.
        assert chart.count("C") == 0  # symbol is A (first series)
        assert chart.count("A") >= 2

    def test_constant_series(self):
        chart = ascii_chart({"flat": [(1, 5.0), (2, 5.0), (3, 5.0)]},
                            width=20, height=5)
        assert "A" in chart

    def test_single_point(self):
        chart = ascii_chart({"dot": [(1, 1.0)]}, width=20, height=5)
        grid_lines = [line for line in chart.splitlines() if "|" in line]
        assert sum(line.count("A") for line in grid_lines) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            ascii_chart({})
        with pytest.raises(ConfigError):
            ascii_chart({"empty": []})
        with pytest.raises(ConfigError):
            ascii_chart({"s": [(1, 1)]}, width=4, height=2)
        too_many = {f"s{i}": [(1, 1)] for i in range(20)}
        with pytest.raises(ConfigError):
            ascii_chart(too_many)

    def test_many_series_distinct_symbols(self):
        series = {f"series{i}": [(i, float(i + 1))] for i in range(5)}
        chart = ascii_chart(series, width=30, height=8)
        for symbol in "ABCDE":
            assert f"{symbol}=series" in chart

    def test_cli_charts_flag(self, capsys):
        from repro.harness.cli import main as cli_main
        # table1 has no charts; the flag must not break it.
        assert cli_main(["table1", "--charts"]) == 0
        assert "pgclock" in capsys.readouterr().out


class TestFigureCharts:
    def test_fig2_includes_loglog_chart(self):
        from repro.harness.figures import fig2
        result = fig2(target_accesses=5000, seed=3)
        assert result.charts
        assert "(log y axis)" in result.charts[0]
        rendered = result.render(include_charts=True)
        assert "log-log" in rendered or "(log y axis)" in rendered

    def test_render_without_charts_by_default(self):
        from repro.harness.figures import fig2
        result = fig2(target_accesses=5000, seed=3)
        assert "(log y axis)" not in result.render()
