"""One report per sweep, rendered twice: what the design guarantees.

Each sweep's record becomes one :class:`~repro.harness.report.Report`
(``<tier>_report``), and that report is all the HTML page
(:func:`~repro.harness.dashboard.render_html`) and the terminal
(:func:`~repro.harness.report.render_text`) are rendered from — so the
two cannot show different columns or rounding. The six reports here
are built from tiny fixed-seed sim records (and one hand-written
``bench_scaling`` record, which needs no worker processes).
"""

from __future__ import annotations

import html

import pytest

from repro.control.tune import TuneConfig, run_tune
from repro.harness.dashboard import (analysis_report, macro_report,
                                     render_html, scaling_report,
                                     serve_report, telemetry_report,
                                     tune_report)
from repro.harness.macro import MacroConfig, macro_grid
from repro.harness.report import (Card, Mark, Report, Table, format_number,
                                  render_text)
from repro.harness.sweeps import observed_grid
from repro.obs import MetricsRegistry, Observer
from repro.obs.analyze import analyze_grid
from repro.serve import ServeConfig, serve_grid

TIERS = ["serve", "telemetry", "macro", "tune", "analysis", "scaling"]


def _scaling_cell(system: str, workers: int, rate: float) -> dict:
    return {"system": system, "workers": workers, "events_per_sec": rate,
            "throughput_tps": rate / 40.0, "contention_per_million": 12.5,
            "lock_time_per_access_us": 1.18, "mean_response_ms": 0.4,
            "cpu_utilization": 0.9, "wall_s": 0.5}


@pytest.fixture(scope="module")
def reports():
    results = []
    serve = serve_grid(
        ServeConfig(sessions_per_tenant=2, pages_per_tenant=48,
                    hot_pages=8, target_requests=150, n_processors=4,
                    quota_per_sec=3000.0, telemetry_interval_us=2_000.0,
                    seed=13),
        [1, 2], [2], [0.8],
        observer_factory=lambda: Observer(metrics=MetricsRegistry()),
        progress=results.append)
    timeseries = {f"cell{index}": result.telemetry
                  for index, result in enumerate(results)}
    macro = macro_grid(
        MacroConfig(target_queries=40, n_threads=4, n_processors=2,
                    buffer_pages=160, seed=11), ["pg2Q", "pgBat"], [0, 2])
    tune = run_tune(TuneConfig(
        workload="dbt1", thresholds=(1, 8), queue_sizes=(32,),
        prefetch=(False,), n_processors=4, target_accesses=600, seed=7))
    analysis = analyze_grid(*observed_grid(
        ["pg2Q", "pgBatPre"], "tablescan", [2], target_accesses=600,
        seed=3))
    scaling = {"backend": "mp", "workload": "tablescan", "host_cpus": 2,
               "seed": 42, "systems": ["pg2Q", "pgBat"], "workers": [1, 2],
               "cells": [_scaling_cell("pg2Q", 1, 200_000.0),
                         _scaling_cell("pg2Q", 2, 90_000.0),
                         _scaling_cell("pgBat", 1, 210_000.0),
                         _scaling_cell("pgBat", 2, 400_000.0)]}
    return {"serve": serve_report(serve),
            "telemetry": telemetry_report(serve, timeseries),
            "macro": macro_report(macro),
            "tune": tune_report(tune),
            "analysis": analysis_report(analysis),
            "scaling": scaling_report(scaling)}


def _cards(report: Report):
    for section in report.sections:
        yield from [section] if isinstance(section, Card) else section


def _tables(report: Report):
    for card in _cards(report):
        for part in card.parts:
            if isinstance(part, Table):
                yield card, part


@pytest.mark.parametrize("tier", TIERS)
def test_terminal_and_page_show_the_same_tables(reports, tier):
    report = reports[tier]
    text, page = render_text(report), render_html(report)
    tables = list(_tables(report))
    assert tables, "every report declares at least one table"
    for card, table in tables:
        assert card.title in text and table.title in text
        assert f"<h2>{html.escape(card.title)}</h2>" in page
        for header in table.headers:
            assert header in text
            assert f"<th>{html.escape(header)}</th>" in page
        for row in table.rows:
            for cell in row:
                shown = format_number(cell)
                assert shown in text
                assert html.escape(shown) in page


@pytest.mark.parametrize("tier", TIERS)
def test_page_is_a_pure_function_of_the_report(reports, tier):
    report = reports[tier]
    page = render_html(report)
    assert page == render_html(report)
    assert page.startswith("<!DOCTYPE html>")
    assert f"<h1>{html.escape(report.title)}</h1>" in page
    for label, value, _ in report.tiles:
        assert f"{label}: {format_number(value)}" in render_text(report)
        assert html.escape(label) in page
        assert html.escape(format_number(value)) in page
    # Self-contained: no external fetches of any kind.
    assert "http://" not in page and "https://" not in page
    assert "<script" not in page


def test_slo_status_is_a_mark_in_both_renderings(reports):
    report = reports["telemetry"]
    marks = [cell for _, table in _tables(report) for row in table.rows
             for cell in row if isinstance(cell, Mark)]
    assert marks and {mark.css for mark in marks} <= {"slo-ok", "slo-bad"}
    mark = marks[0]
    assert (f'<span class="{mark.css}">{mark.text}</span>'
            in render_html(report))
    assert mark.text in render_text(report)
    assert "<span" not in render_text(report)


def test_a_list_of_cards_is_one_row_and_charts_are_page_only():
    chart = '<svg class="chart"></svg>'
    report = Report(
        title="t", facts=["seed 1"], tiles=[("Peak", 9, "tps")],
        sections=[[Card("left", [chart]),
                   Card("right", [Table("", ["h"], [[Mark("ok", "c")]])])],
                  Card("below", [Table("sub", ["k"], [[1.5]])])],
        footer="f")
    page, text = render_html(report), render_text(report)
    assert page.count('<div class="row">') == 1
    row = page.split('<div class="row">')[1].split("\n</div>")[0]
    assert "<h2>left</h2>" in row and "<h2>right</h2>" in row
    assert "<h2>below</h2>" not in row
    assert chart in page and "svg" not in text
    assert '<span class="c">ok</span>' in page and "ok" in text
    assert "<h3>sub</h3>" in page and "below — sub" in text
    assert "Peak: 9 (tps)" in text and "seed 1" in text
