"""Tests for :mod:`repro.harness.report` — the table/CSV/JSON plumbing.

Every derived artifact in the repo (paper tables, analyzer output,
hit-ratio studies) flows through these helpers, so their edge cases
(None cells, negative magnitudes, tiny floats, alignment) get a
dedicated file.
"""

import csv
import io

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.report import (format_number, load_results_json,
                                  render_table, rows_to_csv,
                                  save_results_json)

# -- format_number --------------------------------------------------------


def test_format_number_sentinels():
    assert format_number(None) == "-"
    assert format_number("already text") == "already text"
    assert format_number(0) == "0"
    assert format_number(0.0) == "0"


def test_format_number_integers_ungrouped():
    assert format_number(7) == "7"
    assert format_number(-12345) == "-12345"


def test_format_number_float_magnitude_bands():
    assert format_number(1234567.8) == "1,234,568"
    assert format_number(56.64) == "56.6"
    assert format_number(0.8769) == "0.877"
    assert format_number(0.01) == "0.010"
    assert format_number(0.0012) == "1.20e-03"


def test_format_number_negative_magnitudes():
    assert format_number(-1234.5) == "-1,234"
    assert format_number(-56.64) == "-56.6"
    assert format_number(-0.877) == "-0.877"
    assert format_number(-0.0012) == "-1.20e-03"


# -- render_table ---------------------------------------------------------


def test_render_table_alignment():
    text = render_table(["name", "value"],
                        [["a", 1], ["longer-name", 23456.7]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "="  # underline matches the title's length
    body = lines[2:]
    assert len({len(line) for line in body}) == 1  # aligned block
    assert body[-1].endswith("23,457")  # right-justified cells
    assert body[1] == "-" * len(body[0]) or set(body[1]) <= {"-", " "}


def test_render_table_none_cell_is_dash():
    text = render_table(["x"], [[None]])
    assert text.splitlines()[-1].strip() == "-"


def test_render_table_widths_track_long_cells():
    text = render_table(["h"], [["wide-cell-value"]])
    header, rule, row = text.splitlines()
    assert len(header) == len(rule) == len(row) == len("wide-cell-value")


# -- CSV ------------------------------------------------------------------


def test_rows_to_csv_round_trip():
    headers = ["system", "tps", "note"]
    rows = [["pg2Q", 2177.1, None], ["pgBatPre", 7575, "a,comma"]]
    text = rows_to_csv(headers, rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == headers
    assert parsed[1] == ["pg2Q", "2177.1", ""]  # None -> empty cell
    assert parsed[2] == ["pgBatPre", "7575", "a,comma"]


# -- JSON archive round trip ----------------------------------------------


def test_save_load_results_json_round_trip(tmp_path):
    config = ExperimentConfig(
        system="pgBatPre", workload="tablescan",
        workload_kwargs={"n_tables": 2, "pages_per_table": 20},
        n_processors=2, n_threads=4, target_accesses=400, seed=5)
    result = run_experiment(config)
    path = tmp_path / "results.json"
    assert save_results_json(path, [result]) == 1
    records = load_results_json(path)
    assert records == [result.to_dict()]
    assert records[0]["system"] == "pgBatPre"
    assert "warmup_end_us" in records[0]
