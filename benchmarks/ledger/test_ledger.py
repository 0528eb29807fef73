"""Tests of the perf ledger itself: ``pytest benchmarks/ledger``.

Not part of the tier-1 suite (``testpaths`` is ``tests``); these start
subprocesses and take about half a minute.
"""

from __future__ import annotations

import cProfile
import fnmatch
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare
import measure
import run
import workloads
from repro import ExperimentConfig, run_experiment

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [w["name"] for w in SPEC["workloads"]] + END_TO_END + PER_LAYER
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # The declared workloads are the defined ones, in the same order.
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_says_what_it_should_move():
    rules = json.loads((HERE / "moves.json").read_text())["rules"]
    declared = {w["name"] for w in SPEC["workloads"]}
    for rule in rules:
        for side in ("should_move", "must_not_move"):
            for workload, metrics in rule[side].items():
                assert workload in declared, (rule["layers"], workload)
                assert all(m == "*" or m in END_TO_END for m in metrics)
    patterns = [p for rule in rules for p in rule["layers"]]
    for name in PER_LAYER:
        assert sum(fnmatch.fnmatchcase(name, p) for p in patterns) == 1, name


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` pass over every workload: (document, spans, output)."""
    out = tmp_path_factory.mktemp("ledger")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - started < 30.0, "--smoke took 30 s or more"
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return (json.loads((out / "results.json").read_text()),
            json.loads((out / "trace.json").read_text()), done.stdout)


def test_smoke_emits_every_declared_metric(smoke):
    document, _, output = smoke
    assert list(document["workloads"]) == list(workloads.WORKLOADS)
    printed = {tuple(line.split()[:2]) for line in output.splitlines()}
    for name, record in document["workloads"].items():
        assert record["ops_failed"] == 0 and not record["errors"]
        assert record["ops_attempted"] > 0
        assert list(record["end_to_end"]) == END_TO_END
        layered = {**record["per_layer"], **document["layers"]}
        assert sorted(layered) == sorted(PER_LAYER)
        assert all(row["median"] > 0 for row in record["end_to_end"].values())
        assert all((name, metric) in printed for metric in END_TO_END)
    assert all(("-", metric) in printed for metric in document["layers"])
    host = document["host"]
    assert host["cpu_count"] >= 1 and host["gil_enabled"] in (True, False)
    assert {"python", "python_build", "loadavg_1m_start",
            "loadavg_1m_end"} <= set(host)


def test_smoke_shows_what_each_workload_was_chosen_for(smoke):
    document, _, _ = smoke
    shares = {}
    for name, record in document["workloads"].items():
        fold = record["profile"]
        if workloads.WORKLOADS[name].sim:
            shares[name] = {layer: entry["self_s"] / fold["total_s"]
                            for layer, entry in fold["layers"].items()}
            reported = sum(shares[name].get(layer, 0.0)
                           for layer in measure.PROFILE_LAYERS)
            assert reported > 0.99, (name, shares[name])
            assert len(record["digests"]) == 3
        else:
            assert fold is None and not record["digests"]
    hit = shares["fig6_hit"]
    assert hit["bufmgr"] + hit["core"] == max(
        [hit["bufmgr"] + hit["core"]] + [share for layer, share in hit.items()
                                         if layer not in ("bufmgr", "core")])
    miss = shares["table3_miss"]
    assert miss["simcore"] == max(miss.values())
    for name, share in shares.items():
        assert (share.get("serve", 0.0) >= 0.15) == (name == "serve_sim")
        assert (share.get("db", 0.0) >= 0.15) == (name == "macro_sim")
    rows = document["workloads"]["fig6_hit"]["per_layer"]
    assert rows["bufmgr.hit_ratio"]["median"] == 1.0
    assert rows["db.disk_reads_per_kaccess"]["median"] == 0.0


def test_spans_form_one_tree(smoke):
    _, spans, _ = smoke
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    roots = [span for span in spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["benchmark"]
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in by_id
    names = {span["name"] for span in spans}
    assert {"workload", "setup", "make_workload", "build_system", "warm_with",
            "pass", "cell", "run", "check", "microbenchmark"} <= names


@pytest.mark.parametrize("trace, wanted", [(0, END_TO_END), (1, PER_LAYER)])
def test_one_workload_ends_with_the_result_object(tmp_path, trace, wanted):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "macro_sim", "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--out", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == wanted
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


def test_a_record_that_does_not_add_up_fails_the_run(monkeypatch, tmp_path,
                                                     capsys):
    honest = workloads.facts

    def doctored(workload, result, *seconds):
        fact = honest(workload, result, *seconds)
        if result.config.system == "pg2Q":
            fact["hits"] -= 1
        return fact

    def in_process(mode, args, parent_span, extra=()):
        return measure.measure(
            "fig6_hit", args.seed, time.time(), smoke=True,
            setup_only=mode == "setup", trace=False, passes=2, seconds=0.0,
            parent_span=parent_span)

    monkeypatch.setattr(workloads, "facts", doctored)
    monkeypatch.setattr(run, "spawn", in_process)
    code = run.main(["--smoke", "--workload", "fig6_hit", "--trace", "0",
                     "--out", str(tmp_path)])
    output = capsys.readouterr().out
    assert code == 1
    assert "fig6_hit FAILED pass 0 cell pg2Q: hits" in output
    result = json.loads(output.splitlines()[-1])
    size = workloads.WORKLOADS["fig6_hit"].cell("pg2Q").size
    assert result["correct"] is False
    assert result["failed"] == 2 * size // workloads.SMOKE_DIVISOR
    # The other cells of the same passes were still measured.
    assert "fig6_hit FAILED not measured: accesses_per_s.pg2Q" in output
    assert "accesses_per_s.pgBatPre" in result["metrics"]


def test_a_cell_that_raises_is_reported_and_the_run_goes_on(monkeypatch):
    def broken(self, config, source):
        if config.system == "pgclock":
            raise RuntimeError("injected")
        return run_experiment(config, source)

    monkeypatch.setattr(workloads.Workload, "run", broken)
    report = measure.measure("fig6_hit", 42, time.time(), smoke=True,
                             setup_only=False, trace=False, passes=1,
                             seconds=0.0)
    assert report["errors"] == [{"pass": 0, "cell": "pgclock",
                                 "error": "RuntimeError: injected"}]
    size = workloads.WORKLOADS["fig6_hit"].cell("pgclock").size
    assert report["ops_failed"] == size // workloads.SMOKE_DIVISOR
    assert set(report["values"]) == {
        "accesses_per_s.pgBatPre", "accesses_per_s.pg2Q", "peak_rss_mb",
        "host.speed_index"}


def test_profile_fold_adds_up_to_the_profile_total():
    config = ExperimentConfig(system="pgBatPre", workload="dbt2",
                              workload_kwargs={"n_warehouses": 2},
                              n_processors=4, target_accesses=3_000)
    profile = cProfile.Profile()
    profile.runcall(run_experiment, config)
    fold = measure.fold_profile(profile)
    layers = fold["layers"]
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(
        fold["total_s"], rel=0.01)
    assert sum(e["calls"] for e in layers.values()) == pytest.approx(
        fold["total_calls"], rel=0.01)
    assert {"bufmgr", "core", "simcore", "workloads"} <= set(layers)
    # Builtins and repro/util.py went to their callers, not to a bucket
    # of their own.
    assert layers.get("other", {"self_s": 0.0})["self_s"] < \
        0.01 * fold["total_s"]


def _row(median, spread=0.0):
    half = median * spread / 2
    return {"median": median, "q1": median - half, "q3": median + half,
            "iqr_over_median": spread, "n": 5}


@pytest.mark.parametrize("a, b, better, expected", [
    (_row(100.0), _row(95.0), "higher", "same"),
    (_row(100.0), _row(85.0), "higher", "worse"),
    (_row(100.0), _row(115.0), "higher", "better"),
    (_row(100.0), _row(115.0), "lower", "worse"),
    (_row(100.0), _row(85.0), "lower", "better"),
    (_row(100.0, 0.2), _row(85.0), "higher", "unresolved"),
    (_row(100.0), _row(85.0, 0.2), "higher", "unresolved"),
    ({"median": 40.0, "n": 1}, {"median": 41.0, "n": 1}, "lower", "same"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10) == expected


def test_compare_exits_1_on_a_worse_row(tmp_path, capsys):
    def document(rate, digest):
        rows = {m["name"]: dict(_row(1.0), unit=m["unit"])
                for m in SPEC["end_to_end"]}
        rows["accesses_per_s.pgBatPre"] = _row(rate)
        return {"workloads": {"fig6_hit": {
            "end_to_end": rows, "digests": {"pgBatPre": digest},
            "per_layer": {"core.calls_per_access": _row(12.25)}}}}

    paths = []
    for index, (rate, digest) in enumerate(
            [(100_000.0, "aa"), (100_500.0, "aa"), (60_000.0, "bb")]):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(document(rate, digest)))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    same = capsys.readouterr().out
    assert "fig6_hit digests and calls_per_access (2 rows) identical" in same
    assert " worse" not in same
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    worse = capsys.readouterr().out
    assert "B/A 0.600 of 100000  worse" in worse
    assert ("fig6_hit digests and calls_per_access (2 rows) differs: "
            "digest.pgBatPre") in worse
