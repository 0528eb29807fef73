"""Tests for the sim-output oracle (``benchmarks/oracle.py``).

``subprocess.run`` is replaced, so no ledger workload runs here: the
tests hold the gate's own logic (stale results, ``--update``) and the
two in-process ``tablescan`` cells against the committed digests.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "oracle", ROOT / "benchmarks" / "oracle.py")
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

COMMITTED = json.loads((ROOT / "benchmarks" / "oracle.json").read_text())


def _write_results(out: pathlib.Path, workload: str, digests) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(
        {"workloads": {workload: {"digests": digests}}}))


@pytest.fixture
def no_ledger(monkeypatch):
    """``subprocess.run`` as a successful run that writes nothing."""
    monkeypatch.setattr(subprocess, "run", lambda command, **_:
                        subprocess.CompletedProcess(command, 0))


def test_stale_results_fail_the_gate(tmp_path, no_ledger, capsys):
    # The previous run's results carry the right digests, but this
    # run wrote none: the gate must not read them.
    for workload in oracle.SIM_WORKLOADS:
        _write_results(tmp_path / workload, workload,
                       COMMITTED["digests"][workload])
    assert oracle.main(["--out", str(tmp_path)]) == 1
    assert "fig6_hit" in capsys.readouterr().out


def test_failed_ledger_run_fails_naming_the_workload(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(subprocess, "run", lambda command, **_:
                        subprocess.CompletedProcess(command, 3))
    assert oracle.main(["--out", str(tmp_path)]) == 1
    assert "fig6_hit: ledger run exited 3" in capsys.readouterr().out


def test_update_writes_sorted_oracle(tmp_path, monkeypatch, capsys):
    def fake_run(command, **_):
        workload = command[command.index("--workload") + 1]
        out = pathlib.Path(command[command.index("--out") + 1])
        _write_results(out, workload, {"pgclock": f"{workload}-new",
                                       "pg2Q": f"{workload}-new"})
        return subprocess.CompletedProcess(command, 0)

    monkeypatch.setattr(subprocess, "run", fake_run)
    target = tmp_path / "oracle.json"
    target.write_text(json.dumps(COMMITTED))
    monkeypatch.setattr(oracle, "ORACLE", target)
    assert oracle.main(["--out", str(tmp_path / "out"), "--update"]) == 0
    text = target.read_text()
    document = json.loads(text)
    assert text == json.dumps(document, indent=1, sort_keys=True) + "\n"
    assert document["digests"]["fig6_hit"] == {"pg2Q": "fig6_hit-new",
                                               "pgclock": "fig6_hit-new"}
    assert document["digests"]["tablescan"] == \
        COMMITTED["digests"]["tablescan"]
    out = capsys.readouterr().out
    assert (f"fig6_hit.pg2Q: {COMMITTED['digests']['fig6_hit']['pg2Q']} "
            f"-> fig6_hit-new") in out
    assert "tablescan.pg2Q" in out and "(unchanged)" in out


def test_tablescan_cells_equal_committed_digests():
    assert oracle.tablescan_digests() == COMMITTED["digests"]["tablescan"]
