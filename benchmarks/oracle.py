"""The byte-identical-sim-output gate (``make oracle``).

Fails unless every result digest — sha256 of a cell's sorted-JSON
result record — equals the one recorded in ``benchmarks/oracle.json``:

* the perf ledger's four simulator workloads at seed 42, 3 cells
  each, run through ``benchmarks/ledger/run.py``;
* two ``tablescan`` cells (pg2Q and pgBatPre, 8 processors, 3,000
  accesses, seed 7) run in this process, the only check on that
  workload's simulated numbers.

A refactor that moves one simulated event, float sum or record key
trips it. ``--update`` rewrites ``oracle.json`` from a fresh run and
prints old -> new for each cell; a change that moves a digest pastes
that output into CHANGES.md. Reads the ledger; edits nothing under it.

    python benchmarks/oracle.py [--out DIR] [--update]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"
ORACLE = ROOT / "benchmarks" / "oracle.json"
SEED = 42
SIM_WORKLOADS = ("fig6_hit", "table3_miss", "serve_sim", "macro_sim")
TABLESCAN_SYSTEMS = ("pg2Q", "pgBatPre")


def digest(result) -> str:
    """sha256 of the result's sorted-JSON record (as the ledger's)."""
    record = json.dumps(result.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(record.encode()).hexdigest()


def tablescan_digests() -> dict:
    """The two in-process cells: contended, miss-free table scans."""
    from repro.harness.experiment import ExperimentConfig, run_experiment
    return {system: digest(run_experiment(ExperimentConfig(
        system=system, workload="tablescan",
        workload_kwargs={"n_tables": 4, "pages_per_table": 50},
        n_processors=8, n_threads=8, target_accesses=3_000, seed=7)))
        for system in TABLESCAN_SYSTEMS}


def ledger_digests(workload: str, out: pathlib.Path) -> dict:
    """One ledger workload's cell digests, from a run that just wrote
    them; raises ``RuntimeError`` naming the workload if it did not."""
    results = out / "results.json"
    results.unlink(missing_ok=True)
    # One timed pass is enough: the digests do not depend on how often
    # a cell is repeated, only the timings do.
    status = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "0", "--passes", "1",
         "--out", str(out)],
        stdout=subprocess.DEVNULL, check=False).returncode
    if status != 0:
        raise RuntimeError(f"{workload}: ledger run exited {status}")
    if not results.exists():
        raise RuntimeError(f"{workload}: ledger run wrote no {results}")
    return json.loads(results.read_text())["workloads"][workload]["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "out" / "oracle"),
                        help="directory for each workload's results.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite oracle.json from this run")
    args = parser.parse_args(argv)
    found = {}
    try:
        for workload in SIM_WORKLOADS:
            found[workload] = ledger_digests(
                workload, pathlib.Path(args.out) / workload)
    except RuntimeError as exc:
        print(f"oracle FAILED {exc}")
        return 1
    found["tablescan"] = tablescan_digests()
    expected = json.loads(ORACLE.read_text())["digests"]
    cells = sorted({(workload, cell)
                    for table in (expected, found)
                    for workload, digests in table.items()
                    for cell in digests})
    mismatches = 0
    for workload, cell in cells:
        old = expected.get(workload, {}).get(cell)
        new = found.get(workload, {}).get(cell)
        if args.update:
            print(f"{workload}.{cell}: {old} -> {new}"
                  + ("  (unchanged)" if old == new else ""))
        elif old != new:
            mismatches += 1
            print(f"oracle MISMATCH {workload}.{cell}: {new} != "
                  f"expected {old}")
    if args.update:
        ORACLE.write_text(json.dumps({"seed": SEED, "digests": found},
                                     indent=1, sort_keys=True) + "\n")
        print(f"oracle: wrote {ORACLE}")
        return 0
    print(f"oracle: {len(cells) - mismatches}/{len(cells)} digests equal "
          f"benchmarks/oracle.json")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
