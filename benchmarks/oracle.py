"""The byte-identical-sim-output gate (``make oracle``).

Runs the four simulator workloads of the perf ledger at seed 42 and
fails unless every result digest — sha256 of each cell's sorted-JSON
result record, 3 cells x 4 workloads — equals the one recorded in
``benchmarks/ledger/reference.json``. A refactor that moves one
simulated event, float sum or record key trips it. Reads the ledger;
edits nothing under it.

    python benchmarks/oracle.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"
SIM_WORKLOADS = ("fig6_hit", "table3_miss", "serve_sim", "macro_sim")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "out" / "oracle"),
                        help="directory for each workload's results.json")
    args = parser.parse_args(argv)
    reference = json.loads((LEDGER / "reference.json").read_text())
    mismatches = 0
    checked = 0
    for workload in SIM_WORKLOADS:
        out = pathlib.Path(args.out) / workload
        # One timed pass is enough: the digests do not depend on how
        # often a cell is repeated, only the timings do.
        subprocess.run(
            [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
             "--seed", str(reference["seed"]), "--trace", "0",
             "--passes", "1", "--out", str(out)],
            stdout=subprocess.DEVNULL, check=False)
        results = json.loads((out / "results.json").read_text())
        found = results["workloads"][workload]["digests"]
        for cell, wanted in reference["workloads"][workload][
                "digests"].items():
            checked += 1
            if found.get(cell) != wanted:
                mismatches += 1
                print(f"oracle MISMATCH {workload}.{cell}: "
                      f"{found.get(cell)} != reference {wanted}")
    print(f"oracle: {checked - mismatches}/{checked} digests equal "
          f"benchmarks/ledger/reference.json")
    return 1 if mismatches or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
