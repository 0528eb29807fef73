"""Compare two ledger results: ``compare.py A.json B.json``.

For every (end-to-end metric, workload) row both files hold, prints both
medians with their quartiles, B's ratio to A with its base, and a
verdict from the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — the pass-to-pass spread (IQR / median) of either side
  is wider than the bound, so the row cannot settle anything;
* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in the metric's bad / good direction;
* ``same`` — otherwise.

Then says per workload whether the quantities that repeat exactly on the
simulator — result digests and ``*.calls_per_access`` — are ``identical``,
or which of them ``differs``.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Iterator, Tuple

__all__ = ["verdict", "compare", "main"]

ROOT = pathlib.Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict of row ``b`` against row ``a`` (``stats`` rows of run.py)."""
    if max(a.get("iqr_over_median", 0.0),
           b.get("iqr_over_median", 0.0)) > bound:
        return "unresolved"
    change = b["median"] / a["median"] - 1.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "same"


def _shown(row: dict) -> str:
    if "q1" not in row:
        return f"{row['median']:.6g}"
    return f"{row['median']:.6g} [{row['q1']:.6g} .. {row['q3']:.6g}]"


def compare(a: dict, b: dict, spec: dict) -> Iterator[Tuple[str, str]]:
    """(verdict, printable line) per row, end-to-end rows first."""
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for name in shared:
        rows_a = a["workloads"][name]["end_to_end"]
        rows_b = b["workloads"][name]["end_to_end"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in rows_a or key not in rows_b:
                continue
            row_a, row_b = rows_a[key], rows_b[key]
            outcome = verdict(row_a, row_b, metric["better"],
                              metric["bound"])
            yield outcome, (
                f"{name} {key} [{metric['unit']}, {metric['better']} is "
                f"better, bound {metric['bound']:.0%}]: A {_shown(row_a)}  "
                f"B {_shown(row_b)}  B/A "
                f"{row_b['median'] / row_a['median']:.3f} of "
                f"{row_a['median']:.6g}  {outcome}")
    for name in shared:
        record_a, record_b = a["workloads"][name], b["workloads"][name]
        exact = [(f"digest.{cell}", value, record_b["digests"].get(cell))
                 for cell, value in record_a["digests"].items()]
        exact += [(key, row["median"],
                   record_b["per_layer"].get(key, {}).get("median"))
                  for key, row in record_a["per_layer"].items()
                  if key.endswith(".calls_per_access")]
        differing = [key for key, value_a, value_b in exact
                     if value_b is not None and value_a != value_b]
        outcome = "differs" if differing else "identical"
        yield outcome, (f"{name} digests and calls_per_access "
                        f"({len(exact)} rows) {outcome}"
                        + (": " + ", ".join(differing) if differing else ""))


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = False
    for outcome, line in compare(a, b, spec):
        print(line)
        worse = worse or outcome == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
