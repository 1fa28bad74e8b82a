#!/usr/bin/env python3
"""Compare two result documents of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload all --out A.json   # base
    python3 benchmarks/e2e/run.py --workload all --out B.json   # candidate
    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with their
quartiles, the change of B relative to A (A is the base of every
ratio), and a verdict against the bound in ``BENCHMARK.json``:

* ``pass``       B is no worse than A by more than the bound;
* ``regress``    B is worse than A by more than the bound;
* ``unresolved`` the repetitions of A or of B spread wider than the
                 bound, so the two medians cannot be told apart;
* for the simulated metrics (exact for a seed) anything but equality is
  reported as ``changed``, and ``regress`` when it is a worsening beyond
  the bound: a change that does not touch the cost model must leave them
  identical.

Exit status 1 when any row regresses, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    # A single-workload document (results/<workload>.json) is accepted too.
    if "workloads" not in document:
        document = {"workloads": {document["workload"]: document}}
    return document["workloads"]


def verdict(name: str, spec: dict, a: dict, b: dict) -> tuple[float, str]:
    """(relative change of B against A, verdict) for one metric."""
    base, new = a["value"], b["value"]
    change = (new - base) / base if base else 0.0
    worse = -change if spec["better"] == "higher" else change
    if a.get("exact"):
        if new == base:
            return change, "pass"
        return change, "regress" if worse > spec["bound"] else "changed"
    if a.get("unresolved") or b.get("unresolved"):
        return change, "unresolved"
    return change, "regress" if worse > spec["bound"] else "pass"


def rows(a: dict, b: dict, contract: dict) -> list[tuple]:
    out = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        if workload not in a or workload not in b:
            continue
        for spec in contract["end_to_end"]:
            name = spec["name"]
            left = a[workload]["end_to_end"][name]
            right = b[workload]["end_to_end"][name]
            change, word = verdict(name, spec, left, right)
            out.append((workload, name, spec, left, right, change, word))
    return out


def _cell(entry: dict) -> str:
    text = f"{entry['value']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.5g}, {entry['q3']:.5g}]"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result document A (the base of every ratio)")
    parser.add_argument("candidate", help="result document B")
    parser.add_argument("--contract", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.contract) as handle:
        contract = json.load(handle)
    table = rows(load(args.base), load(args.candidate), contract)
    if not table:
        print("no workload is in both documents", file=sys.stderr)
        return 2
    print(f"{'workload':<16}{'metric':<20}{'unit':<6}{'A median [q1, q3]':<34}"
          f"{'B median [q1, q3]':<34}{'B vs A':>9}  {'bound':>6}  verdict")
    regressed = 0
    for workload, name, spec, left, right, change, word in table:
        regressed += word == "regress"
        print(f"{workload:<16}{name:<20}{spec['unit']:<6}{_cell(left):<34}{_cell(right):<34}"
              f"{change:>+9.2%}  {spec['bound']:>6.0%}  {word}")
    counts = {word: sum(1 for row in table if row[-1] == word)
              for word in ("pass", "changed", "unresolved", "regress")}
    print("  ".join(f"{word}: {count}" for word, count in counts.items()))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
