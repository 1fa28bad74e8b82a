#!/usr/bin/env python3
"""Check that end-to-end result documents agree on every ``exact`` table.

    python3 benchmarks/exact_tables.py A.json B.json

``benchmarks/e2e/run.py --workload all --out`` writes the documents.
The simulated metrics and counts of a seed must depend on nothing else:
``make contract`` runs the benchmark under two ``PYTHONHASHSEED`` values
and checks the two documents here.  Exit status 1 names each workload
whose table differs and the metrics that differ.
"""

from __future__ import annotations

import argparse
import json


def load(path: str) -> dict:
    with open(path) as handle:
        return {name: document["exact"] for name, document in json.load(handle)["workloads"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    differ = sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))
    for name in differ:
        left, right = a.get(name, {}), b.get(name, {})
        metrics = sorted(k for k in set(left) | set(right) if left.get(k) != right.get(k))
        print(f"{name}: exact tables differ: {', '.join(metrics) or 'workload missing'}")
    if not differ:
        print(f"exact tables equal on {len(a)} workloads")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
