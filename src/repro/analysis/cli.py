"""The mochi-lint command line.

Installed as ``repro-lint`` (see ``setup.py``), also runnable as
``python -m repro.analysis``.  Exit status: 0 when clean, 1 when any
finding survives suppression, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .engine import run_lint
from .findings import format_findings
from .registry import rule_catalog

__all__ = ["main"]


def _list_rules() -> str:
    lines = ["mochi-lint rule catalog:"]
    group = None
    for info in rule_catalog():
        if info.group != group:
            group = info.group
            lines.append(f"\n[{group}]")
        runtime = "  (also runtime-checked)" if info.runtime_checked else ""
        lines.append(f"  {info.id}  {info.name:<36} {info.summary}{runtime}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Mochi-aware static analyzer: enforces the simulator's "
            "determinism, cooperative-scheduling, RPC-contract and "
            "protocol invariants over Python sources (per file, whole "
            "program and path by path in one pass), and runs Bedrock's "
            "boot checks on Margo/Bedrock JSON configuration documents."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "examples", "benchmarks"],
        help="files or directories to check (default: src examples benchmarks)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run exclusively (e.g. MCH001,MCH011)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print analysis coverage counters (dynamic call sites "
            "skipped, RPC pairs checked, CFGs built) and where the run's "
            "time went (seconds_parse / _file_rules / _index_effects / "
            "_project_rules) to stderr"
        ),
    )
    parser.add_argument(
        "--race",
        action="store_true",
        help=(
            "run the mochi-race dynamic suite (happens-before + lock-order "
            "+ schedule exploration over the example services) instead of "
            "the static pass"
        ),
    )
    parser.add_argument(
        "--race-seeds",
        type=int,
        default=8,
        metavar="N",
        help="perturbation seeds per scenario for --race (default: 8)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    if args.race:
        # Imported lazily: the scenarios pull in the full runtime stack.
        from .race.scenarios import run_race_suite

        emit = print if args.format == "text" else (lambda _line: None)
        findings, _reports = run_race_suite(seeds=args.race_seeds, emit=emit)
    else:
        select = args.select.split(",") if args.select else None
        ignore = args.ignore.split(",") if args.ignore else None
        try:
            result = run_lint(args.paths, select=select, ignore=ignore)
        except (FileNotFoundError, ValueError) as err:
            print(f"repro-lint: {err}", file=sys.stderr)
            return 2
        findings = result.findings
        if args.stats:
            for key in sorted(result.stats):
                print(f"repro-lint: stats {key}={result.stats[key]}", file=sys.stderr)

    if args.format == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2, sort_keys=True))
    elif args.format == "sarif":
        from .sarif import to_sarif

        print(json.dumps(to_sarif(findings), indent=2, sort_keys=True))
    elif findings:
        print(format_findings(findings))
        print(f"\n{len(findings)} finding(s)")
    else:
        print("mochi-lint: clean" + (" (race suite)" if args.race else ""))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
