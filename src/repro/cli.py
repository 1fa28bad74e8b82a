"""The ``repro`` command: one front end for the diagnostic tools.

Paper section 2.2: users must diagnose problems "on their own", with
"command-line diagnostic tools".  One command, four subcommands:

* ``repro lint [PATHS]`` -- every static rule, plus Bedrock's boot check
  on the Margo/Bedrock JSON documents found (default: the CI gate's
  roots, :data:`repro.analysis.engine.DEFAULT_ROOTS`);
* ``repro race`` -- the mochi-race suite: happens-before, lock order and
  schedule exploration over the example services;
* ``repro health {crash,slo}`` -- an incident story, rendered by
  :func:`repro.tools.health_report`;
* ``repro xray {pool,lock,network}`` -- a known bottleneck, rendered by
  :func:`repro.tools.xray_report`.

Scenarios come from :data:`repro.scenarios.SCENARIOS`; ``--seed``
defaults to each scenario's own seed, and the same seed gives
byte-identical output.  Also runnable as ``python -m repro``.  Exit
status: 0 when clean, 1 when any finding survives suppression, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .scenarios import SCENARIOS, run_race_suite

__all__ = ["main"]


def _list_rules() -> str:
    from .analysis.registry import rule_catalog

    lines = ["mochi-lint rule catalog:"]
    group = None
    for info in rule_catalog():
        if info.group != group:
            group = info.group
            lines.append(f"\n[{group}]")
        runtime = "  (also runtime-checked)" if info.runtime_checked else ""
        lines.append(f"  {info.id}  {info.name:<36} {info.summary}{runtime}")
    return "\n".join(lines)


def _report(findings: list, fmt: str, clean: str) -> int:
    if fmt == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2, sort_keys=True))
    elif fmt == "sarif":
        from .analysis.sarif import to_sarif

        print(json.dumps(to_sarif(findings), indent=2, sort_keys=True))
    elif findings:
        from .analysis.findings import format_findings

        print(format_findings(findings))
        print(f"\n{len(findings)} finding(s)")
    else:
        print(clean)
    return 1 if findings else 0


def _lint(args: argparse.Namespace) -> int:
    from .analysis.engine import DEFAULT_ROOTS, run_lint  # registers every rule

    if args.list_rules:
        print(_list_rules())
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        result = run_lint(args.paths or DEFAULT_ROOTS, select=select, ignore=ignore)
    except (FileNotFoundError, ValueError) as err:
        print(f"repro lint: {err}", file=sys.stderr)
        return 2
    if args.stats:
        for key in sorted(result.stats):
            print(f"repro lint: stats {key}={result.stats[key]}", file=sys.stderr)
    return _report(result.findings, args.format, "mochi-lint: clean")


def _race(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        print(f"repro race: --seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2
    emit = print if args.format == "text" else (lambda _line: None)
    findings, _reports = run_race_suite(seeds=args.seeds, emit=emit)
    return _report(findings, args.format, "mochi-lint: clean (race suite)")


def _scenario(args: argparse.Namespace) -> int:
    from .tools import health_report, xray_report

    scenario = SCENARIOS[args.command][args.scenario]
    doc = scenario() if args.seed is None else scenario(seed=args.seed)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        render = health_report if args.command == "health" else xray_report
        print(render(doc))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diagnostic tools for the simulated Mochi stack.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser(
        "lint",
        help="static analysis of Python sources and config documents",
        description=(
            "Mochi-aware static analyzer: enforces the simulator's "
            "determinism, cooperative-scheduling, partitioning and "
            "protocol invariants over Python sources (per file, whole "
            "program and path by path in one pass), and runs Bedrock's "
            "boot checks on Margo/Bedrock JSON configuration documents."
        ),
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: the CI gate's roots)",
    )
    lint.add_argument(
        "--select", metavar="IDS",
        help="comma-separated rule ids to run exclusively (e.g. MCH001,MCH011)",
    )
    lint.add_argument("--ignore", metavar="IDS", help="comma-separated rule ids to skip")
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.add_argument(
        "--stats", action="store_true",
        help=(
            "print analysis coverage counters (dynamic call sites "
            "skipped, call edges resolved) and where the run's "
            "time went (seconds_parse / _file_rules / _index_effects / "
            "_project_rules) to stderr"
        ),
    )

    race = commands.add_parser(
        "race",
        help="the mochi-race suite over the example services",
        description=(
            "Happens-before + lock-order + schedule exploration over the "
            "example services: each scenario runs unperturbed and once "
            "per seeded ready-queue perturbation."
        ),
    )
    race.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="perturbation seeds per scenario (default: 8)",
    )
    for sub in (lint, race):
        sub.add_argument(
            "--format", choices=("text", "json", "sarif"), default="text",
            help="output format (default: text)",
        )

    for name, summary in (
        ("health", "an incident story: a node crash, or an SLO burning to breach"),
        ("xray", "a known bottleneck: tail attribution and what-if ranking"),
    ):
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.add_argument("scenario", choices=list(SCENARIOS[name]))
        sub.add_argument(
            "--seed", type=int, metavar="N",
            help="cluster seed (default: the scenario's own)",
        )
        sub.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default: text)",
        )

    args = parser.parse_args(argv)
    run = {"lint": _lint, "race": _race}.get(args.command, _scenario)
    return run(args)
