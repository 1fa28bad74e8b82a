#!/usr/bin/env python3
"""Paired A/B judge of two revisions on the end-to-end benchmark.

    python3 benchmarks/ab.py PARENT [CHANGE] [--workload W] [--seeds 1,11]
                             [--pairs 10] [--trace] [--metric M]

Checks PARENT and CHANGE out into local ``git worktree``s (CHANGE
omitted: this checkout, uncommitted edits included) and runs each
revision's own ``benchmarks/e2e/run.py --trace 0`` (its default run
length, ``run_seconds`` in ``BENCHMARK.json``) in alternation: pair i
runs the parent first when i is even, the change first when it is odd,
so drift of the host cancels instead of landing on one side.

It writes ``benchmarks/results/ab/<parent>..<change>.json`` -- every
run, q1/median/q3 of each side, wins, the median gap over the parent's
IQR, the verdict, and whether the ``exact`` tables (every ``sim_*`` and
count) are equal -- and appends one line of medians and quartiles to
``benchmarks/history.jsonl``.  ``--trace`` adds one ``--trace 1`` run
per revision and workload on the first seed: the per-layer ledger side
by side, whether every count row (calls, events, bytes) is equal, and
each moved one with its signed change.
A later run of the same two revisions on another workload adds its
section to the same file.

The verdict on the claimed metric ``M`` (an end-to-end metric of
``BENCHMARK.json``, default ``wall_us_per_rpc``) for one workload and
seed (:func:`judge`): the change is better in at least nine pairs of ten,
and its median is better than the parent's by more than the parent's
inter-quartile distance.  A metric whose median is worse than the parent's by more
than its bound in ``BENCHMARK.json`` is a regression, and one whose
runs spread wider than that bound is unresolved.  Exit status 0 when
every section gains and none regresses, is unresolved, differs in
``exact``, or fails more operations; 1 otherwise; 2 on a usage or run
error.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- host-time measurement on purpose.

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import NoReturn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results", "ab")
HISTORY = os.path.join(ROOT, "benchmarks", "history.jsonl")
WORKLOADS = ("rpc_echo", "objstore_mixed", "kv_batch_scan", "reconfig_churn")
CLAIM = "wall_us_per_rpc"


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], computed the way ``benchmarks/e2e`` does."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def judge(parent: list[float], change: list[float], better: str,
          bound: float | None = None) -> dict:
    """Compare one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran back to back).

    ``gain``: the change is better in at least 9 of 10 pairs (a tie is
    no win) and its median beats the parent's by more than the parent's
    IQR.  ``regress``: its median is worse by more than ``bound`` (a
    share of the parent's median).  ``unresolved``: either side's IQR is
    wider than ``bound`` of its median, so a regression within the runs'
    own spread cannot be ruled out -- unless every change run is better
    than every parent run."""
    if len(parent) != len(change) or not parent:
        raise ValueError("judge needs two equally long, non-empty run lists")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # > 0: the change's median is better
    iqr = pq[2] - pq[0]
    pct = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (pq, cq))
    separated = min(sign * p for p in parent) > max(sign * c for c in change)
    return {
        "parent": parent,
        "change": change,
        "parent_q1_med_q3": pq,
        "change_q1_med_q3": cq,
        "change_pct": round(pct, 2),
        "wins": f"{wins}/{len(parent)}",
        "gap_over_parent_iqr": round(gap / iqr, 2) if iqr else None,
        "gain": wins * 10 >= 9 * len(parent) and gap > iqr,
        "regress": bound is not None and -gap > bound * abs(pq[1]),
        "unresolved": bound is not None and spread > bound and not separated,
    }


# ----------------------------------------------------------------------
# running the revisions
# ----------------------------------------------------------------------
def fail(message: str) -> NoReturn:
    print(f"ab: {message}", file=sys.stderr)
    raise SystemExit(2)


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def short(revision: str) -> str:
    return git("rev-parse", "--short=7", f"{revision}^{{commit}}")


def run_once(tree: str, workload: str, seed: int, trace: bool = False) -> dict:
    """One ``run.py`` of one workload in ``tree``: its end-to-end values,
    its ``exact`` table, its operation counts and, traced, its per-layer
    ledger."""
    command = [sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = workload + (".trace.json" if trace else ".json")
    with open(os.path.join(tree, "benchmarks", "e2e", "results", result)) as handle:
        document = json.load(handle)
    return {
        "metrics": {name: entry["value"] for name, entry in document["end_to_end"].items()},
        "exact": document["exact"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "per_layer": document["per_layer"],
    }


def collect(trees: dict[str, str], workloads: list[str], seeds: list[int], pairs: int,
            metric: str = CLAIM) -> dict:
    """Every run, as ``{workload: {seed: {"parent": [...], "change": [...]}}}``."""
    runs = {w: {s: {"parent": [], "change": []} for s in seeds} for w in workloads}
    for seed in seeds:
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload, seed)
                    runs[workload][seed][side].append(result)
                    print(f"ab: seed {seed} pair {pair + 1}/{pairs} {workload} {side}: "
                          f"{metric} {result['metrics'][metric]:.3f}",
                          file=sys.stderr, flush=True)
    return runs


def ledger(trees: dict[str, str], workload: str, seed: int) -> dict:
    """One traced run per revision: every per-layer row side by side.
    Rows counted in calls, events, operations or bytes (``count``/``B``)
    should be a function of the code path and the seed, so
    ``counts_equal`` says whether the change left the path's shape
    alone and ``counts_moved`` maps each moved row to ``change - parent``
    (``python.calls_per_rpc`` can also move by a few calls between two
    runs of one tree, see DESIGN.md section 9).  A moved count is
    evidence to read, not a verdict: a path that shrank moves them too."""
    rows = {side: run_once(trees[side], workload, seed, trace=True)["per_layer"]
            for side in ("parent", "change")}
    table = {name: {"parent": entry["value"], "change": rows["change"][name]["value"],
                    "unit": entry["unit"]}
             for name, entry in rows["parent"].items()}
    moved = {name: row["change"] - row["parent"] for name, row in sorted(table.items())
             if row["unit"] in ("count", "B") and row["parent"] != row["change"]}
    return {"seed": seed, "rows": table, "counts_equal": not moved, "counts_moved": moved}


# ----------------------------------------------------------------------
# the evidence document
# ----------------------------------------------------------------------
def section(runs: dict, contract: dict, protocol: dict, traced: dict | None = None,
            metric: str = CLAIM) -> dict:
    """The judged section of one workload: per seed, every end-to-end
    metric judged, exact tables compared, failures counted, the gain
    asked of ``metric``; with ``traced``, the per-layer ledger of both
    revisions."""
    entries = {entry["name"]: entry for entry in contract["end_to_end"]}
    seeds = {}
    for seed, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        metrics = {
            name: judge([r["metrics"][name] for r in parent],
                        [r["metrics"][name] for r in change], entry["better"], entry["bound"])
            for name, entry in entries.items()
        }
        reference = parent[0]["exact"]
        differing = sorted({key for r in parent + change for key in
                            set(r["exact"]) | set(reference)
                            if r["exact"].get(key) != reference.get(key)})
        failed_share = {side: max(r["failed"] / max(r["attempted"], 1) for r in rows)
                        for side, rows in (("parent", parent), ("change", change))}
        seeds[str(seed)] = {
            "metrics": metrics,
            "exact_equal": not differing,
            "exact_differs": differing,
            "failed_share": failed_share,
        }
    claim = [seeds[s]["metrics"][metric]["gain"] for s in seeds]
    regressions = [f"seed {s}: {name}" for s in seeds
                   for name, judged in seeds[s]["metrics"].items() if judged["regress"]]
    unresolved = [f"seed {s}: {name}" for s in seeds
                  for name, judged in seeds[s]["metrics"].items() if judged["unresolved"]]
    verdict = {
        "metric": metric,
        "gain": all(claim),
        "regressions": regressions,
        "unresolved": unresolved,
        "exact_equal": all(seeds[s]["exact_equal"] for s in seeds),
        "fails_more": any(seeds[s]["failed_share"]["change"] > seeds[s]["failed_share"]["parent"]
                          for s in seeds),
    }
    body = {"protocol": protocol, "seeds": seeds, "verdict": verdict}
    if traced is not None:
        body["ledger"] = traced
        verdict["counts_equal"] = traced["counts_equal"]
    verdict["pass"] = (verdict["gain"] and not regressions and not unresolved
                       and verdict["exact_equal"]
                       and not verdict["fails_more"])
    return body


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def write_evidence(parent: str, change: str, sections: dict) -> tuple[str, dict]:
    path = os.path.join(RESULTS, f"{parent}..{change}.json")
    document = {"parent": parent, "change": change, "workloads": {}}
    if os.path.isfile(path):
        with open(path) as handle:
            document = json.load(handle)
    document["workloads"].update(sections)
    document["machine"] = machine()
    document["pass"] = all(s["verdict"]["pass"] for s in document["workloads"].values())
    os.makedirs(RESULTS, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path, document


def append_history(parent: str, change: str, sections: dict) -> None:
    line = {
        "parent": parent,
        "change": change,
        "machine": machine(),
        "workloads": {
            workload: {
                "protocol": body["protocol"],
                "verdict": body["verdict"],
                "seeds": {
                    seed: {name: {"parent": judged["parent_q1_med_q3"],
                                  "change": judged["change_q1_med_q3"]}
                           for name, judged in per_seed["metrics"].items()}
                    for seed, per_seed in body["seeds"].items()
                },
            }
            for workload, body in sections.items()
        },
    }
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default=None)
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seeds", default="1,11")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="also one traced run per revision and workload (per-layer ledger)")
    parser.add_argument("--metric", default=CLAIM,
                        help=f"the end-to-end metric whose gain is claimed (default {CLAIM})")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    if args.metric not in {entry["name"] for entry in contract["end_to_end"]}:
        fail(f"--metric {args.metric!r} is not an end-to-end metric of BENCHMARK.json")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    parent = short(args.parent)
    if args.change is None:
        change = short("HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    else:
        change = short(args.change)
    scratch = tempfile.mkdtemp(prefix="repro-ab-")
    trees = {"parent": os.path.join(scratch, "parent"), "change": ROOT}
    try:
        git("worktree", "add", "--detach", trees["parent"], parent)
        if args.change is not None:
            trees["change"] = os.path.join(scratch, "change")
            git("worktree", "add", "--detach", trees["change"], change)
        runs = collect(trees, workloads, seeds, args.pairs, args.metric)
        traced = {w: ledger(trees, w, seeds[0]) for w in workloads} if args.trace else {}
    finally:
        for side in ("parent", "change"):
            if trees[side] != ROOT and os.path.isdir(trees[side]):
                git("worktree", "remove", "--force", trees[side])
        shutil.rmtree(scratch, ignore_errors=True)
        git("worktree", "prune")

    protocol = {
        "command": f"benchmarks/e2e/run.py --workload W --seed S --trace 0 "
                   f"(--seconds {contract['run_seconds']:g}), each revision's own",
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "pair i: parent first when i is even, change first when odd",
    }
    sections = {w: section(runs[w], contract, protocol, traced.get(w), args.metric)
                for w in workloads}
    path, document = write_evidence(parent, change, sections)
    append_history(parent, change, sections)
    for workload, body in sections.items():
        for seed, per_seed in body["seeds"].items():
            judged = per_seed["metrics"][args.metric]
            print(f"{workload} seed {seed} {args.metric}: "
                  f"{judged['parent_q1_med_q3'][1]:.4g} -> {judged['change_q1_med_q3'][1]:.4g} "
                  f"({judged['change_pct']:+.2f} %), better in {judged['wins']}, "
                  f"gap {judged['gap_over_parent_iqr']} x parent IQR, "
                  f"exact {'equal' if per_seed['exact_equal'] else 'DIFFERS'}")
        print(f"{workload}: {json.dumps(body['verdict'], sort_keys=True)}")
    verdict = "pass" if document["pass"] else "fail"
    print(f"ab: wrote {os.path.relpath(path, ROOT)}; verdict {verdict}")
    return 0 if document["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
