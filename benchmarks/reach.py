#!/usr/bin/env python3
"""reach: sort every function of ``src/repro`` by what runs it.

    python3 benchmarks/reach.py        (or ``make reach``)

Runs the artifacts, then tier-1, each in its own child process under a
``sys.setprofile`` hook, and writes ``benchmarks/results/REACH.json``.
A function is keyed by ``(file, co_qualname)``, never by line number, and
its size is its ``def`` line through ``end_lineno``.  Nested functions,
lambdas and comprehensions count inside the function that holds them.
Every function falls in one of three classes:

- ``artifact``: an artifact runs it;
- ``test_only``: only tier-1 runs it;
- ``never``: nothing runs it.

The artifacts are what reproduce the paper: the five ``examples/*.py``,
the E*/A* tables (pytest with ``--benchmark-disable``: pytest-benchmark's
fixture calls ``sys.setprofile(None)`` while it times), the
``benchmarks/e2e`` suite and a 3 s ``run.py`` of each workload (one
process per workload: ``--workload all`` starts subprocesses the hook
does not follow), and the ``repro`` commands CI runs.
``benchmarks/bench_overhead.py`` is left out: it takes minutes under the
hook, and the only functions it alone reaches are ``Ctx.publish_epoch``
and ``approx_snapshot``, which tier-1 reaches too.  Tests call
``sys.setprofile`` and cProfile themselves, so a small pytest plugin
re-installs the hook before each test's setup and call.

``short_list`` in the JSON is read back and kept: one entry per function
or class that no artifact runs, each with its reason.  A class entry
covers the class's methods.  Exit status 1 when a function is neither
run by an artifact nor on the list, or when an entry names nothing that
exists or only what an artifact now runs; 2 when an artifact fails.
Only the artifact class and the list are gated; the split between
``test_only`` and ``never`` is reported.  Tier-1 runs with a fixed
``--hypothesis-seed``, so two runs on one tree write the same file.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- reports each artifact's host seconds on purpose.

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
OUT = os.path.join(ROOT, "benchmarks", "results", "REACH.json")
WORKLOADS = ("rpc_echo", "objstore_mixed", "kv_batch_scan", "reconfig_churn")
CLASSES = ("artifact", "test_only", "never")
#: ``python -c`` bootstrap of a child: load this file by path (so no
#: benchmarks module shadows a test's imports) and run ``child``.
BOOT = (
    "import importlib.util as u, sys; s = u.spec_from_file_location('_reach', sys.argv[1]); "
    "m = u.module_from_spec(s); s.loader.exec_module(m); m.child(sys.argv[2:])"
)


def artifacts() -> list[tuple[str, list[str]]]:
    """(label, child command) for every artifact, in run order."""
    runs = [(path, ["script", path]) for path in sorted(glob.glob("examples/*.py", root_dir=ROOT))]
    benches = sorted(glob.glob("benchmarks/bench_[ea]*.py", root_dir=ROOT))
    runs.append((f"{len(benches)} E*/A* benches", ["pytest", "-p", "no:cacheprovider", "--benchmark-disable", *benches]))
    runs.append(("benchmarks/e2e", ["pytest", "-p", "no:cacheprovider", "benchmarks/e2e"]))
    for workload in WORKLOADS:
        runs.append((f"run.py {workload}", ["script", "benchmarks/e2e/run.py", "--workload", workload, "--seconds", "3"]))
    for args in (
        ["lint"],
        ["lint", "--format", "sarif"],
        ["race", "--seeds", "8"],
        ["health", "crash"],
        ["health", "slo"],
        ["xray", "pool"],
        ["xray", "lock"],
        ["xray", "network"],
    ):
        runs.append(("repro " + " ".join(args), ["module", "repro", *args]))
    return runs


def child(argv: list[str]) -> None:
    """Run one artifact under the hook; write the reached (file, qualname) pairs."""
    import runpy

    out, kind, *args = argv
    seen: set = set()

    def hook(frame, event, arg, add=seen.add):
        add(frame.f_code)

    sys.argv = list(args)
    status = 0
    sys.setprofile(hook)
    try:
        if kind == "script":
            runpy.run_path(args[0], run_name="__main__")
        elif kind == "module":
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            import pytest

            class Rehook:
                @pytest.hookimpl(tryfirst=True)
                def pytest_runtest_setup(self, item):
                    sys.setprofile(hook)

                @pytest.hookimpl(tryfirst=True)
                def pytest_runtest_call(self, item):
                    sys.setprofile(hook)

            status = pytest.main(args, plugins=[Rehook()])
    except SystemExit as done:
        status = done.code if isinstance(done.code, int) else (done.code is not None)
    finally:
        sys.setprofile(None)
    reached = set()
    for code in seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(SRC + os.sep):
            reached.add((os.path.relpath(path, ROOT), code.co_qualname.split(".<locals>.")[0]))
    with open(out, "w") as handle:
        json.dump(sorted(reached), handle)
    sys.exit(int(status))


def run(label: str, command: list[str]) -> tuple[set, int]:
    """Run one child; (reached pairs, exit status)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reached.json")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", BOOT, os.path.abspath(__file__), out, *command],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        print(f"reach: {label}: exit {done.returncode}, {time.perf_counter() - start:.0f} s", file=sys.stderr)
        if done.returncode:
            print(done.stdout[-4000:], file=sys.stderr)
        if not os.path.exists(out):
            return set(), done.returncode or 1
        with open(out) as handle:
            return {tuple(pair) for pair in json.load(handle)}, done.returncode


def inventory() -> tuple[dict, set]:
    """({(file, qualname): lines}, {(file, class qualname)}) of ``src/repro``."""
    functions: dict = {}
    classes: set = set()

    def walk(node: ast.AST, file: str, prefix: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (file, prefix + child_node.name)
                functions[key] = functions.get(key, 0) + child_node.end_lineno - child_node.lineno + 1
            elif isinstance(child_node, ast.ClassDef):
                classes.add((file, prefix + child_node.name))
                walk(child_node, file, prefix + child_node.name + ".")
            elif isinstance(child_node, ast.stmt):
                walk(child_node, file, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path) as handle:
            walk(ast.parse(handle.read()), os.path.relpath(path, ROOT), "")
    return functions, classes


def render(totals: dict, files: dict, short_list: list) -> str:
    """REACH.json with one line per file and per short-list entry."""
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(record)}" for name, record in files.items())
    entries = ",\n".join(f"  {json.dumps(entry)}" for entry in short_list)
    return f'{{\n "totals": {json.dumps(totals)},\n "files": {{\n{rows}\n }},\n "short_list": [\n{entries}\n ]\n}}\n'


def covers(entry: dict, key: tuple) -> bool:
    return key[0] == entry["file"] and (key[1] == entry["name"] or key[1].startswith(entry["name"] + "."))


def main() -> int:
    start = time.perf_counter()
    short_list = []
    if os.path.exists(OUT):
        with open(OUT) as handle:
            short_list = json.load(handle).get("short_list", [])
    by_artifact: set = set()
    for label, command in artifacts():
        reached, status = run(label, command)
        if status:
            print(f"reach: artifact failed: {label} (exit {status})", file=sys.stderr)
            return 2
        by_artifact |= reached
    by_tests, status = run("tier-1", ["pytest", "-p", "no:cacheprovider", "--hypothesis-seed", "0"])
    if status:
        print(f"reach: tier-1 exited {status} under the hook (reported, not gated)", file=sys.stderr)

    functions, classes = inventory()
    sort = {key: "artifact" if key in by_artifact else "test_only" if key in by_tests else "never" for key in functions}
    files: dict = {}
    totals = {name: {"functions": 0, "lines": 0} for name in CLASSES}
    for key in sorted(functions):
        group = sort[key]
        record = files.setdefault(key[0], {"artifact": {"functions": 0, "lines": 0}})
        record = record.setdefault(group, {"functions": 0, "lines": 0, "names": []})
        for counts in (record, totals[group]):
            counts["functions"] += 1
            counts["lines"] += functions[key]
        if group != "artifact":
            record["names"].append(key[1])
    with open(OUT, "w") as handle:
        handle.write(render(totals, files, short_list))

    unlisted = [key for key in sorted(functions) if sort[key] != "artifact" and not any(covers(e, key) for e in short_list)]
    stale = []
    for entry in short_list:
        named = (entry["file"], entry["name"])
        if named not in functions and named not in classes:
            stale.append((entry, "names no function or class"))
        elif all(sort[key] == "artifact" for key in functions if covers(entry, key)):
            stale.append((entry, "an artifact runs all of it"))
    for name in CLASSES:
        print(f"{name:10s} {totals[name]['functions']:5d} functions {totals[name]['lines']:6d} lines")
    for key in unlisted:
        print(f"unlisted {sort[key]}: {key[0]}: {key[1]} ({functions[key]} lines)")
    for entry, why in stale:
        print(f"stale short-list entry: {entry['file']}: {entry['name']}: {why}")
    print(f"reach: {len(unlisted)} unlisted, {len(stale)} stale, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
