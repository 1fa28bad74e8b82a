#!/usr/bin/env python3
"""repro-e2e: the end-to-end benchmark of the simulated Mochi stack.

    python3 benchmarks/e2e/run.py --workload rpc_echo --seed 1 --seconds 15 --trace 0

builds a simulated deployment from the public API, drives a seeded
workload, checks every reply against a plain-dict model and prints every
metric by name with its unit.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for the catalogue.

Other modes: ``--workload all --out FILE`` (one document for
``compare.py``), ``--selftest`` (delay-injection sensitivity check; with
``--workload W`` only the injections aimed at W),
``--capacity`` (the saturation rate ``reconfig_churn``'s arrival rate is
pinned against).
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- host-time measurement on purpose.

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("rpc_echo", "objstore_mixed", "kv_batch_scan", "reconfig_churn")


def fail(message: str) -> NoReturn:
    print(f"repro-e2e: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_contract() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} is missing")
    with open(path) as handle:
        return json.load(handle)


def import_program() -> float:
    """Put the program and the shared harness on the path and import
    them; returns the host seconds the imports took."""
    source = os.path.join(ROOT, "src")
    shared = os.path.join(ROOT, "benchmarks", "_harness.py")
    if not os.path.isdir(os.path.join(source, "repro")) or not os.path.isfile(shared):
        fail(
            "this benchmark measures the program in src/repro through "
            "benchmarks/_harness.py; neither is here"
        )
    sys.path[:0] = [source, os.path.dirname(shared), HERE]
    started = time.perf_counter()
    import repro.bedrock  # noqa: F401
    import repro.monitoring  # noqa: F401
    import repro.remi  # noqa: F401
    import repro.warabi  # noqa: F401
    import repro.yokan  # noqa: F401

    return time.perf_counter() - started


def make_workload(name: str):
    if name == "rpc_echo":
        from wl_rpc_echo import RpcEcho as cls
    elif name == "objstore_mixed":
        from wl_objstore_mixed import ObjstoreMixed as cls
    elif name == "kv_batch_scan":
        from wl_kv_batch_scan import KvBatchScan as cls
    elif name == "reconfig_churn":
        from wl_reconfig_churn import ReconfigChurn as cls
    else:
        fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return cls()


def operations_for(workload, seconds: float) -> int:
    """The fixed operation count of one repetition: what the reference
    machine completes in a fifth of ``seconds``.  Fixed, not timed, so
    that every simulated number is a function of the seed alone."""
    from measure import REPETITIONS

    return max(workload.min_ops, int(workload.pinned_ops_per_s * seconds / REPETITIONS))


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure_run(workload, inputs, contract: dict, trace: bool, import_s: float = 0.0,
                repetitions: int | None = None) -> tuple[dict, dict | None]:
    """The untraced repetitions and, with ``trace``, the traced one.

    Returns the result document and the traced repetition's pstats table
    (``None`` without ``trace``)."""
    import measure

    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    if repetitions is None:
        repetitions = measure.TRACE_REPETITIONS if trace else measure.REPETITIONS
    document = measure.run_untraced(workload, inputs, bounds, repetitions=repetitions)
    layer = dict(document["exact"])
    layer.update(document["harness"])
    layer["harness.import_s"] = import_s
    stats = None
    if trace:
        import ledger

        repetition, stats, taps = ledger.traced_repetition(workload, inputs)
        if repetition.exact != document["exact"]:
            raise measure.BenchmarkError("the traced repetition diverged from the untraced ones")
        untraced_wall = document["attempted"] / document["harness"]["harness.raw_ops_per_s"]
        layer.update(ledger.ledger_metrics(repetition, stats, taps, untraced_wall))
        layer["sim.kernel.swarm_events_per_s"] = ledger.kernel_swarm_events_per_s()
        layer["mercury.estimate_size_us"] = ledger.estimate_size_us(taps)
        layer["yokan.backend_us_per_key"] = ledger.yokan_backend_us_per_key(
            taps, workload.yokan_backend
        )
        layer["storage.write_us"] = ledger.storage_write_us(taps)
    document["per_layer"] = {
        entry["name"]: {"value": float(layer.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in contract["per_layer"]
    }
    document["traced"] = trace
    return document, stats


def run_one(name: str, seed: int, seconds: float, trace: bool, contract: dict,
            import_s: float) -> dict:
    """One run of one workload; returns its result document."""
    workload = make_workload(name)
    ops = operations_for(workload, seconds)
    document, _stats = measure_run(
        workload, workload.generate(seed, ops), contract, trace, import_s
    )
    document.update(
        {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "ops_per_repetition": ops,
            "slo_limit_us": workload.slo_limit_us,
            "machine": machine(),
        }
    )
    return document


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def print_table(document: dict) -> None:
    """Every metric by name with its unit, for a human."""
    print(f"== {document['workload']}  seed {document['seed']}  "
          f"{document['repetitions']} repetitions of {document['ops_per_repetition']} ops ==")
    for name, entry in document["end_to_end"].items():
        extra = ""
        if "q1" in entry:
            extra = (f"  [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                     f"n {entry['samples']}  spread {entry['spread']:.2%}]")
        if entry.get("unresolved"):
            extra += "  UNRESOLVED: spread exceeds the bound"
        print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']:<6}{extra}")
    if document["traced"]:
        for name, entry in document["per_layer"].items():
            print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    if document["failures"]:
        print("  failures:", *document["failures"], sep="\n    ")


def result_line(document: dict) -> str:
    section = "per_layer" if document["traced"] else "end_to_end"
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in document[section].items()
    }
    return json.dumps(
        {
            "correct": document["failed"] == 0,
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the result document(s) here")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--capacity", action="store_true")
    args = parser.parse_args(argv)

    contract = load_contract()
    import_s = import_program()
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])

    if args.selftest:
        import selftest

        return selftest.main(contract, args.seed, only=args.workload)
    if args.capacity:
        from wl_reconfig_churn import measure_capacity

        print(json.dumps(measure_capacity(args.seed)))
        return 0

    suffix = ".trace.json" if args.trace else ".json"
    if args.workload == "all":
        return run_all(args, seconds, suffix)
    document = run_one(args.workload, args.seed, seconds, bool(args.trace), contract, import_s)
    write_json(os.path.join(RESULTS, args.workload + suffix), document)
    if args.out:
        write_json(args.out, {"workloads": {args.workload: document}, "machine": machine()})
    print_table(document)
    print(result_line(document))  # the driver reads the last line
    return 0


def run_all(args: argparse.Namespace, seconds: float, suffix: str) -> int:
    """Every workload, each in a process of its own (``peak_rss_mb`` is
    the process's), gathered into one document for ``compare.py``."""
    documents = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            fail(f"workload {name} exited with status {done.returncode}")
        print(done.stdout.rsplit("\n", 2)[0])  # its table, not its result line
        with open(os.path.join(RESULTS, name + suffix)) as handle:
            documents[name] = json.load(handle)
    if args.out:
        write_json(args.out, {"workloads": documents, "machine": machine()})
    return 0 if all(d["failed"] == 0 for d in documents.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
