#!/usr/bin/env python3
"""mem-census: which layer allocated the memory an end-to-end workload holds.

    python3 benchmarks/mem_census.py

Builds and drives one repetition of the ``benchmarks/e2e`` workload
``objstore_mixed``, seed 1, sized for 15 s (the workload classes are
imported, nothing there is patched or edited) under
``tracemalloc`` and takes a snapshot after the preload and one after the
timed phase.  Each snapshot is grouped by the layer of the allocating
line -- the same path -> layer table ``benchmarks/e2e/ledger.py`` uses
for host time -- with the largest lines of every layer that holds more
than 1 % of the total, and set against the payload bytes at rest on the
simulated devices (the files under ``warabi/``).

Read it as "who made a copy": a payload that travels by reference stays
charged to the line that first built it (the harness's ``payload()``),
so ``warabi`` + ``storage`` at 0.0x the bytes at rest means the provider
and the device share the client's object, and 2.0x means each holds its
own copy.  ROADMAP item 6; the tier-1 guard of the same fact is
``tests/test_warabi_model.py::test_blobs_at_rest_cost_one_copy_of_the_payload``.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
MB = 1 << 20
#: allocating lines shown under each layer that holds at least 1 %.
TOP_LINES = 3
#: the one run censused: the composed object store, as BENCHMARK.json sizes it.
WORKLOAD, SEED, SECONDS = "objstore_mixed", 1, 15.0


def payload_at_rest(deployment: Any) -> tuple[int, int]:
    """(files, bytes) of blob payload on every node's local store."""
    from repro.storage import LocalStore

    files = size = 0
    for node in deployment.cluster.network.nodes.values():
        for store in node.attachments.values():
            if isinstance(store, LocalStore):
                for path in store.list("warabi/"):
                    if not path.endswith("/meta"):
                        files += 1
                        size += store.size_of(path)
    return files, size


def report(title: str, deployment: Any) -> None:
    import ledger

    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    lines: dict[str, list[Any]] = {layer: [] for layer in ledger.LAYERS}
    for stat in snapshot.statistics("lineno"):  # largest first
        lines[ledger.layer_of(stat.traceback[0].filename)].append(stat)
    held = {layer: sum(stat.size for stat in stats) for layer, stats in lines.items()}
    total = sum(held.values())
    files, at_rest = payload_at_rest(deployment)

    def times_at_rest(size: int) -> str:
        return f"{size / at_rest:5.2f}x at rest" if at_rest else ""

    print(f"== {title}: {total / MB:.1f} MB traced, "
          f"{at_rest / MB:.1f} MB of blob payload at rest in {files} files ==")
    for layer in ledger.LAYERS:
        print(f"  {layer:<14} {held[layer] / MB:8.2f} MB  {times_at_rest(held[layer])}")
        if held[layer] * 100 >= total:
            for stat in lines[layer][:TOP_LINES]:
                frame = stat.traceback[0]
                where = os.path.relpath(frame.filename, ROOT)
                print(f"      {stat.size / MB:8.2f} MB {stat.count:>7} blocks  {where}:{frame.lineno}")
    copies = held["warabi"] + held["storage"]
    print(f"  warabi + storage {copies / MB:6.2f} MB  {times_at_rest(copies)}")
    print(f"  {'total':<14} {total / MB:8.2f} MB  {times_at_rest(total)}")


def main() -> int:
    sys.path.insert(0, E2E)
    import run as e2e  # benchmarks/e2e/run.py

    e2e.import_program()
    import measure

    workload = e2e.make_workload(WORKLOAD)
    inputs = workload.generate(SEED, e2e.operations_for(workload, SECONDS))
    gc.collect()
    tracemalloc.start()
    deployment = workload.build(inputs, lambda ops=1: None)
    report(f"{WORKLOAD} seed {SEED}, after preload", deployment)
    meter = measure.Meter(workload.segment_ops, calibrated=False)
    recorder = measure.Recorder(meter, workload.slo_limit_us * 1e-6)
    meter.start()
    workload.drive(deployment, inputs, recorder)
    report(f"{WORKLOAD} seed {SEED}, after the timed phase", deployment)
    tracemalloc.stop()
    problems = recorder.failures + workload.verify(deployment, inputs)
    for problem in problems:
        print(f"mem-census: {problem}", file=sys.stderr)
    return 1 if problems or recorder.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
