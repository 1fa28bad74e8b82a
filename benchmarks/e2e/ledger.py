"""The traced repetition: a per-layer ledger built from outside.

One extra repetition runs under ``cProfile`` (timed phase only).  Every
profiled function is assigned to a *layer* by the path of the file that
defines it; a layer's self time is the time spent in its functions minus
the time their callees cover, which is exactly pstats' ``tottime``.  C
built-ins have no file: their time is charged to the layer of the
function that called them (``len`` inside ``estimate_size`` is mercury's
work, ``heappush`` inside the kernel is the kernel's).

Three public methods are wrapped from this side, for the traced
repetition only, to count what no counter in the program counts:
bytes through ``LocalStore.write`` and ``MargoInstance.bulk_transfer``,
and a sample of the arguments given to ``MargoInstance.forward`` (the
isolated timings below are fed with them).  Nothing under ``src/`` is
edited; tracing inside the program is a later change.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- host-time measurement on purpose.

import cProfile
import os
import pstats
import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.margo.runtime import MargoInstance
from repro.mercury import estimate_size
from repro.sim.network import Node
from repro.storage import LocalStore
from repro.yokan import create_backend

import _harness  # benchmarks/_harness.py
from measure import Repetition, run_repetition

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARKS = os.path.dirname(HERE)

LAYERS = (
    "sim.kernel",
    "sim.network",
    "margo.sched",
    "margo.runtime",
    "mercury",
    "yokan",
    "warabi",
    "storage",
    "remi",
    "bedrock",
    "core",
    "observers",
    "other",
    "harness",
)

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_SCHED_FILES = {"pool.py", "xstream.py", "ult.py"}
_PACKAGE_LAYER = {
    "mercury": "mercury",
    "yokan": "yokan",
    "warabi": "warabi",
    "storage": "storage",
    "remi": "remi",
    "bedrock": "bedrock",
    "core": "core",
    "observability": "observers",
    "monitoring": "observers",
    "analysis": "observers",
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` for the standard
    library and for the parts of ``repro`` no layer claims)."""
    if filename.startswith(BENCHMARKS + os.sep):
        return "harness"
    at = filename.find(_REPRO)
    if at < 0:
        return "other"
    parts = filename[at + len(_REPRO):].split(os.sep)
    package, leaf = parts[0], parts[-1]
    if package == "sim":
        return {"kernel.py": "sim.kernel", "network.py": "sim.network"}.get(leaf, "other")
    if package == "margo":
        return "margo.sched" if leaf in _SCHED_FILES else "margo.runtime"
    return _PACKAGE_LAYER.get(package, "other")


def attribute(stats: dict) -> tuple[dict[str, float], dict[str, int], int]:
    """(self seconds per layer, calls per layer, total calls) from a
    ``pstats.Stats(...).stats`` table."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_calls = 0
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        total_calls += nc
        if filename != "~":
            layer = layer_of(filename)
            seconds[layer] += tt
            calls[layer] += nc
            continue
        charged_calls, charged_time = 0, 0.0
        for (caller_file, _l, _n), (caller_nc, _ccc, caller_tt, _cct) in callers.items():
            layer = "other" if caller_file == "~" else layer_of(caller_file)
            seconds[layer] += caller_tt
            calls[layer] += caller_nc
            charged_calls += caller_nc
            charged_time += caller_tt
        # A built-in entered from outside the profiled region has no caller.
        seconds["other"] += tt - charged_time
        calls["other"] += nc - charged_calls
    return seconds, calls, total_calls


def calls_to(stats: dict, file_suffix: str, name: str) -> int:
    """Total calls (recursive ones included) of one named function."""
    return sum(
        nc
        for (filename, _line, func), (_cc, nc, _tt, _ct, _callers) in stats.items()
        if func == name and filename.endswith(file_suffix)
    )


class Taps:
    """Counts gathered by the wrapped public methods."""

    SAMPLES = 1024

    def __init__(self) -> None:
        self.store_writes = 0
        self.store_bytes = 0
        self.write_sizes: list[int] = []
        self.bulk_bytes = 0
        self.forwards = 0
        self.sampled_args: list[tuple[str, Any]] = []

    @contextmanager
    def installed(self) -> Iterator["Taps"]:
        write, bulk, forward = LocalStore.write, MargoInstance.bulk_transfer, MargoInstance.forward
        taps = self

        def counted_write(store: Any, path: str, data: bytes) -> None:
            taps.store_writes += 1
            taps.store_bytes += len(data)
            if len(taps.write_sizes) < taps.SAMPLES:
                taps.write_sizes.append(len(data))
            return write(store, path, data)

        def counted_bulk(margo: Any, remote_address: str, size: int, *args: Any, **kwargs: Any):
            taps.bulk_bytes += size
            return bulk(margo, remote_address, size, *args, **kwargs)

        def sampled_forward(margo: Any, address: str, rpc_name: str, args: Any = None,
                            *rest: Any, **kwargs: Any):
            taps.forwards += 1
            if taps.forwards % 7 == 0 and len(taps.sampled_args) < taps.SAMPLES:
                taps.sampled_args.append((rpc_name, args))
            return forward(margo, address, rpc_name, args, *rest, **kwargs)

        LocalStore.write = counted_write
        MargoInstance.bulk_transfer = counted_bulk
        MargoInstance.forward = sampled_forward
        try:
            yield self
        finally:
            LocalStore.write = write
            MargoInstance.bulk_transfer = bulk
            MargoInstance.forward = forward


def traced_repetition(workload: Any, inputs: Any) -> tuple[Repetition, dict, Taps]:
    """Run one repetition under cProfile with the taps installed.

    Returns the repetition (its ``wall_s`` is the profiled timed phase),
    the pstats table and the taps.
    """
    profiler = cProfile.Profile()
    taps = Taps()
    # The taps must only see the timed phase: set-up runs before them.
    original_drive = workload.drive

    def drive(deployment: Any, drive_inputs: Any, recorder: Any) -> None:
        with taps.installed():
            original_drive(deployment, drive_inputs, recorder)

    workload.drive = drive
    try:
        repetition = run_repetition(workload, inputs, profiler=profiler)
    finally:
        del workload.drive
    stats = pstats.Stats(profiler).stats
    return repetition, stats, taps


def ledger_metrics(
    repetition: Repetition,
    stats: dict,
    taps: Taps,
    untraced_wall_s: float,
) -> dict[str, float]:
    seconds, calls, total_calls = attribute(stats)
    ops = max(repetition.attempted, 1)
    rpcs = max(repetition.exact["harness.rpcs"], 1.0)
    total = sum(seconds.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = seconds[layer] * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    user_bytes = repetition.exact.get("harness.put_bytes", 0.0)
    metrics.update(
        {
            "ledger.named_share": 1.0 - seconds["other"] / total if total else 0.0,
            "ledger.trace_overhead_ratio": (
                repetition.wall_s / untraced_wall_s if untraced_wall_s else 0.0
            ),
            "python.calls_per_rpc": total_calls / rpcs,
            "mercury.estimate_size_calls_per_rpc": calls_to(
                stats, os.path.join("mercury", "serialization.py"), "estimate_size"
            ) / rpcs,
            "mercury.bulk_calls_per_op": calls_to(
                stats, os.path.join("margo", "runtime.py"), "bulk_transfer"
            ) / ops,
            "mercury.bulk_bytes_per_op": taps.bulk_bytes / ops,
            "storage.writes_per_op": taps.store_writes / ops,
            "storage.bytes_written_per_user_byte": (
                taps.store_bytes / user_bytes if user_bytes else 0.0
            ),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# isolated public-API timings, fed with what the workload really sent
# ----------------------------------------------------------------------
def _median_us(fn: Any, items: list, rounds: int) -> float:
    """Median host microseconds of ``fn(item)`` over ``rounds`` passes."""
    if not items:
        return 0.0
    samples = []
    clock = time.perf_counter
    for _ in range(rounds):
        for item in items:
            started = clock()
            fn(item)
            samples.append(clock() - started)
    return statistics.median(samples) * 1e6


def kernel_swarm_events_per_s() -> float:
    """The ``bench_kernel_swarm`` shape through ``SimKernel.spawn`` /
    ``schedule`` / ``run`` (median of five swarms of ~16 000 events)."""
    return statistics.median(
        _harness.once(lambda: _harness.bench_kernel_swarm(64, 200))["events_per_sec"]
        for _ in range(5)
    )


def estimate_size_us(taps: Taps) -> float:
    args = [value for _name, value in taps.sampled_args]
    rounds = max(1, -(-1000 // max(len(args), 1)))
    return _median_us(estimate_size, args, rounds)


def storage_write_us(taps: Taps) -> float:
    if not taps.write_sizes:
        return 0.0
    store = LocalStore(Node("ledger"))
    blobs = {size: bytes(size) for size in sorted(set(taps.write_sizes))}
    rounds = max(1, -(-1000 // len(taps.write_sizes)))
    return _median_us(lambda size: store.write("probe", blobs[size]), taps.write_sizes, rounds)


def yokan_backend_us_per_key(taps: Taps, backend_type: str) -> float:
    """``create_backend`` then put / get / put_multi / get_multi /
    list_keys directly, over the pairs the workload's Yokan RPCs
    carried; host microseconds per key, median of five passes."""
    pairs: dict[bytes, bytes] = {}
    for name, args in taps.sampled_args:
        if not name.startswith("yokan_") or not isinstance(args, dict):
            continue
        if "pairs" in args:
            pairs.update(args["pairs"])
        elif "keys" in args:
            pairs.update((key, b"v" * 56) for key in args["keys"])
        elif "key" in args:
            pairs[args["key"]] = args.get("value") or b"v" * 56
        if len(pairs) >= 4096:
            break
    if not pairs or not backend_type:
        return 0.0
    items = sorted(pairs.items())
    keys = [key for key, _value in items]
    config: dict[str, Any] = {}
    if backend_type == "persistent":
        config = {"store": LocalStore(Node("ledger")), "path": "probe.db"}
    clock = time.perf_counter
    samples = []
    for _ in range(5):
        backend = create_backend(backend_type, dict(config))
        started = clock()
        for key, value in items:
            backend.put(key, value)
        for key in keys:
            backend.get(key)
        for start in range(0, len(items), 128):
            backend.put_multi(items[start:start + 128])
            backend.get_multi(keys[start:start + 128])
        after = None
        while True:
            page = backend.list_keys(b"", after, 128)
            if not page:
                break
            after = page[-1]
        samples.append((clock() - started) / (5 * len(items)))
    return statistics.median(samples) * 1e6
