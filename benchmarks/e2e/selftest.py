"""``--selftest``: does a slowdown in one layer show where it should?

For each layer, one of its public functions is made slower *from this
side* -- a busy-wait sized to add :data:`INJECTED_SHARE` of the target
workload's host time -- and four things are checked:

(a) the ledger charges the delay to that layer's ``self_us_per_op``;
(b) ``wall_us_per_rpc`` on the target workload worsens beyond its bound;
(c) a workload that never calls the function stays inside the bound;
(d) no ``sim_*`` metric and no count moves.

The delaying wrapper is compiled with the wrapped function's file name,
so that cProfile files it under the layer being slowed down: the test
simulates "this layer got slower", not "the harness got slower".
``Network.send``, ``Pool.push`` and ``estimate_size`` run on every RPC of
every workload, so they have no bypass workload and skip check (c).
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- host-time measurement on purpose.

import importlib
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import run as entry

#: share of the target workload's host time each injection adds: well
#: beyond the 25 % bound of wall_us_per_rpc, so that check (b) is not a
#: coin toss on a noisy machine.
INJECTED_SHARE = 0.60
#: the selftest runs shorter repetitions than a benchmark run.
SECONDS = 5.0
REPETITIONS = 3

_WRAPPER_SOURCE = """
def make(original, clock, delay):
    def WRAPPER(*args, **kwargs):
        end = clock() + delay
        while clock() < end:
            pass
        return original(*args, **kwargs)
    return WRAPPER
"""


@dataclass(frozen=True)
class Injection:
    layer: str
    module: str  # where the name is looked up at call time
    owner: Optional[str]  # class inside the module, or None for a module global
    attribute: str
    target: str  # workload that must feel it
    bypass: Optional[str]  # workload that must not


INJECTIONS = (
    Injection("sim.network", "repro.sim.network", "Network", "send", "rpc_echo", None),
    Injection("margo.sched", "repro.margo.pool", "Pool", "push", "rpc_echo", None),
    # forward() and the handler body call the name bound in the runtime
    # module; the recursive walk inside serialization.py is left alone.
    Injection("mercury", "repro.margo.runtime", None, "estimate_size", "kv_batch_scan", None),
    Injection("yokan", "repro.yokan.backends.ordered", "OrderedBackend", "put_multi",
              "kv_batch_scan", "rpc_echo"),
    Injection("storage", "repro.storage.local", "LocalStore", "write",
              "objstore_mixed", "rpc_echo"),
    Injection("remi", "repro.remi.client", "RemiClient", "migrate_files",
              "reconfig_churn", "rpc_echo"),
)


def _holder(injection: Injection) -> Any:
    module = importlib.import_module(injection.module)
    return getattr(module, injection.owner) if injection.owner else module


def _wrapper_name(injection: Injection) -> str:
    return f"selftest_delay_{injection.attribute}"


@contextmanager
def slowed(injection: Injection, delay_s: float) -> Iterator[None]:
    """Install the delaying wrapper for the duration of the block (a
    delay of 0 makes it a call counter: see :func:`wrapper_calls`)."""
    holder = _holder(injection)
    original = getattr(holder, injection.attribute)
    namespace: dict[str, Any] = {}
    source = _WRAPPER_SOURCE.replace("WRAPPER", _wrapper_name(injection))
    exec(compile(source, original.__code__.co_filename, "exec"), namespace)
    setattr(holder, injection.attribute, namespace["make"](original, time.perf_counter, delay_s))
    try:
        yield
    finally:
        setattr(holder, injection.attribute, original)


def wrapper_calls(stats: dict, injection: Injection) -> int:
    """Calls of the injected function during the traced timed phase,
    read off its wrapper's pstats row.  (The function's own row will not
    do: cProfile counts every resumption of a generator as a call.)"""
    name = _wrapper_name(injection)
    return sum(nc for (_file, _line, func), (_cc, nc, _tt, _ct, _callers) in stats.items()
               if func == name)


def measure(name: str, seed: int, contract: dict, trace: bool) -> tuple[dict, Optional[dict]]:
    workload = entry.make_workload(name)
    inputs = workload.generate(seed, entry.operations_for(workload, SECONDS))
    return entry.measure_run(workload, inputs, contract, trace, repetitions=REPETITIONS)


def main(contract: dict, seed: int, only: str = "all") -> int:
    """Run every injection, or only those aimed at workload ``only``."""
    injections = [i for i in INJECTIONS if only in ("all", i.target)]
    bound = next(e["bound"] for e in contract["end_to_end"] if e["name"] == "wall_us_per_rpc")
    baselines: dict[str, tuple[dict, dict]] = {}
    failures: list[str] = []

    def baseline(name: str) -> tuple[dict, dict]:
        """The workload with a zero-delay wrapper on each function that
        will be slowed on it: same call overhead as the slowed runs, and
        the wrappers' pstats rows count the calls."""
        if name not in baselines:
            print(f"selftest: baseline {name}", file=sys.stderr)
            with ExitStack() as stack:
                for injection in injections:
                    if injection.target == name:
                        stack.enter_context(slowed(injection, 0.0))
                baselines[name] = measure(name, seed, contract, trace=True)
        return baselines[name]

    def check(ok: bool, label: str, detail: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}: {detail}")
        if not ok:
            failures.append(f"{label}: {detail}")

    bypass_delays: dict[str, list[tuple[Injection, float]]] = {}
    for injection in injections:
        base, stats = baseline(injection.target)
        calls = wrapper_calls(stats, injection)
        ops = base["attempted"]
        raw_s_per_op = 1.0 / base["harness"]["harness.raw_ops_per_s"]
        print(f"== slow {injection.layer} via {injection.attribute} on {injection.target} ==")
        if not calls:
            check(False, "calls", f"{injection.attribute} is never called on {injection.target}")
            continue
        delay = INJECTED_SHARE * raw_s_per_op * ops / calls
        injected_us_per_op = delay * calls / ops * 1e6
        with slowed(injection, delay):
            slow, _slow_stats = measure(injection.target, seed, contract, trace=True)
        key = f"{injection.layer}.self_us_per_op"
        moved = {
            name: slow["per_layer"][name]["value"] - base["per_layer"][name]["value"]
            for name in slow["per_layer"]
            if name.endswith(".self_us_per_op")
        }
        most = max(moved, key=moved.get)
        check(
            most == key and moved[key] >= 0.5 * injected_us_per_op,
            "(a) attribution",
            f"injected {injected_us_per_op:.1f} us/op; {key} moved {moved[key]:+.1f}, "
            f"largest mover {most} {moved[most]:+.1f}",
        )
        before = base["end_to_end"]["wall_us_per_rpc"]["value"]
        after = slow["end_to_end"]["wall_us_per_rpc"]["value"]
        check(
            after > before * (1.0 + bound),
            "(b) target worsens",
            f"wall_us_per_rpc {before:.2f} -> {after:.2f} ({after / before - 1:+.1%}, "
            f"bound {bound:.0%})",
        )
        check(
            slow["exact"] == base["exact"],
            "(d) simulated metrics and counts",
            "identical" if slow["exact"] == base["exact"] else "moved",
        )
        if injection.bypass:
            bypass_delays.setdefault(injection.bypass, []).append((injection, delay))

    for name, delays in bypass_delays.items():
        base, _stats = baseline(name)
        layers = ", ".join(injection.layer for injection, _delay in delays)
        print(f"== bypass: {name} with {layers} slowed ==")
        with ExitStack() as stack:
            for injection, delay in delays:
                stack.enter_context(slowed(injection, delay))
            slow, _slow_stats = measure(name, seed, contract, trace=False)
        before = base["end_to_end"]["wall_us_per_rpc"]["value"]
        after = slow["end_to_end"]["wall_us_per_rpc"]["value"]
        check(
            abs(after / before - 1.0) <= bound,
            "(c) bypass unchanged",
            f"wall_us_per_rpc {before:.2f} -> {after:.2f} ({after / before - 1:+.1%}, "
            f"bound {bound:.0%})",
        )
        check(slow["exact"] == base["exact"], "(d) simulated metrics and counts",
              "identical" if slow["exact"] == base["exact"] else "moved")

    print(f"selftest: {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failed check{'s' if len(failures) != 1 else ''})")
    for line in failures:
        print("  " + line)
    return 1 if failures else 0

