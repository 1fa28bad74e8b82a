"""Shared wall-clock measurement harness (``bench_overhead.py`` and
``benchmarks/e2e`` both import it).

Two disciplines:

* :func:`once` -- one GC-quiesced run, for *absolute* costs.

* :func:`run_rounds` + :func:`paired_ratio` -- palindrome-ordered paired
  rounds for *relative* claims (on/off overheads, off-path gates).  Every
  round runs each arm twice in ABCD-DCBA order, so each arm's two
  position indices sum to the same value: drift that is linear across the
  round (frequency ramps, a background job spinning up) contributes
  equally to every arm and cancels out of the per-round ratios.  The base
  order also rotates per round so nonlinear position effects do not keep
  landing on the same arm.  Gates compare the *median* of per-round
  ratios, robust to the odd descheduled round; sequential best-of blocks
  drift with machine load and have produced >5-point phantom overheads
  on shared runners.  Every enforced gate is computed from arms of the
  same run, never against a number pinned on another machine.

The two workload shapes (kernel callback swarm + timer fan, echo RPC) also
live here so every measurement uses the identical workload.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- this harness measures real wall-clock
# throughput of the simulator itself; time.perf_counter here reads the host
# clock on purpose and never runs under the kernel.

import gc
import time


# ----------------------------------------------------------------------
# measurement primitives
# ----------------------------------------------------------------------
def once(fn):
    """Run ``fn`` once with the GC quiesced (collection pauses land
    between measurements, not inside them)."""
    gc.collect()
    gc.disable()
    try:
        return fn()
    finally:
        gc.enable()


def median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def run_rounds(repeats: int, arms: dict) -> tuple[dict, list]:
    """Run every arm twice per round (palindrome order); keep each arm's
    best stats plus the summed per-round wall times.

    Interleaving is load-bearing for the gates: the comparison must see
    the same machine conditions in every arm, and sequential best-of
    blocks do not (load drift between blocks reads as phantom overhead).
    The per-round walls feed paired ratios in :func:`paired_ratio`.
    """
    best: dict = {}
    rounds: list = []
    names = list(arms)
    for index in range(repeats):
        shift = index % len(names)
        order = names[shift:] + names[:shift]
        walls = dict.fromkeys(names, 0.0)
        for name in order + order[::-1]:
            stats = once(arms[name])
            walls[name] += stats["wall_s"]
            if name not in best or stats["wall_s"] < best[name]["wall_s"]:
                best[name] = stats
        rounds.append(walls)
    return best, rounds


def paired_ratio(rounds: list, arm: str, base: str) -> float:
    """Median over rounds of (arm wall / base wall), both from the same
    round: machine drift cancels within a pair, and the median is robust
    to the odd descheduled round."""
    return median([walls[arm] / walls[base] for walls in rounds])


# ----------------------------------------------------------------------
# the shared workload shapes
# ----------------------------------------------------------------------
OBS_OFF = {"observability": {"tracing": False, "metrics": False}}


def bench_kernel_swarm(n_tasks: int, n_steps: int) -> dict:
    """The kernel workload: a swarm of self-posting callbacks plus a
    same-timestamp timer fan, run until the queue drains.

    A synthetic shape, not a deployment's: ``n_tasks`` callbacks that
    each post themselves ``n_steps`` times, plus bursts of
    ``n_tasks // 4`` timers on identical deadlines.  Such bursts are
    rare in the e2e workloads (under 1 % of events join a deadline
    already queued, EXPERIMENTS.md), so this rate measures the kernel
    under a tie-heavy load and does not predict ``wall_us_per_rpc``.
    """
    from repro.sim.kernel import SimKernel

    kernel = SimKernel()

    def worker(state: tuple) -> None:
        i, step = state
        if step < n_steps:
            kernel.post(1e-6 * ((i + step) % 7 + 1), worker, (i, step + 1))

    for i in range(n_tasks):
        kernel.post(0.0, worker, (i, 0))
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    for burst in range(n_steps):
        for _ in range(n_tasks // 4):
            kernel.schedule(1e-6 * (burst + 1), tick)

    started = time.perf_counter()
    kernel.run()
    wall = time.perf_counter() - started
    events = kernel._seq  # every post()/schedule() is exactly one queue event
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
        "sim_time": kernel.now,
    }


def bench_rpc_echo(n_rpcs: int, config: dict, health: bool = False) -> dict:
    """The RPC workload: end-to-end echo RPCs through ``forward()``
    -> progress loop -> handler ULT -> response, with the chosen
    observer mix."""
    from repro import Cluster
    from repro.margo import Compute
    from repro.mercury import NULL_PROVIDER

    cluster = Cluster(seed=7)
    server = cluster.add_margo("server", node="n0", config=dict(config))
    client = cluster.add_margo("client", node="n1", config=dict(config))
    if health:
        cluster.enable_health()

    def handler(ctx):
        yield Compute(1e-6)
        return ctx.args

    server.register("echo", handler)

    def driver():
        for i in range(n_rpcs):
            yield from client.forward(server.address, "echo", i)
        return None

    started = time.perf_counter()
    cluster.run_ult(client, driver())
    wall = time.perf_counter() - started
    stats = {
        "rpcs": n_rpcs,
        "wall_s": wall,
        "rpcs_per_sec": n_rpcs / wall,
        "sim_time": cluster.now,
        "health": health,
        "profiled": bool(config.get("observability", {}).get("profiling")),
    }
    if health:
        stats["recorder_events"] = cluster.health.recorder.recorded
    if cluster.tracers():
        stats["spans"] = sum(len(tracer.spans) for tracer in cluster.tracers())
    if stats["profiled"]:
        stats["windows_closed"] = len(server.profiler.store.windows)
        # Requests the client decomposed: the ``total`` counts of its
        # rollup, closed windows and the open one.  A list, not a
        # generator, so the count costs no Python call per window.
        store, key = client.profiler.store, f"echo/{NULL_PROVIDER}"
        totals = [w["rpc"][key]["total"]["count"] for w in store.windows if key in w["rpc"]]
        current = store.current.phases.get((key, "total"))
        stats["decomposed"] = sum(totals) + (current.count if current else 0)
        plane = getattr(cluster.kernel, "xray_plane", None)
        if plane is not None:
            stats["xray_paths"] = len(plane.recent)
            stats["xray_windows"] = len(plane.windows)
    return stats
