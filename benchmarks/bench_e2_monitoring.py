"""E2 -- section 4: monitoring "at no engineering cost", and at what
runtime cost.

An echo-RPC storm runs five ways: no monitoring, the default
StatisticsMonitor (Listing 1), a full CallbackMonitor subscribed to
every hook, statistics plus the distributed tracer, and statistics plus
the periodic sampler, which tracks the server's pool size and in-flight
RPCs.  The experiment reports simulated completion time and the
collected statistics' / spans' / samples' fidelity.  The claim being validated: monitoring is cheap enough
to be always-on (small single-digit-percent overhead), the Listing-1
document is produced with zero component changes, and full per-RPC
tracing stays within the same budget.
"""

import pytest

from repro import Cluster
from repro.monitoring import CallbackMonitor, HOOK_NAMES, PeriodicSampler, StatisticsMonitor

from common import print_table, save_results

N_RPCS = 1500
#: Simulated seconds between two samples of the sampler row (the storm
#: lasts about 9 ms).
SAMPLE_PERIOD = 1e-4


def run_storm(monitor_kind: str):
    config = None
    monitors = ()
    monitor = None
    counter = {"events": 0}
    if monitor_kind == "statistics":
        monitor = StatisticsMonitor()
        monitors = (monitor,)
    elif monitor_kind == "callbacks-all-hooks":
        def count(**kwargs):
            counter["events"] += 1

        monitors = (CallbackMonitor({name: count for name in HOOK_NAMES}),)
    elif monitor_kind == "statistics+tracing":
        monitor = StatisticsMonitor()
        monitors = (monitor,)
        config = {"observability": {"tracing": True}}
    elif monitor_kind == "statistics+sampler":
        monitor = StatisticsMonitor()
        monitors = (monitor,)
    cluster = Cluster(seed=102)
    server = cluster.add_margo("server", node="n0", config=config, monitors=monitors)
    client = cluster.add_margo("client", node="n1", config=config, monitors=monitors)
    server.register("echo", lambda ctx: ctx.args)
    sampler = None
    if monitor_kind == "statistics+sampler":
        sampler = PeriodicSampler(server, period=SAMPLE_PERIOD)
        sampler.start()

    def driver():
        for i in range(N_RPCS):
            yield from client.forward(server.address, "echo", i)

    cluster.run_ult(client, driver())
    spans = sum(len(t.spans) for t in cluster.tracers())
    row = {
        "monitoring": monitor_kind,
        "rpcs": N_RPCS,
        "simulated_seconds": cluster.now,
        "hook_events": counter["events"],
        "spans": spans,
    }
    if sampler is not None:
        sampler.stop()
        pool = sampler.pool_size_stats("__primary__")
        inflight = sampler.inflight_stats("incoming")
        row.update(
            samples=len(sampler.samples),
            pool_size_avg=pool.avg,
            pool_size_max=pool.max,
            inflight_incoming_avg=inflight.avg,
            inflight_incoming_max=inflight.max,
        )
    return row, monitor


def run_experiment():
    rows = []
    stats_monitor = None
    for kind in ("off", "statistics", "callbacks-all-hooks", "statistics+tracing", "statistics+sampler"):
        row, monitor = run_storm(kind)
        if kind == "statistics":
            stats_monitor = monitor
        rows.append(row)
    base = rows[0]["simulated_seconds"]
    for row in rows:
        row["overhead_pct"] = 100.0 * (row["simulated_seconds"] / base - 1.0)
    return rows, stats_monitor


def test_e2_monitoring_overhead(benchmark):
    rows, stats_monitor = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table("E2: monitoring overhead (echo storm)", rows)
    save_results("E2_monitoring", {"rows": rows})

    # Shape: monitoring costs something but stays single-digit percent.
    assert rows[1]["simulated_seconds"] > rows[0]["simulated_seconds"]
    assert rows[1]["overhead_pct"] < 10.0
    assert rows[2]["overhead_pct"] < 10.0
    assert rows[2]["hook_events"] > 0

    # Tracing rides the same hook path: every RPC materializes its
    # client- and server-side spans, still within the overhead budget.
    traced = rows[3]
    assert traced["overhead_pct"] < 10.0
    # forward (client) + queue/handler/respond (server) per RPC.
    assert traced["spans"] == 4 * N_RPCS

    # The sampler observes from a kernel timer: it charges no stream, so
    # the storm takes exactly as long as with statistics alone, and it
    # saw the server both idle and running the echo handler.
    sampled = rows[4]
    assert sampled["simulated_seconds"] == rows[1]["simulated_seconds"]
    assert sampled["samples"] == int(sampled["simulated_seconds"] / SAMPLE_PERIOD) + 1
    assert sampled["inflight_incoming_max"] == 1.0

    # Fidelity: the Listing-1 document accounts for every RPC, at no
    # engineering cost to the echo "component".
    (record,) = stats_monitor.find_by_name("echo")
    origin = record["origin"][next(iter(record["origin"]))]
    target = record["target"][next(iter(record["target"]))]
    assert origin["forward"]["num"] == N_RPCS
    assert target["ult"]["duration"]["num"] == N_RPCS
    assert target["ult"]["duration"]["max"] >= target["ult"]["duration"]["avg"]
