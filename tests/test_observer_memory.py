"""Observer state stays bounded on a long-lived service (paper section 4).

The echo rig runs every observer: the Listing-1 StatisticsMonitor on
both ends, tracing at rate 1 under ``max_spans``, metrics, the profiler
with xray on every request and a short window, an SLO that always
burns, and the health plane.  Every ring is patched to one entry, so
each fills during warm-up; then two equal rounds of RPCs must leave
``tracemalloc``'s live bytes within a few bytes per RPC."""

import gc
import tracemalloc

from repro import Cluster
from repro.margo import Compute
from repro.mercury import NULL_PROVIDER
from repro.monitoring import StatisticsMonitor
from repro.observability.health import incidents, recorder, slo
from repro.observability.profile import profiler
from repro.observability.xray import plane

ROUND = 1000
#: Growth a bounded stack shows between rounds (allocator noise and
#: windows caught mid-fill); one kept request costs hundreds of bytes.
BYTES_PER_RPC = 8

OBSERVERS = {
    "tracing": True, "max_spans": 64, "metrics": True,
    "profiling": True, "profile_window": 1e-4, "xray": True,
    "slos": [{"name": "echo-p99", "objective": "latency_p99",
              "target": f"echo/{NULL_PROVIDER}", "threshold": 1e-9}],
}


def test_every_observer_stops_growing_once_its_rings_fill(monkeypatch):
    for module, ring in ((profiler, "HISTORY"), (plane, "MAX_PATHS"), (recorder, "CAPACITY"),
                         (recorder, "MAX_DUMPS"), (incidents, "MAX_INCIDENTS"), (slo, "MAX_ALERTS")):
        monkeypatch.setattr(module, ring, 1)
    cluster = Cluster(seed=7)
    server = cluster.add_margo("server", node="n0", config={"observability": OBSERVERS})
    client = cluster.add_margo("client", node="n1", config={"observability": OBSERVERS})
    cluster.enable_health()
    for margo in (server, client):
        margo.add_monitor(StatisticsMonitor())

    def handler(ctx):
        yield Compute(1e-6)
        return ctx.args

    server.register("echo", handler)

    def live_bytes_after_a_round():
        def driver():
            for i in range(ROUND):
                yield from client.forward(server.address, "echo", i)

        cluster.run_ult(client, driver())
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    live_bytes_after_a_round()  # warm-up: every ring fills
    tracemalloc.start()
    try:
        # The first traced round replaces what warm-up left in the rings.
        before = live_bytes_after_a_round()
        growth = live_bytes_after_a_round() - before
    finally:
        tracemalloc.stop()
    assert growth < BYTES_PER_RPC * ROUND, f"{growth / ROUND:.0f} B per RPC"
    # Every plane really ran and its rings are full.
    assert client.tracer.dropped_spans > 0 and server.tracer.dropped_spans > 0
    assert len(server.profiler.store.windows) == 1
    assert len(cluster.xray_plane().recent) == 1
    assert client.slo_engine.alerts and cluster.health.incidents.incidents
