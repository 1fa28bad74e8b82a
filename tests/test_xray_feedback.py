"""mochi-xray -> ServiceController, end to end.

Acceptance scenario (ISSUE 10): a service runs with a deliberately
under-provisioned pool; the controller reads the xray plane's what-if
ranking over a Bedrock ``$__xray__`` query, applies the top-ranked
``add_xstream`` action, and on the next cycle records the *realized*
p99 improvement next to the prediction.  The realized improvement must
be at least ``REALIZATION_FACTOR`` of the predicted one -- the factor
documented in DESIGN.md section 11 (the prediction is conservative for
queueing bottlenecks, so the realized win is usually larger).
"""

import json

import pytest

from repro import Cluster
from repro.core import (
    DynamicService,
    ProcessSpec,
    ServiceController,
    ServiceSpec,
)
from repro.margo.ult import Compute, UltSleep

#: Documented lower bound on realized/predicted improvement (DESIGN.md
#: section 11): the what-if model ignores second-order queue draining,
#: so realized improvements land at or above roughly half the
#: prediction; below this the prediction would be misleading.
REALIZATION_FACTOR = 0.25

OBS = {
    "tracing": False,
    "profiling": True,
    "profile_window": 0.05,
    "xray": True,
}

SRV_MARGO = {
    "argobots": {
        "pools": [{"name": "__primary__"}, {"name": "hot"}],
        "xstreams": [
            {"name": "__primary__", "scheduler": {"pools": ["__primary__"]}},
            {"name": "hot_es", "scheduler": {"pools": ["hot"]}},
        ],
    },
    "observability": dict(OBS),
}


def deploy(cluster):
    spec = ServiceSpec(
        name="xsvc",
        processes=[ProcessSpec(name="srv", node="n0", config={"margo": SRV_MARGO})],
    )
    service = DynamicService.deploy(cluster, spec)
    margo = service.processes["srv"].margo

    def handler(ctx):
        yield Compute(30e-6)
        return ctx.args

    margo.register("work", handler, pool="hot")
    return service, margo


def burst_load(cluster, client, address, stop):
    """Bursts of 10 concurrent RPCs every 1 ms: within a burst the
    single hot_es xstream serializes the handlers, so tail requests
    queue -- the injected sched bottleneck."""

    def request(tag):
        yield from client.forward(address, "work", tag)

    def driver():
        while not stop["flag"]:
            for i in range(10):
                cluster.spawn(client, request(i))
            yield UltSleep(1e-3)

    return driver


def run_scenario(seed=23, cycles=6):
    cluster = Cluster(seed=seed)
    service, margo = deploy(cluster)
    client = cluster.add_margo("cli", node="n0", config={"observability": dict(OBS)})
    stop = {"flag": False}
    cluster.spawn(client, burst_load(cluster, client, margo.address, stop)())
    controller = ServiceController(
        service, ("rebalance", "xray"), period=0.1, smoothing=2
    )
    cluster.spawn(service.control, controller.run(cycles=cycles))
    cluster.run(until=0.1 * cycles + 0.05)
    stop["flag"] = True
    cluster.run(until=cluster.now + 0.01)
    return cluster, service, controller


def test_controller_applies_top_action_and_records_realized():
    cluster, service, controller = run_scenario()
    decisions = list(controller.decisions)
    xray_docs = [d["xray"] for d in decisions if d.get("xray")]
    assert xray_docs, "controller never saw an xray window"

    # The ranking blames the under-provisioned pool.
    tops = [doc["top_action"] for doc in xray_docs if doc["top_action"]]
    assert tops
    first = tops[0]
    assert first["action"] == "add_xstream"
    assert first["target"] == "hot"
    assert first["process"] == "srv"
    assert first["predicted_improvement"] >= 0.05

    # Exactly one application (a pending prediction blocks re-applying
    # until it resolves, and the resolved bottleneck stops ranking #1).
    applied = [d for d in decisions if d.get("xray", {}) and "applied" in d["xray"]]
    assert applied
    doc = applied[0]["xray"]
    assert doc["applied"]["pool"] == "hot"
    # The xstream really exists on the server now.
    assert doc["applied"]["name"] in service.processes["srv"].margo.xstreams

    # Predicted-vs-realized delta recorded on the SAME decision.
    assert "realized_p99" in doc
    assert doc["realized_p99"] > 0
    predicted = doc["top_action"]["predicted_improvement"]
    realized = doc["realized_improvement"]
    assert realized >= REALIZATION_FACTOR * predicted, (
        f"realized {realized:.3f} below documented factor "
        f"{REALIZATION_FACTOR} of predicted {predicted:.3f}"
    )


def test_controller_without_apply_only_recommends():
    cluster = Cluster(seed=23)
    service, margo = deploy(cluster)
    client = cluster.add_margo("cli", node="n0", config={"observability": dict(OBS)})
    stop = {"flag": False}
    cluster.spawn(client, burst_load(cluster, client, margo.address, stop)())
    controller = ServiceController(service, ("rebalance",), period=0.1, smoothing=2)
    cluster.spawn(service.control, controller.run(cycles=3))
    cluster.run(until=0.4)
    stop["flag"] = True
    cluster.run(until=cluster.now + 0.01)
    docs = [d["xray"] for d in controller.decisions if d.get("xray")]
    assert docs
    assert any(doc["top_action"] for doc in docs)
    assert all("applied" not in doc for doc in docs)
    # Only the one baked-in xstream serves the hot pool.
    assert sorted(service.processes["srv"].margo.xstreams) == [
        "__primary__",
        "hot_es",
    ]


def test_decision_trace_with_xray_is_deterministic():
    _c1, _s1, first = run_scenario(seed=29, cycles=4)
    _c2, _s2, second = run_scenario(seed=29, cycles=4)
    a = json.dumps(list(first.decisions), sort_keys=True)
    b = json.dumps(list(second.decisions), sort_keys=True)
    assert a == b


def test_no_xray_processes_leaves_decisions_unchanged():
    cluster = Cluster(seed=5)
    spec = ServiceSpec(
        name="plain",
        processes=[
            ProcessSpec(
                name="p0",
                node="n0",
                config={
                    "margo": {
                        "observability": {"profiling": True, "profile_window": 0.1}
                    }
                },
            )
        ],
    )
    service = DynamicService.deploy(cluster, spec)
    controller = ServiceController(service, ("rebalance",), period=0.1, smoothing=1)
    cluster.spawn(service.control, controller.run(cycles=2))
    cluster.run(until=0.5)
    assert all(d["xray"] is None for d in controller.decisions)
