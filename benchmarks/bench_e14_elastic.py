"""E14 -- section 6: elasticity under a bursty workload.

A KV service starts at one process.  A CPU-heavy query load arrives in a
burst; the introspection-driven elasticity manager (utilization
watermarks, Flux-style node allocation callbacks) scales the service out
during the burst and back in afterwards.  Measured: the utilization time
series, the scaling-event timeline, and -- against a static single-
process deployment -- the burst's completion time.
"""

import pytest

from repro import Cluster
from repro.core import (
    DynamicService,
    ElasticityPolicy,
    ProcessSpec,
    ServiceController,
    ServiceSpec,
)
from repro.margo import Compute
from repro.margo.ult import UltSleep
from repro.ssg import SwimConfig

from common import print_table, save_results

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)
BURST_START = 2.0
BURST_END = 14.0
RUN_FOR = 30.0
N_WORKERS = 6
QUERY_COST = 0.004


def kv_process(name, node):
    return ProcessSpec(
        name=name,
        node=node,
        config={
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [
                {"name": f"remi-{name}", "type": "remi", "provider_id": 0},
                {"name": f"db-{name}", "type": "yokan", "provider_id": 1,
                 "config": {"database": {"type": "persistent"}}},
            ],
        },
    )


def run_trial(elastic: bool):
    cluster = Cluster(seed=121)
    spec = ServiceSpec(
        name="svc", processes=[kv_process("svc0", "n0")], group="svc-g", swim=SWIM
    )
    service = DynamicService.deploy(cluster, spec)

    # Register the expensive-query RPC on every (current and future)
    # service process.
    def register_query(margo):
        def handler(ctx):
            yield Compute(QUERY_COST)
            return None

        margo.register("query", handler)

    register_query(service.processes["svc0"].margo)

    free_nodes = [f"spare{i}" for i in range(3)]
    controller = None
    decisions = []  # the whole history: the ring keeps only the last ones
    if elastic:
        controller = ServiceController(
            service,
            ("watermark",),
            period=1.0,
            elasticity=ElasticityPolicy(
                high_watermark=0.6,
                low_watermark=0.05,
                patience=1,
                max_processes=4,
            ),
            allocate_node=lambda: free_nodes.pop(0) if free_nodes else None,
            release_node=free_nodes.append,
            make_process_spec=kv_process,
        )
        controller.on_decision.append(decisions.append)
        controller.start()

        # New processes must also serve the query RPC.
        original_grow = service.grow

        def grow_and_register(proc_spec):
            managed = yield from original_grow(proc_spec)
            register_query(managed.margo)
            return managed

        service.grow = grow_and_register  # type: ignore[method-assign]

    app = cluster.add_margo("app", node="napp")
    completed = {"count": 0}

    def worker():
        while cluster.now < BURST_END:
            if cluster.now < BURST_START:
                yield UltSleep(BURST_START - cluster.now)
                continue
            # Spread queries over whatever processes currently exist.
            targets = service.addresses
            target = targets[completed["count"] % len(targets)]
            try:
                yield from app.forward(target, "query", timeout=2.0)
                completed["count"] += 1
            except Exception:
                yield UltSleep(0.05)

    for _ in range(N_WORKERS):
        cluster.spawn(app, worker())
    cluster.run(until=RUN_FOR)
    if controller is not None:
        controller.stop()
    events = [d for d in decisions if d["kind"] in ("scale_out", "scale_in")]
    outs = sum(1 for e in events if e["kind"] == "scale_out")

    return {
        "deployment": "elastic" if elastic else "static-1",
        "completed_queries": completed["count"],
        "peak_processes": 1 + min(outs, 1) if controller else 1,
        "scale_out_events": outs,
        "scale_in_events": len(events) - outs,
        "final_processes": len(service.processes),
        "events": [
            {"t": e["time"], "kind": e["kind"][len("scale_"):],
             "process": e["process"]}
            for e in events
        ],
        "load_history": [
            [d["time"], d["load"]] for d in decisions if d["kind"] == "watermark"
        ],
    }


def run_experiment():
    static = run_trial(elastic=False)
    elastic = run_trial(elastic=True)
    return [static, elastic]


def test_e14_elastic_burst(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    display = [
        {k: v for k, v in row.items() if k not in ("events", "load_history")}
        for row in rows
    ]
    print_table("E14: bursty load, static vs elastic", display)
    for event in rows[1]["events"]:
        print(f"  t={event['t']:7.2f}s  scale-{event['kind']}  {event['process']}")
    save_results("E14_elastic", {"rows": rows})

    static, elastic = rows
    # The manager scaled out during the burst and back in afterwards.
    assert elastic["scale_out_events"] >= 1
    assert elastic["scale_in_events"] >= 1
    assert elastic["final_processes"] == 1
    out_times = [e["t"] for e in elastic["events"] if e["kind"] == "out"]
    in_times = [e["t"] for e in elastic["events"] if e["kind"] == "in"]
    assert all(BURST_START <= t <= BURST_END + 2.0 for t in out_times)
    assert all(t > min(out_times) for t in in_times)
    # Elastic serviced more of the burst than the static deployment.
    assert elastic["completed_queries"] > static["completed_queries"] * 1.3
