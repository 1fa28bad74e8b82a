"""The monitor -> decide -> reconfigure loop, end to end.

Acceptance scenario: a deliberately hot provider runs with profiling
enabled; the :class:`ServiceController`'s rebalance policy detects the imbalance
from *measured* windows (no hand-fed loads), triggers ``plan_rebalance``,
the migration executes, and the post-migration measurements show
``load_imbalance`` strictly improved -- fully deterministically."""

import json

import pytest

from repro import Cluster
from repro.core import (
    DynamicService,
    ProcessSpec,
    ServiceController,
    ServiceSpec,
)
from repro.margo.errors import MargoError, RpcError
from repro.margo.ult import UltSleep
from repro.pufferscale import Objective
from repro.ssg import SwimConfig
from repro.yokan import YokanClient

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)
OBSERVABILITY = {
    "profiling": True,
    "profile_window": 0.2,
}


def kv_process(name, node, dbs):
    providers = [{"name": f"remi-{name}", "type": "remi", "provider_id": 0}]
    for d in range(dbs):
        providers.append(
            {
                "name": f"db-{name}-{d}",
                "type": "yokan",
                "provider_id": d + 1,
                "config": {"database": {"type": "persistent"}},
            }
        )
    return ProcessSpec(
        name=name,
        node=node,
        config={
            "margo": {"observability": dict(OBSERVABILITY)},
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": providers,
        },
    )


def hot_service(cluster, fill=True):
    """kv0 holds both databases (and all the load); kv1 holds none."""
    spec = ServiceSpec(
        name="kvsvc",
        processes=[kv_process("kv0", "n0", 2), kv_process("kv1", "n1", 0)],
        group="kvsvc-g",
        swim=SWIM,
    )
    service = DynamicService.deploy(cluster, spec)
    yokan = YokanClient(service.control)

    if fill:

        def fill_dbs():
            for provider_id in (1, 2):
                db = yokan.make_handle(service.processes["kv0"].address, provider_id)
                yield from db.put_multi([(f"k{i}", "x" * 200) for i in range(40)])

        service.run_control(fill_dbs())
    return service, yokan


def hammer(service, yokan, stop, record_name, pause):
    """Continuously GET against ``record_name`` wherever it currently
    lives -- re-resolving the address each iteration, so the workload
    follows the provider across migrations."""
    while not stop["flag"]:
        target = None
        for process in service.processes.values():
            if process.alive and record_name in process.bedrock.records:
                record = process.bedrock.records[record_name]
                target = (process.address, record.provider_id)
                break
        if target is None:  # mid-migration: provider between processes
            yield UltSleep(pause)
            continue
        db = yokan.make_handle(*target)
        try:
            yield from db.get("k3")
        except (MargoError, RpcError):
            pass  # handler raced a migration; the next resolve recovers
        yield UltSleep(pause)


def run_feedback_scenario(seed=61, cycles=10):
    cluster = Cluster(seed=seed)
    service, yokan = hot_service(cluster)
    stop = {"flag": False}
    for record_name, pause in (("db-kv0-0", 0.002), ("db-kv0-1", 0.004)):
        cluster.spawn(service.control, hammer(service, yokan, stop, record_name, pause))
    controller = ServiceController(
        service,
        ("rebalance",),
        objective=Objective(alpha=1.0, beta=0.0, gamma=0.0),
        period=0.5,
        smoothing=2,
    )
    cluster.spawn(service.control, controller.run(cycles=cycles))
    cluster.run(until=0.5 * cycles + 1.0)
    stop["flag"] = True
    cluster.run(until=cluster.now + 0.5)
    return service, controller


# ----------------------------------------------------------------------
# the acceptance scenario
# ----------------------------------------------------------------------
def test_feedback_loop_detects_and_fixes_hot_provider():
    service, controller = run_feedback_scenario()
    decisions = list(controller.decisions)
    assert len(decisions) == 10

    # The controller detected the imbalance from measured windows and
    # triggered exactly one rebalance.
    triggered = [d for d in decisions if d["triggered"]]
    assert len(triggered) == 1
    trigger = triggered[0]
    assert trigger["load_imbalance"] > 1.5
    assert trigger["moves"]  # plan_rebalance produced real migrations
    assert all(m["source"] == "kv0" and m["destination"] == "kv1"
               for m in trigger["moves"])
    # Every decision is attributed to the profile windows that fed it.
    assert trigger["windows"]["kv0"] is not None

    # The migration actually executed: kv1 now hosts a database.
    moved = [
        r for r in service.processes["kv1"].bedrock.records.values()
        if r.type_name == "yokan"
    ]
    assert moved

    # Post-migration measurements show strictly improved load imbalance,
    # and the loop converged (no further triggers).
    after = [d for d in decisions if d["cycle"] > trigger["cycle"]]
    assert after
    assert all(d["load_imbalance"] < trigger["load_imbalance"] for d in after)
    assert all(not d["triggered"] for d in after)
    # Post-migration load is genuinely measured on both nodes.
    assert after[-1]["loads"]["kv1"] > 0


def test_feedback_decision_trace_byte_identical():
    """Same seed, same scenario -> byte-identical decision trace."""

    def run():
        _service, controller = run_feedback_scenario(seed=61, cycles=6)
        return json.dumps(list(controller.decisions), sort_keys=True)

    assert run() == run()


# ----------------------------------------------------------------------
# controller unit behavior
# ----------------------------------------------------------------------
def test_controller_idle_guard():
    """With no measured load, the controller never triggers (a freshly
    deployed idle service must not be 'rebalanced')."""
    cluster = Cluster(seed=62)
    service, _yokan = hot_service(cluster, fill=False)
    controller = ServiceController(service, ("rebalance",), period=0.5, smoothing=2)
    cluster.spawn(service.control, controller.run(cycles=3))
    cluster.run(until=2.5)
    assert len(controller.decisions) == 3
    assert all(not d["triggered"] and not d["moves"] for d in controller.decisions)


def test_controller_decisions_ring_is_bounded():
    cluster = Cluster(seed=63)
    service, _yokan = hot_service(cluster, fill=False)
    controller = ServiceController(service, ("rebalance",), period=0.05, smoothing=1)
    cycles = controller.decisions.maxlen + 3
    cluster.spawn(service.control, controller.run(cycles=cycles))
    cluster.run(until=0.05 * cycles + 1.0)
    assert controller.counts["rebalance"] == cycles
    assert len(controller.decisions) == controller.decisions.maxlen  # not cycles
    assert controller.decisions[0]["cycle"] == 3


def test_measured_placement_uses_estimates():
    cluster = Cluster(seed=64)
    service, _yokan = hot_service(cluster)
    estimates = {
        "kv0": {"yokan:1": {"load": 10.0}, "yokan:2": {"load": 2.0}},
        "kv1": {},
    }
    placement = service.placement(estimates)
    assert placement.load_of("kv0") == 12.0
    assert placement.load_of("kv1") == 0.0
    # Unmeasured providers fall back to zero load, not synthetic counts.
    placement_empty = service.placement({})
    assert placement_empty.load_of("kv0") == 0.0
    # Without estimates, loads are the providers' request counts.
    assert service.placement().load_of("kv0") > 0.0


def test_controller_validation():
    cluster = Cluster(seed=65)
    service, _yokan = hot_service(cluster)
    with pytest.raises(ValueError, match="period"):
        ServiceController(service, ("rebalance",), period=0.0)
