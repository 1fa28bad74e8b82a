"""Tests for the dynamic-service layer: deploy, grow/shrink, rebalance,
and the service controller's watermark, checkpoint and recovery policies."""

import pytest

from repro import Cluster
from repro.core import (
    DynamicService,
    ElasticityPolicy,
    ProcessSpec,
    ServiceController,
    ServiceError,
    ServiceSpec,
    SpecError,
)
from repro.pufferscale import Objective
from repro.ssg import SwimConfig
from repro.storage import ParallelFileSystem
from repro.yokan import YokanClient

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)


def kv_process(name, node, dbs=1):
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
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": providers,
        },
    )


def deploy(cluster, n=2, pfs=None):
    spec = ServiceSpec(
        name="kvsvc",
        processes=[kv_process(f"kv{i}", f"n{i}") for i in range(n)],
        group="kvsvc-g",
        swim=SWIM,
    )
    return DynamicService.deploy(cluster, spec, pfs=pfs)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(SpecError):
        ServiceSpec(name="", processes=[kv_process("a", "n")])
    with pytest.raises(SpecError):
        ServiceSpec(name="s", processes=[])
    with pytest.raises(SpecError):
        ServiceSpec(name="s", processes=[kv_process("a", "n"), kv_process("a", "m")])
    with pytest.raises(SpecError):
        ProcessSpec(name="", node="n")
    with pytest.raises(SpecError):
        ServiceSpec.from_json({"name": "s", "bogus": 1})


def test_spec_from_json_roundtrip():
    spec = ServiceSpec.from_json(
        {
            "name": "svc",
            "processes": [{"name": "p0", "node": "n0", "config": {}}],
            "group": "g",
        }
    )
    assert spec.name == "svc"
    assert spec.processes[0].node == "n0"
    assert spec.group == "g"


# ----------------------------------------------------------------------
# deployment
# ----------------------------------------------------------------------
def test_deploy_forms_group_and_serves():
    cluster = Cluster(seed=51)
    service = deploy(cluster, n=3)
    cluster.run(until=2.0)
    assert service.view().size == 3
    assert len(service.addresses) == 3
    cm = service.control
    db = YokanClient(cm).make_handle(service.processes["kv0"].address, 1)

    def driver():
        yield from db.put("k", "v")
        return (yield from db.get("k"))

    assert cluster.run_ult(cm, driver()) == b"v"


def test_service_config_document():
    cluster = Cluster(seed=51)
    service = deploy(cluster, n=2)

    def driver():
        doc = yield from service.service_config()
        return doc

    doc = service.run_control(driver())
    assert set(doc["processes"]) == {"kv0", "kv1"}
    provider_names = [p["name"] for p in doc["processes"]["kv0"]["providers"]]
    assert "db-kv0-0" in provider_names


# ----------------------------------------------------------------------
# elasticity: grow / shrink
# ----------------------------------------------------------------------
def test_grow_adds_member_to_group():
    cluster = Cluster(seed=52)
    service = deploy(cluster, n=2)
    cluster.run(until=2.0)

    def driver():
        yield from service.grow(kv_process("kv2", "n2"))

    service.run_control(driver())
    cluster.run(until=cluster.now + 15.0)
    assert service.view().size == 3
    assert "kv2" in service.processes


def test_grow_duplicate_rejected():
    cluster = Cluster(seed=52)
    service = deploy(cluster, n=2)

    def driver():
        yield from service.grow(kv_process("kv0", "nx"))

    with pytest.raises(ServiceError, match="already in service"):
        service.run_control(driver())


def test_shrink_migrates_data_then_leaves():
    cluster = Cluster(seed=53)
    service = deploy(cluster, n=3)
    cluster.run(until=2.0)
    cm = service.control
    db = YokanClient(cm).make_handle(service.processes["kv2"].address, 1)

    def fill():
        yield from db.put_multi([(f"k{i}", f"v{i}") for i in range(20)])

    service.run_control(fill())

    def shrink():
        target = yield from service.shrink("kv2")
        return target

    target_name = service.run_control(shrink())
    assert "kv2" not in service.processes
    # The data moved to the target and is still readable there.
    target = service.processes[target_name]
    migrated = target.bedrock.records["db-kv2-0"]
    assert migrated.instance.backend.get(b"k7") == b"v7"
    # The group eventually shrinks to 2.
    cluster.run(until=cluster.now + 20.0)
    assert service.view().size == 2


def test_shrink_last_process_rejected():
    cluster = Cluster(seed=53)
    service = deploy(cluster, n=1)

    def driver():
        yield from service.shrink("kv0")

    with pytest.raises(ServiceError, match="last process"):
        service.run_control(driver())


# ----------------------------------------------------------------------
# Pufferscale-driven rebalance
# ----------------------------------------------------------------------
def test_rebalance_moves_providers():
    cluster = Cluster(seed=54)
    # kv0 has 3 databases, kv1 has zero (besides REMI).
    spec = ServiceSpec(
        name="kvsvc",
        processes=[kv_process("kv0", "n0", dbs=3), kv_process("kv1", "n1", dbs=0)],
        group="kvsvc-g",
        swim=SWIM,
    )
    service = DynamicService.deploy(cluster, spec)
    cm = service.control
    yokan = YokanClient(cm)

    def fill():
        for provider_id in (1, 2, 3):
            db = yokan.make_handle(service.processes["kv0"].address, provider_id)
            yield from db.put_multi([(f"k{i}", "x" * 100) for i in range(50)])

    service.run_control(fill())

    def rebalance():
        plan = yield from service.rebalance(Objective(alpha=0.0, beta=1.0, gamma=0.0))
        return plan

    plan = service.run_control(rebalance())
    assert plan.num_moves >= 1
    kv1_dbs = [
        r for r in service.processes["kv1"].bedrock.records.values()
        if r.type_name == "yokan"
    ]
    assert kv1_dbs  # something moved over


# ----------------------------------------------------------------------
# ServiceController: watermark elasticity
# ----------------------------------------------------------------------
def test_elasticity_policy_validation():
    with pytest.raises(ValueError):
        ElasticityPolicy(high_watermark=1.0, low_watermark=2.0)
    with pytest.raises(ValueError):
        ElasticityPolicy(min_processes=0)
    cluster = Cluster(seed=54)
    service = deploy(cluster, n=1)
    with pytest.raises(ValueError, match="unknown policies"):
        ServiceController(service, ("elastic",))
    with pytest.raises(ValueError, match="make_process_spec"):
        ServiceController(service, ("watermark",))
    with pytest.raises(ValueError, match="allocate_node"):
        ServiceController(
            service, ("watermark",), release_node=print,
            make_process_spec=kv_process,
        )
    with pytest.raises(ValueError, match="rebalance"):
        ServiceController(service, ("xray",))


def elastic_controller(service, policy, free_nodes, period=1.0):
    return ServiceController(
        service,
        ("watermark",),
        period=period,
        elasticity=policy,
        allocate_node=lambda: free_nodes.pop(0) if free_nodes else None,
        release_node=free_nodes.append,
        make_process_spec=lambda name, node: kv_process(name, node),
    )


def kinds(controller):
    return [d["kind"] for d in controller.decisions]


def test_elasticity_manager_scales_out_under_load():
    cluster = Cluster(seed=55)
    service = deploy(cluster, n=1)
    free_nodes = [f"spare{i}" for i in range(3)]
    policy = ElasticityPolicy(
        high_watermark=0.5, low_watermark=0.01, patience=1, max_processes=3
    )
    controller = elastic_controller(service, policy, free_nodes)
    controller.start()
    # Sustained CPU-bound load on kv0 (e.g. expensive queries).
    from repro.margo import Compute

    kv0 = service.processes["kv0"].margo

    def heavy(ctx):
        yield Compute(0.005)
        return None

    kv0.register("heavy_query", heavy)
    cm = service.control

    def hammer():
        while cluster.now < 10.0:
            yield from cm.forward(kv0.address, "heavy_query")

    for _ in range(4):
        cluster.spawn(cm, hammer())
    cluster.run(until=8.0)  # while the load is still running
    assert "scale_out" in kinds(controller)
    assert len(service.processes) > 1
    # After the load stops, the idle policy scales back in.
    cluster.run(until=25.0)
    controller.stop()
    assert "scale_in" in kinds(controller)
    assert len(service.processes) == 1


def test_elasticity_manager_scales_in_when_idle():
    cluster = Cluster(seed=56)
    service = deploy(cluster, n=1)
    free_nodes = ["spare0"]
    policy = ElasticityPolicy(high_watermark=1000.0, low_watermark=0.5, patience=1)
    controller = elastic_controller(service, policy, free_nodes)
    # Manually grow an elastic process, then let the idle policy retire it.
    def grow():
        spec = kv_process(f"{service.spec.name}-elastic-1", free_nodes.pop(0))
        yield from service.grow(spec)

    service.run_control(grow())
    assert len(service.processes) == 2
    controller.start()
    cluster.run(until=15.0)
    controller.stop()
    assert "scale_in" in kinds(controller)
    assert len(service.processes) == 1
    assert free_nodes == ["spare0"]  # node returned to the resource manager


def churn_service(cluster):
    """One process, no group, no data: growing and shrinking is cheap."""
    spec = ServiceSpec(name="svc", processes=[kv_process("svc0", "n0", dbs=0)])
    return DynamicService.deploy(cluster, spec)


def scripted_load(controller, loads):
    """Replace the measured load with a script (the policy under test is
    the decision, not the measurement)."""
    measure = controller.current_load
    script = iter(loads)

    def current_load():
        measure()  # keep the busy snapshots moving
        return next(script)

    controller.current_load = current_load


def test_scale_in_retires_most_recently_added_first():
    """Past ten elastic processes, name order ("-elastic-9" after
    "-elastic-10") is not grow order; scale-in must follow grow order."""
    cluster = Cluster(seed=57)
    service = churn_service(cluster)
    free_nodes = [f"spare{i}" for i in range(12)]
    policy = ElasticityPolicy(
        high_watermark=0.5, low_watermark=0.1, patience=1, max_processes=13
    )
    controller = ServiceController(
        service, ("watermark",), period=0.1, elasticity=policy,
        allocate_node=lambda: free_nodes.pop(0) if free_nodes else None,
        release_node=free_nodes.append,
        make_process_spec=lambda name, node: kv_process(name, node, dbs=0),
    )
    scripted_load(controller, [1.0] * 12 + [0.0] * 12)
    cluster.spawn(service.control, controller.run(cycles=24))
    cluster.run(until=3.0)
    outs = [d["process"] for d in controller.decisions if d["kind"] == "scale_out"]
    ins = [d["process"] for d in controller.decisions if d["kind"] == "scale_in"]
    assert outs == [f"svc-elastic-{i}" for i in range(1, 13)]
    assert ins == outs[::-1]
    assert list(service.processes) == ["svc0"]


def test_controller_state_stays_bounded_under_churn():
    """1 000+ cycles of grow/shrink churn: the decision ring, the busy
    snapshots and every other container stay at or under their cap."""
    cluster = Cluster(seed=58)
    service = churn_service(cluster)
    free_nodes = ["spare0", "spare1"]
    policy = ElasticityPolicy(
        high_watermark=0.5, low_watermark=0.1, patience=1, max_processes=3
    )
    controller = ServiceController(
        service, ("watermark",), period=0.01, elasticity=policy,
        allocate_node=lambda: free_nodes.pop(0) if free_nodes else None,
        release_node=free_nodes.append,
        make_process_spec=lambda name, node: kv_process(name, node, dbs=0),
    )
    cycles = 1200
    scripted_load(controller, [1.0, 1.0, 0.0, 0.0] * (cycles // 4))
    cluster.spawn(service.control, controller.run(cycles=cycles))
    cluster.run(until=cycles * 0.01 + 1.0)
    assert controller.counts["watermark"] == cycles
    assert controller.counts["scale_out"] == controller.counts["scale_in"] >= 500
    assert len(controller.decisions) == controller.decisions.maxlen
    # Snapshots cover the processes alive at the last observation only.
    assert len(controller._busy_snapshots) <= policy.max_processes
    assert len(controller.counts) <= 3
    assert not controller._checkpoints and controller._pending_prediction is None
    assert list(service.processes) == ["svc0"]


# ----------------------------------------------------------------------
# ServiceController: checkpoint and recovery
# ----------------------------------------------------------------------
def test_resilience_manager_needs_pfs():
    cluster = Cluster(seed=57)
    service = deploy(cluster, n=2)
    with pytest.raises(ServiceError, match="PFS"):
        ServiceController(service, ("resilience",), period=1.0, allocate_node=lambda: None)
    with pytest.raises(ValueError, match="allocate_node"):
        ServiceController(service, ("resilience",), period=1.0)


def test_controller_starts_once():
    cluster = Cluster(seed=59)
    controller = ServiceController(deploy(cluster, n=1), ("rebalance",), period=1.0)
    controller.start()
    with pytest.raises(ServiceError, match="already started"):
        controller.start()
    controller.stop()
    with pytest.raises(ServiceError, match="already started"):
        controller.start()


def test_resilience_recovers_from_process_death():
    cluster = Cluster(seed=58)
    pfs = ParallelFileSystem()
    service = deploy(cluster, n=3, pfs=pfs)
    spares = ["spare0"]
    controller = ServiceController(
        service, ("resilience",), period=2.0,
        allocate_node=lambda: spares.pop(0) if spares else None,
    )
    controller.start()
    cm = service.control
    victim = service.processes["kv1"]
    db = YokanClient(cm).make_handle(victim.address, 1)

    def fill():
        yield from db.put_multi([(f"k{i}", f"v{i}") for i in range(30)])

    service.run_control(fill())
    # Let at least one checkpoint happen, then kill the process.
    cluster.run(until=cluster.now + 5.0)
    assert controller.counts["checkpoint"] >= 1
    cluster.faults.kill_process(victim.margo.process)
    cluster.run(until=cluster.now + 40.0)
    controller.stop()
    recoveries = [d for d in controller.decisions if d["kind"] == "recovery"]
    assert len(recoveries) == 1
    recovery = recoveries[0]
    assert recovery["process"] == "kv1"
    assert recovery["providers_restored"] >= 1
    # The restored provider serves the checkpointed data.
    replacement = service.processes[recovery["replacement"]]
    restored = replacement.bedrock.records["db-kv1-0"]
    assert restored.instance.backend.get(b"k7") == b"v7"
    # And the group converged to 3 members again.
    assert service.view().size == 3
