"""mochi-health E2E: the ISSUE 6 acceptance scenario (fault -> SWIM
detection -> Raft failover -> REMI recovery, with measured detection
latency and MTTR), the Bedrock health RPCs, the controller's health
veto, and the diagnostic reports."""

import json

import pytest

from repro import Cluster
from repro.analysis.race import hooks as race_hooks
from repro.bedrock.boot import boot_process
from repro.bedrock.client import BedrockClient
from repro.core import ServiceController
from repro.scenarios import run_crash_scenario, run_slo_scenario
from repro.ssg import SwimConfig, create_group
from repro.tools import fault_report, health_report
from repro.yokan import YokanClient

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)


# ----------------------------------------------------------------------
# the acceptance scenario
# ----------------------------------------------------------------------
def test_crash_scenario_measures_detection_and_mttr():
    doc = run_crash_scenario(seed=11)
    incidents = doc["incidents"]["incidents"]
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident["kind"] == "crash" and incident["target"] == "kv1"
    assert incident["status"] == "closed"
    assert incident["resolution"] == "recovered"
    # Fault injection is the origin; every latency measures against it.
    assert 0.0 < incident["suspect_latency"] <= incident["detection_latency"]
    assert incident["mttr"] >= incident["detection_latency"]
    # REMI provisioned a spare.
    assert len(doc["recoveries"]) == 1
    assert doc["recoveries"][0]["failed"] == "kv1"
    assert doc["recoveries"][0]["replacement"].startswith("kv1-r")
    # The registry observed the death; the flight recorder black-boxed
    # the whole story, including the automatic pre-crash dump.
    assert doc["health"]["states"]["kv1"] == "dead"
    categories = {e["category"] for e in doc["dump"]["events"]}
    assert {"fault", "membership", "health", "recovery", "incident"} <= categories
    detection_events = [e for e in incident["events"]
                        if e["kind"] == "detection"]
    assert [e["stage"] for e in detection_events] == ["suspect", "dead"]


def test_crash_scenario_health_follows_swim_and_slos_only():
    """SWIM is the one failure detector: every health transition comes
    from SWIM membership or an SLO alert, the killed member never reads
    healthy again, and no survivor is ever suspected."""
    doc = run_crash_scenario(seed=11)
    health = [e for e in doc["dump"]["events"] if e["category"] == "health"]
    assert health
    assert all(e["attrs"]["source"].startswith(("swim:", "slo:")) for e in health)
    victim = [e["name"] for e in health if e["target"] == "kv1" and e["time"] >= 6.0]
    assert "healthy" not in victim
    assert victim == ["suspect", "dead"]
    assert [e for e in health if e["target"] != "kv1" and e["name"] == "suspect"] == []


def test_crash_scenario_byte_identical_across_runs():
    first = json.dumps(run_crash_scenario(seed=12), sort_keys=True)
    second = json.dumps(run_crash_scenario(seed=12), sort_keys=True)
    assert first == second


def test_crash_scenario_identical_under_race_record_mode():
    plain = json.dumps(run_crash_scenario(seed=13), sort_keys=True)
    race_hooks.disable()
    race_hooks.reset()
    race_hooks.enable()
    try:
        recorded = json.dumps(run_crash_scenario(seed=13), sort_keys=True)
    finally:
        race_hooks.disable()
        race_hooks.reset()
    assert recorded == plain


def test_slo_scenario_breaches_and_dumps():
    doc = run_slo_scenario(seed=11)
    assert [a["to"] for a in doc["alerts"]] == ["breach", "breach"]
    assert doc["health"]["states"] == {"kv0": "degraded", "kv1": "degraded"}
    # Breach opened one SLO incident per process and auto-dumped.
    assert [i["kind"] for i in doc["incidents"]["incidents"]] == ["slo", "slo"]
    assert any(r.startswith("slo:") for r in doc["dumps"])


# ----------------------------------------------------------------------
# Bedrock RPC surface
# ----------------------------------------------------------------------
def _health_rig(slos=True, plane=True, seed=31):
    cluster = Cluster(seed=seed)
    observability = {"profiling": True, "profile_window": 0.1}
    if slos:
        observability["slos"] = [
            {"name": "kv-err", "objective": "error_rate",
             "target": "yokan:*", "threshold": 0.5},
        ]
    config = {
        "margo": {"observability": observability},
        "libraries": {"yokan": "libyokan.so"},
        "providers": [
            {"name": "db-kv0", "type": "yokan", "provider_id": 1,
             "config": {"database": {"type": "persistent"}}},
        ],
    }
    margo, _bedrock = boot_process(cluster, "kv0", "n0", config)
    if plane:
        health = cluster.enable_health()
        health.watch_margo(margo)
    ctl = cluster.add_margo("ctl", "ctl-node")
    handle = BedrockClient(ctl).make_service_handle(margo.address)
    db = YokanClient(ctl).make_handle(margo.address, 1)

    def traffic():
        for i in range(20):
            yield from db.put(f"k{i}", "v" * 20)

    cluster.run_ult(ctl, traffic())
    cluster.run(until=cluster.now + 0.5)
    return cluster, margo, ctl, handle


def test_get_health_and_incidents_rpcs():
    cluster, margo, ctl, handle = _health_rig()
    cluster.health.registry.observe("kv0", "degraded", "test")
    cluster.health.incidents.open("crash", "kv0", fault_kind="process")
    doc = cluster.run_ult(ctl, handle.query("return $__health__;"))
    assert doc["process"] == "kv0"
    assert doc["states"] == {"kv0": "degraded"}
    assert doc["open_incidents"] == 1
    incidents = cluster.run_ult(ctl, handle.query("return $__incidents__;"))
    assert incidents["process"] == "kv0"
    assert [i["id"] for i in incidents["incidents"]] == ["INC-1"]
    cluster.health.incidents.open("crash", "other")
    limited = cluster.run_ult(
        ctl, handle.query("return array_slice($__incidents__.incidents, -1);")
    )
    assert [i["id"] for i in limited] == ["INC-2"]


def test_get_slo_status_rpc():
    cluster, margo, ctl, handle = _health_rig()
    status = cluster.run_ult(ctl, handle.query("return $__slo__;"))
    assert [s["slo"] for s in status["slos"]] == ["kv-err"]
    assert status["slos"][0]["state"] == "ok"
    assert status["slos"][0]["windows_seen"] > 0  # traffic was measured


# ----------------------------------------------------------------------
# the controller's health veto
# ----------------------------------------------------------------------
def _hot_service(cluster):
    """kv0 holds two loaded databases, kv1 none: the controller will
    want to rebalance onto kv1."""
    from repro.core import DynamicService, ProcessSpec, ServiceSpec

    def kv_process(name, node, dbs):
        providers = [{"name": f"remi-{name}", "type": "remi", "provider_id": 0}]
        for d in range(dbs):
            providers.append(
                {"name": f"db-{name}-{d}", "type": "yokan",
                 "provider_id": d + 1,
                 "config": {"database": {"type": "persistent"}}})
        return ProcessSpec(
            name=name, node=node,
            config={
                "margo": {"observability": {
                    "profiling": True, "profile_window": 0.2,
                    "load_imbalance_threshold": 1.5}},
                "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
                "providers": providers,
            })

    spec = ServiceSpec(
        name="kvsvc",
        processes=[kv_process("kv0", "n0", 2), kv_process("kv1", "n1", 0)],
        group="kvsvc-g",
        swim=SWIM,
    )
    service = DynamicService.deploy(cluster, spec)
    yokan = YokanClient(service.control)

    def fill_dbs():
        for provider_id in (1, 2):
            db = yokan.make_handle(service.processes["kv0"].address, provider_id)
            yield from db.put_multi([(f"k{i}", "x" * 200) for i in range(40)])

    service.run_control(fill_dbs())
    return service, yokan


def test_controller_vetoes_suspect_targets():
    from repro.pufferscale import Objective

    cluster = Cluster(seed=33)
    service, yokan = _hot_service(cluster)
    health = cluster.enable_health()
    health.registry.observe("kv1", "suspect", "test")
    controller = ServiceController(
        service, ("rebalance",), objective=Objective(alpha=1.0, beta=0.0, gamma=0.0),
        period=0.5, smoothing=2,
    )

    def fill_traffic():
        db = yokan.make_handle(service.processes["kv0"].address, 1)
        for i in range(200):
            yield from db.get(f"k{i % 40}")

    cluster.spawn(service.control, fill_traffic())
    cluster.spawn(service.control, controller.run(cycles=4))
    cluster.run(until=3.0)

    decisions = list(controller.decisions)
    assert decisions
    assert all(d["vetoed_nodes"] == ["kv1"] for d in decisions)
    # No shard was ever planned onto the suspect target.
    for decision in decisions:
        for move in decision["moves"]:
            assert move["destination"] != "kv1"
    # Decisions are black-boxed.
    recon = [e for e in health.recorder.events
             if e["category"] == "reconfiguration"]
    assert len(recon) == len(decisions)
    assert all(e["attrs"]["vetoed"] == 1 for e in recon)


# ----------------------------------------------------------------------
# diagnostic reports
# ----------------------------------------------------------------------
def _report_rig(seed=34):
    cluster = Cluster(seed=seed)
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(3)]
    groups = create_group("g", margos, cluster.randomness, swim=SWIM)
    health = cluster.enable_health()
    for group in groups:
        health.watch_group(group)
    cluster.run(until=2.0)
    cluster.faults.kill_process(margos[2].process)
    cluster.run(until=15.0)
    return cluster


def test_health_report_renders_states_and_incidents():
    cluster = _report_rig()
    text = health_report(cluster, events=5)
    assert "mochi-health @" in text
    assert "m2               dead" in text
    assert "INC-1 [OPEN] crash: m2" in text
    assert "detection latency:" in text
    assert "flight recorder (last" in text


def test_fault_report_correlates_incidents():
    cluster = _report_rig()
    text = fault_report(cluster)
    assert "1 fault(s) injected" in text
    assert "process: m2" in text
    assert "incident INC-1" in text
    assert "suspected after" in text and "detected after" in text


def test_reports_without_health_plane():
    cluster = Cluster(seed=35)
    cluster.add_margo("a", "n0")
    assert "disabled" in health_report(cluster)
    assert fault_report(cluster) == "fault report: no faults injected"
    cluster.faults.kill_process(cluster.margos["a"].process)
    assert "no incident correlation" in fault_report(cluster)
