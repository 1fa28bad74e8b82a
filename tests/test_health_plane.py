"""mochi-health plane: the registry, the flight recorder, and
SWIM-driven detection under loss and partitions."""

import json

import pytest

from repro import Cluster
from repro.analysis.race import hooks as race_hooks
from repro.observability.health import FlightRecorder, HealthRegistry
from repro.observability.health import recorder as recorder_module
from repro.ssg import SwimConfig, create_group

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)


# ----------------------------------------------------------------------
# health registry
# ----------------------------------------------------------------------
class _Kernel:
    def __init__(self):
        self.now = 0.0


def _health_events(recorder, target=None):
    return [e for e in recorder.events if e["category"] == "health"
            and (target is None or e["target"] == target)]


def test_registry_ladder_and_placement():
    reg = HealthRegistry(FlightRecorder(_Kernel()))
    assert reg.state_of("kv0") == "healthy"  # absence of evidence
    assert reg.is_placeable("kv0")
    assert reg.observe("kv0", "degraded", "slo:kv-p99") is True
    assert reg.is_placeable("kv0")  # degraded may still receive shards
    reg.observe("kv0", "suspect", "swim:g")
    assert not reg.is_placeable("kv0")
    reg.observe("kv0", "dead", "swim:g")
    assert not reg.is_placeable("kv0")
    assert reg.unhealthy() == {"kv0": "dead"}
    assert reg.observe("kv0", "dead", "swim:g") is False  # no-op repeat
    with pytest.raises(ValueError, match="unknown health state"):
        reg.observe("kv0", "zombie", "x")


def test_registry_transitions_bounded_and_notified(monkeypatch):
    monkeypatch.setattr(recorder_module, "CAPACITY", 3)
    recorder = FlightRecorder(_Kernel())
    reg = HealthRegistry(recorder)
    states = ("degraded", "suspect", "dead", "healthy", "degraded")
    for state in states:
        reg.observe("t", state, "test")
    reg.observe("t", "degraded", "test")  # no change: not recorded
    assert recorder.recorded == 5
    events = _health_events(recorder)
    assert len(events) == 3  # ring keeps only the tail
    assert [e["name"] for e in events] == ["dead", "healthy", "degraded"]
    assert [e["attrs"]["previous"] for e in events] == ["suspect", "dead", "healthy"]
    assert {e["attrs"]["source"] for e in events} == {"test"}
    assert reg.to_json()["states"] == {"t": "degraded"}


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
def test_recorder_ring_and_dump(monkeypatch):
    monkeypatch.setattr(recorder_module, "CAPACITY", 4)
    recorder = FlightRecorder(_Kernel())
    for i in range(6):
        recorder.record("fault", "process", f"p{i}", attempt=i)
    assert recorder.recorded == 6
    assert recorder.dropped == 2
    assert [e["target"] for e in recorder.events] == ["p2", "p3", "p4", "p5"]
    dump = recorder.dump("test")
    assert dump["reason"] == "test" and dump["dropped"] == 2
    assert len(dump["events"]) == 4
    with pytest.raises(ValueError, match="unknown flight-recorder category"):
        recorder.record("bogus", "x")


def test_recorder_dumps_are_bounded(monkeypatch):
    monkeypatch.setattr(recorder_module, "CAPACITY", 4)
    monkeypatch.setattr(recorder_module, "MAX_DUMPS", 2)
    recorder = FlightRecorder(_Kernel())
    for i in range(5):
        recorder.dump(f"d{i}")
    assert [d["reason"] for d in recorder.dumps] == ["d3", "d4"]


# ----------------------------------------------------------------------
# SWIM-driven detection (suspect -> dead) under loss and partitions
# ----------------------------------------------------------------------
def _swim_rig(seed, loss=0.0, n=5):
    cluster = Cluster(seed=seed)
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(n)]
    groups = create_group("g", margos, cluster.randomness, swim=SWIM)
    health = cluster.enable_health()
    cluster.run(until=2.0)
    if loss:
        cluster.faults.set_message_loss(loss)
    return cluster, margos, groups, health


def test_swim_detection_under_message_loss():
    cluster, margos, _groups, health = _swim_rig(seed=61, loss=0.1)
    cluster.faults.kill_process_at(3.0, margos[2].process)
    cluster.run(until=30.0)
    # The victim walked the observed ladder to dead...
    assert health.registry.state_of("m2") == "dead"
    kinds = [e["name"] for e in _health_events(health.recorder, "m2")]
    assert "dead" in kinds
    # ... and the incident measured both latencies against injection.
    incident = health.incidents.incidents[0]
    assert incident.target == "m2" and incident.kind == "crash"
    assert incident.suspect_latency is not None
    assert incident.detection_latency is not None
    assert 0.0 < incident.suspect_latency <= incident.detection_latency
    # Survivors were never marked dead.
    for i in (0, 1, 3, 4):
        assert health.registry.state_of(f"m{i}") != "dead"


def test_group_built_after_the_plane_reports_without_a_watch():
    """SSG finds the plane on its own: no subscription call anywhere."""
    cluster = Cluster(seed=63)
    health = cluster.enable_health()
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(4)]
    create_group("g", margos, cluster.randomness, swim=SWIM)
    cluster.run(until=2.0)
    cluster.faults.kill_process(margos[3].process)
    cluster.run(until=20.0)
    ladder = [e["name"] for e in _health_events(health.recorder, "m3")]
    assert ladder == ["suspect", "dead"]
    assert health.registry.state_of("m3") == "dead"
    assert health.incidents.incidents[0].detection_latency is not None


def test_swim_detection_under_partition_without_fault():
    """A partitioned (but alive) member is observed suspect/dead by the
    group; no incident opens, because no fault was injected on it --
    the registry tracks observation, incidents track ground truth."""
    cluster, margos, _groups, health = _swim_rig(seed=62, n=4)
    for other in range(1, 4):
        cluster.faults.partition(f"n0", f"n{other}")
    cluster.run(until=20.0)
    assert health.registry.state_of("m0") in ("suspect", "dead")
    crash_incidents = [i for i in health.incidents.incidents
                       if i.kind == "crash"]
    assert crash_incidents == []
    # The partition itself was black-boxed as a fault event.
    partition_events = [e for e in health.recorder.events
                        if e["category"] == "fault" and e["name"] == "partition"]
    assert len(partition_events) == 3


# ----------------------------------------------------------------------
# determinism (byte-identical, including race record mode)
# ----------------------------------------------------------------------
def _detection_bytes(seed=64):
    cluster, margos, _groups, health = _swim_rig(seed=seed, loss=0.05)
    cluster.faults.kill_process_at(3.0, margos[1].process)
    cluster.run(until=25.0)
    return json.dumps(health.to_json(), sort_keys=True)


def test_detection_latency_byte_identical_across_runs():
    assert _detection_bytes() == _detection_bytes()


def test_detection_identical_under_race_record_mode():
    plain = _detection_bytes()
    race_hooks.disable()
    race_hooks.reset()
    race_hooks.enable()
    try:
        recorded = _detection_bytes()
    finally:
        race_hooks.disable()
        race_hooks.reset()
    assert recorded == plain
