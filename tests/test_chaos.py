"""Chaos soak tests: everything at once, under randomized faults.

Each scenario runs a full service for a long simulated horizon with a
deterministic-but-randomized fault schedule, then checks end-state
invariants.  These are the tests that catch cross-component races the
unit suites cannot.
"""

import pytest

from repro import Cluster
from repro.core import DynamicService, ProcessSpec, ServiceController, ServiceSpec
from repro.margo.ult import UltSleep
from repro.raft import KVStateMachine, RaftClient, RaftConfig, RaftNode, Role
from repro.ssg import SwimConfig, create_group
from repro.storage import ParallelFileSystem
from repro.yokan import MapBackend, YokanClient

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)
RC = RaftConfig(
    heartbeat_interval=0.05,
    election_timeout_min=0.15,
    election_timeout_max=0.3,
    rpc_timeout=0.06,
)


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


@pytest.mark.parametrize("seed", [301, 302])
def test_chaos_raft_random_crashes_and_partitions(seed):
    """5-node Raft group; kill a random non-majority subset, partition
    and heal at random times, drive writes throughout.  Invariants:
    every acknowledged write survives; surviving state machines agree."""
    cluster = Cluster(seed=seed)
    rng = cluster.randomness.stream("chaos")
    margos = [cluster.add_margo(f"r{i}", node=f"n{i}") for i in range(5)]
    peers = [m.address for m in margos]
    nodes = [
        RaftNode(
            margo, f"raft{i}", provider_id=1,
            state_machine=KVStateMachine(MapBackend()),
            peers=peers, rng=cluster.randomness.stream(f"raft:{i}"), config=RC,
        )
        for i, margo in enumerate(margos)
    ]
    app = cluster.add_margo("app", node="napp")
    handle = RaftClient(app).make_group_handle(peers, provider_id=1)

    acked: list[int] = []

    def submitter():
        sequence = 0
        while cluster.now < 25.0:
            try:
                yield from handle.submit(
                    {"op": "put", "key": f"k{sequence:05d}".encode(),
                     "value": b"v"}, rpc_timeout=0.5,
                )
                acked.append(sequence)
                sequence += 1
            except Exception:
                pass
            yield UltSleep(0.05)

    cluster.spawn(app, submitter())

    # Fault schedule: two crash events (max 2 dead = minority of 5) and
    # two partition/heal cycles, at random times.
    victims = rng.sample(range(5), 2)
    for i, victim in enumerate(victims):
        cluster.faults.kill_process_at(5.0 + 7.0 * i, margos[victim].process)
    a, b = rng.sample(range(5), 2)
    cluster.faults.partition_at(8.0, f"n{a}", f"n{b}")
    cluster.faults.heal_at(12.0, f"n{a}", f"n{b}")
    cluster.faults.partition_at(15.0, f"n{(a+1)%5}", f"n{(b+2)%5}")
    cluster.faults.heal_at(18.0, f"n{(a+1)%5}", f"n{(b+2)%5}")

    cluster.run(until=32.0)

    survivors = [n for n in nodes if n.margo.process.alive]
    assert len(survivors) == 3
    # Progress was made despite the chaos.
    assert len(acked) > 50
    # Let replication settle, then check invariants.
    cluster.run(until=cluster.now + 3.0)
    for sequence in acked:
        key = f"k{sequence:05d}".encode()
        present = sum(1 for n in survivors if n.sm.backend.exists(key))
        assert present >= 2, f"acked write {key} missing from a majority"
    committed_prefix = min(n.commit_index for n in survivors)
    for index in range(max(1, committed_prefix - 100), committed_prefix + 1):
        records = {
            str(n.log.entry_at(index).command)
            for n in survivors
            if n.log.has_index(index)
        }
        assert len(records) <= 1, f"log divergence at {index}"


def test_chaos_service_with_resilience_manager_survives_crash_storm():
    """A 4-process service under the controller's checkpoint and
    recovery policies; three staggered
    process crashes (each recovered onto a spare).  At the end, all data
    written before each crash's last checkpoint is present, and the
    group view matches the live processes."""
    cluster = Cluster(seed=303)
    pfs = ParallelFileSystem()
    spec = ServiceSpec(
        name="kv",
        processes=[kv_process(f"kv{i}", f"n{i}") for i in range(4)],
        group="kv-g",
        swim=SWIM,
    )
    service = DynamicService.deploy(cluster, spec, pfs=pfs)
    spares = [f"spare{i}" for i in range(4)]
    controller = ServiceController(
        service, ("resilience",), period=1.5,
        allocate_node=lambda: spares.pop(0) if spares else None,
    )
    controller.start()

    app = service.control
    yokan = YokanClient(app)

    def writer(proc_name, count):
        db = yokan.make_handle(service.processes[proc_name].address, 1)

        def run():
            for i in range(count):
                try:
                    yield from db.put(f"{proc_name}-k{i}", f"v{i}")
                except Exception:
                    return
                yield UltSleep(0.02)

        return run()

    for i in range(4):
        cluster.spawn(app, writer(f"kv{i}", 200))

    cluster.faults.kill_process_at(4.0, service.processes["kv1"].margo.process)
    cluster.faults.kill_process_at(9.0, service.processes["kv2"].margo.process)
    cluster.run(until=60.0)
    controller.stop()

    recoveries = [d for d in controller.decisions if d["kind"] == "recovery"]
    assert len(recoveries) == 2
    recovered_names = {r["process"] for r in recoveries}
    assert recovered_names == {"kv1", "kv2"}
    # All service processes are live and the group converged.
    live = [p for p in service.processes.values() if p.alive]
    assert len(live) == 4
    assert service.view().size == 4
    # Each recovered provider holds a full checkpoint's worth of data.
    for recovery in recoveries:
        replacement = service.processes[recovery["replacement"]]
        restored = [
            r for r in replacement.bedrock.records.values()
            if r.type_name == "yokan"
        ]
        assert restored, recovery
        assert restored[0].instance.backend.count() > 0


def test_chaos_swim_group_under_loss_and_churn():
    """A 10-member group with 5% message loss, joins, leaves, and
    crashes: views must converge to the true membership at the end,
    with zero false positives among stable members."""
    cluster = Cluster(seed=304)
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(10)]
    groups = create_group("g", margos, cluster.randomness, swim=SWIM)
    cluster.run(until=2.0)
    cluster.faults.set_message_loss(0.05)

    # Churn: kill two, one leaves voluntarily.
    cluster.faults.kill_process_at(4.0, margos[7].process)
    cluster.faults.kill_process_at(10.0, margos[8].process)

    def leaver():
        yield UltSleep(7.0)
        yield from groups[9].leave()

    cluster.spawn(margos[9], leaver())

    cluster.run(until=90.0)
    cluster.faults.set_message_loss(0.0)
    cluster.run(until=120.0)

    stable = groups[:7]
    expected = {m.address for m in margos[:7]}
    for group in stable:
        assert set(group.view.members) == expected, group.margo.address
    assert len({g.view_hash for g in stable}) == 1
