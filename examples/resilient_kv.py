#!/usr/bin/env python3
"""Resilience: the paper's section-7 toolbox on one service.

Demonstrates all four resilience building blocks, bottom-up to top-down:

1. **checkpoint/restore** (Obs. 9): a process dies; its provider is
   restored on a spare node from the latest PFS checkpoint, losing at
   most the delta since that checkpoint;
2. **virtual resources** (Obs. 10): a transparently replicated database
   keeps serving reads through a replica failure;
3. **Mochi-RAFT** (Obs. 11): a consensus-replicated KV survives the
   *leader* being killed with zero committed-data loss;
4. **SWIM fault detection** (Obs. 12): the deaths above are detected by
   gossip, which is what triggers the top-down recovery.

Run: ``python examples/resilient_kv.py``
"""

from repro import Cluster
from repro.core import DynamicService, ProcessSpec, ServiceController, ServiceSpec
from repro.raft import KVStateMachine, RaftClient, RaftConfig, RaftNode
from repro.ssg import SwimConfig
from repro.storage import ParallelFileSystem
from repro.yokan import MapBackend, VirtualYokanProvider, YokanClient, YokanProvider

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)


def kv_process(name: str, node: str) -> ProcessSpec:
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


def checkpoint_recovery_demo() -> None:
    print("=" * 64)
    print("1+4. checkpoint/restore + SWIM-triggered top-down recovery")
    print("=" * 64)
    cluster = Cluster(seed=29)
    pfs = ParallelFileSystem()
    spec = ServiceSpec(
        name="kv",
        processes=[kv_process(f"kv{i}", f"n{i}") for i in range(3)],
        group="kv-g",
        swim=SWIM,
    )
    service = DynamicService.deploy(cluster, spec, pfs=pfs)
    spares = ["spare0"]
    controller = ServiceController(
        service, ("resilience",), period=2.0,
        allocate_node=lambda: spares.pop(0) if spares else None,
    )
    decisions = []  # the whole history: the ring keeps only the last ones
    controller.on_decision.append(decisions.append)
    controller.start()

    db = YokanClient(service.control).make_handle(service.processes["kv1"].address, 1)

    def fill():
        yield from db.put_multi([(f"k{i}", f"v{i}") for i in range(50)])

    service.run_control(fill())
    cluster.run(until=5.0)  # let a checkpoint happen
    print(f"checkpoints taken: {controller.counts['checkpoint']}; killing kv1...")
    cluster.faults.kill_process(service.processes["kv1"].margo.process)
    cluster.run(until=45.0)
    controller.stop()
    recovery = next(d for d in decisions if d["kind"] == "recovery")
    print(f"SWIM detected the death; recovered as {recovery['replacement']!r} "
          f"on a spare node in {recovery['duration']:.2f}s "
          f"(includes detection)")
    replacement = service.processes[recovery["replacement"]]
    restored = replacement.bedrock.records["db-kv1"]
    print(f"restored value for k25: {restored.instance.backend.get(b'k25')!r}")
    print(f"group view back to {service.view().size} members\n")


def virtual_replication_demo() -> None:
    print("=" * 64)
    print("2. virtual resources: transparent replication (bottom-up)")
    print("=" * 64)
    cluster = Cluster(seed=31)
    replicas = []
    targets = []
    for i in range(3):
        margo = cluster.add_margo(f"rep{i}", node=f"n{i}")
        YokanProvider(margo, f"rdb{i}", provider_id=1)
        replicas.append(margo)
        targets.append({"address": margo.address, "provider_id": 1})
    front = cluster.add_margo("front", node="nf")
    VirtualYokanProvider(
        front, "vdb", provider_id=9,
        config={"targets": targets, "rpc_timeout": 0.5},
    )
    app = cluster.add_margo("app", node="na")
    # The client uses an ordinary database handle: replication invisible.
    db = YokanClient(app).make_handle(front.address, 9)

    def driver():
        yield from db.put("important", "data")
        first = yield from db.get("important")
        return first

    print(f"write+read through the virtual database: "
          f"{cluster.run_ult(app, driver())!r}")
    cluster.faults.kill_process(replicas[0].process)
    print("killed replica 0; reading again...")

    def read_again():
        return (yield from db.get("important"))

    print(f"read after replica failure: {cluster.run_ult(app, read_again())!r} "
          f"(failed over transparently)\n")


def raft_demo() -> None:
    print("=" * 64)
    print("3. Mochi-RAFT: consensus-replicated KV survives leader death")
    print("=" * 64)
    cluster = Cluster(seed=37)
    margos = [cluster.add_margo(f"r{i}", node=f"n{i}") for i in range(5)]
    peers = [m.address for m in margos]
    rc = RaftConfig(
        heartbeat_interval=0.05, election_timeout_min=0.15,
        election_timeout_max=0.3, rpc_timeout=0.06,
    )
    nodes = [
        RaftNode(
            margo, f"raft{i}", provider_id=1,
            state_machine=KVStateMachine(MapBackend()),
            peers=peers, rng=cluster.randomness.stream(f"raft:{i}"), config=rc,
        )
        for i, margo in enumerate(margos)
    ]
    app = cluster.add_margo("app", node="napp")
    group = RaftClient(app).make_group_handle(peers, provider_id=1)

    def write():
        for i in range(10):
            yield from group.submit({"op": "put", "key": f"k{i}".encode(),
                                     "value": f"v{i}".encode()})
        leader = yield from group.find_leader()
        return leader

    leader_address = cluster.run_ult(app, write())
    leader = next(n for n in nodes if n.address == leader_address)
    print(f"10 writes committed; leader is {leader.name} (term {leader.current_term})")
    cluster.faults.kill_process(leader.margo.process)
    print("killed the leader; submitting through the new one...")

    def read_after_failover():
        value = yield from group.submit({"op": "get", "key": b"k7"})
        status = yield from group.status_of(group.address)
        return value, status["term"]

    value, term = cluster.run_ult(app, read_after_failover())
    print(f"k7 after failover: {value!r} (new term {term}; no committed data lost)\n")


if __name__ == "__main__":
    checkpoint_recovery_demo()
    virtual_replication_demo()
    raft_demo()
