"""Integration tests for live Raft groups: elections, replication,
failover, snapshots, membership change, and a linearizability check."""

import pytest

from repro import Cluster
from repro.raft import (
    CounterStateMachine,
    KVStateMachine,
    RaftClient,
    RaftConfig,
    RaftNode,
    RaftUnavailableError,
    Role,
)
from repro.yokan import MapBackend

RC = RaftConfig(
    heartbeat_interval=0.05,
    election_timeout_min=0.15,
    election_timeout_max=0.3,
    rpc_timeout=0.06,
    submit_timeout=5.0,
    snapshot_threshold=64,
)


def make_group(n, seed=21, sm_factory=CounterStateMachine, rc=RC):
    cluster = Cluster(seed=seed)
    margos = [cluster.add_margo(f"r{i}", node=f"n{i}") for i in range(n)]
    peers = [m.address for m in margos]
    nodes = []
    for i, margo in enumerate(margos):
        node = RaftNode(
            margo,
            f"raft{i}",
            provider_id=1,
            state_machine=sm_factory(),
            peers=peers,
            rng=cluster.randomness.stream(f"raft:{i}"),
            config=rc,
        )
        nodes.append(node)
    client_margo = cluster.add_margo("client", node="nc")
    handle = RaftClient(client_margo).make_group_handle(peers, provider_id=1)
    return cluster, margos, nodes, client_margo, handle


def leaders(nodes):
    return [n for n in nodes if n.role == Role.LEADER and n._running]


def test_single_leader_elected():
    cluster, _, nodes, _, _ = make_group(3)
    cluster.run(until=3.0)
    assert len(leaders(nodes)) == 1
    terms = {n.current_term for n in nodes}
    assert len(terms) == 1


def test_single_node_group_commits_instantly():
    cluster, _, nodes, cm, handle = make_group(1)

    def driver():
        a = yield from handle.submit(5)
        b = yield from handle.submit(7)
        return a, b

    assert cluster.run_ult(cm, driver()) == (5, 12)


def test_submit_replicates_to_all():
    cluster, _, nodes, cm, handle = make_group(3)

    def driver():
        results = []
        for delta in [1, 2, 3]:
            value = yield from handle.submit(delta)
            results.append(value)
        return results

    assert cluster.run_ult(cm, driver()) == [1, 3, 6]
    cluster.run(until=cluster.now + 2.0)  # let followers catch up
    for node in nodes:
        assert node.sm.value == 6


def test_leader_failover_preserves_committed_data():
    cluster, margos, nodes, cm, handle = make_group(5)

    def phase1():
        for delta in range(1, 6):
            yield from handle.submit(delta)
        return None

    cluster.run_ult(cm, phase1())
    (old_leader,) = leaders(nodes)
    cluster.faults.kill_process(old_leader.margo.process)
    cluster.run(until=cluster.now + 3.0)
    survivors = [n for n in nodes if n is not old_leader]
    assert len(leaders(survivors)) == 1

    def phase2():
        return (yield from handle.submit(100))

    result = cluster.run_ult(cm, phase2())
    assert result == 115  # 1+2+3+4+5 + 100


def _fail_over(health):
    """A 5-node group commits 5 entries, then its leader is killed."""
    cluster, margos, nodes, cm, handle = make_group(5)
    if health:
        cluster.enable_health()

    def phase1():
        for delta in range(1, 6):
            yield from handle.submit(delta)

    cluster.run_ult(cm, phase1())
    (old_leader,) = leaders(nodes)
    cluster.faults.kill_process(old_leader.margo.process)
    cluster.run(until=cluster.now + 3.0)
    return cluster, nodes, old_leader


def test_health_plane_records_elections_without_changing_them():
    _, bare_nodes, bare_old = _fail_over(health=False)
    cluster, nodes, old_leader = _fail_over(health=True)
    assert [n.current_term for n in nodes] == [n.current_term for n in bare_nodes]
    (leader,) = leaders(n for n in nodes if n is not old_leader)
    (bare_leader,) = leaders(n for n in bare_nodes if n is not bare_old)
    assert leader.name == bare_leader.name
    process = leader.margo.process.name
    elected = [
        e for e in cluster.health.recorder.events
        if e["category"] == "election" and e["target"] == process and e["name"] == Role.LEADER
    ]
    assert elected and elected[-1]["attrs"]["term"] == leader.current_term
    (incident,) = [
        i for i in cluster.health.incidents.incidents
        if i.target == old_leader.margo.process.name
    ]
    assert {"time": elected[-1]["time"], "kind": "election", "process": process,
            "role": Role.LEADER, "term": leader.current_term} in incident.events


def test_unavailable_without_majority():
    cluster, margos, nodes, cm, handle = make_group(3)
    cluster.run(until=2.0)
    cluster.faults.kill_process(margos[0].process)
    cluster.faults.kill_process(margos[1].process)
    handle.max_attempts = 8

    def driver():
        yield from handle.submit(1)

    with pytest.raises(RaftUnavailableError):
        cluster.run_ult(cm, driver())


def test_recovers_after_partition_heals():
    cluster, margos, nodes, cm, handle = make_group(3)
    cluster.run(until=2.0)
    (leader,) = leaders(nodes)
    # Partition the leader from both followers.
    for other in nodes:
        if other is not leader:
            cluster.faults.partition(leader.margo.process.node.name,
                                     other.margo.process.node.name)
    cluster.run(until=cluster.now + 3.0)
    # A new leader emerges on the majority side.
    majority_side = [n for n in nodes if n is not leader]
    assert len(leaders(majority_side)) == 1
    # Old leader steps down upon heal.
    cluster.network.heal_all()
    cluster.run(until=cluster.now + 3.0)
    assert len(leaders(nodes)) == 1


def test_lagging_follower_catches_up_via_snapshot():
    rc = RaftConfig(
        heartbeat_interval=0.05,
        election_timeout_min=0.15,
        election_timeout_max=0.3,
        rpc_timeout=0.06,
        snapshot_threshold=16,
    )
    cluster, margos, nodes, cm, handle = make_group(3, rc=rc)
    cluster.run(until=2.0)
    # Cut one follower off.
    (leader,) = leaders(nodes)
    follower = next(n for n in nodes if n is not leader)
    cluster.faults.partition(leader.margo.process.node.name,
                             follower.margo.process.node.name)
    third = next(n for n in nodes if n is not leader and n is not follower)
    cluster.faults.partition(third.margo.process.node.name,
                             follower.margo.process.node.name)

    def burst():
        for delta in range(40):  # enough to trigger compaction
            yield from handle.submit(1)

    cluster.run_ult(cm, burst())
    assert leader.snapshots_taken >= 1
    assert follower.sm.value == 0
    cluster.network.heal_all()
    cluster.run(until=cluster.now + 5.0)
    assert follower.sm.value == 40  # caught up via InstallSnapshot
    assert follower.log.snapshot_index > 0


def test_membership_change_add_node():
    cluster, margos, nodes, cm, handle = make_group(3)
    cluster.run(until=2.0)
    new_margo = cluster.add_margo("r-new", node="n-new")
    peers = [m.address for m in margos] + [new_margo.address]
    new_node = RaftNode(
        new_margo,
        "raft-new",
        provider_id=1,
        state_machine=CounterStateMachine(),
        peers=peers,
        rng=cluster.randomness.stream("raft:new"),
        config=RC,
    )

    def driver():
        yield from handle.submit(10)
        yield from handle.change_membership(peers)
        yield from handle.submit(5)

    cluster.run_ult(cm, driver())
    cluster.run(until=cluster.now + 3.0)
    assert new_node.sm.value == 15  # new member received all state
    (leader,) = leaders(nodes + [new_node])
    assert set(leader.peers) == set(peers)


def test_membership_change_remove_node():
    cluster, margos, nodes, cm, handle = make_group(3)
    cluster.run(until=2.0)
    (leader,) = leaders(nodes)
    victim = next(n for n in nodes if n is not leader)
    remaining = [a for a in leader.peers if a != victim.address]

    def driver():
        yield from handle.change_membership(remaining)
        return (yield from handle.submit(3))

    assert cluster.run_ult(cm, driver()) == 3
    cluster.run(until=cluster.now + 2.0)
    assert not victim._running  # removed node stopped participating


def test_kv_state_machine_via_raft():
    cluster, _, nodes, cm, handle = make_group(
        3, sm_factory=lambda: KVStateMachine(MapBackend())
    )

    def driver():
        yield from handle.submit({"op": "put", "key": b"k", "value": b"v1"})
        v1 = yield from handle.submit({"op": "get", "key": b"k"})
        yield from handle.submit({"op": "put", "key": b"k", "value": b"v2"})
        v2 = yield from handle.submit({"op": "get", "key": b"k"})
        erased = yield from handle.submit({"op": "erase", "key": b"k"})
        v3 = yield from handle.submit({"op": "get", "key": b"k"})
        return v1, v2, erased, v3

    assert cluster.run_ult(cm, driver()) == (b"v1", b"v2", True, None)
    cluster.run(until=cluster.now + 2.0)
    # All backends converge to the same contents.
    dumps = {bytes(n.sm.backend.dump()) for n in nodes}
    assert len(dumps) == 1


def test_logs_are_prefix_consistent():
    """Raft's Log Matching property across a failover."""
    cluster, margos, nodes, cm, handle = make_group(5, seed=23)

    def phase(k):
        def driver():
            for delta in range(k):
                yield from handle.submit(1)

        return driver

    cluster.run_ult(cm, phase(5)())
    (leader,) = leaders(nodes)
    cluster.faults.kill_process(leader.margo.process)
    cluster.run(until=cluster.now + 2.0)
    cluster.run_ult(cm, phase(5)())
    cluster.run(until=cluster.now + 2.0)
    survivors = [n for n in nodes if n is not leader]
    # Committed prefixes agree on (term, command) at every index.
    min_commit = min(n.commit_index for n in survivors)
    for index in range(1, min_commit + 1):
        records = {
            (n.log.term_at(index), str(n.log.entry_at(index).command))
            for n in survivors
            if n.log.has_index(index)
        }
        assert len(records) == 1, f"divergence at index {index}"


def test_status_rpc():
    cluster, margos, nodes, cm, handle = make_group(3)
    cluster.run(until=2.0)

    def driver():
        leader = yield from handle.find_leader()
        status = yield from handle.status_of(leader)
        return status

    status = cluster.run_ult(cm, driver())
    assert status["role"] == "leader"
    assert status["term"] >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        RaftConfig(heartbeat_interval=0.5, election_timeout_min=0.3)
    with pytest.raises(ValueError):
        RaftConfig(election_timeout_min=0.6, election_timeout_max=0.6)
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("r", node="n0")
    with pytest.raises(ValueError, match="own address"):
        RaftNode(
            margo, "raft", provider_id=1,
            state_machine=CounterStateMachine(),
            peers=["na+ofi://other/addr"],
            rng=cluster.randomness.stream("x"),
        )


# ----------------------------------------------------------------------
# ReadIndex linearizable reads
# ----------------------------------------------------------------------
def test_read_index_returns_latest_committed_value():
    cluster, _, nodes, cm, handle = make_group(
        3, sm_factory=lambda: KVStateMachine(MapBackend())
    )

    def driver():
        yield from handle.submit({"op": "put", "key": b"k", "value": b"v1"})
        first = yield from handle.read({"op": "get", "key": b"k"})
        yield from handle.submit({"op": "put", "key": b"k", "value": b"v2"})
        second = yield from handle.read({"op": "get", "key": b"k"})
        count = yield from handle.read({"op": "count"})
        return first, second, count

    assert cluster.run_ult(cm, driver()) == (b"v1", b"v2", 1)


def test_read_index_appends_no_log_entries():
    cluster, _, nodes, cm, handle = make_group(
        3, sm_factory=lambda: KVStateMachine(MapBackend())
    )

    def write():
        yield from handle.submit({"op": "put", "key": b"k", "value": b"v"})

    cluster.run_ult(cm, write())
    (leader,) = leaders(nodes)
    log_before = leader.log.last_index

    def reads():
        for _ in range(10):
            yield from handle.read({"op": "get", "key": b"k"})

    cluster.run_ult(cm, reads())
    assert leader.log.last_index == log_before  # reads did not grow the log


def test_read_index_works_after_failover():
    cluster, margos, nodes, cm, handle = make_group(
        5, sm_factory=lambda: KVStateMachine(MapBackend())
    )

    def write():
        yield from handle.submit({"op": "put", "key": b"k", "value": b"precious"})

    cluster.run_ult(cm, write())
    (leader,) = leaders(nodes)
    cluster.faults.kill_process(leader.margo.process)
    cluster.run(until=cluster.now + 2.0)

    def read():
        return (yield from handle.read({"op": "get", "key": b"k"}))

    assert cluster.run_ult(cm, read()) == b"precious"


def test_read_query_rejects_mutations():
    cluster, _, nodes, cm, handle = make_group(
        3, sm_factory=lambda: KVStateMachine(MapBackend())
    )
    from repro.margo import RpcFailedError

    def driver():
        yield from handle.read({"op": "put", "key": b"k", "value": b"v"})

    with pytest.raises(RpcFailedError, match="unsupported read-only"):
        cluster.run_ult(cm, driver())


def test_submit_retry_is_deduplicated():
    """Client sessions (exactly-once): a command retried after a lost
    acknowledgement is applied once."""
    cluster, margos, nodes, cm, handle = make_group(3, seed=29)
    cluster.run(until=2.0)
    cluster.faults.set_message_loss(0.2)

    def driver():
        total = 0
        for _ in range(15):
            total = yield from handle.submit(1)
        return total

    result = cluster.run_ult(cm, driver())
    assert result == 15
    cluster.faults.set_message_loss(0.0)
    cluster.run(until=cluster.now + 2.0)
    for node in nodes:
        if node.margo.process.alive:
            assert node.sm.value == 15
