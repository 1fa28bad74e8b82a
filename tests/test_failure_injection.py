"""Failure-injection tests: partitions, message loss, dead destinations,
and recovery paths across components."""

import pytest

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.colza import ColzaClient, ColzaError, ColzaProvider
from repro.margo import RpcError, RpcFailedError, RpcTimeoutError
from repro.raft import CounterStateMachine, RaftClient, RaftConfig, RaftNode
from repro.remi import RemiClient, RemiError
from repro.ssg import SwimConfig, create_group
from repro.storage import LocalStore
from repro.yokan import YokanClient, YokanProvider

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)
RC = RaftConfig(
    heartbeat_interval=0.05,
    election_timeout_min=0.15,
    election_timeout_max=0.3,
    rpc_timeout=0.06,
)


# ----------------------------------------------------------------------
# network partitions
# ----------------------------------------------------------------------
def test_rpc_times_out_across_partition_and_recovers():
    cluster = Cluster(seed=201)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)
    cluster.faults.partition("n0", "n1")

    def blocked():
        yield from client.forward(server.address, "echo", 1, timeout=0.5)

    with pytest.raises(RpcTimeoutError):
        cluster.run_ult(client, blocked())

    cluster.faults.heal("n0", "n1")

    def works():
        return (yield from client.forward(server.address, "echo", 2, timeout=0.5))

    assert cluster.run_ult(client, works()) == 2


def test_swim_split_brain_heals():
    """Partition a group 3|3: each side declares the other dead.  After
    healing, refutations (incarnation bumps) resurrect everyone and the
    views reconverge to the full membership."""
    cluster = Cluster(seed=202)
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(6)]
    groups = create_group("g", margos, cluster.randomness, swim=SWIM)
    cluster.run(until=2.0)
    # Partition nodes {0,1,2} from {3,4,5}.
    for a in range(3):
        for b in range(3, 6):
            cluster.faults.partition(f"n{a}", f"n{b}")
    cluster.run(until=cluster.now + 30.0)
    # Split brain: each side sees only itself.
    assert groups[0].view.size == 3
    assert groups[3].view.size == 3
    assert groups[0].view_hash != groups[3].view_hash
    # Heal and reconverge.
    cluster.network.heal_all()
    deadline = cluster.now + 120.0
    while cluster.now < deadline:
        cluster.run(until=cluster.now + 1.0)
        if all(g.view.size == 6 for g in groups) and len(
            {g.view_hash for g in groups}
        ) == 1:
            break
    assert all(g.view.size == 6 for g in groups)
    assert len({g.view_hash for g in groups}) == 1


def test_raft_commits_under_sustained_message_loss():
    cluster = Cluster(seed=203)
    margos = [cluster.add_margo(f"r{i}", node=f"n{i}") for i in range(3)]
    peers = [m.address for m in margos]
    nodes = [
        RaftNode(
            margo, f"raft{i}", provider_id=1,
            state_machine=CounterStateMachine(),
            peers=peers, rng=cluster.randomness.stream(f"raft:{i}"), config=RC,
        )
        for i, margo in enumerate(margos)
    ]
    cluster.run(until=2.0)
    cluster.faults.set_message_loss(0.15)
    app = cluster.add_margo("app", node="napp")
    handle = RaftClient(app).make_group_handle(peers, provider_id=1)

    def driver():
        total = 0
        for _ in range(20):
            total = yield from handle.submit(1)
        return total

    assert cluster.run_ult(app, driver()) == 20


# ----------------------------------------------------------------------
# dead destinations
# ----------------------------------------------------------------------
def test_remi_migration_to_dead_destination_fails_cleanly():
    cluster = Cluster(seed=204)
    src_node = cluster.node("src")
    dst_node = cluster.node("dst")
    src_store = LocalStore(src_node)
    LocalStore(dst_node)
    src = cluster.add_margo("src-proc", node=src_node)
    dst = cluster.add_margo("dst-proc", node=dst_node)
    from repro.remi import RemiProvider

    RemiProvider(dst, "remi", provider_id=0)
    src_store.write("data/file", b"x" * 1000)
    handle = RemiClient(src).make_handle(dst.address, 0)
    handle.timeout = 0.5
    cluster.faults.kill_process(dst.process)

    def driver():
        yield from handle.migrate_files(["data/file"])

    with pytest.raises(RpcError):
        cluster.run_ult(src, driver())
    # Source data untouched.
    assert src_store.read("data/file") == b"x" * 1000


def test_bedrock_migrate_provider_survives_dead_destination():
    cluster = Cluster(seed=205)
    src_margo, src_bedrock = boot_process(
        cluster, "src", "ns",
        {
            "libraries": {"yokan": "libyokan.so"},
            "providers": [{"name": "db", "type": "yokan", "provider_id": 1,
                           "config": {"database": {"type": "persistent"}}}],
        },
    )
    dst_margo, _ = boot_process(
        cluster, "dst", "nd",
        {"libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
         "providers": [{"name": "remi0", "type": "remi", "provider_id": 0}]},
    )
    cm = cluster.add_margo("client", node="nc")
    handle = BedrockClient(cm).make_service_handle(src_margo.address)
    handle.timeout = 3.0
    db = YokanClient(cm).make_handle(src_margo.address, 1)

    def fill():
        yield from db.put("k", "precious")

    cluster.run_ult(cm, fill())
    cluster.faults.kill_process(dst_margo.process)

    def migrate():
        yield from handle.migrate_provider("db", dst_margo.address,
                                           remi_provider_id=0)

    with pytest.raises((RpcFailedError, RpcTimeoutError)):
        cluster.run_ult(cm, migrate())
    # The source provider was NOT stopped: data still served.
    assert "db" in src_bedrock.records

    def read():
        return (yield from db.get("k"))

    assert cluster.run_ult(cm, read()) == b"precious"


def test_bedrock_migrate_needs_remi_at_destination():
    cluster = Cluster(seed=206)
    src_margo, src_bedrock = boot_process(
        cluster, "src", "ns",
        {
            "libraries": {"yokan": "libyokan.so"},
            "providers": [{"name": "db", "type": "yokan", "provider_id": 1,
                           "config": {"database": {"type": "persistent"}}}],
        },
    )
    dst_margo, _ = boot_process(
        cluster, "dst", "nd", {"libraries": {"yokan": "libyokan.so"}}
    )  # no REMI provider
    cm = cluster.add_margo("client", node="nc")
    handle = BedrockClient(cm).make_service_handle(src_margo.address)

    def migrate():
        yield from handle.migrate_provider("db", dst_margo.address,
                                           remi_provider_id=0)

    with pytest.raises(RpcFailedError):
        cluster.run_ult(cm, migrate())
    assert "db" in src_bedrock.records


def test_virtual_database_all_replicas_dead():
    cluster = Cluster(seed=207)
    from repro.yokan import VirtualYokanProvider, YokanError

    targets = []
    replica_margos = []
    for i in range(2):
        margo = cluster.add_margo(f"rep{i}", node=f"n{i}")
        YokanProvider(margo, f"rdb{i}", provider_id=1)
        targets.append({"address": margo.address, "provider_id": 1})
        replica_margos.append(margo)
    front = cluster.add_margo("front", node="nf")
    VirtualYokanProvider(
        front, "vdb", provider_id=9,
        config={"targets": targets, "rpc_timeout": 0.3},
    )
    app = cluster.add_margo("app", node="na")
    db = YokanClient(app).make_handle(front.address, 9)

    def write():
        yield from db.put("k", "v")

    cluster.run_ult(app, write())
    for margo in replica_margos:
        cluster.faults.kill_process(margo.process)

    def read():
        yield from db.get("k")

    with pytest.raises(RpcFailedError, match="no live replica"):
        cluster.run_ult(app, read())


def test_colza_refresh_fails_when_everyone_is_dead():
    cluster = Cluster(seed=208)
    margos = [cluster.add_margo(f"c{i}", node=f"n{i}") for i in range(2)]
    groups = create_group("g", margos, cluster.randomness, swim=SWIM)
    for i, (margo, group) in enumerate(zip(margos, groups)):
        ColzaProvider(margo, f"colza{i}", provider_id=1, group=group)
    app = cluster.add_margo("app", node="na")
    pipeline = ColzaClient(app).make_pipeline_handle(
        [m.address for m in margos], provider_id=1
    )
    for margo in margos:
        cluster.faults.kill_process(margo.process)

    def driver():
        yield from pipeline.refresh()

    with pytest.raises(ColzaError, match="no live pipeline member"):
        cluster.run_ult(app, driver())


def test_node_death_destroys_persistent_data_but_pfs_survives():
    """The transient-vs-permanent failure distinction (paper section 2.3)
    end to end: node death wipes local data; PFS checkpoints survive."""
    from repro.storage import ParallelFileSystem

    cluster = Cluster(seed=209)
    pfs = ParallelFileSystem()
    node = cluster.node("n0")
    store = LocalStore(node)
    server = cluster.add_margo("server", node=node)
    provider = YokanProvider(
        server, "db", provider_id=1, config={"database": {"type": "persistent"}}
    )
    app = cluster.add_margo("app", node="na")
    db = YokanClient(app).make_handle(server.address, 1)

    def phase1():
        yield from db.put("k", "v")
        yield from db.flush()
        yield from provider.checkpoint(pfs, "ckpt/db")

    cluster.run_ult(app, phase1())
    assert store.exists("yokan/db.db/0-server/1")

    cluster.faults.kill_node(node)
    assert store.wiped  # permanent failure: local data gone
    assert pfs.exists("ckpt/db")  # checkpoint survives

    # Restore on a fresh node.
    replacement = cluster.add_margo("server2", node="n1")
    restored = YokanProvider(replacement, "db2", provider_id=1)
    db2 = YokanClient(app).make_handle(replacement.address, 1)

    def phase2():
        yield from restored.restore(pfs, "ckpt/db")
        return (yield from db2.get("k"))

    assert cluster.run_ult(app, phase2()) == b"v"


def test_late_response_after_timeout_is_dropped():
    """A response arriving after the client timed out must not corrupt a
    later RPC (sequence-number matching)."""
    cluster = Cluster(seed=210)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    from repro.margo import Compute

    def slow(ctx):
        yield Compute(1.0)  # longer than the client timeout
        return "late"

    server.register("slow", slow)
    server.register("fast", lambda ctx: "fast")

    def driver():
        try:
            yield from client.forward(server.address, "slow", timeout=0.1)
            raise AssertionError("should have timed out")
        except RpcTimeoutError:
            pass
        # Let the late response arrive while we issue a new RPC.
        result = yield from client.forward(server.address, "fast", timeout=5.0)
        return result

    assert cluster.run_ult(client, driver()) == "fast"
