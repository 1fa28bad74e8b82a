"""Tests for Bedrock: boot, reconfiguration, dependencies, migration, 2PC."""

import pytest

from repro import Cluster
from repro.bedrock import (
    BedrockClient,
    BedrockConfigError,
    BedrockModule,
    BedrockServer,
    ModuleError,
    TransactionError,
    boot_process,
    builtin_libraries,
    register_library,
)
from repro.core.component import Provider
from repro.margo import RpcFailedError
from repro.storage import ParallelFileSystem
from repro.yokan import YokanClient

# The paper's Listing 3, adapted to the built-in libraries.
LISTING3 = {
    "margo": {
        "argobots": {
            "pools": [{"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"}],
            "xstreams": [
                {"name": "MyES0", "scheduler": {"type": "basic", "pools": ["MyPoolX"]}}
            ],
        }
    },
    "libraries": {"yokan": "libyokan.so"},
    "providers": [
        {
            "name": "myProviderA",
            "type": "yokan",
            "provider_id": 1,
            "pool": "MyPoolX",
            "config": {"database": {"type": "map"}},
            "dependencies": {},
        }
    ],
}


@pytest.fixture()
def rig():
    cluster = Cluster(seed=41)
    margo, bedrock = boot_process(cluster, "server", "n0", LISTING3)
    client_margo = cluster.add_margo("client", node="nc")
    handle = BedrockClient(client_margo).make_service_handle(margo.address)
    return cluster, margo, bedrock, client_margo, handle


def run(cluster, margo, gen):
    return cluster.run_ult(margo, gen)


# ----------------------------------------------------------------------
# boot (Listing 3)
# ----------------------------------------------------------------------
def test_boot_from_listing3(rig):
    cluster, margo, bedrock, cm, _ = rig
    assert "myProviderA" in bedrock.records
    assert "MyPoolX" in margo.pools
    # The provider actually serves RPCs.
    db = YokanClient(cm).make_handle(margo.address, 1)

    def driver():
        yield from db.put("k", "v")
        return (yield from db.get("k"))

    assert run(cluster, cm, driver()) == b"v"


def test_boot_rejects_unknown_keys():
    cluster = Cluster(seed=1)
    with pytest.raises(BedrockConfigError):
        boot_process(cluster, "p", "n0", {"bogus": 1})


def test_boot_rejects_unknown_type():
    cluster = Cluster(seed=1)
    with pytest.raises(ModuleError):
        boot_process(
            cluster, "p", "n0",
            {"providers": [{"name": "x", "type": "never-loaded"}]},
        )


def test_boot_rejects_unknown_library():
    cluster = Cluster(seed=1)
    with pytest.raises(ModuleError, match="unknown library"):
        boot_process(cluster, "p", "n0", {"libraries": {"a": "libnope.so"}})


def test_boot_rejects_mismatched_library_type():
    cluster = Cluster(seed=1)
    with pytest.raises(BedrockConfigError, match="provides type"):
        boot_process(cluster, "p", "n0", {"libraries": {"warabi": "libyokan.so"}})


def test_local_dependency_resolution():
    cluster = Cluster(seed=1)
    _, bedrock = boot_process(
        cluster, "p", "n0",
        {
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [
                {"name": "remi0", "type": "remi", "provider_id": 0},
                {
                    "name": "db0",
                    "type": "yokan",
                    "provider_id": 1,
                    "dependencies": {"mover": "remi0"},
                },
            ],
        },
    )
    assert bedrock.dependents["remi0"] == {"local:db0"}


def test_boot_rejects_missing_local_dependency():
    cluster = Cluster(seed=1)
    from repro.bedrock import DependencyError

    with pytest.raises(DependencyError):
        boot_process(
            cluster, "p", "n0",
            {
                "libraries": {"yokan": "libyokan.so"},
                "providers": [
                    {"name": "db0", "type": "yokan", "provider_id": 1,
                     "dependencies": {"mover": "ghost"}},
                ],
            },
        )


# ----------------------------------------------------------------------
# remote API (Listing 5)
# ----------------------------------------------------------------------
def test_listing5_sequence(rig):
    """addPool; removePool; loadModule; startProvider -- remotely."""
    cluster, margo, bedrock, cm, handle = rig

    def driver():
        yield from handle.add_pool({"name": "TempPool"})
        yield from handle.remove_pool("TempPool")
        yield from handle.add_pool({"name": "BPool"})
        yield from handle.add_xstream(
            {"name": "BES", "scheduler": {"type": "basic", "pools": ["BPool"]}}
        )
        yield from handle.load_module("warabi", "libwarabi.so")
        result = yield from handle.start_provider(
            "myProviderB", "warabi", provider_id=2, pool="BPool"
        )
        providers = yield from handle.list_providers()
        return result, providers

    result, providers = run(cluster, cm, driver())
    assert result["name"] == "myProviderB"
    assert providers == ["myProviderA", "myProviderB"]
    assert "BPool" in margo.pools


def test_stop_provider_remote(rig):
    cluster, margo, bedrock, cm, handle = rig

    def driver():
        yield from handle.stop_provider("myProviderA")
        return (yield from handle.list_providers())

    assert run(cluster, cm, driver()) == []
    assert "myProviderA" not in bedrock.records


def test_stop_depended_on_provider_rejected():
    cluster = Cluster(seed=1)
    margo, bedrock = boot_process(
        cluster, "p", "n0",
        {
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [
                {"name": "remi0", "type": "remi", "provider_id": 0},
                {"name": "db0", "type": "yokan", "provider_id": 1,
                 "dependencies": {"mover": "remi0"}},
            ],
        },
    )
    cm = cluster.add_margo("client", node="nc")
    handle = BedrockClient(cm).make_service_handle(margo.address)

    def driver():
        yield from handle.stop_provider("remi0")

    with pytest.raises(RpcFailedError, match="depended on"):
        run(cluster, cm, driver())

    # After stopping the dependent, the dependency can go.
    def driver2():
        yield from handle.stop_provider("db0")
        yield from handle.stop_provider("remi0")

    run(cluster, cm, driver2())


def test_duplicate_provider_rejected(rig):
    cluster, _, _, cm, handle = rig

    def driver():
        yield from handle.start_provider("myProviderA", "yokan", provider_id=7)

    with pytest.raises(RpcFailedError, match="already exists"):
        run(cluster, cm, driver())


def test_type_id_conflict_rejected(rig):
    cluster, _, _, cm, handle = rig

    def driver():
        yield from handle.start_provider("another", "yokan", provider_id=1)

    with pytest.raises(RpcFailedError, match="already in use"):
        run(cluster, cm, driver())


def test_remove_pool_used_by_provider_rejected(rig):
    cluster, _, _, cm, handle = rig

    def driver():
        yield from handle.remove_pool("MyPoolX")

    with pytest.raises(RpcFailedError, match="used by providers"):
        run(cluster, cm, driver())


def test_get_config_and_jx9_query(rig):
    cluster, margo, _, cm, handle = rig

    def driver():
        config = yield from handle.get_config()
        names = yield from handle.query(
            "$result = [];\n"
            "foreach ($__config__.providers as $p) {\n"
            "    array_push($result, $p.name); }\n"
            "return $result;"
        )
        return config, names

    config, names = run(cluster, cm, driver())
    assert names == ["myProviderA"]
    assert config["libraries"]["yokan"] == "libyokan.so"
    assert any(p["name"] == "myProviderA" for p in config["providers"])
    pool_names = [p["name"] for p in config["margo"]["argobots"]["pools"]]
    assert "MyPoolX" in pool_names


def test_remote_dependency_and_pin(rig):
    """A provider on process B depends on a provider on process A; A's
    Bedrock learns about the remote dependent and protects it."""
    cluster, margo_a, bedrock_a, cm, handle_a = rig
    margo_b, bedrock_b = boot_process(
        cluster, "server-b", "nb",
        {"libraries": {"yokan": "libyokan.so", "yokan-virtual": "libyokan-virtual.so"}},
    )
    handle_b = BedrockClient(cm).make_service_handle(margo_b.address)

    def driver():
        yield from handle_b.start_provider(
            "vdb",
            "yokan-virtual",
            provider_id=9,
            config={"targets": [{"address": margo_a.address, "provider_id": 1}]},
            dependencies={
                "backend": {
                    "type": "yokan",
                    "address": margo_a.address,
                    "provider_id": 1,
                }
            },
        )

    run(cluster, cm, driver())
    assert bedrock_a.dependents["myProviderA"] == {
        f"remote:{margo_b.address}:vdb"
    }

    # A's provider now refuses to stop.
    def try_stop():
        yield from handle_a.stop_provider("myProviderA")

    with pytest.raises(RpcFailedError, match="depended on"):
        run(cluster, cm, try_stop())

    # Stopping the dependent unpins, then the stop succeeds.
    def unwind():
        yield from handle_b.stop_provider("vdb")
        yield from handle_a.stop_provider("myProviderA")

    run(cluster, cm, unwind())


# ----------------------------------------------------------------------
# checkpoint / restore via Bedrock
# ----------------------------------------------------------------------
def test_checkpoint_restore_via_bedrock():
    cluster = Cluster(seed=42)
    pfs = ParallelFileSystem()
    margo, bedrock = boot_process(cluster, "p", "n0", LISTING3, pfs=pfs)
    cm = cluster.add_margo("client", node="nc")
    handle = BedrockClient(cm).make_service_handle(margo.address)
    db = YokanClient(cm).make_handle(margo.address, 1)

    def driver():
        yield from db.put("k", "precious")
        ckpt = yield from handle.checkpoint_provider("myProviderA", "ckpt/a")
        yield from db.put("k", "clobbered")
        restored = yield from handle.restore_provider("myProviderA", "ckpt/a")
        return ckpt, restored, (yield from db.get("k"))

    ckpt, restored, value = run(cluster, cm, driver())
    assert value == b"precious"
    assert ckpt["bytes"] > 0
    assert restored == {"bytes": ckpt["bytes"], "path": "ckpt/a"}
    assert pfs.exists("ckpt/a")


def test_checkpoint_without_pfs_rejected(rig):
    cluster, _, _, cm, handle = rig

    def driver():
        yield from handle.checkpoint_provider("myProviderA", "x")

    with pytest.raises(RpcFailedError, match="no PFS"):
        run(cluster, cm, driver())


# ----------------------------------------------------------------------
# provider migration via Bedrock (paper section 6)
# ----------------------------------------------------------------------
def test_migrate_provider_between_processes():
    cluster = Cluster(seed=43)
    src_config = {
        "libraries": {"yokan": "libyokan.so"},
        "providers": [
            {"name": "db", "type": "yokan", "provider_id": 1,
             "config": {"database": {"type": "persistent"}}},
        ],
    }
    dst_config = {
        "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
        "providers": [{"name": "remi0", "type": "remi", "provider_id": 0}],
    }
    src_margo, src_bedrock = boot_process(cluster, "src", "ns", src_config)
    dst_margo, dst_bedrock = boot_process(cluster, "dst", "nd", dst_config)
    cm = cluster.add_margo("client", node="nc")
    src_handle = BedrockClient(cm).make_service_handle(src_margo.address)
    db_src = YokanClient(cm).make_handle(src_margo.address, 1)
    db_dst = YokanClient(cm).make_handle(dst_margo.address, 1)

    def driver():
        yield from db_src.put_multi([(f"k{i}", f"v{i}") for i in range(10)])
        report = yield from src_handle.migrate_provider(
            "db", dst_margo.address, remi_provider_id=0
        )
        value = yield from db_dst.get("k3")
        return report, value

    report, value = run(cluster, cm, driver())
    assert value == b"v3"
    assert report["moved_files"] == 1
    assert "db" not in src_bedrock.records
    assert "db" in dst_bedrock.records


def test_warabi_migrate_preserves_id_counter():
    """Delete-then-migrate regression: the id counter is authoritative
    state, not ``max(surviving ids) + 1``.  After erasing the
    highest-id blob and migrating, the destination must hand out a
    *fresh* id, not re-issue the erased one to collide with any handle
    a client still holds."""
    from repro.warabi import WarabiClient

    cluster = Cluster(seed=47)
    src_config = {
        "libraries": {"warabi": "libwarabi.so"},
        "providers": [
            {"name": "blobs", "type": "warabi", "provider_id": 1,
             "config": {"target": {"type": "persistent"}}},
        ],
    }
    dst_config = {
        "libraries": {"warabi": "libwarabi.so", "remi": "libremi.so"},
        "providers": [{"name": "remi0", "type": "remi", "provider_id": 0}],
    }
    src_margo, src_bedrock = boot_process(cluster, "src", "ns", src_config)
    dst_margo, dst_bedrock = boot_process(cluster, "dst", "nd", dst_config)
    cm = cluster.add_margo("client", node="nc")
    src_handle = BedrockClient(cm).make_service_handle(src_margo.address)
    blobs_src = WarabiClient(cm).make_handle(src_margo.address, 1)
    blobs_dst = WarabiClient(cm).make_handle(dst_margo.address, 1)

    def driver():
        ids = []
        for _ in range(3):
            bid = yield from blobs_src.create(size=4)
            ids.append(bid)
        yield from blobs_src.write(ids[0], b"aaaa")
        yield from blobs_src.erase(ids[2])
        yield from src_handle.migrate_provider(
            "blobs", dst_margo.address, remi_provider_id=0
        )
        survivors = yield from blobs_dst.list()
        fresh = yield from blobs_dst.create(size=1)
        data = yield from blobs_dst.read(ids[0])
        return ids, survivors, fresh, data

    ids, survivors, fresh, data = run(cluster, cm, driver())
    assert ids == [0, 1, 2]
    assert survivors == [0, 1]  # blob data survived the migration
    assert data == b"aaaa"
    assert fresh == 3  # counter carried over; id 2 is never re-issued
    assert "blobs" not in src_bedrock.records
    assert "blobs" in dst_bedrock.records


# ----------------------------------------------------------------------
# 2PC: the paper's c1/c2 conflict scenario
# ----------------------------------------------------------------------
def c1_c2_rig():
    """Two processes: n2 hosts p2; c1 wants to create p1 on n1 depending
    on p2; c2 wants to destroy p2."""
    cluster = Cluster(seed=44)
    margo1, bedrock1 = boot_process(
        cluster, "n1-proc", "n1",
        {"libraries": {"yokan": "libyokan.so", "yokan-virtual": "libyokan-virtual.so"}},
    )
    margo2, bedrock2 = boot_process(
        cluster, "n2-proc", "n2",
        {
            "libraries": {"yokan": "libyokan.so"},
            "providers": [{"name": "p2", "type": "yokan", "provider_id": 1}],
        },
    )
    c1 = cluster.add_margo("c1", node="nc1")
    c2 = cluster.add_margo("c2", node="nc2")
    group1 = BedrockClient(c1).make_service_group_handle([margo1.address, margo2.address])
    group2 = BedrockClient(c2).make_service_group_handle([margo1.address, margo2.address])
    start_op = {
        "name": "p1",
        "type": "yokan-virtual",
        "provider_id": 5,
        "config": {"targets": [{"address": margo2.address, "provider_id": 1}]},
        "dependencies": {
            "backend": {
                "type": "yokan",
                "address": margo2.address,
                "provider_id": 1,
                "provider_name": "p2",
            }
        },
    }
    return cluster, margo1, margo2, bedrock1, bedrock2, c1, c2, group1, group2, start_op


def test_2pc_create_with_pin_succeeds_then_destroy_fails():
    cluster, margo1, margo2, b1, b2, c1, c2, group1, group2, start_op = c1_c2_rig()

    def create():
        yield from group1.start_provider_tx(margo1.address, start_op)

    cluster.run_ult(c1, create())
    assert "p1" in b1.records
    assert b2.dependents["p2"] == {f"remote:{margo1.address}:p1"}

    def destroy():
        yield from group2.stop_provider_tx(margo2.address, "p2")

    with pytest.raises(TransactionError):
        cluster.run_ult(c2, destroy())
    assert "p2" in b2.records  # still alive


def test_2pc_destroy_first_then_create_fails():
    cluster, margo1, margo2, b1, b2, c1, c2, group1, group2, start_op = c1_c2_rig()

    def destroy():
        yield from group2.stop_provider_tx(margo2.address, "p2")

    cluster.run_ult(c2, destroy())
    assert "p2" not in b2.records

    def create():
        yield from group1.start_provider_tx(margo1.address, start_op)

    with pytest.raises(TransactionError, match="does not exist"):
        cluster.run_ult(c1, create())
    assert "p1" not in b1.records


def test_2pc_concurrent_conflict_exactly_one_wins():
    """The paper's exact guarantee: launched concurrently, either c1's
    create or c2's destroy succeeds -- never both, never neither-with-
    corruption."""
    cluster, margo1, margo2, b1, b2, c1, c2, group1, group2, start_op = c1_c2_rig()
    outcomes = {}

    def create():
        try:
            yield from group1.start_provider_tx(margo1.address, start_op)
            outcomes["create"] = True
        except TransactionError:
            outcomes["create"] = False

    def destroy():
        try:
            yield from group2.stop_provider_tx(margo2.address, "p2")
            outcomes["destroy"] = True
        except TransactionError:
            outcomes["destroy"] = False

    cluster.spawn(c1, create())
    cluster.spawn(c2, destroy())
    cluster.run()
    assert sorted(outcomes) == ["create", "destroy"]
    assert outcomes["create"] != outcomes["destroy"], outcomes
    if outcomes["create"]:
        # p1 exists and depends on a live p2.
        assert "p1" in b1.records and "p2" in b2.records
    else:
        # p2 destroyed; p1 never created.
        assert "p1" not in b1.records and "p2" not in b2.records


def test_2pc_locks_released_after_abort():
    cluster, margo1, margo2, b1, b2, c1, c2, group1, group2, start_op = c1_c2_rig()

    def destroy_then_retry_create():
        yield from group2.stop_provider_tx(margo2.address, "p2")

    cluster.run_ult(c2, destroy_then_retry_create())

    def create_fails():
        try:
            yield from group1.start_provider_tx(margo1.address, start_op)
            return True
        except TransactionError:
            return False

    assert cluster.run_ult(c1, create_fails()) is False
    # Locks were released: a valid transaction on the same entities works.
    def recreate_p2():
        yield from group2.execute_transaction(
            {margo2.address: [{"action": "start_provider", "name": "p2",
                               "type": "yokan", "provider_id": 1}]}
        )

    cluster.run_ult(c2, recreate_p2())
    assert "p2" in b2.records
    assert b2._locks == {}


# ----------------------------------------------------------------------
# remote client libraries and the hooks a provider may lack
# ----------------------------------------------------------------------
class BareProvider(Provider):
    """Registers no RPC and overrides no dynamic-service hook."""

    component_type = "bare"


def _bare_factory(margo, name, provider_id, pool, config, dependencies):
    provider = BareProvider(margo, name, provider_id, pool=pool, config=config)
    provider.dependencies = dependencies
    return provider


#: Claims migration and checkpoints, so Bedrock passes the request on
#: and the provider's inherited refusal answers.
BARE = BedrockModule(type_name="bare", provider_factory=_bare_factory,
                     supports_migration=True, supports_checkpoint=True)
REMOTE_LIBRARIES = {"warabi": "libwarabi.so", "remi": "libremi.so",
                    "poesie": "libpoesie.so", "bare": "libbare.so"}


@pytest.fixture()
def bare_library():
    register_library("libbare.so", BARE)  # the same module again is a no-op


def test_listing3_remote_dependencies_get_client_handles(bare_library):
    import repro.dataset  # noqa: F401 - registers libdataset.so

    libraries = {**REMOTE_LIBRARIES, "yokan": "libyokan.so", "dataset": "libdataset.so"}
    cluster = Cluster(seed=45)
    margo_a, _ = boot_process(cluster, "a", "na", {
        "libraries": libraries,
        "providers": [
            {"name": "blobs", "type": "warabi", "provider_id": 1},
            {"name": "mover", "type": "remi", "provider_id": 0},
            {"name": "interp", "type": "poesie", "provider_id": 2},
            {"name": "metadb", "type": "yokan", "provider_id": 3},
            {"name": "catalog", "type": "dataset", "provider_id": 4,
             "dependencies": {"metadata": "metadb", "data": "blobs"}},
        ],
    })
    remote = {name: {"type": type_name, "address": margo_a.address, "provider_id": pid}
              for name, type_name, pid in (("blobs", "warabi", 1), ("mover", "remi", 0),
                                           ("interp", "poesie", 2), ("catalog", "dataset", 4))}
    margo_b, bedrock_b = boot_process(cluster, "b", "nb", {
        "libraries": libraries,
        "providers": [{"name": "user", "type": "bare", "provider_id": 1,
                       "dependencies": remote}],
    })
    handles = bedrock_b.records["user"].instance.dependencies
    assert {name: (type(h).__name__, h.address, h.provider_id)
            for name, h in handles.items()} == {
        "blobs": ("TargetHandle", margo_a.address, 1),
        "mover": ("MigrationHandle", margo_a.address, 0),
        "interp": ("InterpreterHandle", margo_a.address, 2),
        "catalog": ("DatasetHandle", margo_a.address, 4),
    }

    def driver():  # the handles Bedrock built reach the remote providers
        region = yield from handles["blobs"].create(size=4)
        yield from handles["catalog"].create("runs")
        return region, (yield from handles["catalog"].list())

    assert run(cluster, margo_b, driver()) == (0, ["runs"])


def test_providers_without_the_hooks_refuse_migrate_checkpoint_restore(bare_library):
    cluster = Cluster(seed=46)
    margo, bedrock = boot_process(cluster, "p", "n0", {
        "libraries": REMOTE_LIBRARIES,
        "providers": [{"name": "interp", "type": "poesie", "provider_id": 2},
                      {"name": "bare", "type": "bare", "provider_id": 3}],
    }, pfs=ParallelFileSystem())
    cm = cluster.add_margo("client", node="nc")
    handle = BedrockClient(cm).make_service_handle(margo.address)

    def refusal(call, *args):
        def driver():
            yield from call(*args)

        with pytest.raises(RpcFailedError) as caught:
            run(cluster, cm, driver())
        return str(caught.value)

    # Bedrock refuses for a module without the hook (bedrock/server.py) ...
    assert "type 'poesie' does not support migration" in refusal(
        handle.migrate_provider, "interp", margo.address)
    assert "type 'poesie' does not support checkpoints" in refusal(
        handle.checkpoint_provider, "interp", "x")
    assert "PoesieProvider does not support restore" in refusal(
        handle.restore_provider, "interp", "x")
    # ... and the base provider for one that claims it (core/component.py).
    assert "BareProvider does not support migration" in refusal(
        handle.migrate_provider, "bare", margo.address)
    assert "BareProvider does not support checkpointing" in refusal(
        handle.checkpoint_provider, "bare", "x")
    assert "BareProvider does not support restore" in refusal(
        handle.restore_provider, "bare", "x")
    assert sorted(bedrock.records) == ["bare", "interp"]  # nothing moved
