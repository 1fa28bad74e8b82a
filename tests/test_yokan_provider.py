"""Integration tests: Yokan provider/client over RPC, virtual replication."""

import pytest

from repro import Cluster
from repro.core.component import ProviderIdError
from repro.core.parallel import ParallelError, parallel
from repro.margo import RpcFailedError
from repro.margo.ult import UltSleep
from repro.mercury import BulkHandle
from repro.storage import LocalStore, ParallelFileSystem
from repro.yokan import (
    DatabaseHandle,
    PersistentBackend,
    VirtualYokanProvider,
    YokanClient,
    YokanError,
    YokanProvider,
)


@pytest.fixture()
def rig():
    cluster = Cluster(seed=3)
    server = cluster.add_margo("server", node="n0")
    client_margo = cluster.add_margo("client", node="n1")
    provider = YokanProvider(server, "db0", provider_id=1)
    handle = YokanClient(client_margo).make_handle(server.address, 1)
    return cluster, server, client_margo, provider, handle


def run(cluster, margo, gen):
    return cluster.run_ult(margo, gen)


def test_put_get_roundtrip(rig):
    cluster, _, cm, _, db = rig

    def driver():
        yield from db.put("key", "value")
        return (yield from db.get("key"))

    assert run(cluster, cm, driver()) == b"value"


def test_get_missing_key_raises_remote_error(rig):
    cluster, _, cm, _, db = rig

    def driver():
        yield from db.get("ghost")

    with pytest.raises(RpcFailedError, match="no such key"):
        run(cluster, cm, driver())


def test_exists_erase_count(rig):
    cluster, _, cm, _, db = rig

    def driver():
        yield from db.put("a", "1")
        yield from db.put("b", "2")
        existed = yield from db.exists("a")
        count_before = yield from db.count()
        yield from db.erase("a")
        exists_after = yield from db.exists("a")
        count_after = yield from db.count()
        return existed, count_before, exists_after, count_after

    assert run(cluster, cm, driver()) == (True, 2, False, 1)


def test_multi_ops_and_list_keys(rig):
    cluster, _, cm, _, db = rig

    def driver():
        yield from db.put_multi([(f"k{i}", f"v{i}") for i in range(5)])
        keys = yield from db.list_keys(prefix="k", max_keys=3)
        values = yield from db.get_multi(["k0", "k4"])
        return keys, values

    keys, values = run(cluster, cm, driver())
    assert keys == [b"k0", b"k1", b"k2"]
    assert values == [b"v0", b"v4"]


@pytest.mark.parametrize("backend_type", ["map", "ordered"])
def test_list_keys_rejects_negative_max_keys(backend_type):
    """A negative page size is an error reply on every backend, not a
    backend-specific slice; 0 still means no limit."""
    cluster = Cluster(seed=3)
    server = cluster.add_margo("server", node="n0")
    client_margo = cluster.add_margo("client", node="n1")
    YokanProvider(server, "db0", provider_id=1,
                  config={"database": {"type": backend_type}})
    db = YokanClient(client_margo).make_handle(server.address, 1)
    run(cluster, client_margo, db.put_multi([(f"a{i}", "v") for i in range(5)]))
    for start_after, max_keys in ((None, -2), ("a1", -1)):
        with pytest.raises(RpcFailedError, match="max_keys"):
            run(cluster, client_margo, db.list_keys("a", start_after, max_keys))
    assert run(cluster, client_margo, db.list_keys("a", "a1", 0)) == [b"a2", b"a3", b"a4"]


def test_large_value_uses_bulk_path(rig):
    cluster, server, cm, _, db = rig
    big = b"x" * (1 << 20)
    bytes_before = cluster.network.bytes_sent

    def driver():
        yield from db.put("big", big)
        return (yield from db.get("big"))

    result = run(cluster, cm, driver())
    assert result == big
    # Bulk moved the megabyte twice (put pull + get push); RPC payloads
    # stayed small, so total bytes is ~2 MiB, not 4.
    moved = cluster.network.bytes_sent - bytes_before
    assert (2 << 20) <= moved < (2 << 20) + 20_000


def test_provider_id_bounds():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    with pytest.raises(ProviderIdError):
        YokanProvider(server, "bad", provider_id=65535)
    with pytest.raises(ProviderIdError):
        YokanProvider(server, "bad", provider_id=-1)


def test_two_providers_same_process(rig):
    cluster, server, cm, _, db1 = rig
    YokanProvider(server, "db2", provider_id=2)
    db2 = YokanClient(cm).make_handle(server.address, 2)

    def driver():
        yield from db1.put("k", "in-1")
        yield from db2.put("k", "in-2")
        a = yield from db1.get("k")
        b = yield from db2.get("k")
        return a, b

    assert run(cluster, cm, driver()) == (b"in-1", b"in-2")


def test_provider_destroy_deregisters(rig):
    cluster, server, cm, provider, db = rig
    provider.destroy()
    assert provider.destroyed

    def driver():
        yield from db.put("k", "v")

    from repro.margo import NoSuchRpcError

    with pytest.raises(NoSuchRpcError):
        run(cluster, cm, driver())


def test_persistent_provider_flush_to_local_store():
    cluster = Cluster(seed=3)
    node = cluster.node("n0")
    store = LocalStore(node)
    server = cluster.add_margo("server", node=node)
    cm = cluster.add_margo("client", node="n1")
    YokanProvider(
        server, "pdb", provider_id=1, config={"database": {"type": "persistent"}}
    )
    db = YokanClient(cm).make_handle(server.address, 1)

    def driver():
        yield from db.put("k", "v")
        yield from db.flush()

    run(cluster, cm, driver())
    assert store.exists("yokan/pdb.db/0-server/1")


@pytest.fixture()
def sync_rig():
    cluster = Cluster(seed=3)
    store = LocalStore(cluster.node("n0"))
    server = cluster.add_margo("server", node="n0")
    cm = cluster.add_margo("client", node="n1")
    YokanProvider(server, "pdb", provider_id=1,
                  config={"database": {"type": "persistent", "sync_on_put": True}})
    return cluster, store, server, cm, YokanClient(cm).make_handle(server.address, 1)


def test_sync_on_put_writes_one_segment_charged_at_its_length(sync_rig, monkeypatch):
    """On a 200-record database under ``sync_on_put``, one put is one
    store write of that record alone, and the put waits for those bytes."""
    cluster, store, _, cm, db = sync_rig
    written, charged = [], []
    real_write, real_cost = store.write, store.write_cost
    monkeypatch.setattr(store, "write", lambda p, d: written.append(len(d)) or real_write(p, d))
    monkeypatch.setattr(store, "write_cost", lambda n: charged.append(n) or real_cost(n))

    def driver():
        yield from db.put_multi([(f"key{i:03d}", "v" * 100) for i in range(200)])
        del written[:], charged[:]
        started = cluster.now
        yield from db.put("key200", "v" * 100)
        return cluster.now - started

    elapsed = run(cluster, cm, driver())
    assert written == charged == [8 + 4 + 6 + 4 + 100]  # header + the one record
    assert elapsed == pytest.approx(3.61754277777778e-05, abs=1e-12)


def test_overlapping_sync_puts_leave_a_log_prefix_at_a_crash(sync_rig):
    """A 1 MB put seals first, a 10-byte one wakes first and writes both
    in order, and the process dies: the store holds a log prefix."""
    cluster, store, server, cm, db = sync_rig
    db.timeout = 0.01
    run(cluster, cm, db.put("a", "1"))

    def put(key, size, after):
        yield UltSleep(after)
        yield from db.put(key, "v" * size)

    cluster.faults.kill_process_at(400e-6, server.process)
    with pytest.raises(ParallelError) as failed:
        run(cluster, cm, parallel(cm, [put("big", 1 << 20, 0), put("small", 10, 200e-6)]))
    assert [index for index, _ in failed.value.errors] == [0]  # the small put was acked
    reopened = PersistentBackend({"store": store, "path": "yokan/pdb.db"})
    assert sorted(reopened.items()) == [(b"a", b"1"), (b"big", b"v" * (1 << 20)), (b"small", b"v" * 10)]


def test_persistent_provider_without_store_raises():
    cluster = Cluster(seed=3)
    server = cluster.add_margo("server", node="n0")
    with pytest.raises(YokanError, match="LocalStore"):
        YokanProvider(
            server, "pdb", provider_id=1, config={"database": {"type": "persistent"}}
        )


def test_checkpoint_restore_via_pfs():
    cluster = Cluster(seed=3)
    pfs = ParallelFileSystem()
    s1 = cluster.add_margo("s1", node="n0")
    s2 = cluster.add_margo("s2", node="n1")
    cm = cluster.add_margo("client", node="n2")
    p1 = YokanProvider(s1, "db", provider_id=1)
    db1 = YokanClient(cm).make_handle(s1.address, 1)

    def phase1():
        yield from db1.put_multi([(f"k{i}", f"v{i}") for i in range(10)])
        yield from p1.checkpoint(pfs, "ckpt/db")

    run(cluster, cm, phase1())
    assert pfs.exists("ckpt/db")

    # Restore into a fresh provider on another node (node replacement).
    p2 = YokanProvider(s2, "db-restored", provider_id=1)
    db2 = YokanClient(cm).make_handle(s2.address, 1)

    def phase2():
        yield from p2.restore(pfs, "ckpt/db")
        return (yield from db2.get("k7"))

    assert run(cluster, cm, phase2()) == b"v7"


def test_persistent_restore_sleeps_for_its_local_image_write():
    """A persistent restore reads the checkpoint from the PFS, then writes
    the restored image as one local segment, charged at its bytes."""
    cluster = Cluster(seed=3)
    pfs = ParallelFileSystem()
    source = YokanProvider(cluster.add_margo("s1", node="n0"), "db", provider_id=1)
    source.backend.put_multi([(b"k%d" % i, b"v" * 100) for i in range(50)])
    node = cluster.node("n1")
    store = LocalStore(node)
    margo = cluster.add_margo("s2", node=node)
    target = YokanProvider(margo, "db", provider_id=1, config={"database": {"type": "persistent"}})
    size = run(cluster, margo, source.checkpoint(pfs, "ckpt/db"))

    def restore():
        started = cluster.now
        yield from target.restore(pfs, "ckpt/db")
        return cluster.now - started

    elapsed = run(cluster, margo, restore())
    (segment,) = target.local_files()
    assert elapsed == pytest.approx(pfs.read_cost(size) + store.write_cost(store.size_of(segment)))
    assert dict(target.backend.items()) == dict(source.backend.items())


def test_get_config_reports_statistics(rig):
    cluster, _, cm, provider, db = rig

    def driver():
        yield from db.put("k", "value")

    run(cluster, cm, driver())
    doc = provider.get_config()
    assert doc["database"]["type"] == "map"
    assert doc["statistics"]["count"] == 1
    assert doc["statistics"]["size_bytes"] == 6


# ----------------------------------------------------------------------
# virtual databases (paper section 7, Observation 10)
# ----------------------------------------------------------------------
@pytest.fixture()
def virtual_rig():
    cluster = Cluster(seed=4)
    backends = []
    targets = []
    for i in range(3):
        margo = cluster.add_margo(f"replica{i}", node=f"n{i}")
        provider = YokanProvider(margo, f"rdb{i}", provider_id=1)
        backends.append(provider)
        targets.append({"address": margo.address, "provider_id": 1})
    front_margo = cluster.add_margo("front", node="nf")
    virtual = VirtualYokanProvider(
        front_margo, "vdb", provider_id=9,
        config={"targets": targets, "rpc_timeout": 0.5},
    )
    client_margo = cluster.add_margo("client", node="nc")
    handle = YokanClient(client_margo).make_handle(front_margo.address, 9)
    return cluster, backends, virtual, client_margo, handle


def test_virtual_put_replicates_to_all(virtual_rig):
    cluster, backends, _, cm, db = virtual_rig

    def driver():
        yield from db.put("k", "v")
        return (yield from db.get("k"))

    assert run(cluster, cm, driver()) == b"v"
    for provider in backends:
        assert provider.backend.get(b"k") == b"v"


def test_virtual_transparent_to_client(virtual_rig):
    """The client uses a plain DatabaseHandle -- it cannot tell the
    provider is virtual (the transparency requirement of Obs. 10)."""
    _, _, _, _, db = virtual_rig
    assert isinstance(db, DatabaseHandle)


def test_virtual_read_fails_over_dead_replica(virtual_rig):
    cluster, backends, _, cm, db = virtual_rig

    def write():
        yield from db.put("k", "v")

    run(cluster, cm, write())
    # Kill the first replica; reads must fail over to the second.
    cluster.faults.kill_process(backends[0].margo.process)

    def read():
        return (yield from db.get("k"))

    assert run(cluster, cm, read()) == b"v"


def test_virtual_write_with_dead_replica_still_succeeds(virtual_rig):
    cluster, backends, _, cm, db = virtual_rig
    cluster.faults.kill_process(backends[1].margo.process)

    def driver():
        yield from db.put("k", "v")
        return (yield from db.get("k"))

    assert run(cluster, cm, driver()) == b"v"
    assert backends[0].backend.get(b"k") == b"v"
    assert backends[2].backend.get(b"k") == b"v"


def test_virtual_count_exists_erase_with_a_dead_replica(virtual_rig):
    cluster, backends, _, cm, db = virtual_rig

    def write():
        yield from db.put_multi([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])

    run(cluster, cm, write())
    cluster.faults.kill_process(backends[0].margo.process)

    def driver():
        # Reads fail over past the dead replica; the erase goes to all.
        count = yield from db.count()
        found = yield from db.exists(b"b")
        yield from db.erase(b"b")
        gone = yield from db.exists(b"b")
        left = yield from db.count()
        return count, found, gone, left

    assert run(cluster, cm, driver()) == (3, True, False, 2)
    assert [p.backend.list_keys() for p in backends] == [
        [b"a", b"b", b"c"],  # dead: never saw the erase
        [b"a", b"c"],
        [b"a", b"c"],
    ]


def test_virtual_requires_targets():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("front", node="n0")
    with pytest.raises(YokanError, match="at least one target"):
        VirtualYokanProvider(margo, "vdb", provider_id=1, config={})


def test_virtual_resync_repairs_replaced_replica(virtual_rig):
    cluster, backends, virtual, cm, db = virtual_rig

    def write():
        yield from db.put_multi([(f"k{i}", f"v{i}") for i in range(5)])

    run(cluster, cm, write())
    # Simulate a replaced replica: wipe replica 2's backend.
    backends[2].backend.clear()
    assert backends[2].backend.count() == 0

    def repair():
        return (yield from virtual.resync(source_index=0))

    moved = run(cluster, virtual.margo, repair())
    assert moved == 5
    assert backends[2].backend.count() == 5


# ----------------------------------------------------------------------
# cost-model pin: batches travel by reference, the modelled cost does not
# move.  The literals are simulated seconds recorded at the commit that
# still packed every bulk batch with encode_records/decode_records.
# ----------------------------------------------------------------------
INLINE_PAIRS = [(f"in/{i:03d}".encode(), b"v" * (10 + i)) for i in range(10)]
BULK_PAIRS = [(f"bulk/{i:05d}".encode(), bytes([i % 251]) * (40 + i % 21)) for i in range(300)]
PINNED_NOW = {
    ("rig", "inline"): 2.263295000000001e-05,
    ("rig", "bulk"): 0.00018337651666666669,
    ("virtual_rig", "inline"): 4.147155e-05,
    ("virtual_rig", "bulk"): 0.00021304871666666668,
}


def _drive_batches(cluster, client_margo, db, pairs, monkeypatch):
    """put_multi + get_multi (two keys in three) + list_keys; returns the
    simulated clock afterwards, every bulk size, the keys read and the
    two replies."""
    from repro.margo.runtime import MargoInstance

    sizes = []
    plain_transfer = MargoInstance.bulk_transfer

    def recording_transfer(self, peer, size, op="pull"):
        sizes.append(size)
        return plain_transfer(self, peer, size, op=op)

    monkeypatch.setattr(MargoInstance, "bulk_transfer", recording_transfer)
    keys = [key for index, (key, _value) in enumerate(pairs) if index % 3]

    def driver():
        yield from db.put_multi(pairs)
        values = yield from db.get_multi(keys)
        listed = yield from db.list_keys(prefix=pairs[0][0][:3], max_keys=len(pairs) - 1)
        return values, listed

    values, listed = run(cluster, client_margo, driver())
    return cluster.kernel.now, sizes, keys, values, listed


@pytest.mark.parametrize("shape", ["inline", "bulk"])
@pytest.mark.parametrize("rig_name", ["rig", "virtual_rig"])
def test_batch_cost_model_is_pinned(rig_name, shape, request, monkeypatch):
    from repro.yokan import encode_records

    if rig_name == "rig":
        cluster, _, cm, provider, db = request.getfixturevalue(rig_name)
        providers = [provider]
    else:
        cluster, providers, _, cm, db = request.getfixturevalue(rig_name)
    pairs = INLINE_PAIRS if shape == "inline" else BULK_PAIRS
    now, sizes, keys, values, listed = _drive_batches(cluster, cm, db, pairs, monkeypatch)
    model = dict(pairs)
    assert values == [model[key] for key in keys]
    assert listed == sorted(model)[:-1]
    for provider in providers:
        assert dict(provider.backend.items()) == model
    put_stream = len(encode_records(pairs))
    get_stream = len(encode_records((key, model[key]) for key in keys))
    if shape == "inline":
        assert sizes == []
    elif rig_name == "rig":
        assert sizes == [put_stream, get_stream]
    else:
        # client -> front, front -> each of 3 replicas, first replica ->
        # front; the virtual provider replies inline.
        assert sizes == [put_stream] * 4 + [get_stream]
    assert now == PINNED_NOW[rig_name, shape]


@pytest.fixture()
def race_checker():
    """The race checker in record mode for one test; the mode the test
    found (off, record, strict or exact) is put back afterwards."""
    from repro.analysis.race import hooks

    found = (hooks.ENABLED, hooks._strict, hooks._SWAPPED)
    hooks.disable()
    hooks.enable()
    yield hooks
    hooks.disable()
    if found[0]:
        hooks.enable(strict=found[1], exact=found[2])


def test_batch_cost_model_under_race_detector(race_checker, rig, monkeypatch):
    """The detector still sees every key of a by-reference batch, and
    watching does not move simulated time."""
    hooks = race_checker
    noted = {"write": [], "read": []}
    plain_write, plain_read = hooks.note_write, hooks.note_read

    def counting_write(state, key, where):
        noted["write"].append((state, key))
        plain_write(state, key, where)

    def counting_read(state, key, where):
        noted["read"].append((state, key))
        plain_read(state, key, where)

    monkeypatch.setattr(hooks, "note_write", counting_write)
    monkeypatch.setattr(hooks, "note_read", counting_read)
    cluster, _, cm, provider, db = rig
    now, _sizes, keys, _values, _listed = _drive_batches(cluster, cm, db, BULK_PAIRS, monkeypatch)
    assert hooks.findings == []
    backend = provider.backend
    written = [key for state, key in noted["write"] if state is backend]
    assert written == [key for key, _value in BULK_PAIRS]
    assert [key for state, key in noted["read"] if state is backend] == keys
    assert now == PINNED_NOW["rig", "bulk"]


def test_erase_matching_replies_with_the_count(rig):
    cluster, _, cm, provider, db = rig
    pairs = [(b"ev1|raw", b"a"), (b"ev1|cal", b"b"), (b"ev2|raw", b"c"), (b"xx|raw", b"d")]

    def driver():
        yield from db.put_multi(pairs)
        return (yield from db.erase_matching(prefix=b"ev", suffix=b"|raw"))

    assert run(cluster, cm, driver()) == 2
    assert sorted(provider.backend.list_keys()) == [b"ev1|cal", b"xx|raw"]


@pytest.mark.parametrize("op, rule", [("erase_matching", "MCH030"), ("fetch_image", "MCH031")])
def test_whole_database_ops_are_seen_by_the_race_checker(race_checker, rig, op, rule):
    """A put, and an erase_matching (a write) or a fetch_image (a read)
    of the same key, from two client ULTs nothing orders, race."""
    cluster, _, cm, _, db = rig
    other = db.erase_matching(prefix=b"k") if op == "erase_matching" else db.fetch_image()
    run(cluster, cm, parallel(cm, [db.put(b"k1", b"v"), other]))
    assert rule in [f.rule_id for f in race_checker.findings]


def test_batch_rpcs_size_each_message_once(rig, monkeypatch):
    """A Batch or BulkHandle argument is sized by its declaration, so
    Yokan's batch RPCs (inline and bulk) and a Warabi bulk write cost
    one ``estimate_size`` call per message: request and reply."""
    from repro.margo import runtime
    from repro.mercury import serialization
    from repro.warabi import WarabiClient, WarabiProvider

    cluster, server, cm, _, db = rig
    WarabiProvider(server, "blobs", provider_id=2)
    target = WarabiClient(cm).make_handle(server.address, 2)
    sized = []
    walk = serialization.estimate_size

    def counted(obj):
        sized.append(obj)
        return walk(obj)

    def driver():
        blob_id = yield from target.create()
        sent = cm.rpcs_sent
        yield from db.put_multi(INLINE_PAIRS)
        yield from db.put_multi(BULK_PAIRS)
        yield from db.get_multi([key for key, _ in BULK_PAIRS])
        yield from db.list_keys(max_keys=100)
        yield from target.write(blob_id, bytes(1 << 16))
        return cm.rpcs_sent - sent

    monkeypatch.setattr(serialization, "estimate_size", counted)
    monkeypatch.setattr(runtime, "estimate_size", counted)
    rpcs = run(cluster, cm, driver())
    assert rpcs == 5
    assert len(sized) == 2 * (rpcs + 1)  # the create's two messages too


@pytest.mark.parametrize("component, config", [
    ("yokan", {"bulk_threshold": "8192"}),
    ("yokan", {"bulk_threshold": 8192.0}),
    ("yokan", {"database": {"type": "persistent", "sync_on_put": "false"}}),
    ("yokan", {"database": {"type": "persistent", "sync_on_put": 0}}),
    ("warabi", {"bulk_threshold": True}),
    ("warabi", {"bulk_threshold": "4096"}),
    ("remi", {"sync": "false"}),
    ("remi", {"sync": 0}),
    ("poesie", {"max_steps": "1000"}),
    ("poesie", {"max_steps": 2.9}),
    ("auth", {"token_ttl": "60"}),
    ("auth", {"token_ttl": True}),
    ("virtual", {"rpc_timeout": "0.5"}),
], ids=["threshold-str", "threshold-float", "sync-str", "sync-int", "warabi-bool", "warabi-str",
        "remi-sync-str", "remi-sync-int", "steps-str", "steps-float", "ttl-str", "ttl-bool",
        "timeout-str"])
def test_provider_configs_refuse_wrongly_typed_values(component, config):
    """Switches are JSON booleans, counts integers and durations numbers:
    a config that would be coerced is refused with the component's own
    error."""
    from repro.poesie import PoesieProvider, ScriptError
    from repro.remi import RemiError, RemiProvider
    from repro.security import AuthError, AuthProvider
    from repro.warabi import WarabiError, WarabiProvider
    from repro.yokan.virtual import VirtualYokanProvider

    cluster = Cluster(seed=3)
    LocalStore(cluster.node("n0"))
    server = cluster.add_margo("server", node="n0")
    provider_cls, error = {"yokan": (YokanProvider, YokanError),
                           "warabi": (WarabiProvider, WarabiError),
                           "remi": (RemiProvider, RemiError),
                           "poesie": (PoesieProvider, ScriptError),
                           "auth": (AuthProvider, AuthError),
                           "virtual": (VirtualYokanProvider, YokanError)}[component]
    if component == "virtual":
        config = dict(config, targets=[{"address": server.address, "provider_id": 2}])
    with pytest.raises(error, match="must be"):
        provider_cls(server, "p", provider_id=1, config=config)


def test_single_key_rpcs_encode_str_and_refuse_other_types(rig):
    """A raw sender's ``str`` key or value is stored as UTF-8, as a batch
    is; any other type is refused before it reaches the backend."""
    cluster, _, cm, provider, db = rig

    def driver():
        yield from db._forward("put", {"key": "k", "value": "v"})
        found = yield from db._forward("exists", {"key": "k"})
        value = yield from db._forward("get", {"key": "k"})
        yield from db._forward("erase", {"key": "k"})
        return found, value

    assert run(cluster, cm, driver()) == (True, b"v")
    assert dict(provider.backend.items()) == {}
    for args in ({"key": b"k", "value": 5}, {"key": 7, "value": b"v"}):
        with pytest.raises(RpcFailedError, match="must be bytes or str"):
            run(cluster, cm, db._forward("put", args))
    assert dict(provider.backend.items()) == {}


# ----------------------------------------------------------------------
# a batch is measured once, where it is built: no size can go stale
# ----------------------------------------------------------------------
def _plain(value):
    """A copy of ``value`` with every list (a Batch too) a plain list
    and every byte string ``bytes``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if type(value) is tuple:
        return tuple(_plain(item) for item in value)
    if isinstance(value, BulkHandle):
        return BulkHandle(value.owner_address, value.size, _plain(value.data))
    return bytes(value) if isinstance(value, (bytearray, memoryview)) else value


def test_provider_measures_plain_batches_from_other_senders(rig):
    """A sender that is not a DatabaseHandle sends plain lists (and
    ``str``); the provider normalises them as the client would."""
    cluster, _, cm, provider, db = rig

    def driver():
        yield from db._forward("put_multi", {"pairs": [("a", b"1"), (b"b", bytearray(b"22"))]})
        yield from db._forward("put", {"key": b"c", "value": "text"})
        values = yield from db._forward("get_multi", {"keys": ["a", b"b", b"c"]})
        return values

    values = run(cluster, cm, driver())
    assert dict(provider.backend.items()) == {b"a": b"1", b"b": b"22", b"c": b"text"}
    assert values == [b"1", b"22", b"text"]


@pytest.mark.parametrize("value_size", [16, 4096])  # inline and bulk batches
def test_batch_sizes_cannot_go_stale(rig, monkeypatch, value_size):
    from repro.mercury import RPCRequest, estimate_size
    from repro.sim.network import Network
    from repro.yokan import encode_records

    cluster, _, cm, provider, db = rig
    sent = []
    plain_send = Network.send

    def recording_send(self, src, dst_address, payload, size):
        if isinstance(payload, RPCRequest):
            sent.append((payload, _plain(payload.args)))
        return plain_send(self, src, dst_address, payload, size)

    monkeypatch.setattr(Network, "send", recording_send)
    pairs = [(f"k{i}".encode(), bytearray(b"v" * value_size)) for i in range(4)]
    want = {f"k{i}".encode(): b"v" * value_size for i in range(4)}

    def mutate_input():
        # Runs while put_multi is parked: the caller reuses its list
        # and its buffers.
        pairs[0][1][:] = b"x"
        pairs[1] = ("k1", "short")
        pairs.append(("late", "pair"))
        yield UltSleep(0)

    def driver():
        yield from parallel(cm, [db.put_multi(pairs), mutate_input()])
        yield from db.put_multi([("p0", "k1"), ("p1", "k2")])
        listed = yield from db.list_keys(prefix="k")
        values = yield from db.get_multi(listed)
        pointers = yield from db.get_multi(["p0", "p1"])
        replies = [listed, values, pointers]
        listed.append(b"k0")  # mutate each reply, then send it back as keys
        listed[0] = b"k3"
        pointers.append(b"k0")
        replies.append((yield from db.get_multi(listed)))
        replies.append((yield from db.get_multi(pointers)))
        return replies

    replies = run(cluster, cm, driver())
    assert all(type(reply) is list for reply in replies)
    assert replies[-2] == [want[key] for key in (b"k3", b"k1", b"k2", b"k3", b"k0")]
    assert replies[-1] == [want[b"k1"], want[b"k2"], want[b"k0"]]
    assert {key: provider.backend.get(key) for key in want} == want
    assert [request.rpc_name for request, _args in sent] == (
        ["yokan_put_multi"] * 2 + ["yokan_list_keys"] + ["yokan_get_multi"] * 4
    )
    for request, args in sent:
        # Measured at send time, and nothing changed it since.
        assert request.payload_size == estimate_size(args)
        assert _plain(request.args) == args
        bulk = args.get("bulk")
        if bulk is not None:
            assert bulk.size == len(encode_records(bulk.data))
    assert sent[0][1] == (
        {"bulk": BulkHandle(cm.address, sent[0][0].args["bulk"].size, list(want.items()))}
        if value_size == 4096 else {"pairs": list(want.items())}
    )
