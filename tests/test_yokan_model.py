"""Yokan's persistent backend against ``KVModel`` (``tests/model.py``)
over programs long enough to compact, with crash-reopens; one database
moved A -> B -> A -> B -> A through Bedrock and REMI; and a migration
that writes its sealed tail while shipping it, then one whose
destination dies mid-ship."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.margo import RpcFailedError, RpcTimeoutError
from repro.remi import RemiClient, RemiProvider
from repro.sim.network import Node
from repro.storage import LocalStore
from repro.yokan import (NoSuchKeyError, PersistentBackend, YokanClient, YokanProvider,
                         decode_records, encode_records)

from .model import KVModel, ModelError

keys = st.sampled_from([b"a", b"b", b"c", b"d"])
values = st.binary(max_size=8)
ops = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("put_multi"), st.lists(st.tuples(keys, values), max_size=4)),
    st.tuples(st.just("erase"), keys),
    st.tuples(st.just("clear")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("reopen")),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(ops, min_size=20, max_size=60))
@example([("put", b"a", b"12345678"), ("flush",)] * 4 + [("reopen",)])  # compacts
def test_persistent_backend_matches_model(program):
    store = LocalStore(Node("n0"))
    backend = PersistentBackend({"store": store, "path": "db"})
    model = KVModel()
    for kind, *args in program:
        if kind == "erase" and args[0] not in model.data:
            with pytest.raises(NoSuchKeyError):
                backend.erase(*args)
            with pytest.raises(ModelError):
                model.erase(*args)
        elif kind == "reopen":
            backend = PersistentBackend({"store": store, "path": "db"})
            model.reopen()  # durability: exactly what the last flush wrote
        else:
            getattr(backend, kind)(*args)
            getattr(model, kind)(*args)
        assert dict(backend.items()) == model.data
        # Retired segments leave the store: only the live set is there.
        assert set(store.list("db/")) == set(backend.files())


def test_migration_there_and_back_ships_only_new_segments():
    cluster = Cluster(seed=5)
    remi = {"name": "remi0", "type": "remi", "provider_id": 0}
    db = {"name": "db", "type": "yokan", "provider_id": 1,
          "config": {"database": {"type": "persistent"}}}
    doc = {"libraries": {"yokan": "libyokan.so", "remi": "libremi.so"}}
    a, a_bedrock = boot_process(cluster, "pa", "na", dict(doc, providers=[remi, db]))
    b, b_bedrock = boot_process(cluster, "pb", "nb", dict(doc, providers=[remi]))
    servers = {a.address: a_bedrock, b.address: b_bedrock}
    stores = {a.address: a.process.node.attachments["disk"],
              b.address: b.process.node.attachments["disk"]}
    # A same-named database of a newer lineage left on B: never opened.
    PersistentBackend({"store": stores[b.address], "path": "yokan/db.db",
                       "lineage": f"{10**15}-ghost"}).load(encode_records([(b"ghost", b"!")]))
    cm = cluster.add_margo("client", node="nc")
    model = KVModel()
    state = {"at": a.address, "live": []}

    def mutate(puts, erases):
        handle = YokanClient(cm).make_handle(state["at"], 1)
        yield from handle.put_multi(puts)
        model.put_multi((key.encode(), value.encode()) for key, value in puts)
        for key in erases:
            yield from handle.erase(key)
            model.erase(key.encode())

    def move(dest, replanted=()):
        before = state["live"]
        bedrock = BedrockClient(cm).make_service_handle(state["at"])
        reply = yield from bedrock.migrate_provider("db", dest, remi_provider_id=0)
        state["at"] = dest
        live = state["live"] = servers[dest].records["db"].instance.local_files()
        # Shipped: the segment sealed since the last move, and any replanted.
        sent = [path for path in live if path not in before] + list(replanted)
        assert reply["moved_files"] == len(sent) == 1 + len(replanted)
        assert reply["moved_bytes"] == sum(map(stores[dest].size_of, sent))
        image = yield from YokanClient(cm).make_handle(dest, 1).fetch_image()
        assert dict(decode_records(image)) == model.data
        # Below the live range nothing is left: seq is never reissued.
        assert stores[dest].list(live[0].rpartition("/")[0] + "/") == live

    def driver():
        yield from mutate([(f"k{i}", f"v{i}" * 20) for i in range(30)], [])
        yield from move(b.address)  # the whole image
        yield from mutate([("k30", "new"), ("k5", "changed")], ["k3", "k7"])
        yield from move(a.address)  # A still holds segment 1 (with k3, k7)
        yield from mutate([("k3", "back")], ["k9"])
        planted = state["live"][1]
        stores[b.address].write(planted, b"planted")  # same name, other size
        yield from move(b.address, [planted])
        yield from mutate([], [f"k{i}" for i in range(10, 30)])
        yield from move(a.address)  # compacts on B; A drops segments 1-3

    cluster.run_ult(cm, driver())
    live = state["live"]
    assert len(live) == 1 and stores[b.address].list(live[0].rpartition("/")[0] + "/") == live
    assert PersistentBackend({"store": stores[b.address], "path": "yokan/db.db"}).get(b"ghost")


def _tail(size):
    """16 records of ``size`` bytes in all: a put_multi's worth of tail."""
    return [(f"k{i:02d}".encode(), bytes([i]) * (size // 16)) for i in range(16)]


@pytest.mark.parametrize("size, pinned_us", [(64 << 10, 114.2954), (1 << 20, 632.0656)])
def test_migration_writes_and_ships_the_sealed_tail_at_once(size, pinned_us):
    cluster = Cluster(seed=5)
    src_store, dst_store = LocalStore(cluster.node("src")), LocalStore(cluster.node("dst"))
    src = cluster.add_margo("src-proc", node="src")
    dst = cluster.add_margo("dst-proc", node="dst")
    RemiProvider(dst, "remi", provider_id=0)
    provider = YokanProvider(src, "db", provider_id=1,
                             config={"database": {"type": "persistent"}})
    cm = cluster.add_margo("client", node="nc")
    pairs = _tail(size)

    def driver():
        yield from YokanClient(cm).make_handle(src.address, 1).put_multi(pairs)
        started = cluster.now
        yield from provider.migrate(RemiClient(src), dst.address, 0)
        return cluster.now - started

    took = cluster.run_ult(cm, driver())
    (segment,) = provider.local_files()
    # Chunks below 256 KiB, RDMA above; both stores pay the same write.
    write = src_store.write_cost(src_store.size_of(segment))
    assert write < took < 2 * write  # the longer branch, not the sum
    assert took * 1e6 == pytest.approx(pinned_us, abs=1e-3)
    assert dst_store.read(segment) == src_store.read(segment)
    for store in (src_store, dst_store):
        assert dict(PersistentBackend({"store": store, "path": "yokan/db.db"}).items()) == dict(pairs)


@pytest.mark.parametrize("kill", ["remi", "node"])
def test_migration_whose_destination_dies_mid_ship_keeps_the_source(kill):
    cluster = Cluster(seed=5)
    remi = {"name": "remi0", "type": "remi", "provider_id": 0}
    db = {"name": "db", "type": "yokan", "provider_id": 1,
          "config": {"database": {"type": "persistent"}}}
    doc = {"libraries": {"yokan": "libyokan.so", "remi": "libremi.so"}}
    a, a_bedrock = boot_process(cluster, "pa", "na", dict(doc, providers=[remi, db]))
    b, b_bedrock = boot_process(cluster, "pb", "nb", dict(doc, providers=[remi]))
    store = a.process.node.attachments["disk"]
    cm = cluster.add_margo("client", node="nc")
    handle = YokanClient(cm).make_handle(a.address, 1)
    pairs = _tail(1 << 20)

    def fill():
        yield from handle.put_multi(pairs)

    def migrate():
        bedrock = BedrockClient(cm).make_service_handle(a.address)
        yield from bedrock.migrate_provider("db", b.address, remi_provider_id=0)

    def count():
        return (yield from handle.count())

    cluster.run_ult(cm, fill())
    assert not store.list("yokan/")  # the tail is acknowledged, not written
    # ~200 us in, the 1 MiB segment is on the wire (the ship takes ~600 us).
    if kill == "remi":
        cluster.kernel.schedule(200e-6, b_bedrock.records["remi0"].instance.destroy)
    else:
        cluster.faults.kill_node_at(200e-6, b.process.node)
    with pytest.raises(RpcFailedError if kill == "remi" else RpcTimeoutError):
        cluster.run_ult(cm, migrate())
    # The local write finished regardless: the source serves and is durable.
    assert "db" in a_bedrock.records
    assert store.list("yokan/") == a_bedrock.records["db"].instance.local_files()
    assert cluster.run_ult(cm, count()) == len(pairs)
    cluster.faults.kill_process(a.process)
    assert dict(PersistentBackend({"store": store, "path": "yokan/db.db"}).items()) == dict(pairs)
