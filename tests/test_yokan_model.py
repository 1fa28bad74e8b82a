"""Yokan's persistent backend against ``KVModel`` (``tests/model.py``)
over programs long enough to compact, with crash-reopens; one database
moved A -> B -> A -> B -> A through Bedrock and REMI; and a migration
that writes its sealed tail while shipping it, then one whose
destination dies mid-ship; and checkpoints to the PFS, restored path by
path into fresh providers."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.margo import RpcFailedError, RpcTimeoutError
from repro.remi import RemiClient, RemiProvider
from repro.sim.network import Node
from repro.storage import LocalStore, ParallelFileSystem
from repro.yokan import (NoSuchKeyError, PersistentBackend, YokanClient, YokanProvider,
                         decode_records)

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
    ghost = PersistentBackend({"store": stores[b.address], "path": "yokan/db.db",
                               "lineage": f"{10**15}-ghost"})
    ghost.put(b"ghost", b"!")
    ghost.flush()
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


mutations = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("put_multi"), st.lists(st.tuples(keys, values), max_size=4)),
    st.tuples(st.just("erase"), keys),
)


@pytest.mark.parametrize("db_type", ["map", "persistent"])
@settings(max_examples=12, deadline=None)
@given(rounds=st.lists(st.lists(mutations, max_size=6), min_size=4, max_size=4))
def test_checkpoints_restore_the_model_path_by_path(db_type, rounds):
    """Rounds of a model program, each flushed and checkpointed to its own
    path; a compaction after the first, a node wipe (recovery from the
    newest path) after the second.  Every path restores the model as it
    was; a checkpoint ships only segments sealed since the last one, and
    ships them as the very objects the local store holds."""
    cluster = Cluster(seed=9)
    pfs = ParallelFileSystem()
    cm = cluster.add_margo("client", node="nc")
    model, taken, shipped = KVModel(), [], set()
    state = {}

    def start(node_name):
        node = cluster.node(node_name)
        LocalStore(node)
        margo = cluster.add_margo(f"s-{node_name}", node=node)
        provider = YokanProvider(margo, "db", 1, config={"database": {"type": db_type}})
        state.update(node=node, provider=provider,
                     handle=YokanClient(cm).make_handle(margo.address, 1))
        return provider

    def run(ops):
        for kind, *args in ops:
            if kind == "erase" and args[0] not in model.data:
                continue
            yield from getattr(state["handle"], kind)(*args)
            getattr(model, kind)(*args)
        yield from state["handle"].flush()

    def checkpoint(path):
        log = getattr(state["provider"].backend, "log", None)
        before = set(pfs.list())
        size = yield from state["provider"].checkpoint(pfs, path)
        new = set(pfs.list()) - before - {path}
        assert size == len(pfs.read(path)) + sum(len(pfs.read(name)) for name in new)
        assert not new & shipped  # never the same segment twice
        shipped.update(new)
        if log is not None:
            for name in set(log.files()) & shipped:
                assert pfs.read(name) is log.store.read(name)
        taken.append((path, dict(model.data)))
        return size

    provider = start("n0")
    base = [("put_multi", [(bytes([key]), bytes(64)) for key in range(8)])]
    cluster.run_ult(cm, run(base + rounds[0]))
    cluster.run_ult(cm, checkpoint("ckpt/0"))
    again = cluster.run_ult(cm, checkpoint("ckpt/0-again"))
    if db_type == "persistent":  # nothing changed: a tail of no records, its header alone
        assert again == len(pfs.read("ckpt/0-again")) < 64
    assert pfs.list() == sorted(shipped | {"ckpt/0", "ckpt/0-again"})
    # Overwrite one key flush after flush until the log compacts.
    log = getattr(provider.backend, "log", None)
    first = log.first if log is not None else None
    for round_ in range(8):
        cluster.run_ult(cm, run([("put", b"hot", bytes([round_]) * 512)]))
    assert log is None or log.first > first
    cluster.run_ult(cm, run(rounds[1]))
    cluster.run_ult(cm, checkpoint("ckpt/1"))
    cluster.faults.kill_node(state["node"])
    start("n1")
    cluster.run_ult(cm, state["provider"].restore(pfs, "ckpt/1"))
    for ops, path in zip(rounds[2:], ("ckpt/2", "ckpt/3")):
        cluster.run_ult(cm, run(ops))
        cluster.run_ult(cm, checkpoint(path))
    for index, (path, expected) in enumerate(taken):
        margo = cluster.add_margo(f"fresh{index}", node=f"f{index}")
        fresh = YokanProvider(margo, "db", 1)
        cluster.run_ult(margo, fresh.restore(pfs, path))
        assert dict(fresh.backend.items()) == expected, path


@pytest.mark.parametrize("reissue", ["crash-reopen", "recover-migrated-copy"])
def test_a_reissued_seq_never_overwrites_a_checkpointed_segment(reissue):
    """A seq is issued again after a crash drops a pending segment the
    checkpoint shipped from memory, or when a migrated copy is recovered
    on an empty store under its lineage.  The next checkpoint must leave
    the PFS segments alone (its tail is the whole image), so the older
    path still restores the state it was taken at."""
    cluster = Cluster(seed=13)
    pfs = ParallelFileSystem()
    LocalStore(cluster.node("n0"))
    LocalStore(cluster.node("n1"))
    first = YokanProvider(cluster.add_margo("s0", node="n0"), "db", 1,
                          config={"database": {"type": "persistent"}})
    backend = first.backend
    backend.put_multi([(b"a", b"1"), (b"b", b"2")])
    backend.flush()
    backend.put(b"c", b"3")
    if reissue == "crash-reopen":
        backend.seal()  # shipped from memory below, never written
    else:
        backend.flush()
    expected = dict(backend.items())
    cluster.run_ult(first.margo, first.checkpoint(pfs, "ckpt/old"))
    shipped = {name: pfs.read(name) for name in pfs.list("yokan/")}
    assert len(shipped) == 2
    cluster.faults.kill_process(first.margo.process)

    node = "n0" if reissue == "crash-reopen" else "n1"
    margo = cluster.add_margo("s1", node=node)
    second = YokanProvider(margo, "db", 1, config={"database": dict(first.config["database"])})
    assert second.backend.log.lineage == backend.log.lineage
    if reissue == "recover-migrated-copy":
        cluster.run_ult(margo, second.restore(pfs, "ckpt/old"))  # writes seq 1 again
    second.backend.put(b"a", b"new")
    second.backend.erase(b"b")
    cluster.run_ult(margo, second._flush_backend())  # seq 2 again
    reissued = second.backend.log.name(2)
    assert second.backend.store.read(reissued) != shipped[reissued]
    cluster.run_ult(margo, second.checkpoint(pfs, "ckpt/new"))
    assert all(pfs.read(name) is data for name, data in shipped.items())
    assert pfs.list("yokan/") == sorted(shipped)
    for path, state in (("ckpt/old", expected), ("ckpt/new", dict(second.backend.items()))):
        fresh = YokanProvider(cluster.add_margo(f"r-{path}", node="n2"), "db", 1)
        cluster.run_ult(fresh.margo, fresh.restore(pfs, path))
        assert dict(fresh.backend.items()) == state, path
