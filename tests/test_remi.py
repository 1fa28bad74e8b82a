"""Tests for REMI: filesets, both transfer methods, provider migration."""

import pytest

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.margo import RpcFailedError
from repro.remi import (
    AUTO_RDMA_THRESHOLD,
    FileSet,
    MigrationReport,
    RemiClient,
    RemiError,
    RemiProvider,
)
from repro.storage import LocalStore
from repro.yokan import YokanClient, YokanProvider


@pytest.fixture()
def rig():
    cluster = Cluster(seed=7)
    src_node = cluster.node("src")
    dst_node = cluster.node("dst")
    src_store = LocalStore(src_node)
    dst_store = LocalStore(dst_node)
    src = cluster.add_margo("src-proc", node=src_node)
    dst = cluster.add_margo("dst-proc", node=dst_node)
    RemiProvider(dst, "remi", provider_id=0)
    handle = RemiClient(src).make_handle(dst.address, 0)
    return cluster, src, dst, src_store, dst_store, handle


def seed_files(store, count, size, prefix="data/"):
    for i in range(count):
        store.write(f"{prefix}{i:04d}", bytes([i % 256]) * size)


def test_fileset_validation(rig):
    _, _, _, src_store, _, _ = rig
    seed_files(src_store, 3, 10)
    fileset = FileSet.from_prefix(src_store, "data/")
    assert fileset.num_files == 3
    assert fileset.total_bytes == 30
    with pytest.raises(RemiError, match="missing files"):
        FileSet(src_store, ["ghost"])


@pytest.mark.parametrize("method", ["rdma", "chunks"])
def test_migrate_fileset_both_methods(rig, method):
    cluster, src, _, src_store, dst_store, handle = rig
    seed_files(src_store, 5, 1000)
    fileset = FileSet.from_prefix(src_store, "data/")

    def driver():
        report = yield from handle.migrate_fileset(fileset, method=method)
        return report

    report = cluster.run_ult(src, driver())
    assert isinstance(report, MigrationReport)
    assert report.method == method
    assert report.num_files == 5
    assert report.total_bytes == 5000
    assert report.duration > 0
    for i in range(5):
        assert dst_store.read(f"data/{i:04d}") == src_store.read(f"data/{i:04d}")


@pytest.mark.parametrize("method", ["rdma", "chunks"])
def test_loaded_bytes_ship_without_a_store_read(rig, method):
    """Bytes the caller holds travel as they are, unchecked against the
    store and with no read charge; stored files beside them are read."""
    cluster, src, _, src_store, dst_store, handle = rig
    src_store.write("stored", b"s" * 4000)

    def run(fileset):
        def driver():
            report = yield from handle.migrate_fileset(fileset, method=method)
            return report.duration

        return cluster.run_ult(src, driver())

    loaded = run(FileSet(src_store, ["stored", "held"], {"held": b"m" * 4000}))
    assert (dst_store.read("stored"), dst_store.read("held")) == (b"s" * 4000, b"m" * 4000)
    src_store.write("held", b"m" * 4000)
    stored = run(FileSet(src_store, ["stored", "held"]))
    # RDMA overlaps the source read with the destination's longer write.
    saved = src_store.read_cost(8000) - src_store.read_cost(4000) if method == "chunks" else 0
    assert stored - loaded == pytest.approx(saved, abs=1e-12)


def test_chunked_splits_large_file(rig):
    cluster, src, _, src_store, dst_store, handle = rig
    big = bytes(range(256)) * 8192  # 2 MiB > default 1 MiB chunk
    src_store.write("big", big)

    def driver():
        report = yield from handle.migrate_fileset(
            FileSet(src_store, ["big"]), method="chunks", chunk_size=1 << 20
        )
        return report

    report = cluster.run_ult(src, driver())
    assert report.num_chunks == 2
    assert dst_store.read("big") == big


def test_chunk_packing_small_files():
    from repro.remi.client import MigrationHandle

    files = [(f"f{i}", b"x" * 100) for i in range(10)]
    chunks = MigrationHandle._pack(files, chunk_size=450)
    assert sum(len(c) for c in chunks) >= 10
    for chunk in chunks:
        assert sum(len(d) for _, _, _, d in chunk) <= 450
    # Reassembled contents must match.
    seen = {}
    for chunk in chunks:
        for path, offset, total, data in chunk:
            seen.setdefault(path, {})[offset] = data
    for path, data in files:
        assembled = b"".join(seen[path][o] for o in sorted(seen[path]))
        assert assembled == data


def test_chunk_packing_empty_file():
    from repro.remi.client import MigrationHandle

    chunks = MigrationHandle._pack([("empty", b""), ("full", b"ab")], chunk_size=10)
    pieces = [p for c in chunks for p in c]
    assert ("empty", 0, 0, b"") in pieces


def test_orphan_piece_neither_blocks_other_migrations_nor_stays(rig):
    """A piece of an aborted chunked migration does not fail a later one
    of other files, and re-sending its file restarts the assembly."""
    cluster, src, dst, src_store, dst_store, _ = rig
    provider = RemiProvider(dst, "remi1", provider_id=1)
    handle = RemiClient(src).make_handle(dst.address, 1)
    big = bytes(range(200)) * 10
    src_store.write("big", big)
    src_store.write("small", b"s" * 10)

    def driver():
        orphan = [("big", 0, len(big), b"\x00" * 1000)]
        yield from src.forward(dst.address, "remi_recv_chunk", {"pieces": orphan}, provider_id=1)
        yield from handle.migrate_fileset(FileSet(src_store, ["small"]), method="chunks")
        yield from handle.migrate_fileset(FileSet(src_store, ["big"]), method="chunks", chunk_size=1000)

    cluster.run_ult(src, driver())
    assert (dst_store.read("small"), dst_store.read("big")) == (b"s" * 10, big)
    assert provider._partial == {}


def test_auto_method_selection(rig):
    cluster, src, _, src_store, _, handle = rig
    seed_files(src_store, 20, 100, prefix="small/")
    src_store.write("large/0", b"z" * (2 * AUTO_RDMA_THRESHOLD))

    def driver():
        small = yield from handle.migrate_fileset(
            FileSet.from_prefix(src_store, "small/"), method="auto"
        )
        large = yield from handle.migrate_fileset(
            FileSet(src_store, ["large/0"]), method="auto"
        )
        return small.method, large.method

    assert cluster.run_ult(src, driver()) == ("chunks", "rdma")


def test_rdma_faster_for_one_large_file(rig):
    """The paper's claim (Obs. 4): RDMA wins for large files."""
    cluster, src, _, src_store, _, handle = rig
    src_store.write("huge", b"q" * (64 << 20))  # 64 MiB
    fileset = FileSet(src_store, ["huge"])

    def run(method):
        def driver():
            report = yield from handle.migrate_fileset(fileset, method=method)
            return report.duration

        return cluster.run_ult(src, driver())

    rdma_time = run("rdma")
    chunk_time = run("chunks")
    assert rdma_time < chunk_time


def test_chunks_faster_for_many_small_files(rig):
    """The paper's claim (Obs. 4): packed+pipelined chunks win for many
    small files."""
    cluster, src, _, src_store, _, handle = rig
    seed_files(src_store, 400, 512, prefix="tiny/")
    fileset = FileSet.from_prefix(src_store, "tiny/")

    def run(method):
        def driver():
            report = yield from handle.migrate_fileset(fileset, method=method)
            return report.duration

        return cluster.run_ult(src, driver())

    chunk_time = run("chunks")
    rdma_time = run("rdma")
    assert chunk_time < rdma_time


def test_migration_parameter_validation(rig):
    cluster, src, _, src_store, _, handle = rig
    seed_files(src_store, 1, 10)
    fileset = FileSet.from_prefix(src_store, "data/")

    for bad_kwargs in ({"method": "warp"}, {"chunk_size": 0}, {"window": 0}):
        def driver(kw=bad_kwargs):
            yield from handle.migrate_fileset(fileset, **kw)

        with pytest.raises(RemiError):
            cluster.run_ult(src, driver())


def test_remi_provider_requires_store():
    cluster = Cluster(seed=7)
    margo = cluster.add_margo("p", node="n0")
    with pytest.raises(RemiError, match="LocalStore"):
        RemiProvider(margo, "remi", provider_id=0)


def test_yokan_provider_migration_end_to_end(rig):
    """Full component migration (paper section 6): flush, REMI-transfer,
    re-instantiate at the destination, data intact."""
    cluster, src, dst, src_store, dst_store, _ = rig
    provider = YokanProvider(
        src, "db", provider_id=1, config={"database": {"type": "persistent"}}
    )
    remi_client = RemiClient(src)
    cm = cluster.add_margo("client", node="nc")
    db_src = YokanClient(cm).make_handle(src.address, 1)

    def phase1():
        yield from db_src.put_multi([(f"k{i}", f"v{i}") for i in range(20)])
        report = yield from provider.migrate(remi_client, dst.address, 0)
        return report

    report = cluster.run_ult(src, phase1())
    assert report.num_files == 1
    # The database file now exists at the destination; instantiate a new
    # provider over it (what Bedrock does after the transfer).
    assert dst_store.exists("yokan/db.db/0-src-proc/1")
    new_provider = YokanProvider(
        dst, "db", provider_id=1, config={"database": {"type": "persistent"}}
    )
    db_dst = YokanClient(cm).make_handle(dst.address, 1)

    def phase2():
        return (yield from db_dst.get("k7"))

    assert cluster.run_ult(cm, phase2()) == b"v7"


def test_memory_backend_migration_is_refused_before_anything_moves():
    """A map database has no files for REMI to move: refused, not lost."""
    cluster = Cluster(seed=7)
    doc = {"libraries": {"yokan": "libyokan.so", "remi": "libremi.so"}}
    db = {"name": "memdb", "type": "yokan", "provider_id": 1}  # map backend
    remi = {"name": "remi0", "type": "remi", "provider_id": 0}
    src, src_bedrock = boot_process(cluster, "src", "ns", dict(doc, providers=[db]))
    dst, dst_bedrock = boot_process(cluster, "dst", "nd", dict(doc, providers=[remi]))
    cm = cluster.add_margo("client", node="nc")
    handle = YokanClient(cm).make_handle(src.address, 1)

    def fill():
        yield from handle.put_multi([(f"k{i}", f"v{i}") for i in range(10)])

    def migrate():
        bedrock = BedrockClient(cm).make_service_handle(src.address)
        yield from bedrock.migrate_provider("memdb", dst.address, remi_provider_id=0)

    def read():
        return (yield from handle.count()), (yield from handle.get("k3"))

    cluster.run_ult(cm, fill())
    with pytest.raises(RpcFailedError, match="requires a persistent database"):
        cluster.run_ult(cm, migrate())
    assert "memdb" in src_bedrock.records and "memdb" not in dst_bedrock.records
    assert dst_bedrock.records["remi0"].instance.files_received == 0
    assert not dst.process.node.attachments["disk"].list("yokan/")
    assert cluster.run_ult(cm, read()) == (10, b"v3")