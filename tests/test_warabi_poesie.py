"""Tests for the Warabi (blob) and Poesie (interpreter) components."""

import pytest

from repro import Cluster
from repro.margo import RpcFailedError
from repro.poesie import (
    MiniInterpreter,
    PoesieClient,
    PoesieProvider,
    ScriptBudgetError,
    ScriptError,
)
from repro.storage import LocalStore, ParallelFileSystem
from repro.warabi import WarabiClient, WarabiError, WarabiProvider


# ----------------------------------------------------------------------
# Warabi
# ----------------------------------------------------------------------
@pytest.fixture()
def warabi_rig():
    cluster = Cluster(seed=5)
    server = cluster.add_margo("server", node="n0")
    cm = cluster.add_margo("client", node="n1")
    provider = WarabiProvider(server, "blobs", provider_id=1)
    handle = WarabiClient(cm).make_handle(server.address, 1)
    return cluster, server, cm, provider, handle


def test_blob_create_write_read(warabi_rig):
    cluster, _, cm, _, target = warabi_rig

    def driver():
        blob_id = yield from target.create()
        yield from target.write(blob_id, b"hello world")
        data = yield from target.read(blob_id)
        size = yield from target.size(blob_id)
        return blob_id, data, size

    blob_id, data, size = cluster.run_ult(cm, driver())
    assert blob_id == 0
    assert data == b"hello world"
    assert size == 11


def test_blob_partial_read_write(warabi_rig):
    cluster, _, cm, _, target = warabi_rig

    def driver():
        blob_id = yield from target.create(size=10)
        yield from target.write(blob_id, b"XY", offset=4)
        middle = yield from target.read(blob_id, offset=3, size=4)
        return middle

    assert cluster.run_ult(cm, driver()) == b"\x00XY\x00"


def test_blob_write_extends(warabi_rig):
    cluster, _, cm, _, target = warabi_rig

    def driver():
        blob_id = yield from target.create(size=2)
        yield from target.write(blob_id, b"abcd", offset=2)
        return (yield from target.size(blob_id))

    assert cluster.run_ult(cm, driver()) == 6


def test_blob_read_out_of_range(warabi_rig):
    cluster, _, cm, _, target = warabi_rig

    def driver():
        blob_id = yield from target.create(size=4)
        yield from target.read(blob_id, offset=2, size=10)

    with pytest.raises(RpcFailedError, match="out of range"):
        cluster.run_ult(cm, driver())


def test_blob_erase_and_list(warabi_rig):
    cluster, _, cm, _, target = warabi_rig

    def driver():
        a = yield from target.create()
        b = yield from target.create()
        yield from target.erase(a)
        listing = yield from target.list()
        return listing, b

    listing, b = cluster.run_ult(cm, driver())
    assert listing == [b]


def test_blob_missing_raises(warabi_rig):
    cluster, _, cm, _, target = warabi_rig

    def driver():
        yield from target.read(99)

    with pytest.raises(RpcFailedError, match="no such blob"):
        cluster.run_ult(cm, driver())


def test_blob_large_write_uses_bulk(warabi_rig):
    cluster, _, cm, _, target = warabi_rig
    big = bytes(range(256)) * 4096  # 1 MiB

    def driver():
        blob_id = yield from target.create()
        yield from target.write(blob_id, big)
        return (yield from target.read(blob_id))

    assert cluster.run_ult(cm, driver()) == big


def test_warabi_persistent_target_writes_store():
    cluster = Cluster(seed=5)
    node = cluster.node("n0")
    store = LocalStore(node)
    server = cluster.add_margo("server", node=node)
    cm = cluster.add_margo("client", node="n1")
    provider = WarabiProvider(
        server, "blobs", provider_id=1, config={"target": {"type": "persistent"}}
    )
    target = WarabiClient(cm).make_handle(server.address, 1)

    def driver():
        blob_id = yield from target.create()
        yield from target.write(blob_id, b"persisted")
        return blob_id

    blob_id = cluster.run_ult(cm, driver())
    assert store.read(f"warabi/blobs/{blob_id}") == b"persisted"
    # The id-counter sidecar travels with the blob files (it is what a
    # REMI migration ships so the destination never re-issues an id).
    assert provider.local_files() == [
        f"warabi/blobs/{blob_id}",
        "warabi/blobs/meta",
    ]


def test_warabi_persistent_requires_store():
    cluster = Cluster(seed=5)
    server = cluster.add_margo("server", node="n0")
    with pytest.raises(WarabiError, match="LocalStore"):
        WarabiProvider(
            server, "blobs", provider_id=1, config={"target": {"type": "persistent"}}
        )


def test_warabi_unknown_target_type():
    cluster = Cluster(seed=5)
    server = cluster.add_margo("server", node="n0")
    with pytest.raises(WarabiError, match="unknown target type"):
        WarabiProvider(server, "blobs", provider_id=1, config={"target": {"type": "tape"}})


def test_warabi_checkpoint_restore(warabi_rig):
    cluster, server, cm, provider, target = warabi_rig
    pfs = ParallelFileSystem()

    def phase1():
        blob_id = yield from target.create()
        yield from target.write(blob_id, b"data-0")
        blob_id = yield from target.create()
        yield from target.write(blob_id, b"data-1")
        yield from provider.checkpoint(pfs, "ckpt/blobs")

    cluster.run_ult(cm, phase1())

    other = cluster.add_margo("other", node="n2")
    restored = WarabiProvider(other, "blobs2", provider_id=1)
    target2 = WarabiClient(cm).make_handle(other.address, 1)

    def phase2():
        yield from restored.restore(pfs, "ckpt/blobs")
        data = yield from target2.read(1)
        new_id = yield from target2.create()
        return data, new_id

    data, new_id = cluster.run_ult(cm, phase2())
    assert data == b"data-1"
    assert new_id == 2  # id allocation resumes past restored blobs


# ----------------------------------------------------------------------
# MiniInterpreter
# ----------------------------------------------------------------------
def test_interpreter_arithmetic_and_vars():
    interp = MiniInterpreter()
    assert interp.execute("x = 2\ny = x ** 3 + 1\ny") == 9
    assert interp.env["x"] == 2


def test_interpreter_control_flow():
    interp = MiniInterpreter()
    code = """
total = 0
for i in range(10):
    if i % 2 == 0:
        total += i
return total
"""
    assert interp.execute(code) == 20


def test_interpreter_while_and_return():
    interp = MiniInterpreter()
    assert interp.execute("n = 1\nwhile n < 100:\n    n = n * 2\nreturn n") == 128


def test_interpreter_containers_and_builtins():
    interp = MiniInterpreter()
    assert interp.execute("d = {'a': [1, 2, 3]}\nreturn sum(d['a']) + len(d)") == 7
    assert interp.execute("xs = sorted([3, 1, 2])\nreturn xs[0:2]") == [1, 2]


def test_interpreter_tuple_unpack_and_ifexp():
    interp = MiniInterpreter()
    assert interp.execute("a, b = (1, 2)\nreturn a if a > b else b") == 2


def test_interpreter_env_injection_and_persistence():
    interp = MiniInterpreter()
    interp.execute("y = x * 2", env={"x": 21})
    assert interp.execute("y") == 42


def test_interpreter_sandbox():
    interp = MiniInterpreter()
    with pytest.raises(ScriptError, match="attribute access"):
        interp.execute("().__class__")
    with pytest.raises(ScriptError, match="non-builtin"):
        interp.execute("open('/etc/passwd')")
    with pytest.raises(ScriptError, match="unsupported statement"):
        interp.execute("import os")
    with pytest.raises(ScriptError, match="undefined variable"):
        interp.execute("nope + 1")
    with pytest.raises(ScriptError, match="syntax error"):
        interp.execute("def f(:")


def test_interpreter_budget():
    interp = MiniInterpreter(max_steps=1000)
    with pytest.raises(ScriptBudgetError):
        interp.execute("while True:\n    pass")


# ----------------------------------------------------------------------
# Poesie over RPC
# ----------------------------------------------------------------------
@pytest.fixture()
def poesie_rig():
    cluster = Cluster(seed=6)
    server = cluster.add_margo("server", node="n0")
    cm = cluster.add_margo("client", node="n1")
    PoesieProvider(server, "scripts", provider_id=1)
    handle = PoesieClient(cm).make_handle(server.address, 1)
    return cluster, cm, handle


def test_poesie_execute_remote(poesie_rig):
    cluster, cm, interp = poesie_rig

    def driver():
        result = yield from interp.execute("return 6 * 7")
        return result

    assert cluster.run_ult(cm, driver()) == 42


def test_poesie_sessions_isolated(poesie_rig):
    cluster, cm, interp = poesie_rig

    def driver():
        yield from interp.execute("x = 1", session="s1")
        yield from interp.execute("x = 2", session="s2")
        a = yield from interp.get_var("x", session="s1")
        b = yield from interp.get_var("x", session="s2")
        yield from interp.reset(session="s1")
        return a, b

    assert cluster.run_ult(cm, driver()) == (1, 2)


def test_poesie_error_propagates(poesie_rig):
    cluster, cm, interp = poesie_rig

    def driver():
        yield from interp.execute("import os")

    with pytest.raises(RpcFailedError, match="unsupported statement"):
        cluster.run_ult(cm, driver())


def test_poesie_get_missing_var(poesie_rig):
    cluster, cm, interp = poesie_rig

    def driver():
        yield from interp.get_var("ghost")

    with pytest.raises(RpcFailedError, match="undefined"):
        cluster.run_ult(cm, driver())


@pytest.mark.parametrize("size", ["12", 2.9, True, None])
def test_create_refuses_a_size_that_is_not_an_integer(size):
    """``"12"`` is no 12 and 2.9 no 2: a blob size is a JSON integer."""
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    LocalStore(cluster.node("n0"))
    provider = WarabiProvider(server, "blobs", provider_id=1)
    cm = cluster.add_margo("client", node="n1")
    target = WarabiClient(cm).make_handle(server.address, 1)

    def driver():
        yield from target._forward("create", {"size": size})

    with pytest.raises(RpcFailedError, match="blob size must be an integer"):
        cluster.run_ult(cm, driver())
    assert not provider._blobs
