"""Unit tests for cross-cutting helpers and less-travelled paths."""

import pytest

from repro import Cluster
from repro.bedrock.module import BedrockModule, ModuleError, register_library
from repro.core.parallel import ParallelError, parallel
from repro.margo import Compute, ConfigError, UltSleep
from repro.margo.pool import Pool
from repro.margo.xstream import XStream
from repro.mercury import (
    BulkHandle,
    RPCRequest,
    RPCResponse,
    codec_cost,
    estimate_size,
    rpc_id_of,
)


# ----------------------------------------------------------------------
# Cluster helpers
# ----------------------------------------------------------------------
def test_run_ult_propagates_errors():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("p", node="n0")

    def bad():
        yield Compute(0.1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        cluster.run_ult(margo, bad())


def test_wait_ults_returns_results_in_order():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("p", node="n0")

    def work(i):
        yield UltSleep(0.1 * (3 - i))  # finish in reverse order
        return i

    ults = [margo.spawn_ult(work(i)) for i in range(3)]
    assert cluster.wait_ults(ults) == [0, 1, 2]


def test_wait_ults_raises_first_error():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("p", node="n0")

    def good():
        yield UltSleep(0.1)
        return "ok"

    def bad():
        yield UltSleep(0.05)
        raise RuntimeError("first failure")

    ults = [margo.spawn_ult(good()), margo.spawn_ult(bad())]
    with pytest.raises(RuntimeError, match="first failure"):
        cluster.wait_ults(ults)


def test_wait_ults_with_already_finished():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("p", node="n0")

    def quick():
        yield Compute(1e-9)
        return 42

    ult = margo.spawn_ult(quick())
    cluster.run()
    assert cluster.wait_ults([ult]) == [42]


def test_cluster_node_idempotent():
    cluster = Cluster(seed=1)
    n1 = cluster.node("x")
    n2 = cluster.node("x")
    assert n1 is n2


# ----------------------------------------------------------------------
# parallel()
# ----------------------------------------------------------------------
def test_parallel_empty_list():
    cluster = Cluster(seed=2)
    margo = cluster.add_margo("p", node="n0")

    def driver():
        results = yield from parallel(margo, [])
        return results

    assert cluster.run_ult(margo, driver()) == []


def test_parallel_collects_all_errors():
    cluster = Cluster(seed=2)
    margo = cluster.add_margo("p", node="n0")

    def fail(i):
        yield Compute(1e-9)
        raise ValueError(f"err{i}")

    def ok():
        yield Compute(1e-9)
        return "fine"

    def driver():
        yield from parallel(margo, [fail(0), ok(), fail(2)])

    with pytest.raises(ParallelError) as excinfo:
        cluster.run_ult(margo, driver())
    assert len(excinfo.value.errors) == 2
    assert "err0" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_parallel_preserves_order_despite_finish_order():
    cluster = Cluster(seed=2)
    margo = cluster.add_margo("p", node="n0")

    def work(i):
        yield UltSleep(0.1 * (5 - i))
        return i

    def driver():
        return (yield from parallel(margo, [work(i) for i in range(5)]))

    assert cluster.run_ult(margo, driver()) == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# mercury
# ----------------------------------------------------------------------
def test_rpc_id_stable_and_32bit():
    assert rpc_id_of("echo") == rpc_id_of("echo")
    assert rpc_id_of("echo") != rpc_id_of("Echo")
    assert 0 <= rpc_id_of("anything") < 2**32


def test_wire_sizes_include_headers():
    request = RPCRequest(
        seq=1, rpc_id=1, rpc_name="x", provider_id=0, args=None,
        payload_size=100, src_address="a",
    )
    assert request.wire_size == 100 + RPCRequest.HEADER_SIZE
    response = RPCResponse(
        seq=1, status="ok", value=None, payload_size=50, src_address="a"
    )
    assert response.wire_size == 50 + RPCResponse.HEADER_SIZE


def test_estimate_size_various_types():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(1.5) == 8
    assert estimate_size({1, 2, 3}) > 8
    assert estimate_size("héllo") > 5  # multibyte utf-8

    class Slotted:
        __slots__ = ("a", "b")

        def __init__(self):
            self.a = 1
            self.b = b"xy"

    assert estimate_size(Slotted()) > 8

    class Weird:
        __slots__ = ()

    assert estimate_size(Weird()) >= 8

    with pytest.raises(TypeError):
        estimate_size(object())


def test_bulk_handle_wire_size_excludes_data():
    bulk = BulkHandle("addr", 1 << 20, b"x" * (1 << 20))
    assert estimate_size(bulk) == BulkHandle.__wire_size__
    with pytest.raises(ValueError):
        BulkHandle("addr", -1)


def test_serialization_costs_monotone():
    assert codec_cost(0) > 0
    assert codec_cost(10**6) > codec_cost(10**3)
    request = RPCRequest(1, 1, "x", 0, None, 10**6, "a")
    assert request.codec_cost == codec_cost(10**6)


# ----------------------------------------------------------------------
# margo runtime odds and ends
# ----------------------------------------------------------------------
def test_xstream_add_pool_at_runtime_serves_work():
    from repro.sim import SimKernel
    from repro.margo.ult import ULT

    kernel = SimKernel()
    main_pool = Pool("main")
    xs = XStream(kernel, "es", [main_pool])
    xs.start()
    late_pool = Pool("late")
    xs.add_pool(late_pool)
    xs.add_pool(late_pool)  # idempotent
    done = []

    def work():
        yield Compute(0.01)
        done.append(True)

    late_pool.push(ULT(work()))
    kernel.run()
    assert done == [True]
    xs.remove_pool(late_pool)
    with pytest.raises(ConfigError):
        xs.remove_pool(late_pool)  # no longer served


def test_margo_accepts_json_string_specs():
    cluster = Cluster(seed=3)
    margo = cluster.add_margo("p", node="n0")
    margo.add_pool('{"name": "jsonpool"}')
    margo.add_xstream('{"name": "jsones", "scheduler": {"pools": ["jsonpool"]}}')
    assert "jsonpool" in margo.pools
    assert "jsones" in margo.xstreams


def test_margo_monitors_add_remove():
    cluster = Cluster(seed=3)
    margo = cluster.add_margo("p", node="n0")

    class Probe:
        calls = 0

        def on_finalize(self, **kw):
            Probe.calls += 1

    probe = Probe()
    margo.add_monitor(probe)
    margo.remove_monitor(probe)
    margo.add_monitor(probe)
    margo.shutdown()
    assert Probe.calls == 1


# ----------------------------------------------------------------------
# bedrock module registry
# ----------------------------------------------------------------------
def test_register_library_conflict():
    module_a = BedrockModule(type_name="t1", provider_factory=lambda *a: None)
    module_b = BedrockModule(type_name="t1", provider_factory=lambda *a: None)
    register_library("libtest-conflict.so", module_a)
    register_library("libtest-conflict.so", module_a)  # same module: ok
    with pytest.raises(ModuleError, match="already registered"):
        register_library("libtest-conflict.so", module_b)


def test_known_libraries_contains_builtins():
    from repro.bedrock import known_libraries

    libs = known_libraries()
    for lib in ("libyokan.so", "libwarabi.so", "libpoesie.so", "libremi.so"):
        assert lib in libs


# ----------------------------------------------------------------------
# pool / scheduler validation
# ----------------------------------------------------------------------
def test_pool_from_json_validation():
    with pytest.raises(ConfigError):
        Pool.from_json("not-a-dict")  # type: ignore[arg-type]
    with pytest.raises(ConfigError):
        Pool.from_json({})


def test_xstream_scheduler_validation():
    from repro.sim import SimKernel

    with pytest.raises(ConfigError, match="scheduler"):
        XStream(SimKernel(), "es", [Pool("p")], scheduler="quantum")
