"""Integration tests for the Margo runtime: RPC paths, config, reconfiguration."""

import math
from collections import Counter

import pytest

from repro import Cluster
from repro.margo import (
    Compute,
    ConfigError,
    DuplicateNameError,
    FinalizedError,
    MargoConfig,
    NoSuchPoolError,
    NoSuchRpcError,
    PoolInUseError,
    RpcError,
    RpcFailedError,
    RpcTimeoutError,
    UltSleep,
    UltState,
)
from repro.mercury import RPCRequest, RPCResponse
from repro.sim.network import Network


@pytest.fixture()
def cluster():
    return Cluster(seed=1)


def two_procs(cluster, server_config=None):
    server = cluster.add_margo("server", node="n0", config=server_config)
    client = cluster.add_margo("client", node="n1")
    return server, client


# ----------------------------------------------------------------------
# basic RPC
# ----------------------------------------------------------------------
def test_echo_rpc(cluster):
    server, client = two_procs(cluster)
    server.register("echo", lambda ctx: ctx.args)

    assert cluster.run_ult(client, client.forward(server.address, "echo", {"k": "v"})) == {"k": "v"}


def test_rpc_to_self(cluster):
    server = cluster.add_margo("solo", node="n0")
    server.register("double", lambda ctx: ctx.args * 2)

    def driver():
        return (yield from server.forward(server.address, "double", 21))

    assert cluster.run_ult(server, driver()) == 42


def test_generator_handler_with_compute(cluster):
    server, client = two_procs(cluster)

    def handler(ctx):
        yield Compute(1e-3)
        return ctx.args + 1

    server.register("inc", handler)

    def driver():
        return (yield from client.forward(server.address, "inc", 1))

    assert cluster.run_ult(client, driver()) == 2
    assert cluster.now > 1e-3


def test_provider_id_dispatch(cluster):
    server, client = two_procs(cluster)
    server.register("get", lambda ctx: "from-1", provider_id=1)
    server.register("get", lambda ctx: "from-2", provider_id=2)

    def driver():
        a = yield from client.forward(server.address, "get", provider_id=1)
        b = yield from client.forward(server.address, "get", provider_id=2)
        return (a, b)

    assert cluster.run_ult(client, driver()) == ("from-1", "from-2")


def test_no_such_rpc(cluster):
    server, client = two_procs(cluster)
    server.register("real", lambda ctx: 1, provider_id=1)

    def driver():
        yield from client.forward(server.address, "real", provider_id=9)

    with pytest.raises(NoSuchRpcError):
        cluster.run_ult(client, driver())


def test_handler_exception_becomes_rpc_failed(cluster):
    server, client = two_procs(cluster)

    def bad(ctx):
        raise ValueError("intentional")

    server.register("bad", bad)
    # A return value that cannot be sized fails the call the same way.
    server.register("unsizable", lambda ctx: object())

    def driver(name):
        yield from client.forward(server.address, name)

    with pytest.raises(RpcFailedError, match="intentional"):
        cluster.run_ult(client, driver("bad"))
    with pytest.raises(RpcFailedError, match="TypeError: cannot estimate wire size"):
        cluster.run_ult(client, driver("unsizable"))


def test_rpc_timeout_on_dead_server(cluster):
    server, client = two_procs(cluster)
    server.register("echo", lambda ctx: ctx.args)
    cluster.faults.kill_process(server.process)

    def driver():
        yield from client.forward(server.address, "echo", 1, timeout=0.5)

    with pytest.raises(RpcTimeoutError):
        cluster.run_ult(client, driver())
    assert cluster.now >= 0.5


def kill_on_send(cluster, kind, victim):
    """Kill ``victim`` the instant a message of ``kind`` leaves, so it
    dies with that message on the wire."""
    send = cluster.network.send

    def spy(src, address, message, size):
        if type(message) is kind:
            cluster.faults.kill_process_at(0.0, victim.process)
        return send(src, address, message, size)

    cluster.network.send = spy


def pushes(margo):
    return sum(pool.total_pushed for pool in margo.pools.values())


def test_a_request_in_flight_to_a_killed_server_is_dropped_at_delivery(cluster):
    """Routes post Margo's own deliver: once a kill has finalized the
    server, a request already on its cached route creates no handler ULT
    and draws no reply."""
    server, client = two_procs(cluster)
    handled = []
    server.register("echo", lambda ctx: handled.append(ctx.args) or ctx.args)
    assert cluster.run_ult(client, client.forward(server.address, "echo", 1)) == 1
    sent, pushed = cluster.network.messages_sent, pushes(server)
    kill_on_send(cluster, RPCRequest, server)

    with pytest.raises(RpcTimeoutError):
        cluster.run_ult(client, client.forward(server.address, "echo", 2, timeout=1e-3))
    assert not server.process.alive and server.finalized
    assert handled == [1] and server.rpcs_handled == 1
    assert pushes(server) == pushed  # neither progress nor a handler ULT
    assert cluster.network.messages_sent == sent + 1  # the request, no reply


def test_a_reply_in_flight_to_a_killed_client_wakes_nobody(cluster):
    server, client = two_procs(cluster)
    server.register("echo", lambda ctx: ctx.args)
    assert cluster.run_ult(client, client.forward(server.address, "echo", 1)) == 1
    kill_on_send(cluster, RPCResponse, client)
    at_kill = []
    client.process.on_killed.append(lambda: at_kill.append(pushes(client)))
    caller = cluster.spawn(client, client.forward(server.address, "echo", 2))
    cluster.run()
    assert not client.process.alive and client.finalized
    assert server.rpcs_handled == 2
    # The reply landed after the kill and readied no one: the caller is
    # still blocked, and no pool of the client saw a push since.
    assert caller.state is UltState.BLOCKED and caller.result is None
    assert at_kill == [pushes(client)]


def test_reply_and_timeout_at_one_deadline_resolve_once():
    """The forward's timeout and its reply's dispatch land at the same
    simulated time: the timeout, posted first, wins on ``seq``; the reply
    is dropped and must not wake the caller's next wait."""

    def rig():
        cluster = Cluster(seed=1)
        server, client = two_procs(cluster)
        server.register("echo", lambda ctx: ctx.args)
        sent, dispatched = [], []
        send, dispatch = cluster.network.send, client._dispatch_response
        cluster.network.send = lambda *a: (sent.append(cluster.now), send(*a))[1]
        client._dispatch_response = lambda r: (dispatched.append(cluster.now), dispatch(r))
        return cluster, server, client, sent, dispatched

    cluster, server, client, sent, dispatched = rig()
    assert cluster.run_ult(client, client.forward(server.address, "echo", 1)) == 1
    started, replied = sent[0], dispatched[0]
    timeout = replied - started
    while started + timeout != replied:  # the kernel's own sum must hit it
        timeout = math.nextafter(timeout, math.inf if started + timeout < replied else 0.0)

    cluster, server, client, sent, dispatched = rig()
    outcomes = []

    def caller():
        try:
            yield from client.forward(server.address, "echo", 1, timeout=timeout)
        except RpcTimeoutError:
            outcomes.append(("timed out", cluster.now))
        yield UltSleep(1.0)
        outcomes.append(("slept", cluster.now))

    cluster.run_ult(client, caller())
    assert dispatched == [replied]
    assert outcomes == [("timed out", replied), ("slept", replied + 1.0)]
    assert client.inflight_outgoing == 0 and not client._pending


def test_every_dispatched_request_gets_exactly_one_response(monkeypatch):
    """A handler's end, or the no-handler branch, is the one place a
    reply is sent: each request on the wire is answered by exactly one
    response, whether the handler returns, raises, fails on a nested
    RPC, outlives its caller's timeout or was never registered."""
    sent = []
    send = Network.send

    def tap(self, src, dst_address, payload, size):
        sent.append((dst_address, payload))
        return send(self, src, dst_address, payload, size)

    monkeypatch.setattr(Network, "send", tap)
    cluster = Cluster(seed=1)
    server, client = two_procs(cluster)
    backend = cluster.add_margo("backend", node="n2")

    def boom(ctx):
        raise ValueError("boom")

    def nested(ctx):
        return (yield from server.forward(backend.address, "missing"))

    def slow(ctx):
        yield Compute(1e-3)
        return "late"

    server.register("ok", lambda ctx: ctx.args)
    server.register("boom", boom)
    server.register("nested", nested)
    server.register("slow", slow)

    def call(name, **kwargs):
        try:
            return (yield from client.forward(server.address, name, 7, **kwargs))
        except RpcError as err:
            return type(err).__name__

    outcomes = [
        cluster.run_ult(client, call(name, **kwargs))
        for name, kwargs in (
            ("ok", {}), ("boom", {}), ("nested", {}), ("slow", {"timeout": 1e-4}),
            ("unknown", {}),
        )
    ]
    cluster.run()  # the timed-out handler ends and its reply lands late
    assert outcomes == [
        7, "RpcFailedError", "RpcFailedError", "RpcTimeoutError", "NoSuchRpcError",
    ]
    requests = Counter(
        (msg.src_address, msg.seq) for _, msg in sent if isinstance(msg, RPCRequest)
    )
    responses = Counter(
        (dst, msg.seq) for dst, msg in sent if isinstance(msg, RPCResponse)
    )
    assert len(requests) == 6  # the nested call to the backend included
    assert responses == requests and set(responses.values()) == {1}


def test_rpc_to_unknown_address_fails_fast_without_timeout(cluster):
    _, client = two_procs(cluster)

    def driver():
        yield from client.forward("na+ofi://nowhere/x", "echo", 1)

    with pytest.raises(Exception, match="unknown destination"):
        cluster.run_ult(client, driver())


def test_duplicate_registration_rejected(cluster):
    server, _ = two_procs(cluster)
    server.register("echo", lambda ctx: 1, provider_id=3)
    with pytest.raises(DuplicateNameError):
        server.register("echo", lambda ctx: 2, provider_id=3)
    server.deregister("echo", provider_id=3)
    server.register("echo", lambda ctx: 2, provider_id=3)  # ok after deregister


def test_deregister_unknown_raises(cluster):
    server, _ = two_procs(cluster)
    with pytest.raises(NoSuchRpcError):
        server.deregister("ghost")


def test_nested_rpc(cluster):
    a = cluster.add_margo("a", node="n0")
    b = cluster.add_margo("b", node="n1")
    c = cluster.add_margo("c", node="n2")
    c.register("leaf", lambda ctx: ctx.args * 10)

    def relay(ctx):
        result = yield from b.forward(c.address, "leaf", ctx.args)
        return result + 1

    b.register("relay", relay)

    def driver():
        return (yield from a.forward(b.address, "relay", 4))

    assert cluster.run_ult(a, driver()) == 41


def test_trace_context_and_handler_names_are_derived_on_demand(cluster):
    """No observer is attached, so nothing formats an id or a ULT name on
    the RPC path; asking still gives what the tracer always recorded."""
    from repro.margo.ult import current_ult

    a = cluster.add_margo("a", node="n0")
    b = cluster.add_margo("b", node="n1")
    c = cluster.add_margo("c", node="n2")
    seen = {}

    def leaf(ctx):
        seen["leaf"] = (ctx.request, current_ult().name)
        return ctx.args

    def relay(ctx):
        seen["relay"] = (ctx.request, current_ult().name)
        return (yield from b.forward(c.address, "leaf", ctx.args))

    c.register("leaf", leaf)
    b.register("relay", relay)

    def driver():
        yield from a.forward(b.address, "relay", 1)
        return (yield from a.forward(b.address, "relay", 2))

    assert cluster.run_ult(a, driver()) == 2
    outer, outer_ult = seen["relay"]
    inner, inner_ult = seen["leaf"]
    assert (outer.span_id, outer.trace_id, outer.parent_span_id) == ("a:2", "a:2", "")
    assert (inner.span_id, inner.trace_id, inner.parent_span_id) == ("b:2", "a:2", "a:2/h")
    assert (outer_ult, inner_ult) == ("rpc:relay:2", "rpc:leaf:2")
    assert (a.rpcs_sent, b.rpcs_sent, b.rpcs_handled, c.rpcs_handled) == (2, 2, 2, 2)
    assert a.inflight_outgoing == b.inflight_incoming == 0
    assert a.metrics.snapshot()["margo_rpcs_sent"]["series"][""] == {"value": 2.0}


def test_handler_may_return_a_generator_by_protocol(cluster):
    from collections.abc import Generator

    class Reply(Generator):
        def __init__(self, value):
            self.value, self.charged = value, False

        def send(self, _value):
            if self.charged:
                raise StopIteration(self.value)
            self.charged = True
            return Compute(1e-3)

        def throw(self, typ=None, val=None, tb=None):
            raise typ

    server, client = two_procs(cluster)
    server.register("wrapped", lambda ctx: Reply(ctx.args + 1))

    def driver():
        return (yield from client.forward(server.address, "wrapped", 1))

    assert cluster.run_ult(client, driver()) == 2
    assert cluster.now > 1e-3


def test_concurrent_rpcs_interleave(cluster):
    server, client = two_procs(cluster)

    def slow(ctx):
        yield Compute(1.0)
        return ctx.args

    server.register("slow", slow)
    results = []

    def one(i):
        value = yield from client.forward(server.address, "slow", i)
        results.append((value, cluster.now))

    for i in range(3):
        cluster.spawn(client, one(i))
    cluster.run()
    assert sorted(r for r, _ in results) == [0, 1, 2]
    # Single default xstream on server: handlers serialize, so the last
    # finishes around 3s, the first around 1s.
    finish_times = sorted(t for _, t in results)
    assert finish_times[0] < 1.5
    assert finish_times[-1] > 2.5


def test_bulk_transfer_cost_and_rdma(cluster):
    server, client = two_procs(cluster)
    size = 1 << 24  # 16 MiB

    def driver():
        duration = yield from client.bulk_transfer(server.address, size)
        return duration

    duration = cluster.run_ult(client, driver())
    expected = cluster.network.transfer_time(
        client.process, server.process, size, bulk=True
    )
    assert duration == pytest.approx(expected)


def test_bulk_transfer_to_dead_peer_raises(cluster):
    server, client = two_procs(cluster)
    cluster.faults.kill_process(server.process)

    def driver():
        yield from client.bulk_transfer(server.address, 100)

    with pytest.raises(Exception, match="dead"):
        cluster.run_ult(client, driver())


# ----------------------------------------------------------------------
# configuration (Listing 2)
# ----------------------------------------------------------------------
LISTING2 = {
    "argobots": {
        "pools": [
            {"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"},
            {"name": "MyPoolZ", "type": "fifo_wait", "access": "mpmc"},
        ],
        "xstreams": [
            {"name": "MyES0", "scheduler": {"type": "basic", "pools": ["MyPoolX"]}},
            {"name": "MyES1", "scheduler": {"type": "basic", "pools": ["MyPoolZ"]}},
        ],
    },
    "progress_pool": "MyPoolZ",
    "rpc_pool": "MyPoolX",
}


def test_listing2_config_accepted(cluster):
    server = cluster.add_margo("server", node="n0", config=LISTING2)
    assert set(server.pools) == {"MyPoolX", "MyPoolZ"}
    assert set(server.xstreams) == {"MyES0", "MyES1"}
    doc = server.get_config()
    names = {p["name"] for p in doc["argobots"]["pools"]}
    assert names == {"MyPoolX", "MyPoolZ"}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        MargoConfig.from_json({"argobots": {"pools": [{"name": "a"}, {"name": "a"}]}})
    with pytest.raises(ConfigError):
        MargoConfig.from_json(
            {"argobots": {"pools": [{"name": "a"}],
                          "xstreams": [{"name": "x", "scheduler": {"pools": ["ghost"]}}]}}
        )
    with pytest.raises(ConfigError):
        MargoConfig.from_json({"bogus_key": 1})
    with pytest.raises(ConfigError):
        MargoConfig.from_json("not json at all {")
    # Unserved pool.
    with pytest.raises(ConfigError):
        MargoConfig.from_json(
            {"argobots": {"pools": [{"name": "a"}, {"name": "b"}],
                          "xstreams": [{"name": "x", "scheduler": {"pools": ["a"]}}]}}
        )


def test_config_json_string_roundtrip(cluster):
    import json

    server = cluster.add_margo("server", node="n0", config=json.dumps(LISTING2))
    assert "MyPoolX" in server.pools


# ----------------------------------------------------------------------
# online reconfiguration (paper section 5)
# ----------------------------------------------------------------------
def test_add_and_find_pool(cluster):
    server, _ = two_procs(cluster)
    server.add_pool({"name": "extra"})
    assert server.find_pool("extra").name == "extra"
    with pytest.raises(DuplicateNameError):
        server.add_pool({"name": "extra"})


def test_remove_unused_pool(cluster):
    server, _ = two_procs(cluster)
    server.add_pool({"name": "extra"})
    server.remove_pool("extra")
    with pytest.raises(NoSuchPoolError):
        server.find_pool("extra")


def test_remove_pool_in_use_by_xstream_rejected(cluster):
    server = cluster.add_margo("server", node="n0", config=LISTING2)
    with pytest.raises(PoolInUseError):
        server.remove_pool("MyPoolX")


def test_remove_pool_claimed_by_provider_rejected(cluster):
    server, _ = two_procs(cluster)
    server.add_pool({"name": "extra"})
    server.claim_pool("extra", "providerA")
    with pytest.raises(PoolInUseError):
        server.remove_pool("extra")
    server.release_pool("extra", "providerA")
    server.remove_pool("extra")


def test_remove_pool_with_registered_rpc_rejected(cluster):
    server, _ = two_procs(cluster)
    server.add_pool({"name": "extra"})
    server.add_xstream({"name": "es-extra", "scheduler": {"pools": ["extra"]}})
    server.register("work", lambda ctx: 1, pool="extra")
    server.remove_xstream("es-extra") if False else None
    with pytest.raises(PoolInUseError):
        server.remove_pool("extra")


def test_add_xstream_serves_new_pool(cluster):
    server, client = two_procs(cluster)
    server.add_pool({"name": "fast"})
    server.add_xstream({"name": "es-fast", "scheduler": {"type": "basic", "pools": ["fast"]}})
    server.register("fastrpc", lambda ctx: "ok", pool="fast")

    def driver():
        return (yield from client.forward(server.address, "fastrpc"))

    assert cluster.run_ult(client, driver()) == "ok"


def test_remove_xstream_orphaning_used_pool_rejected(cluster):
    server, _ = two_procs(cluster)
    server.add_pool({"name": "p2"})
    server.add_xstream({"name": "es2", "scheduler": {"pools": ["p2"]}})
    server.register("r", lambda ctx: 1, pool="p2")
    with pytest.raises(PoolInUseError):
        server.remove_xstream("es2")


def test_remove_idle_xstream_and_pool(cluster):
    server, _ = two_procs(cluster)
    server.add_pool({"name": "p2"})
    server.add_xstream({"name": "es2", "scheduler": {"pools": ["p2"]}})
    server.remove_xstream("es2")
    server.remove_pool("p2")
    assert "es2" not in server.xstreams
    assert "p2" not in server.pools


def test_reconfigure_while_serving(cluster):
    """Adding pools/xstreams mid-stream must not disturb in-flight RPCs."""
    server, client = two_procs(cluster)

    def slow(ctx):
        yield Compute(1.0)
        return ctx.args

    server.register("slow", slow)
    results = []

    def caller():
        value = yield from client.forward(server.address, "slow", 7)
        results.append(value)

    cluster.spawn(client, caller())
    cluster.kernel.schedule(0.5, lambda: server.add_pool({"name": "late"}))
    cluster.kernel.schedule(
        0.6, lambda: server.add_xstream({"name": "es-late", "scheduler": {"pools": ["late"]}})
    )
    cluster.run()
    assert results == [7]
    assert "late" in server.pools


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_finalized_instance_rejects_operations(cluster):
    server, client = two_procs(cluster)
    server.shutdown()
    with pytest.raises(FinalizedError):
        server.register("x", lambda ctx: 1)
    with pytest.raises(FinalizedError):
        server.spawn_ult((x for x in []))


def test_process_death_finalizes_margo(cluster):
    server, _ = two_procs(cluster)
    cluster.faults.kill_process(server.process)
    assert server.finalized


def test_snapshot_shape(cluster):
    server, _ = two_procs(cluster)
    snap = server.snapshot()
    assert set(snap) == {"time", "inflight_outgoing", "inflight_incoming", "pools"}
    assert "__primary__" in snap["pools"]


def test_registered_rpcs_listing(cluster):
    server, _ = two_procs(cluster)
    server.register("b", lambda ctx: 1, provider_id=2)
    server.register("a", lambda ctx: 1, provider_id=1)
    assert server.registered_rpcs() == [("a", 1), ("b", 2)]


# ----------------------------------------------------------------------
# monitor fast path: hook tables, zero-cost when disabled
# ----------------------------------------------------------------------
def test_rpc_without_monitors_fires_no_hooks(cluster):
    server, client = two_procs(cluster)
    server.register("echo", lambda ctx: ctx.args)

    assert cluster.run_ult(client, client.forward(server.address, "echo", 1)) == 1
    assert client._tables is None and server._tables is None
    # Instance size is on the per-RPC path: two dummy attributes alone
    # measured +2.3 % wall time per echo (5/5 alternating pairs).
    assert len(vars(client)) <= 28


def test_monitor_attached_after_traffic_sees_later_rpcs(cluster):
    """add/remove_monitor rebuild the hook table; they are the only way
    to change ``monitors``."""
    server, client = two_procs(cluster)
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        return (yield from client.forward(server.address, "echo", 1))

    cluster.run_ult(client, driver())

    class Recorder:
        def __init__(self):
            self.starts = 0

        def on_forward_start(self, **kwargs):
            self.starts += 1

    recorder = Recorder()
    client.add_monitor(recorder)
    cluster.run_ult(client, driver())
    assert recorder.starts == 1

    client.remove_monitor(recorder)
    cluster.run_ult(client, driver())
    assert recorder.starts == 1

    # ``monitors`` is immutable: nothing can change it behind the hook
    # table's back.
    with pytest.raises(AttributeError):
        client.monitors.append(recorder)
    client.add_monitor(recorder)
    with pytest.raises(TypeError):
        client.monitors[0] = Recorder()
    cluster.run_ult(client, driver())
    assert recorder.starts == 2

