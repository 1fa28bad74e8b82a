"""Tests for the monitoring subsystem: hooks, statistics, Listing-1 JSON."""

import hashlib
import json

import pytest

from repro import Cluster
from repro.margo import Compute, RpcTimeoutError
from repro.mercury import NULL_PROVIDER, NULL_RPC, rpc_id_of
from repro.monitoring import (
    HOOK_NAMES,
    CallbackMonitor,
    Monitor,
    PeriodicSampler,
    RunningStats,
    StatisticsMonitor,
)
from repro.monitoring.sampler import SAMPLES


# ----------------------------------------------------------------------
# RunningStats
# ----------------------------------------------------------------------
def test_running_stats_basic():
    stats = RunningStats()
    for v in [1.0, 2.0, 3.0]:
        stats.update(v)
    assert stats.num == 3
    assert stats.avg == pytest.approx(2.0)
    assert stats.min == 1.0
    assert stats.max == 3.0
    assert stats.sum == pytest.approx(6.0)
    assert stats.var == pytest.approx(2.0 / 3.0)


def test_running_stats_empty_json():
    assert RunningStats().to_json() == {"num": 0}


def test_running_stats_json_fields():
    stats = RunningStats()
    stats.update(0.5)
    doc = stats.to_json()
    assert set(doc) == {"num", "avg", "min", "max", "var", "sum"}


def test_running_stats_merge_matches_sequential():
    import random

    rng = random.Random(3)
    values = [rng.random() for _ in range(100)]
    all_stats = RunningStats()
    for v in values:
        all_stats.update(v)
    a, b = RunningStats(), RunningStats()
    for v in values[:40]:
        a.update(v)
    for v in values[40:]:
        b.update(v)
    a.merge(b)
    assert a.num == all_stats.num
    assert a.avg == pytest.approx(all_stats.avg)
    assert a.var == pytest.approx(all_stats.var)
    assert a.min == all_stats.min
    assert a.max == all_stats.max


def test_running_stats_merge_empty_cases():
    a, b = RunningStats(), RunningStats()
    b.update(2.0)
    a.merge(b)
    assert a.num == 1 and a.avg == 2.0
    a.merge(RunningStats())
    assert a.num == 1


# ----------------------------------------------------------------------
# CallbackMonitor
# ----------------------------------------------------------------------
def test_callback_monitor_rejects_unknown_hooks():
    with pytest.raises(ValueError, match="unknown monitoring hooks"):
        CallbackMonitor({"on_bogus": lambda **kw: None})


def test_callback_monitor_invoked_at_lifecycle_points():
    cluster = Cluster(seed=1)
    events = []
    monitor = CallbackMonitor(
        {
            "on_forward_start": lambda **kw: events.append("forward_start"),
            "on_ult_start": lambda **kw: events.append("ult_start"),
            "on_respond": lambda **kw: events.append("respond"),
            "on_response_received": lambda **kw: events.append("response"),
        }
    )
    server = cluster.add_margo("server", node="n0", monitors=(monitor,))
    client = cluster.add_margo("client", node="n1", monitors=(monitor,))
    server.register("echo", lambda ctx: ctx.args)
    cluster.run_ult(client, client.forward(server.address, "echo", 1))
    assert events == ["forward_start", "ult_start", "respond", "response"]


def test_callback_monitor_dispatches_every_hook():
    # One RPC + one bulk transfer + a shutdown exercise the complete
    # hook surface; each registered callback must fire at least once.
    cluster = Cluster(seed=1)
    fired = set()
    monitor = CallbackMonitor(
        {name: (lambda _n=name, **kw: fired.add(_n)) for name in HOOK_NAMES}
    )
    server = cluster.add_margo("server", node="n0", monitors=(monitor,))
    client = cluster.add_margo("client", node="n1", monitors=(monitor,))
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        yield from client.forward(server.address, "echo", "x")
        yield from client.bulk_transfer(server.address, 1 << 16)

    cluster.run_ult(client, driver())
    server.shutdown()
    assert fired == set(HOOK_NAMES)


# ----------------------------------------------------------------------
# StatisticsMonitor (Listing 1)
# ----------------------------------------------------------------------
def echo_workload(cluster, server, client, n=3, payload="x"):
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        for _ in range(n):
            yield from client.forward(server.address, "echo", payload)

    cluster.run_ult(client, driver())


def test_statistics_monitor_listing1_key_format():
    cluster = Cluster(seed=1)
    server_mon = StatisticsMonitor()
    server = cluster.add_margo("server", node="n0", monitors=(server_mon,))
    client = cluster.add_margo("client", node="n1")
    echo_workload(cluster, server, client)
    doc = server_mon.to_json()
    assert set(doc) == {"rpcs"}
    (key,) = doc["rpcs"].keys()
    rpc_id = rpc_id_of("echo")
    assert key == f"{NULL_RPC}:{NULL_PROVIDER}:{rpc_id}:{NULL_PROVIDER}"
    record = doc["rpcs"][key]
    assert record["name"] == "echo"
    assert record["rpc_id"] == rpc_id
    assert record["provider_id"] == NULL_PROVIDER
    assert record["parent_rpc_id"] == NULL_RPC
    assert record["parent_provider_id"] == NULL_PROVIDER


def test_statistics_monitor_target_ult_duration_stats():
    cluster = Cluster(seed=1)
    server_mon = StatisticsMonitor()
    server = cluster.add_margo("server", node="n0", monitors=(server_mon,))
    client = cluster.add_margo("client", node="n1")
    echo_workload(cluster, server, client, n=3)
    (record,) = server_mon.find_by_name("echo")
    peer_label = f"received from {client.address}"
    peer = record["target"][peer_label]
    assert peer["ult"]["duration"]["num"] == 3
    assert peer["ult"]["duration"]["avg"] > 0
    assert peer["ult"]["duration"]["max"] >= peer["ult"]["duration"]["avg"]
    assert peer["ult"]["queued"]["num"] == 3


def test_statistics_monitor_origin_forward_stats():
    cluster = Cluster(seed=1)
    client_mon = StatisticsMonitor()
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1", monitors=(client_mon,))
    echo_workload(cluster, server, client, n=5)

    def timed_out():  # never reach on_response_received
        for _ in range(3):
            with pytest.raises(RpcTimeoutError):
                yield from client.forward(server.address, "echo", 1, timeout=1e-9)

    cluster.run_ult(client, timed_out())
    (record,) = client_mon.find_by_name("echo")
    peer = record["origin"][f"sent to {server.address}"]
    assert peer["forward"]["num"] == 5
    assert peer["forward"]["avg"] > 0
    assert peer["serialize"]["num"] == 8
    assert client_mon._pending_forward == {}  # bounded: nothing kept per timed-out RPC


def nested_listing1():
    """a -> b "relay" (provider 3) -> c "leaf" (provider 7); b monitored."""
    cluster = Cluster(seed=1)
    b_mon = StatisticsMonitor()
    a = cluster.add_margo("a", node="n0")
    b = cluster.add_margo("b", node="n1", monitors=(b_mon,))
    c = cluster.add_margo("c", node="n2")
    c.register("leaf", lambda ctx: 1, provider_id=7)

    def relay(ctx):
        return (yield from b.forward(c.address, "leaf", provider_id=7))

    b.register("relay", relay, provider_id=3)
    cluster.run_ult(a, a.forward(b.address, "relay", provider_id=3))
    return b_mon


def test_statistics_monitor_nested_rpc_parent_context():
    # b's origin-side record for "leaf" must carry the parent context
    # (relay, provider 3) -- paper Listing 1's parent_rpc_id semantics.
    (leaf_record,) = nested_listing1().find_by_name("leaf")
    assert leaf_record["parent_rpc_id"] == rpc_id_of("relay")
    assert leaf_record["parent_provider_id"] == 3
    assert leaf_record["provider_id"] == 7


def test_statistics_monitor_json_round_trip_nested_rpcs():
    # Under nested RPCs the document carries one record per calling
    # context (Listing 1's parent_rpc_id keys); the JSON text must
    # round-trip losslessly back to the in-memory document.
    b_mon = nested_listing1()
    doc = b_mon.to_json()
    assert json.loads(b_mon.dumps()) == doc
    # Both contexts present: relay called from the top (parent NULL_RPC)
    # and leaf called from inside relay's handler.
    relay_key = f"{NULL_RPC}:{NULL_PROVIDER}:{rpc_id_of('relay')}:3"
    leaf_key = f"{rpc_id_of('relay')}:3:{rpc_id_of('leaf')}:7"
    assert list(doc["rpcs"]) == [relay_key, leaf_key]  # in first-seen order


def test_statistics_monitor_runtime_query_and_dump():
    cluster = Cluster(seed=1)
    dumps = []
    monitor = StatisticsMonitor(dump_callback=dumps.append)
    server = cluster.add_margo("server", node="n0", monitors=(monitor,))
    client = cluster.add_margo("client", node="n1")
    echo_workload(cluster, server, client)
    # Runtime query works before shutdown.
    assert monitor.rpc_names() == {"echo"}
    assert monitor.num_contexts == 1
    # JSON dump on finalize (paper: "outputs them as JSON when shutting
    # down the service").
    server.shutdown()
    assert len(dumps) == 1
    parsed = json.loads(dumps[0])
    assert "rpcs" in parsed
    assert monitor.finalized_at is not None


def test_statistics_monitor_bulk_stats():
    cluster = Cluster(seed=1)
    monitor = StatisticsMonitor()
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1", monitors=(monitor,))

    def driver():
        yield from client.bulk_transfer(server.address, 1 << 20)
        yield from client.bulk_transfer(server.address, 1 << 21)

    cluster.run_ult(client, driver())
    doc = monitor.to_json()
    assert doc["bulk"]["duration"]["num"] == 2
    assert doc["bulk"]["size"]["sum"] == float((1 << 20) + (1 << 21))


def test_monitoring_adds_simulated_overhead():
    def run(monitors):
        cluster = Cluster(seed=1)
        server = cluster.add_margo("server", node="n0", monitors=monitors)
        client = cluster.add_margo("client", node="n1", monitors=monitors)
        echo_workload(cluster, server, client, n=50)
        return cluster.now

    bare = run(())
    monitored = run((StatisticsMonitor(),))
    assert monitored > bare  # monitoring costs simulated time...
    assert monitored < bare * 1.2  # ...but only a small fraction


# ----------------------------------------------------------------------
# PeriodicSampler
# ----------------------------------------------------------------------
def test_sampler_records_pool_sizes_and_inflight():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")

    def slow(ctx):
        yield Compute(0.05)
        return None

    server.register("slow", slow)
    sampler = PeriodicSampler(server, period=0.01)
    sampler.start()

    def driver():
        for _ in range(10):
            yield from client.forward(server.address, "slow")

    cluster.run_ult(client, driver())
    sampler.stop()
    cluster.run()
    assert len(sampler.samples) == 51  # t = 0, 0.01, ..., 0.5
    assert sampler.latest is not None
    stats = sampler.pool_size_stats("__primary__")
    assert stats.num == 51
    inflight = sampler.inflight_stats("incoming")
    assert inflight.max >= 1.0  # at some sample, a slow RPC was executing


def test_sampler_validation():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    with pytest.raises(ValueError):
        PeriodicSampler(server, period=0.0)
    sampler = PeriodicSampler(server, period=1.0)
    sampler.start()
    assert sampler.running
    with pytest.raises(RuntimeError):
        sampler.start()
    sampler.stop()
    with pytest.raises(ValueError):
        sampler.inflight_stats("sideways")


def test_sampler_keeps_the_newest_samples():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    sampler = PeriodicSampler(server, period=1.0)
    sampler.start()
    cluster.run(until=SAMPLES + 100.0)
    sampler.stop()
    assert len(sampler.samples) == SAMPLES
    assert [s["time"] for s in sampler.samples] == [101.0 + i for i in range(SAMPLES)]
    assert sampler.latest["time"] == SAMPLES + 100.0


def test_sampler_stops_on_finalize():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    sampler = PeriodicSampler(server, period=0.5)
    sampler.start()
    cluster.kernel.schedule(2.0, server.shutdown)
    cluster.run()
    assert len(sampler.samples) <= 6


def test_monitor_base_hooks_are_noops():
    # The base class's no-op hooks are charged for but never called.
    cluster = Cluster(seed=1)
    monitor = Monitor()
    server = cluster.add_margo("server", node="n0", monitors=(monitor,))
    client = cluster.add_margo("client", node="n1", monitors=(monitor,))
    server.register("echo", lambda ctx: ctx.args)
    assert cluster.run_ult(client, client.forward(server.address, "echo", 1)) == 1
    assert all(table[hook] == (1, ()) for table in client._tables for hook in HOOK_NAMES)


# ----------------------------------------------------------------------
# Listing-1 bytes, pinned
# ----------------------------------------------------------------------
#: SHA-256 of the scenario below's documents: every monitor's ``dumps()``
#: and its ``to_json()`` in insertion order.  Taken before the hooks
#: flattened their lookups and inlined the Welford update; neither may
#: move one float bit or reorder one record.
LISTING1_DIGEST = "cba5955c2e876039ac39612ccb4932e1d4da9053a79c0d75df6c0a981854adb5"


def listing1_documents():
    """A ``StatisticsMonitor`` on each of client, relay and leaf: echoes,
    a nested forward, a timed-out RPC, and bulk transfers on both sides."""
    cluster = Cluster(seed=3)
    monitors = {name: StatisticsMonitor() for name in ("client", "relay", "leaf")}
    client, relay, leaf = (
        cluster.add_margo(name, node=f"n{i}", monitors=(monitors[name],))
        for i, name in enumerate(monitors)
    )
    relay.register("echo", lambda ctx: ctx.args)
    leaf.register("leaf_get", lambda ctx: ctx.args * 2, provider_id=7)

    def relay_call(ctx):
        value = yield from relay.forward(leaf.address, "leaf_get", ctx.args, provider_id=7)
        return value + 1

    def slow(ctx):
        yield Compute(1e-3)
        return "late"

    def pull(ctx):
        yield from relay.bulk_transfer(ctx.source, 1 << 16)
        return "pulled"

    relay.register("relay_call", relay_call, provider_id=3)
    relay.register("slow", slow)
    relay.register("pull", pull)

    def driver():
        for i in range(4):
            yield from client.forward(relay.address, "echo", "x" * i)
            yield from client.forward(relay.address, "relay_call", i, provider_id=3)
        with pytest.raises(RpcTimeoutError):
            yield from client.forward(relay.address, "slow", timeout=1e-5)
        yield from client.forward(relay.address, "pull")
        yield from client.bulk_transfer(relay.address, 1 << 12)

    cluster.run_ult(client, driver())
    cluster.run()  # the timed-out handler completes; its late reply is dropped
    return [[name, m.dumps(), m.to_json()] for name, m in monitors.items()]


def test_listing1_documents_are_pinned():
    docs = listing1_documents()
    # The scenario reaches every phase it means to.
    relay_doc = json.loads(docs[1][1])
    assert relay_doc["bulk"]["size"]["num"] == 1
    assert {r["name"] for r in relay_doc["rpcs"].values()} == {
        "echo", "relay_call", "slow", "pull", "leaf_get",
    }
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == LISTING1_DIGEST
