"""mochi-profile: windowed store, RPC latency decomposition, Bedrock
introspection RPCs, and determinism of the rollups."""

import json
import math

import pytest

from repro import Cluster
from repro.analysis.race import hooks as race_hooks
from repro.bedrock.boot import boot_process
from repro.bedrock.client import BedrockClient
from repro.margo.errors import RpcFailedError
from repro.margo.ult import Compute, UltSleep
from repro.observability import (
    PHASES,
    ObservabilitySpec,
    PhaseAggregate,
    ProfileStore,
    quantile_from_buckets,
)
from repro.observability.profile.estimator import LoadEstimator
from repro.yokan import YokanClient

PROFILED = {"observability": {"profiling": True, "profile_window": 0.05}}


# ----------------------------------------------------------------------
# quantile estimation / aggregates
# ----------------------------------------------------------------------
def test_quantile_empty_is_zero():
    buckets = PhaseAggregate().buckets
    assert quantile_from_buckets(0.5, buckets, [0] * (len(buckets) + 1), 0, 0) == 0.0


def test_quantile_clamped_to_observed_range():
    agg = PhaseAggregate()
    for value in (2e-4, 3e-4, 4e-4):
        agg.observe(value)
    doc = agg.to_json()
    assert doc["count"] == 3
    assert doc["min"] == pytest.approx(2e-4)
    assert doc["max"] == pytest.approx(4e-4)
    for q in ("p50", "p95", "p99"):
        assert doc["min"] <= doc[q] <= doc["max"]
    assert doc["p50"] <= doc["p95"] <= doc["p99"]


def test_quantile_overflow_bucket_reports_max():
    agg = PhaseAggregate()
    agg.observe(50.0)  # beyond the largest bucket bound
    doc = agg.to_json()
    assert doc["p99"] == 50.0


# ----------------------------------------------------------------------
# the windowed store
# ----------------------------------------------------------------------
def test_store_ring_is_bounded():
    store = ProfileStore(window=1.0, history=4)
    store.open_window(0)
    for _ in range(10):
        store.close_current({}, {})
    assert len(store.windows) == 4
    assert [w["index"] for w in store.windows] == [6, 7, 8, 9]
    assert store.current.index == 10


def test_store_window_boundaries_deterministic():
    store = ProfileStore(window=0.25, history=8)
    assert store.window_index(0.0) == 0
    assert store.window_index(0.24) == 0
    assert store.window_index(0.25) == 1
    window = store.open_window(3)
    assert (window.start, window.end) == (0.75, 1.0)


def test_store_query_validation():
    store = ProfileStore(window=1.0, history=4)
    with pytest.raises(RuntimeError, match="no open window"):
        store.close_current({}, {})
    store.open_window(0)
    store.close_current({}, {})
    with pytest.raises(ValueError, match="'last'"):
        store.closed_windows(last=-1)
    assert store.closed_windows(last=0) == []
    with pytest.raises(ValueError):
        ProfileStore(window=0.0, history=4)
    with pytest.raises(ValueError):
        ProfileStore(window=1.0, history=0)


# ----------------------------------------------------------------------
# ObservabilitySpec surface
# ----------------------------------------------------------------------
def test_spec_profiling_validation():
    with pytest.raises(ValueError, match="profile_window"):
        ObservabilitySpec.from_json({"profiling": True, "profile_window": 0})
    with pytest.raises(ValueError, match="profile_sample_every"):
        ObservabilitySpec.from_json({"profile_sample_every": 0})
    with pytest.raises(ValueError, match="unknown observability keys"):
        ObservabilitySpec.from_json({"profilng": True})


def test_spec_roundtrip_keeps_profiling_keys():
    spec = ObservabilitySpec.from_json(
        {"profiling": True, "profile_window": 0.5, "profile_sample_every": 8}
    )
    doc = spec.to_json()
    assert doc["profiling"] is True
    assert doc["profile_window"] == 0.5
    assert doc["profile_sample_every"] == 8
    assert ObservabilitySpec.from_json(doc) == spec
    # Non-profiled spec reflects without any profiling keys (round-trip
    # compatibility with pre-profiling configuration documents).
    assert "profiling" not in ObservabilitySpec().to_json()


# ----------------------------------------------------------------------
# live decomposition (two profiled processes)
# ----------------------------------------------------------------------
def _echo_handler(ctx):
    yield Compute(1e-6)
    return {"ok": True}


def _run_profiled_pair(seed=7):
    """20 echo RPCs between two profiled processes; returns (a, b)."""
    cluster = Cluster(seed=seed)
    a = cluster.add_margo("a", "node0", config=PROFILED)
    b = cluster.add_margo("b", "node1", config=PROFILED)
    b.register("echo_ping", _echo_handler, provider_id=3)

    def client():
        for _ in range(20):
            yield from a.forward(b.address, "echo_ping", {"x": 1}, provider_id=3)
            yield UltSleep(0.01)

    cluster.run_ult(a, client())
    cluster.kernel.run(until=0.5)
    return cluster, a, b


def test_decomposition_records_all_phases():
    _cluster, a, b = _run_profiled_pair()
    client_rpc = {}
    server_rpc = {}
    for window in a.profiler.store.windows:
        client_rpc.update(window["rpc"].get("echo_ping/3", {}))
    for window in b.profiler.store.windows:
        server_rpc.update(window["rpc"].get("echo_ping/3", {}))
    assert {"client_queue", "respond", "total"} <= set(client_rpc)
    assert {"network", "server_queue", "handler"} <= set(server_rpc)
    # The handler phase includes the modeled compute, so it dominates.
    assert server_rpc["handler"]["min"] >= 1e-6


def test_provider_rates_measured_on_server():
    _cluster, _a, b = _run_profiled_pair()
    entries = [
        w["providers"]["echo:3"]
        for w in b.profiler.store.windows
        if "echo:3" in w["providers"]
    ]
    assert entries
    assert sum(e["requests"] for e in entries) == 20
    assert all(e["rate"] > 0 for e in entries)
    assert all(e["bytes_in"] > 0 and e["bytes_out"] > 0 for e in entries)


def test_phase_rollups_tile_the_total():
    """Under full sampling, each closed window's five phases of an RPC
    key (client_queue, respond and total on the client; network,
    server_queue and handler on the server) count every request once
    and their sums add up to the total's."""
    _cluster, a, b = _run_profiled_pair()
    merged = {}
    for profiler in (a.profiler, b.profiler):
        for window in profiler.store.windows:
            for key, phases in window["rpc"].items():
                if not key.startswith("pool/"):
                    merged.setdefault((window["index"], key), {}).update(phases)
    assert sum(phases["total"]["count"] for phases in merged.values()) == 20
    for phases in merged.values():
        total = phases.pop("total")
        assert sorted(phases) == sorted(PHASES[:-1])
        assert all(p["count"] == total["count"] for p in phases.values())
        assert math.isclose(sum(p["sum"] for p in phases.values()), total["sum"])


def test_pool_scheduling_latency_observed():
    _cluster, a, _b = _run_profiled_pair()
    samples = [
        window["rpc"]["pool/__primary__"]["sched"]
        for window in a.profiler.store.windows
        if "pool/__primary__" in window["rpc"]
    ]
    assert samples and sum(s["count"] for s in samples) > 0


def test_xstream_utilization_sampled():
    _cluster, a, _b = _run_profiled_pair()
    busy_windows = [
        w for w in a.profiler.store.windows
        if w["xstreams"]["__primary__"]["busy"] > 0
    ]
    assert busy_windows
    for window in a.profiler.store.windows:
        sample = window["xstreams"]["__primary__"]
        assert 0.0 <= sample["utilization"] <= 1.0
        assert sample["busy"] + sample["idle"] == pytest.approx(0.05)


def test_profiling_off_is_zero_cost():
    cluster = Cluster(seed=7)
    a = cluster.add_margo("a", "node0")
    assert a.profiler is None
    for pool in a.pools.values():
        assert pool._profiler is None
    assert a.monitors == ()


def test_explicit_off_config_attaches_no_observer():
    """Every knob present and false is the same as absent: no monitor,
    profiler, tracer or xray plane exists for the RPC path to skip."""
    off = {"observability": {"tracing": False, "metrics": False, "profiling": False}}
    a = Cluster(seed=7).add_margo("a", "node0", config=off)
    assert a.monitors == ()
    assert a.profiler is a.tracer is None
    assert all(pool._profiler is None for pool in a.pools.values())
    assert not hasattr(a.kernel, "xray_plane")


def test_xray_adds_no_monitor_to_the_profiler():
    obs = {"observability": {"profiling": True, "xray": True}}
    a = Cluster(seed=7).add_margo("a", "node0", config=obs)
    assert a.monitors == (a.profiler,)
    assert a.profiler.xray_plane is a.kernel.xray_plane


def test_profiler_stops_on_shutdown():
    cluster, a, _b = _run_profiled_pair()
    a.shutdown()
    assert not a.profiler._running
    for pool in a.pools.values():
        assert pool._profiler is None
    # No further windows accumulate after shutdown.
    n = len(a.profiler.store.windows)
    cluster.kernel.run(until=1.0)
    assert len(a.profiler.store.windows) == n


# ----------------------------------------------------------------------
# determinism of the rollups
# ----------------------------------------------------------------------
def _profile_bytes(seed=11):
    _cluster, a, b = _run_profiled_pair(seed=seed)
    return (
        json.dumps(a.profiler.profile(), sort_keys=True)
        + json.dumps(b.profiler.profile(), sort_keys=True)
        + json.dumps(a.profiler.utilization(), sort_keys=True)
    )


def test_profile_byte_identical_across_runs():
    assert _profile_bytes() == _profile_bytes()


def test_profile_identical_under_race_record_mode():
    """Race-detector record mode observes the same schedule, so the
    profile must not change by a byte (profiling + recording compose
    without perturbing the simulation)."""
    plain = _profile_bytes()
    race_hooks.disable()
    race_hooks.reset()
    race_hooks.enable()
    try:
        recorded = _profile_bytes()
    finally:
        race_hooks.disable()
        race_hooks.reset()
    assert recorded == plain


# ----------------------------------------------------------------------
# Bedrock introspection RPCs
# ----------------------------------------------------------------------
def _boot_profiled_kv(cluster, name="kv0", node="n0", profiling=True):
    observability = {"profiling": True, "profile_window": 0.05} if profiling else {}
    config = {
        "margo": {"observability": observability},
        "libraries": {"yokan": "libyokan.so"},
        "providers": [
            {
                "name": f"db-{name}",
                "type": "yokan",
                "provider_id": 1,
                "config": {"database": {"type": "persistent"}},
            }
        ],
    }
    return boot_process(cluster, name, node, config)


def _bedrock_rig(profiling=True, seed=21):
    cluster = Cluster(seed=seed)
    margo, bedrock = _boot_profiled_kv(cluster, profiling=profiling)
    ctl = cluster.add_margo("ctl", "ctl-node")
    handle = BedrockClient(ctl).make_service_handle(margo.address)
    db = YokanClient(ctl).make_handle(margo.address, 1)

    def traffic():
        yield from db.put_multi([(f"k{i}", "v" * 50) for i in range(30)])
        for i in range(30):
            yield from db.get(f"k{i % 30}")
            yield UltSleep(0.005)

    cluster.run_ult(ctl, traffic())
    cluster.kernel.run(until=0.5)
    return cluster, ctl, handle, bedrock


def test_bedrock_get_profile_rpc():
    cluster, ctl, handle, _bedrock = _bedrock_rig()

    def query():
        full = yield from handle.query("return $__profile__;")
        last2 = yield from handle.query("return array_slice($__profile__.windows, -2);")
        return full, last2

    full, last2 = cluster.run_ult(ctl, query())
    assert full["process"] == "kv0"
    assert len(full["windows"]) > 2
    assert last2 == full["windows"][-2:]
    measured = [w for w in full["windows"] if "yokan:1" in w["providers"]]
    assert measured and all(w["providers"]["yokan:1"]["rate"] > 0 for w in measured)


def test_bedrock_get_utilization_rpc():
    cluster, ctl, handle, _bedrock = _bedrock_rig()
    doc = cluster.run_ult(ctl, handle.query("return $__profile__.utilization;"))
    assert doc["window"] == 0.05
    assert "__primary__" in doc["xstreams"]
    assert 0.0 <= doc["xstreams"]["__primary__"]["utilization"] <= 1.0


def test_query_reply_shares_nothing_with_plane_state():
    """Neither a caller mutating a reply nor a script mutating its
    document reaches the profiler's store."""
    cluster, ctl, handle, _bedrock = _bedrock_rig()

    def windows():
        return cluster.run_ult(ctl, handle.query("return $__profile__.windows;"))

    reply = windows()
    before = json.dumps(reply, sort_keys=True)
    reply[0]["providers"].clear()
    reply[0]["index"] = -7
    assert json.dumps(windows(), sort_keys=True) == before
    script = "$__profile__.windows[0].index = 5; return $__profile__.windows[0].index;"
    assert cluster.run_ult(ctl, handle.query(script)) == 5
    assert json.dumps(windows(), sort_keys=True) == before


def test_malformed_introspection_contained():
    """A malformed or over-budget query degrades to an error response +
    counter tick; the Bedrock server stays fully operational afterwards."""
    cluster, ctl, handle, bedrock = _bedrock_rig()
    assert bedrock.introspection_errors == 0
    nested_copies = "$a = [];" + " $a = [$a, $a];" * 20 + " return $a;"
    for ticks, script in enumerate(
        ["return $__profile__.windows[;", nested_copies, "definitely not jx9 $$$"], 1
    ):
        with pytest.raises(RpcFailedError, match="query"):
            cluster.run_ult(ctl, handle.query(script))
        assert bedrock.introspection_errors == ticks

    # Still alive: a well-formed query succeeds afterwards.
    snapshot = cluster.run_ult(ctl, handle.query("return $__metrics__;"))
    assert snapshot["bedrock_introspection_errors"] == 3


def test_get_profile_json_identical_across_bedrock_runs():
    def run():
        cluster, ctl, handle, _bedrock = _bedrock_rig(seed=33)
        profile = cluster.run_ult(ctl, handle.query("return $__profile__;"))
        return json.dumps(profile, sort_keys=True)

    assert run() == run()


# ----------------------------------------------------------------------
# load estimator
# ----------------------------------------------------------------------
def test_load_estimator_reduces_windows():
    _cluster, _a, b = _run_profiled_pair()
    estimator = LoadEstimator(smoothing=100)  # all windows
    estimates = estimator.estimate(b.profiler.profile())
    assert "echo:3" in estimates
    assert estimates["echo:3"]["load"] > 0
    merged = LoadEstimator.merge([estimates, {"echo:3": {"load": 1.0}}])
    assert merged["echo:3"]["load"] == pytest.approx(estimates["echo:3"]["load"] + 1.0)
    with pytest.raises(ValueError):
        LoadEstimator(smoothing=0)
    assert estimator.estimate({"windows": []}) == {}
