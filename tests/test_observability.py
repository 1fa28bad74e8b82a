"""Tests for the observability plane: exported counters, tracer, exporters.

The acceptance scenario from the issue lives here: a nested RPC
(a -> b "relay" -> c "leaf") with tracing enabled must produce a single
trace whose spans form the correct parent/child tree, exported as valid
Chrome trace-event JSON, byte-identical across two runs with the same
seed.
"""

import json

import pytest

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.margo import Compute, MargoConfig
from repro.margo.errors import ConfigError
from repro.monitoring import CallbackMonitor
from repro.observability import (
    ObservabilitySpec,
    PhaseAggregate,
    Tracer,
    chrome_trace,
    collect_spans,
)
from repro.ssg import SSGGroup

TRACED = {"observability": {"tracing": True}}


# ----------------------------------------------------------------------
# the profiler's phase histogram
# ----------------------------------------------------------------------
def test_histogram_buckets_and_summary():
    """A value equal to a bound lands in that bucket, the tail in
    ``+inf``; count, sum, min and max ride along."""
    agg = PhaseAggregate()
    for value in (1e-6, 5e-4, 1e-3, 1e-3, 50.0):
        agg.observe(value)
    assert agg.bucket_counts == [1, 0, 0, 3, 0, 0, 0, 0, 1]
    assert (agg.count, agg.min, agg.max) == (5, 1e-6, 50.0)
    assert agg.sum == pytest.approx(50.002501)


def test_histogram_default_buckets_sorted():
    assert list(PhaseAggregate.buckets) == sorted(PhaseAggregate.buckets)


# ----------------------------------------------------------------------
# exported counters: plain ints, read when ``metrics()`` is
# ----------------------------------------------------------------------
def test_labelled_family_one_series_per_label_set():
    """A labelled series carries its label in the name: two SSG groups
    on one process export one name per counter and group."""
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("solo", node="n0")
    g1, g2 = SSGGroup(margo, "g1"), SSGGroup(margo, "g2")
    g1.pings_sent += 2
    g2.pings_sent += 5
    doc = margo.metrics()
    assert (doc["ssg_pings_sent{group=g1}"], doc["ssg_pings_sent{group=g2}"]) == (2, 5)
    assert doc["ssg_false_suspicions{group=g2}"] == 0


def test_snapshot_shape_and_determinism():
    """Flat ``{name: number}``, sorted by name, read at call time."""
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("solo", node="n0")
    doc = margo.metrics()
    assert list(doc) == sorted(doc) == [
        "margo_inflight_incoming", "margo_inflight_outgoing",
        "margo_monitor_errors", "margo_rpcs_handled", "margo_rpcs_sent",
    ]
    assert set(doc.values()) == {0}
    margo.register("echo", lambda ctx: ctx.args)
    cluster.run_ult(margo, margo.forward(margo.address, "echo", "x"))
    assert margo.metrics()["margo_rpcs_sent"] == 1 and doc["margo_rpcs_sent"] == 0
    assert json.dumps(margo.metrics()) == json.dumps(margo.metrics())


def test_margo_runtime_counters_live_in_registry():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        for _ in range(3):
            yield from client.forward(server.address, "echo", "x")

    cluster.run_ult(client, driver())
    assert client.rpcs_sent == 3
    assert server.rpcs_handled == 3
    assert client.metrics()["margo_rpcs_sent"] == 3
    assert server.metrics()["margo_rpcs_handled"] == 3


# ----------------------------------------------------------------------
# satellite: a faulty monitor must not take the data path down
# ----------------------------------------------------------------------
#: Every hook an RPC fires, by side; the client pays 3 per RPC, the server 5.
CLIENT_HOOKS = ("on_forward_start", "on_forward_sent", "on_response_received")
SERVER_HOOKS = (
    "on_request_received", "on_ult_enqueued", "on_ult_start", "on_ult_complete", "on_respond",
)


def _boom(**kwargs):
    # The raise is the point: every hook site must contain it.
    raise RuntimeError("monitor bug")


def test_faulty_monitor_contained_and_counted():
    """A monitor raising in every request hook and in on_bulk_transfer:
    each site counts exactly one error per raise, the RPC still
    succeeds, and a healthy monitor sharing the site still fires."""
    hooks = CLIENT_HOOKS + SERVER_HOOKS + ("on_bulk_transfer",)
    fired = []

    def monitors():
        healthy = CallbackMonitor(
            {h: (lambda _h=h, **kw: fired.append((kw["margo"].process.name, _h))) for h in hooks}
        )
        return CallbackMonitor({h: _boom for h in hooks}), healthy

    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0", monitors=monitors())
    client = cluster.add_margo("client", node="n1", monitors=monitors())
    server.register("echo", lambda ctx: ctx.args)

    def work(ctx):
        yield Compute(1e-6)
        return "worked"

    def pull(ctx):
        yield from server.bulk_transfer(ctx.source, 1 << 10)
        return "pulled"

    server.register("work", work)
    server.register("pull", pull)

    def call(rpc):
        return (yield from client.forward(server.address, rpc, "payload"))

    for rpc, reply, bulk in (("echo", "payload", 0), ("work", "worked", 0), ("pull", "pulled", 1)):
        before = (client.monitor_errors, server.monitor_errors)
        fired.clear()
        assert cluster.run_ult(client, call(rpc)) == reply
        cluster.run()
        assert client.monitor_errors - before[0] == 3
        assert server.monitor_errors - before[1] == 5 + bulk
        assert sorted(fired) == sorted(
            [("client", h) for h in CLIENT_HOOKS]
            + [("server", h) for h in SERVER_HOOKS + ("on_bulk_transfer",) * bulk]
        )
    fired.clear()
    cluster.run_ult(client, client.bulk_transfer(server.address, 1 << 10))
    assert (client.monitor_errors, server.monitor_errors) == (10, 16)
    assert fired == [("client", "on_bulk_transfer")]


def test_faulty_monitor_does_not_starve_healthy_monitors():
    fired = []

    class Exploding:
        def on_respond(self, **kwargs):
            raise RuntimeError("boom")

    class Healthy:
        def on_respond(self, **kwargs):
            fired.append("respond")

    cluster = Cluster(seed=1)
    server = cluster.add_margo(
        "server", node="n0", monitors=(Exploding(), Healthy())
    )
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        return (yield from client.forward(server.address, "echo", 1))

    cluster.run_ult(client, driver())
    assert fired == ["respond"]


# ----------------------------------------------------------------------
# tracing: the acceptance scenario
# ----------------------------------------------------------------------
def nested_rpc_run(seed=1):
    """a --relay--> b --leaf--> c, all three traced."""
    cluster = Cluster(seed=seed)
    a = cluster.add_margo("a", node="n0", config=TRACED)
    b = cluster.add_margo("b", node="n1", config=TRACED)
    c = cluster.add_margo("c", node="n2", config=TRACED)
    c.register("leaf", lambda ctx: 1, provider_id=7)

    def relay(ctx):
        return (yield from b.forward(c.address, "leaf", provider_id=7))

    b.register("relay", relay, provider_id=3)

    def driver():
        return (yield from a.forward(b.address, "relay", provider_id=3))

    assert cluster.run_ult(a, driver()) == 1
    return cluster


def test_nested_rpc_single_trace_with_correct_tree():
    cluster = nested_rpc_run()
    spans = collect_spans(*cluster.tracers())
    trace_ids = {s.trace_id for s in spans}
    assert trace_ids == {"a:1"}  # ONE causal trace, rooted at a's call

    by_id = {s.span_id: s for s in spans}
    # Root forward span on the client.
    root = by_id["a:1"]
    assert root.category == "forward" and root.parent_span_id == ""
    assert root.process == "a" and root.name == "relay"
    # Server-side phases of the root request hang off it.
    assert by_id["a:1/w"].category == "wire"
    assert by_id["a:1/w"].parent_span_id == "a:1"
    assert by_id["a:1/q"].category == "queue"
    assert by_id["a:1/h"].category == "handler"
    assert by_id["a:1/h"].process == "b"
    # The nested forward is parented to the handler that issued it.
    nested = by_id["b:1"]
    assert nested.name == "leaf"
    assert nested.trace_id == "a:1"
    assert nested.parent_span_id == "a:1/h"
    assert by_id["b:1/h"].process == "c"
    # Timing sanity: children fit inside their parents.
    assert root.start <= by_id["a:1/h"].start <= by_id["a:1/h"].end <= root.end
    assert by_id["a:1/h"].start <= nested.start <= nested.end <= by_id["a:1/h"].end


def test_nested_rpc_chrome_trace_is_valid_and_deterministic():
    first, second = (
        json.dumps(chrome_trace(*nested_rpc_run(seed=1).tracers()), sort_keys=True)
        for _ in range(2)
    )
    assert first == second  # byte-identical across runs: acceptance criterion

    doc = json.loads(first)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) >= 9  # 2x (forward, wire, queue, handler, respond) - root respond overlap
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
        assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        assert event["tid"] == "a:1"
        assert event["pid"] in {"a", "b", "c"}
        assert "span_id" in event["args"]
        assert "parent_span_id" in event["args"]


def test_wire_span_pairs_across_different_tracers():
    # Client and server have *separate* tracer instances; the wire span
    # only exists once their edge halves are merged at export time.
    cluster = nested_rpc_run()
    a_tracer = cluster.margos["a"].tracer
    b_tracer = cluster.margos["b"].tracer
    solo_a = collect_spans(a_tracer)
    assert not any(s.category == "wire" for s in solo_a)  # one-sided: skipped
    paired = collect_spans(a_tracer, b_tracer)
    wire = [s for s in paired if s.span_id == "a:1/w"]
    assert len(wire) == 1
    assert wire[0].attributes == {"src": "a", "dst": "b"}
    assert wire[0].end >= wire[0].start


def test_tracing_off_by_default():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("m", node="n0")
    assert margo.tracer is None
    assert cluster.tracers() == []
    assert chrome_trace(*cluster.tracers()) == {"traceEvents": [], "displayTimeUnit": "ms"}


def test_max_spans_drops_and_counts():
    cluster = Cluster(seed=1)
    server = cluster.add_margo(
        "server", node="n0", config={"observability": {"tracing": True, "max_spans": 2}}
    )
    client = cluster.add_margo("client", node="n1", config=TRACED)
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        for _ in range(5):
            yield from client.forward(server.address, "echo", "x")

    cluster.run_ult(client, driver())
    assert len(server.tracer.spans) == 2
    assert server.tracer.dropped_spans > 0
    assert server.tracer.to_json()["dropped_spans"] == server.tracer.dropped_spans


def test_bulk_span_attaches_to_enclosing_trace():
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0", config=TRACED)
    client = cluster.add_margo("client", node="n1", config=TRACED)

    def pull(ctx):
        yield from server.bulk_transfer(ctx.source, 1 << 20)
        return "done"

    server.register("pull", pull)

    def driver():
        return (yield from client.forward(server.address, "pull"))

    cluster.run_ult(client, driver())
    bulk = [s for s in server.tracer.spans if s.category == "bulk"]
    assert len(bulk) == 1
    assert bulk[0].trace_id == "client:1"  # inside the RPC's trace
    assert bulk[0].parent_span_id == "client:1/h"
    assert bulk[0].attributes["size"] == 1 << 20


def test_record_span_roots_own_trace_outside_rpc():
    tracer = Tracer()
    span = tracer.record_span("compaction", "maintenance", "p0", 1.0, 2.5)
    assert span.trace_id == span.span_id
    assert span.parent_span_id == ""
    assert span.duration == pytest.approx(1.5)
    assert [s.trace_id for s in tracer.spans] == [span.trace_id]


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
def test_observability_spec_parses_and_validates():
    spec = ObservabilitySpec.from_json({"tracing": True, "max_spans": 10})
    assert spec.tracing and spec.metrics and spec.max_spans == 10
    assert ObservabilitySpec.from_json(None) == ObservabilitySpec()
    with pytest.raises(ValueError, match="unknown observability keys"):
        ObservabilitySpec.from_json({"traicng": True})
    with pytest.raises(ValueError, match="unknown observability keys"):
        ObservabilitySpec.from_json({"profile_history": 64})
    with pytest.raises(ValueError, match="must be positive"):
        ObservabilitySpec.from_json({"max_spans": 0})
    with pytest.raises(ValueError, match="must be an object"):
        ObservabilitySpec.from_json([1])


def _slo(**tuning):
    return {"profiling": True, "slos": [
        dict({"name": "p99", "objective": "latency_p99", "target": "put/1",
              "threshold": 0.002}, **tuning)]}


@pytest.mark.parametrize("doc, match", [
    ({"tracing": "false"}, "tracing must be a boolean, got 'false'"),
    ({"metrics": 0}, "metrics must be a boolean"),
    ({"profiling": 1}, "profiling must be a boolean"),
    ({"profiling": True, "xray": "true"}, "xray must be a boolean"),
    ({"max_spans": 2.9}, "max_spans must be an integer, got 2.9"),
    ({"max_spans": True}, "max_spans must be an integer"),
    ({"profile_sample_every": 2.9}, "profile_sample_every must be an integer"),
    ({"profile_sample_every": "4"}, "profile_sample_every must be an integer"),
    (_slo(window=12.5), "window must be an integer"),
    (_slo(short_windows="3"), "short_windows must be an integer"),
    ({"profile_window": "0.5"}, "profile_window must be a number"),
    ({"trace_sample_rate": True}, "trace_sample_rate must be a number"),
    (_slo(threshold="0.002"), "threshold must be a number"),
    (_slo(budget=False), "budget must be a number"),
], ids=["tracing-str", "metrics-int", "profiling-int", "xray-str", "max_spans-float",
        "max_spans-bool", "sample_every-float", "sample_every-str", "slo_window-float",
        "slo_short_windows-str", "profile_window-str", "trace_rate-bool",
        "slo_threshold-str", "slo_budget-bool"])
def test_observability_spec_refuses_wrongly_typed_input(doc, match):
    """Switches are JSON booleans, counts JSON integers and rates JSON
    numbers: nothing is coerced, so ``"false"`` turns nothing on and 2.9
    is not 2."""
    with pytest.raises(ValueError, match=match):
        ObservabilitySpec.from_json(doc)


def test_margo_config_round_trips_observability():
    config = MargoConfig.from_json(
        {"observability": {"tracing": True, "metrics": False, "max_spans": 5}}
    )
    assert config.observability == ObservabilitySpec(
        tracing=True, metrics=False, max_spans=5
    )
    again = MargoConfig.from_json(config.to_json())
    assert again.observability == config.observability
    with pytest.raises(ConfigError, match="unknown observability keys"):
        MargoConfig.from_json({"observability": {"bogus": 1}})


def test_margo_get_config_reflects_observability():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("m", node="n0", config=TRACED)
    doc = margo.get_config()
    assert doc["observability"] == {"tracing": True, "metrics": True}


def test_disabled_registry_counts_but_exports_nothing():
    """A component's counters count with ``metrics`` off; only the
    export reads ``null``."""
    cluster = Cluster(seed=1)
    margo, bedrock = boot_process(cluster, "server", "n0", {
        "margo": {"observability": {"metrics": False}},
        "libraries": {"yokan": "libyokan.so"},
        "providers": [{"name": "db", "type": "yokan", "provider_id": 1,
                       "config": {"database": {"type": "map"}}}],
    })
    assert bedrock.providers_started == 1
    assert margo.metrics() is None


def test_metrics_spec_disables_snapshot_but_not_counters():
    cluster = Cluster(seed=1)
    server = cluster.add_margo(
        "server", node="n0", config={"observability": {"metrics": False}}
    )
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        return (yield from client.forward(server.address, "echo", 1))

    cluster.run_ult(client, driver())
    assert server.rpcs_handled == 1  # the counter still counts
    assert server.metrics() is None


# ----------------------------------------------------------------------
# bedrock query surface
# ----------------------------------------------------------------------
def _remote_query(doc):
    """Boot ``doc`` as process "server"; returns a function running one
    Bedrock query from a client process."""
    cluster = Cluster(seed=41)
    margo, _ = boot_process(cluster, "server", "n0", doc)
    client_margo = cluster.add_margo("client", node="nc")
    handle = BedrockClient(client_margo).make_service_handle(margo.address)
    return lambda script: cluster.run_ult(client_margo, handle.query(script))


def test_bedrock_serves_metrics_and_traces():
    query = _remote_query({
        "margo": {"observability": {"tracing": True}},
        "libraries": {"yokan": "libyokan.so"},
        "providers": [{"name": "db", "type": "yokan", "provider_id": 1,
                       "config": {"database": {"type": "map"}}}],
    })
    metrics = query("return $__metrics__;")
    traces = query("return $__traces__;")
    # The metrics document is the remote process's counters...
    assert metrics["bedrock_providers_started"] == 1
    # They are read *inside* the query handler, so that very RPC shows
    # up as an in-flight handler ULT.
    assert metrics["margo_inflight_incoming"] == 1
    assert "margo_rpcs_handled" in metrics
    # ...and the trace document is Chrome trace-event shaped, already
    # containing the server-side spans of the first query itself.
    assert traces["displayTimeUnit"] == "ms"
    assert any(
        e["name"] == "bedrock_query" and e["cat"] == "handler"
        for e in traces["traceEvents"]
    )


PLANES = ["__metrics__", "__traces__", "__profile__", "__health__", "__incidents__",
          "__slo__", "__xray__"]


@pytest.mark.parametrize("name", PLANES)
def test_absent_plane_reads_null(name):
    query = _remote_query({"margo": {"observability": {"metrics": False}}})
    assert query(f"return ${name};") is None


def test_config_query_builds_no_plane_document(monkeypatch):
    from repro.bedrock import server

    built = []
    for name in PLANES:
        monkeypatch.setitem(server._DOCUMENTS, name, lambda m, name=name: built.append(name))
    query = _remote_query({})
    assert query("$r = []; foreach ($__config__.providers as $p) { array_push($r, $p.name); }"
                 " return $r;") == []
    assert built == []
    query("return [$__slo__, $__slo__];")
    assert built == ["__slo__"]  # built on first read, once per query


def test_chrome_trace_merges_multiple_tracers():
    cluster = nested_rpc_run()
    merged = chrome_trace(*cluster.tracers())
    solo = chrome_trace(cluster.margos["a"].tracer)
    assert len(merged["traceEvents"]) > len(solo["traceEvents"])
