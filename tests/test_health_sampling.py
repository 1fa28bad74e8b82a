"""Adaptive observer sampling: every-Nth profiler decomposition with
weighted (unbiased) rates, probabilistic trace sampling, and error
accounting for the SLO engine."""

import hashlib
import json

import pytest

from repro import Cluster
from repro.margo.errors import RpcFailedError
from repro.margo.ult import Compute, UltSleep
from repro.monitoring import HOOK_NAMES, CallbackMonitor, StatisticsMonitor
from repro.observability import ContinuousProfiler, ObservabilitySpec, Tracer

SAMPLED_PROFILE = {
    "observability": {
        "profiling": True,
        "profile_window": 0.05,
        "profile_sample_every": 4,
    }
}


def _echo_handler(ctx):
    yield Compute(1e-6)
    return {"ok": True}


def _run_sampled_pair(seed=7, config=SAMPLED_PROFILE, n_rpcs=20, handler=_echo_handler):
    cluster = Cluster(seed=seed)
    a = cluster.add_margo("a", "node0", config=config)
    b = cluster.add_margo("b", "node1", config=config)
    b.register("echo_ping", handler, provider_id=3)

    def client():
        for _ in range(n_rpcs):
            try:
                yield from a.forward(b.address, "echo_ping", {"x": 1}, provider_id=3)
            except RpcFailedError:
                pass
            yield UltSleep(0.01)

    cluster.run_ult(a, client())
    cluster.kernel.run(until=0.5)
    return cluster, a, b


# ----------------------------------------------------------------------
# every-Nth decomposition with weighted rates
# ----------------------------------------------------------------------
def test_sampled_requests_decompose_every_nth():
    _cluster, a, b = _run_sampled_pair()
    # 20 RPCs, sample_every=4: 5 requests carry the full decomposition.
    assert len(a.profiler.waterfalls) == 5
    total_count = sum(
        w["rpc"]["echo_ping/3"]["total"]["count"]
        for w in a.profiler.store.windows
        if "echo_ping/3" in w["rpc"]
    )
    assert total_count == 5


def test_sampled_rates_stay_unbiased():
    """Weighted note_request keeps measured traffic exact: 5 sampled
    requests x weight 4 = the 20 RPCs that actually ran."""
    _cluster, _a, b = _run_sampled_pair()
    requests = sum(
        w["providers"]["echo:3"]["requests"]
        for w in b.profiler.store.windows
        if "echo:3" in w["providers"]
    )
    assert requests == 20


def test_sampling_stamp_agrees_across_processes():
    """The client stamps the shared request; the server honors it, so
    both sides decompose the *same* 5 requests."""
    _cluster, a, b = _run_sampled_pair()
    server_handler_count = sum(
        w["rpc"]["echo_ping/3"]["handler"]["count"]
        for w in b.profiler.store.windows
        if "echo_ping/3" in w["rpc"] and "handler" in w["rpc"]["echo_ping/3"]
    )
    assert server_handler_count == 5


# ----------------------------------------------------------------------
# error accounting (feeds the error_rate / availability SLOs)
# ----------------------------------------------------------------------
def test_failed_responses_counted_as_errors():
    calls = {"n": 0}

    def flaky(ctx):
        yield Compute(1e-6)
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise ValueError("boom")
        return {"ok": True}

    config = {"observability": {"profiling": True, "profile_window": 0.05}}
    _cluster, _a, b = _run_sampled_pair(seed=9, config=config, handler=flaky)
    entries = [w["providers"]["echo:3"] for w in b.profiler.store.windows
               if "echo:3" in w["providers"]]
    assert sum(entry["requests"] for entry in entries) == 20
    assert sum(entry["errors"] for entry in entries) == 4  # every 5th call failed


# ----------------------------------------------------------------------
# trace sampling
# ----------------------------------------------------------------------
def test_trace_sampling_drops_whole_traces():
    cluster, _stats, _calls = _observer_stack()
    cli, leaf, srv = cluster.tracers()
    sampled_traces = {s.trace_id for s in cli.spans}
    # Some traces survive; whole traces sample together, bulk transfers
    # included, so each server's span set covers the client's trace ids.
    assert 0 < len(sampled_traces) < 48
    assert {s.trace_id for s in srv.spans} == sampled_traces
    assert {s.trace_id for s in leaf.spans} < sampled_traces
    assert cli.sampled_out > 0


# ----------------------------------------------------------------------
# every plane at once: one hook table per request
# ----------------------------------------------------------------------
def _observer_stack(trace_rate=0.25):
    """Listing-1 and callback monitors beside tracing and profiling every
    4th request; nested RPCs, a bulk pull after an explicit respond() and
    one bulk transfer outside any handler."""
    config = {"observability": {
        "tracing": True, "trace_sample_rate": trace_rate, "metrics": True,
        "profiling": True, "profile_sample_every": 4, "profile_window": 20e-6}}
    cluster = Cluster(seed=4)
    calls = []
    callbacks = CallbackMonitor(
        {hook: (lambda _hook=hook, **kw: calls.append(_hook)) for hook in HOOK_NAMES}
    )
    stats = StatisticsMonitor(), StatisticsMonitor()
    srv = cluster.add_margo("srv", "n0", config=config, monitors=(stats[0], callbacks))
    leaf = cluster.add_margo("leaf", "n1", config=config, monitors=(stats[1],))
    cli = cluster.add_margo("cli", "n2", config=config, monitors=(callbacks,))
    leaf.register("get", lambda ctx: ctx.args * 2, provider_id=2)

    def relay(ctx):
        yield Compute(1e-6)
        return (yield from srv.forward(leaf.address, "get", ctx.args, provider_id=2))

    def store(ctx):
        yield from ctx.respond("ack")
        yield from srv.bulk_transfer(ctx.source, 4096)

    srv.register("relay", relay)
    srv.register("store", store, provider_id=5)

    def driver():
        for i in range(24):
            assert (yield from cli.forward(srv.address, "relay", i)) == 2 * i
            assert (yield from cli.forward(srv.address, "store", i, provider_id=5)) == "ack"
        yield from cli.bulk_transfer(srv.address, 1 << 16)

    cluster.run_ult(cli, driver())
    cluster.run(until=cluster.now + 1e-3)
    for margo in (srv, leaf, cli):
        margo.shutdown()
    return cluster, stats, calls


#: simulated end of ``_observer_stack()``, whatever the trace rate.
STACK_NOW = 0.0014700825333333325


def test_observer_outputs_are_pinned():
    """Literals recorded before the runtime picked one hook table per
    request.  Only the tracer's moved: it also kept 17 bulk spans of
    sampled-out traces then, 16 of them children of no recorded span."""
    cluster, stats, _calls = _observer_stack()
    outputs = {
        "tracer": json.dumps([tracer.to_json() for tracer in cluster.tracers()], sort_keys=True),
        "profile": json.dumps([p.profile() for p in cluster.profilers()], sort_keys=True),
        "listing1": "".join(monitor.dumps() for monitor in stats),
        "metrics": json.dumps({n: m.metrics.snapshot() for n, m in cluster.margos.items()}, sort_keys=True),
    }
    assert cluster.now == STACK_NOW
    assert {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in outputs.items()} == {
        "tracer": "7a9c2688837daa4d", "profile": "bf1f5bdea04926a6",
        "listing1": "241c8f506ac8336d", "metrics": "9cbf59fd12c7540e",
    }


def test_request_dropped_by_both_planes_enters_no_plane_hook(monkeypatch):
    """At trace rate 0 the tracer drops every request and the profiler 3
    in 4: those call no tracer or profiler hook, while the Listing-1 and
    callback monitors see every request and the charge is unchanged."""
    entered = []

    def spy(cls, hook):
        real = getattr(cls, hook)
        monkeypatch.setattr(cls, hook, lambda self, **kw: (
            entered.append((cls, kw["request"])), real(self, **kw)))

    for cls in (Tracer, ContinuousProfiler):
        for hook in HOOK_NAMES[:8]:
            if hasattr(cls, hook):
                spy(cls, hook)
    cluster, stats, calls = _observer_stack(trace_rate=0.0)
    assert entered and {cls for cls, _ in entered} == {ContinuousProfiler}
    assert all(request._profile_sample_weight == 4 for _, request in entered)
    tracers = cluster.tracers()  # sampled_out counts requests per endpoint
    assert [t.sampled_out for t in tracers] == [48, 24, 72] and not any(t.spans for t in tracers)
    targets = [r["target"] for r in stats[0].to_json()["rpcs"].values()]
    assert sum(p["received"]["num"] for t in targets for p in t.values()) == 48
    assert calls.count("on_ult_start") == 48
    assert cluster.now == STACK_NOW


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_sampling_spec_validation():
    with pytest.raises(ValueError, match="trace_sample_rate"):
        ObservabilitySpec.from_json({"tracing": True, "trace_sample_rate": 1.5})
    with pytest.raises(ValueError, match="profile_sample_every"):
        ObservabilitySpec.from_json({"profiling": True,
                                     "profile_sample_every": 0})
    with pytest.raises(ValueError):
        Tracer(sample_rate=-0.1)
    spec = ObservabilitySpec.from_json(
        {"profiling": True, "profile_sample_every": 8,
         "tracing": True, "trace_sample_rate": 0.25}
    )
    doc = spec.to_json()
    assert doc["profile_sample_every"] == 8
    assert doc["trace_sample_rate"] == 0.25
    assert ObservabilitySpec.from_json(doc) == spec
