"""The trace-sampling decision and what a sampled-out request costs.

The forward path carries the decision as an integer, ``trace_crc``:
CRC-32 of the trace id, computed without formatting the id, inherited by
nested calls.  These tests pin it to the string hash it replaces (same
kept requests, same ``Tracer.sampled_out``, at every endpoint), pin the
declared stamp slots of ``RPCRequest``/``RPCResponse``, and price a
sampled-out request in Python calls: zero.
"""

import gc
import sys
import zlib

import pytest

from repro import Cluster
from repro.analysis.race import hooks as race_hooks
from repro.margo import Compute
from repro.mercury import RPCRequest, RPCResponse, STATUS_OK, rpc_id_of
from repro.mercury.hg import NO_TRACE
from repro.monitoring import CallbackMonitor
from repro.observability import Tracer
from repro.observability.profile import SAMPLE_STAMP


def _traced(rate):
    return {"observability": {"tracing": True, "trace_sample_rate": rate}}


def _chain(rate, roots):
    """``roots`` root calls from a: echoes to b, and a three-deep chain
    a -> b "relay" -> c "mid" -> d "leaf".  A spy on every process
    records each request at each of its endpoints."""
    cluster = Cluster(seed=5)
    seen = {}
    margos = {}
    for i, name in enumerate("abcd"):
        seen[name] = []
        spy = CallbackMonitor(
            {
                "on_forward_start": lambda request, _s=seen[name], **_: _s.append(request),
                "on_request_received": lambda request, _s=seen[name], **_: _s.append(request),
            }
        )
        margos[name] = cluster.add_margo(name, node=f"n{i}", config=_traced(rate), monitors=(spy,))
    a, b, c, d = (margos[name] for name in "abcd")
    b.register("echo", lambda ctx: ctx.args)
    d.register("leaf", lambda ctx: ctx.args + 1)

    def mid(ctx):
        return (yield from c.forward(d.address, "leaf", ctx.args))

    def relay(ctx):
        return (yield from b.forward(c.address, "mid", ctx.args))

    c.register("mid", mid)
    b.register("relay", relay)

    def driver():
        for i in range(roots):
            yield from a.forward(b.address, "echo" if i % 3 else "relay", i)

    cluster.run_ult(a, driver())
    return margos, seen


def test_root_and_nested_calls_carry_the_crc_of_their_trace_id():
    margos, seen = _chain(1.0, 3)
    requests = seen["a"] + seen["b"] + seen["c"] + seen["d"]
    assert len(requests) == 2 * (3 + 2 * 1)  # 3 roots + relay's 2 nested calls, 2 endpoints
    for request in requests:
        assert request.trace_crc == zlib.crc32(request.trace_id.encode())
    # The three-deep chain is one trace: every hop inherits the root's crc.
    root = seen["a"][0]
    chain = [r for r in requests if r.trace_id == root.trace_id]
    assert {r.rpc_name for r in chain} == {"relay", "mid", "leaf"}
    assert {r.trace_crc for r in chain} == {zlib.crc32(b"a:1")}
    assert root.span_id == root.trace_id == "a:1"
    leaf = next(r for r in chain if r.rpc_name == "leaf")
    assert leaf.parent_span_id == "b:1/h" and leaf.span_id == "c:1"  # mid was b:1


@pytest.mark.parametrize("rate", [1.0, 1 / 2, 1 / 64])
def test_sampling_keeps_exactly_what_the_string_hash_picks(rate):
    margos, seen = _chain(rate, 240)
    cutoff = int(rate * (1 << 32))
    kept_anywhere = set()
    for name, margo in margos.items():
        picked = {r.trace_id for r in seen[name] if zlib.crc32(r.trace_id.encode()) < cutoff}
        dropped = [r for r in seen[name] if zlib.crc32(r.trace_id.encode()) >= cutoff]
        assert {s.trace_id for s in margo.tracer.spans} == picked
        assert margo.tracer.sampled_out == len(dropped)
        kept_anywhere |= picked
    roots = {r.trace_id for r in seen["a"]}
    if rate == 1.0:
        assert kept_anywhere == roots
    else:
        assert 0 < len(kept_anywhere) < len(roots)


@pytest.mark.parametrize("rate", [1.0, 1 / 2, 1 / 64])
def test_a_hand_built_request_decides_like_the_string_hash(rate):
    cutoff = int(rate * (1 << 32))
    tracer = Tracer(sample_rate=rate)
    for seq in range(1, 200):
        request = RPCRequest(seq, 0, "m", 0, None, 0, "src", origin="p")
        assert request.trace_crc == NO_TRACE
        assert tracer.keeps(request) == (zlib.crc32(f"p:{seq}".encode()) < cutoff)
        assert request.trace_crc == zlib.crc32(f"p:{seq}".encode())
        child = RPCRequest(1, 0, "m", 0, None, 0, "src", parent_trace_id=f"p:{seq}", origin="q")
        assert tracer.keeps(child) == (zlib.crc32(f"p:{seq}".encode()) < cutoff)


def test_a_hand_built_request_on_the_wire_is_decided_at_dispatch():
    """The runtime's inline decision falls back to the trace id for a
    request nobody computed a crc for; an origin-less one is in no trace."""
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0", config=_traced(1 / 2))
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)
    cutoff = 1 << 31
    expected_kept, expected_dropped = set(), 0
    for seq in range(1, 41):
        request = RPCRequest(
            seq, rpc_id_of("echo"), "echo", 65535, None, 0, client.address, server.address,
            origin="hand" if seq % 4 else "",
        )
        if request.origin:
            if zlib.crc32(f"hand:{seq}".encode()) < cutoff:
                expected_kept.add(f"hand:{seq}")
            else:
                expected_dropped += 1
        cluster.network.send(client.process, server.address, request, request.wire_size)
    cluster.run()
    assert {s.trace_id for s in server.tracer.spans} == expected_kept
    assert server.tracer.sampled_out == expected_dropped
    assert 0 < len(expected_kept) and expected_dropped > 0


def test_request_stamps_are_declared_slots():
    request = RPCRequest(1, 0, "m", 0, None, 0, "src")
    response = RPCResponse(1, STATUS_OK, None, 0, "src")
    with pytest.raises(AttributeError):
        request.undeclared = 1
    with pytest.raises(AttributeError):
        response.undeclared = 1
    assert getattr(request, SAMPLE_STAMP, 1) == 1
    assert getattr(response, "_profile_responded_at", None) is None
    request._profile_sample_weight = 0
    response._profile_responded_at = 2.5
    assert getattr(request, SAMPLE_STAMP, 1) == 0
    assert response._profile_responded_at == 2.5
    assert not hasattr(request, "__dict__") and not hasattr(response, "__dict__")


# ----------------------------------------------------------------------
# A sampled-out request, priced in Python calls
# ----------------------------------------------------------------------
OFF = {"observability": {"tracing": False, "metrics": False, "profiling": False}}


def _traced_sampled(**overrides):
    """``bench_overhead.py``'s ``rpc_traced_sampled`` arm: the churn
    workload's observers minus Listing 1."""
    knobs = {
        "tracing": True, "trace_sample_rate": 1 / 64, "metrics": True, "profiling": True,
        "profile_window": 1e-2, "profile_sample_every": 64,
    }
    return {"observability": dict(knobs, **overrides)}


def _python_calls(config, n_rpcs):
    """Python calls (``sys.setprofile`` "call" events, generator resumes
    included) of the overhead runner's echo loop of ``n_rpcs`` RPCs."""
    cluster = Cluster(seed=7)
    server = cluster.add_margo("server", node="n0", config=dict(config))
    client = cluster.add_margo("client", node="n1", config=dict(config))

    def handler(ctx):
        yield Compute(1e-6)
        return ctx.args

    server.register("echo", handler)

    def driver():
        for i in range(n_rpcs):
            yield from client.forward(server.address, "echo", i)

    count = 0

    def counter(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    # A cyclic collection inside the run would close generators (calls)
    # at a moment set by what earlier code allocated: keep it out.
    gc.collect()
    gc.disable()
    sys.setprofile(counter)
    try:
        cluster.run_ult(client, driver())
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


#: The runtime checker's own hooks are Python calls too.
checker_off = pytest.mark.skipif(race_hooks.ENABLED, reason="counts calls with the checker off")


@checker_off
def test_a_sampled_out_request_adds_no_python_calls():
    # Nothing sampled but request 1 (the profiler stamps it): whatever
    # the run length, the observers add request 1's 43 calls only (57
    # while each of its 7 phase aggregates ran two base-class
    # constructors of a registry histogram).
    never = _traced_sampled(trace_sample_rate=0.0, profile_sample_every=1 << 30)
    for n_rpcs in (250, 1000):
        assert _python_calls(never, n_rpcs) - _python_calls(OFF, n_rpcs) == 43


#: rpc_traced_sampled over observers-off, 1000 echoes: the 16 requests the
#: profiler samples (every 64th) and the 18 the tracer keeps (CRC-32 below
#: 2**32 / 64) run their planes' hooks; the other 966 add 0 calls.  (1623
#: while a phase aggregate ran two base-class constructors.)
TRACED_SAMPLED_CALLS = 1607


@checker_off
def test_traced_sampled_adds_exactly_k_python_calls():
    added = _python_calls(_traced_sampled(), 1000) - _python_calls(OFF, 1000)
    assert added == TRACED_SAMPLED_CALLS
