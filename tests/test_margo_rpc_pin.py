"""RPC-path cost-model pin: the scheduler may get cheaper on the host,
the simulated schedule may not move.

One small deployment exercises every branch of the per-RPC machinery:
a server whose handler pool is drained by two xstreams, a client on the
server's node (shared memory) and one across the fabric, a nested RPC
to a backend process, a handler that replies after 4 us of work, a call
that times out before its handler finishes and a call to an RPC nobody
registered.  The literals are what the generator-task xstream (now
``tests/reference_scheduler.py``) produced for this script at the
commit before the xstream became a kernel callback, except ``seq``: it
is one lower since ``run_ult`` stopped spawning a waiter task, whose
first step was one event; and except every literal the ``early``
handler moves: it answered through an explicit ``respond()`` before its
work until that second reply path was deleted, and this script, with
the handler returning, was recorded on the last tree that still had it.
Every mode -- plain, the runtime checker strict and recording -- must
reproduce them exactly.
"""

import pytest

from repro import Cluster
from repro.analysis.race import hooks as race_hooks
from repro.margo import Compute, NoSuchRpcError, RpcTimeoutError

SERVER_CONFIG = {
    "argobots": {
        "pools": [
            {"name": "progress", "type": "fifo_wait", "access": "mpmc"},
            {"name": "handlers", "type": "fifo_wait", "access": "mpmc"},
        ],
        "xstreams": [
            {"name": "es_progress", "scheduler": {"type": "basic_wait", "pools": ["progress"]}},
            {"name": "es_h0", "scheduler": {"type": "basic_wait", "pools": ["handlers"]}},
            {"name": "es_h1", "scheduler": {"type": "basic_wait", "pools": ["handlers"]}},
        ],
    },
    "progress_pool": "progress",
    "rpc_pool": "handlers",
}

PINNED = {
    "now": 0.0002770169333333333,
    "seq": 194,
    "xstreams": {
        "server/es_progress": (17, 3.199999999999999e-06),
        "server/es_h0": (9, 5.55125e-05),
        "server/es_h1": (5, 6.1537e-05),
        "backend/__primary__": (5, 1.00775e-06),
        "near/__primary__": (16, 3.4714999999999997e-06),
        "far/__primary__": (16, 3.4685e-06),
    },
    "pushed": {
        "server/progress": 17,
        "server/handlers": 14,
        "backend/__primary__": 5,
        "near/__primary__": 16,
        "far/__primary__": 16,
    },
    "latencies": [
        ("near", "echo", 2.75e-06),
        ("far", "echo", 5.9621999999999994e-06),
        ("near", "work", 4.564999999999999e-06),
        ("far", "work", 7.766949999999999e-06),
        ("near", "relay", 8.60773333333333e-06),
        ("near", "early", 6.5596666666666675e-06),
        ("far", "relay", 1.1808999999999997e-05),
        ("near", "work", 1.0174874999999998e-05),
        ("near", "nobody-home", 2.1895416666666684e-06),
        ("far", "early", 9.761350000000015e-06),
        ("near", "echo", 2.5773333333333333e-06),
        ("far", "work", 1.0174875000000001e-05),
        ("far", "nobody-home", 5.391425000000006e-06),
        ("far", "echo", 2.61511333333333e-05),
    ],
}


def build():
    cluster = Cluster(seed=5)
    server = cluster.add_margo("server", node="n0", config=SERVER_CONFIG)
    backend = cluster.add_margo("backend", node="n2")
    near = cluster.add_margo("near", node="n0")
    far = cluster.add_margo("far", node="n1")

    backend.register("leaf", lambda ctx: ctx.args[::-1])

    def work(ctx):
        yield Compute(ctx.args["cost"])
        return ctx.args["tag"]

    def relay(ctx):
        yield Compute(0.3e-6)
        leaf = yield from server.forward(backend.address, "leaf", ctx.args)
        return [leaf, len(ctx.args)]

    def early(ctx):
        yield Compute(4e-6)
        return {"ack": ctx.args}

    server.register("echo", lambda ctx: ctx.args)
    server.register("work", work, provider_id=3)
    server.register("relay", relay)
    server.register("early", early)
    return cluster, server, backend, near, far


def client_script(cluster, margo, server, label, latencies):
    def timed(name, args, **kwargs):
        started = cluster.now
        try:
            value = yield from margo.forward(server.address, name, args, **kwargs)
        except (RpcTimeoutError, NoSuchRpcError) as err:
            value = type(err).__name__
        latencies.append((label, name, cluster.now - started))
        return value

    replies = []
    replies.append((yield from timed("echo", {"who": label, "blob": b"x" * 300})))
    replies.append((yield from timed("work", {"cost": 2e-6, "tag": label}, provider_id=3)))
    replies.append((yield from timed("relay", f"{label}-payload")))
    replies.append((yield from timed("early", label)))
    replies.append(
        (yield from timed("work", {"cost": 50e-6, "tag": "late"}, provider_id=3, timeout=10e-6))
    )
    replies.append((yield from timed("nobody-home", None)))
    replies.append((yield from timed("echo", [label] * 8)))
    return replies


def run_deployment():
    cluster, server, backend, near, far = build()
    latencies = []
    ults = [
        cluster.spawn(margo, client_script(cluster, margo, server, label, latencies))
        for label, margo in (("near", near), ("far", far))
    ]
    results = cluster.wait_ults(ults)
    # Let the two timed-out handlers finish and their late replies drop.
    cluster.run(until=cluster.now + 200e-6)
    for label, replies in zip(("near", "far"), results):
        assert replies == [
            {"who": label, "blob": b"x" * 300},
            label,
            [f"{label}-payload"[::-1], len(f"{label}-payload")],
            {"ack": label},
            "RpcTimeoutError",
            "NoSuchRpcError",
            [label] * 8,
        ]
    assert server.rpcs_handled == 12 and backend.rpcs_handled == 2
    return {
        "now": cluster.now,
        "seq": cluster.kernel._seq,
        "xstreams": {
            f"{margo.process.name}/{name}": (xs.slices_run, xs.busy_time)
            for margo in (server, backend, near, far)
            for name, xs in margo.xstreams.items()
        },
        "pushed": {
            f"{margo.process.name}/{name}": pool.total_pushed
            for margo in (server, backend, near, far)
            for name, pool in margo.pools.items()
        },
        "latencies": latencies,
    }


@pytest.fixture(params=["plain", "sanitize-strict", "race"])
def mode(request):
    """Run with the runtime checker off, strict (``REPRO_SANITIZE=1``) or
    recording (``REPRO_SANITIZE=race``); whatever the environment had
    enabled is restored afterwards."""
    was_enabled, was_strict = race_hooks.ENABLED, race_hooks._strict
    race_hooks.disable()
    if request.param != "plain":
        race_hooks.enable(strict=request.param == "sanitize-strict")
    yield request.param
    race_hooks.disable()
    if was_enabled:
        race_hooks.enable(strict=was_strict)


def test_rpc_path_cost_model_is_pinned(mode):
    observed = run_deployment()
    assert race_hooks.findings == []
    assert observed == PINNED

