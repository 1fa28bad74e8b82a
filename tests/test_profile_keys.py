"""The request path calls no code compiled from ``<string>``.

cProfile keys a function by ``(file, line, name)``, and every
dataclass-generated ``__init__`` is ``<string>:2 __init__``: one row per
run, whichever class came first, so the per-layer ledger of
``benchmarks/e2e`` could not count them exactly.  The classes built per
request therefore carry written ``__init__``s.  This drives an echo RPC
carrying a bulk handle, the bulk pull it asks for and the spans a traced
call records, under cProfile.
"""

import cProfile
import pstats

from repro import Cluster
from repro.mercury.bulk import BulkHandle

TRACED = {"observability": {"tracing": True}}


def test_a_traced_echo_with_a_bulk_pull_calls_nothing_from_string():
    cluster = Cluster(seed=3)
    server = cluster.add_margo("server", node="n0", config=TRACED)
    client = cluster.add_margo("client", node="n1", config=TRACED)

    def echo(ctx):
        handle = ctx.args
        yield from server.bulk_transfer(handle.owner_address, handle.size)
        return handle.size

    server.register("echo", echo)

    def drive():
        sizes = []
        for _ in range(3):
            handle = BulkHandle(client.address, 4096, b"x" * 4096)
            sizes.append((yield from client.forward(server.address, "echo", handle)))
        return sizes

    profile = cProfile.Profile()
    profile.enable()
    try:
        sizes = cluster.run_ult(client, drive())
    finally:
        profile.disable()
    assert sizes == [4096] * 3
    categories = {span.category for tracer in cluster.tracers() for span in tracer.spans}
    assert {"forward", "handler", "bulk"} <= categories
    generated = sorted(key for key in pstats.Stats(profile).stats if key[0] == "<string>")
    assert generated == []
