"""Workload ``rpc_echo``: the bare RPC path.

Closed loop, 4 client ULTs on 2 client processes (one on the server's
node, so shared memory, one across the fabric), one server, 8-byte
payloads, a handler that computes for 1 us on average, every observer
off.

Why it exists: ``sim.kernel`` + ``margo.sched`` + ``margo.runtime`` +
``mercury.hg`` do all the work and every provider, storage and Bedrock
layer does none.  It is the target of ROADMAP item 2 (events and Python
calls per RPC) and the *bypass* workload for any provider or backend
change: those must leave it alone.

The seed sets each payload's bytes and each client ULT's start offset.
The handler's compute time is read off the payload's first bytes (0.5 to
1.5 us), so requests queue behind each other at random and the latency
distribution has a tail, without the client adding a kernel event per
RPC the way a think time would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro import Cluster
from repro.margo import Compute
from repro.margo.ult import UltSleep

from deploy import (
    CLIENT_PROCESSES,
    ULTS_PER_CLIENT,
    Deployment,
    add_clients,
    reduce_counts,
    run_per_plan,
    server_margo_doc,
    snapshot,
)
from measure import Recorder

PAYLOAD_BYTES = 8
#: handler compute seconds: HANDLER_BASE + (first four payload bytes as
#: an integer) * HANDLER_STEP, 1 us on average over random payloads.
HANDLER_BASE = 0.5e-6
HANDLER_STEP = 1.0e-6 / 2**32
#: RPC names registered during set-up (a real service registers a few
#: hundred across its providers; the registry size is part of the path).
REGISTERED_NAMES = 200


@dataclass
class EchoInputs:
    seed: int
    #: per client ULT: simulated start offset and the payloads it sends.
    offsets: list[float]
    payloads: list[list[bytes]]
    warmup: list[bytes]


class RpcEcho:
    name = "rpc_echo"
    #: operations per host second on the reference machine (pinned: it
    #: only sizes the run, it is not a result).
    pinned_ops_per_s = 11_000
    segment_ops = 400
    setup_segment_ops = 400
    #: simulated-latency limit; about a tenth of the echoes of the
    #: reference run queue behind two others and miss it.
    slo_limit_us = 8.5
    min_ops = 2_000
    yokan_backend = ""  # no Yokan here
    #: echoes sent during set-up, before the timed phase (a smoke test
    #: shrinks this).
    warmup_rpcs = 12_000

    def generate(self, seed: int, ops: int) -> EchoInputs:
        rng = random.Random(seed)
        ults = CLIENT_PROCESSES * ULTS_PER_CLIENT
        per_ult = ops // ults
        return EchoInputs(
            seed=seed,
            offsets=[rng.uniform(0.0, 20e-6) for _ in range(ults)],
            payloads=[
                [rng.randbytes(PAYLOAD_BYTES) for _ in range(per_ult)]
                for _ in range(ults)
            ],
            warmup=[rng.randbytes(PAYLOAD_BYTES) for _ in range(64)],
        )

    # -- set-up --------------------------------------------------------
    def build(self, inputs: EchoInputs, tick: Any) -> Deployment:
        cluster = Cluster(seed=inputs.seed)
        server = cluster.add_margo("server", node="snode0", config=server_margo_doc())
        clients = add_clients(cluster, first_node="snode0")

        def echo(ctx: Any):
            payload = ctx.args
            yield Compute(HANDLER_BASE + int.from_bytes(payload[:4], "little") * HANDLER_STEP)
            return payload

        server.register("echo", echo)
        for index in range(REGISTERED_NAMES - 1):
            server.register(f"echo_unused_{index}", echo)

        warmup = inputs.warmup

        def warm(client: Any, count: int):
            for index in range(count):
                yield from client.forward(server.address, "echo", warmup[index % len(warmup)])
                tick()

        share = self.warmup_rpcs // len(clients)
        cluster.wait_ults([cluster.spawn(c, warm(c, share)) for c in clients])
        return Deployment(cluster=cluster, servers=[server], clients=clients)

    snapshot = staticmethod(snapshot)

    # -- timed phase ---------------------------------------------------
    def drive(self, deployment: Deployment, inputs: EchoInputs, recorder: Recorder) -> None:
        cluster = deployment.cluster
        address = deployment.servers[0].address
        kernel = cluster.kernel
        done = recorder.done

        def client_loop(slot: int, plan: tuple[float, list[bytes]]):
            offset, payloads = plan
            yield UltSleep(offset)
            forward = deployment.clients[slot].forward
            for payload in payloads:
                started = kernel.now
                reply = yield from forward(address, "echo", payload)
                done("echo", kernel.now - started, reply == payload)

        run_per_plan(deployment, list(zip(inputs.offsets, inputs.payloads)), client_loop)

    def reduce(self, deployment, inputs, recorder, before, after) -> dict[str, float]:
        return reduce_counts(recorder, before, after)

    def verify(self, deployment: Deployment, inputs: EchoInputs) -> list[str]:
        return []  # an echo leaves no state behind; every reply was checked
