"""Deployment plumbing shared by the four workloads.

Everything here goes through the public API of ``repro`` (``Cluster``,
``boot_process``, the component clients); the only private name read is
``SimKernel._seq``, the kernel's event count, exactly as
``benchmarks/_harness.bench_kernel_swarm`` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro import Cluster

from measure import Recorder, latency_summary

#: every observer off: the three workloads that measure the data path.
OBSERVERS_OFF = {"tracing": False, "metrics": False}

#: simulated client ULTs (two per client process) in the closed loops.
CLIENT_PROCESSES = 2
ULTS_PER_CLIENT = 2


def server_margo_doc(observability: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """Listing-2 document of a server process: one stream runs handler
    ULTs, one runs the network progress loop (paper Fig. 2)."""
    return {
        "argobots": {
            "pools": [
                {"name": "rpc", "type": "fifo_wait", "access": "mpmc"},
                {"name": "progress", "type": "fifo_wait", "access": "mpmc"},
            ],
            "xstreams": [
                {"name": "es_rpc", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}},
                {
                    "name": "es_progress",
                    "scheduler": {"type": "basic_wait", "pools": ["progress"]},
                },
            ],
        },
        "progress_pool": "progress",
        "rpc_pool": "rpc",
        "observability": dict(observability or OBSERVERS_OFF),
    }


@dataclass
class Deployment:
    """A built cluster plus the handles a workload drives it through."""

    cluster: Cluster
    servers: list[Any] = field(default_factory=list)
    clients: list[Any] = field(default_factory=list)
    #: workload-specific handles (stores, databases, controllers...).
    extra: dict[str, Any] = field(default_factory=dict)
    #: execution streams removed by a reconfiguration: their counters
    #: would otherwise vanish from the snapshot with them.
    retired_xstreams: list[Any] = field(default_factory=list)


def add_clients(
    cluster: Cluster,
    first_node: str,
    observability: Optional[dict[str, Any]] = None,
) -> list[Any]:
    """Two client processes: the first on ``first_node`` (a server's
    node, so its RPCs there use shared memory), the second on a node of
    its own (every RPC crosses the fabric)."""
    config = {"observability": dict(observability or OBSERVERS_OFF)}
    nodes = [first_node] + [f"cnode{index}" for index in range(1, CLIENT_PROCESSES)]
    return [
        cluster.add_margo(f"client{index}", node=node, config=config)
        for index, node in enumerate(nodes)
    ]


def snapshot(deployment: Deployment) -> dict[str, float]:
    """Cumulative exact counters of every layer that keeps one."""
    cluster = deployment.cluster
    margos = list(cluster.margos.values())
    xstreams = [x for m in margos for x in m.xstreams.values()]
    xstreams += deployment.retired_xstreams
    live_server_streams = [x for m in deployment.servers for x in m.xstreams.values()]
    server_streams = live_server_streams + deployment.retired_xstreams
    network = cluster.network
    return {
        "now": cluster.now,
        "events": float(cluster.kernel._seq),
        "rpcs": float(sum(m.rpcs_sent for m in margos)),
        "slices": float(sum(x.slices_run for x in xstreams)),
        "pushes": float(sum(p.total_pushed for m in margos for p in m.pools.values())),
        "server_busy": sum(x.busy_time for x in server_streams),
        "server_streams": float(len(live_server_streams)),
        "msgs": float(network.messages_sent),
        "bytes": float(network.bytes_sent),
        "dropped": float(network.messages_dropped),
    }


def reduce_counts(
    recorder: Recorder, before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    """Exact per-operation and per-RPC counts of the timed phase, plus
    the simulated end-to-end metrics."""
    delta = {name: after[name] - before[name] for name in after}
    ops = max(recorder.attempted, 1)
    rpcs = max(delta["rpcs"], 1.0)
    makespan = delta["now"]
    exact = latency_summary(recorder, makespan)
    exact.update(
        {
            "sim.kernel.events_per_rpc": delta["events"] / rpcs,
            "margo.sched.slices_per_rpc": delta["slices"] / rpcs,
            "margo.sched.pushes_per_rpc": delta["pushes"] / rpcs,
            "margo.sched.sim_busy_share": (
                delta["server_busy"] / (makespan * after["server_streams"])
                if makespan > 0
                else 0.0
            ),
            "margo.runtime.rpcs_per_op": delta["rpcs"] / ops,
            "margo.runtime.retries_per_op": recorder.retries / ops,
            "sim.network.msgs_per_op": delta["msgs"] / ops,
            "sim.network.bytes_per_op": delta["bytes"] / ops,
            "sim.network.dropped_share": (
                delta["dropped"] / delta["msgs"] if delta["msgs"] else 0.0
            ),
            "harness.sim_makespan_s": makespan,
            "harness.rpcs": delta["rpcs"],
        }
    )
    for kind, values in sorted(recorder.by_kind.items()):
        exact[f"harness.ops.{kind}"] = float(len(values))
    for name, value in sorted(recorder.counts.items()):
        exact[f"harness.count.{name}"] = float(value)
    return exact


def run_per_plan(deployment: Deployment, plans: list[Any], body: Any) -> None:
    """One client ULT per plan, dealt round-robin over the client
    processes, run to completion.  ``body(slot, plan)`` returns the
    ULT's generator; ``slot`` is the index of its client process."""
    cluster, clients = deployment.cluster, deployment.clients
    cluster.wait_ults(
        [
            cluster.spawn(clients[index % len(clients)], body(index % len(clients), plan))
            for index, plan in enumerate(plans)
        ]
    )

