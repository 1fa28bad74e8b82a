"""The scenario registry: every canned run the ``repro`` command and the
acceptance tests drive, in one :data:`SCENARIOS` mapping of three groups.

* ``race`` -- the example services the mochi-race gate explores.  Each
  returns **schedule-invariant facts** (final KV contents, blob
  checksums, destination file hashes, "exactly one leader") and never
  anything a legal schedule may reorder (ULT names, timestamps, who won
  an election), so the digests stay identical under every perturbation
  while the happens-before engine watches for unordered accesses.
* ``health`` -- two incident stories for the health plane: a node crash
  that SWIM detects, Raft fails over and REMI heals (detection latency
  and MTTR measured), and an SLO whose budget burns to breach.
* ``xray`` -- three deployments, each with one injected bottleneck
  (a one-xstream pool, a lock convoy, a slow link) that attribution
  must blame and the what-if ranking must target.

Every scenario is a function ``fn(seed=<default>) -> dict`` and is
seed-pure: the same seed gives byte-identical JSON.  This module imports
the whole runtime stack; ``import repro`` does not load it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

from .analysis.race.explore import ExplorationReport, explore
from .cluster import Cluster
from .core import DynamicService, ProcessSpec, ServiceController, ServiceSpec
from .margo.ult import Compute, UltMutex, UltSleep
from .observability.xray.attribution import attribute_paths
from .observability.xray.whatif import what_if
from .raft import (
    CounterStateMachine,
    KVStateMachine,
    RaftConfig,
    RaftNode,
    Role,
)
from .remi import FileSet, RemiClient, RemiProvider
from .sim.network import LinkModel, NetworkConfig
from .ssg import SwimConfig
from .storage import LocalStore, ParallelFileSystem
from .warabi import WarabiClient, WarabiProvider
from .yokan import MapBackend, YokanClient, YokanProvider

__all__ = ["SCENARIOS", "run_race_suite"]


# ----------------------------------------------------------------------
# race: the example services
# ----------------------------------------------------------------------
def yokan_scenario(seed: int = 29) -> dict[str, Any]:
    """Two clients hammer disjoint key ranges of one Yokan provider."""
    cluster = Cluster(seed=seed)
    server = cluster.add_margo("server", node="n0")
    provider = YokanProvider(server, "db", provider_id=1)
    apps = [cluster.add_margo(f"app{i}", node=f"a{i}") for i in range(2)]
    handles = [YokanClient(app).make_handle(server.address, 1) for app in apps]

    def driver(handle, tag):
        for i in range(4):
            yield from handle.put(f"{tag}:{i}".encode(), f"value-{tag}-{i}".encode())
        value = yield from handle.get(f"{tag}:0".encode())
        yield from handle.erase(f"{tag}:3".encode())
        return value

    ults = [
        cluster.spawn(apps[i], driver(handles[i], f"t{i}"), name=f"driver{i}")
        for i in range(2)
    ]
    cluster.wait_ults(ults)
    backend = provider.backend
    keys = backend.list_keys(b"", None, 0)
    return {k.decode(): backend.get(k).decode() for k in keys}


def warabi_scenario(seed: int = 31) -> dict[str, Any]:
    """Sequential blob creation, then concurrent writers on disjoint blobs."""
    cluster = Cluster(seed=seed)
    server = cluster.add_margo("server", node="n0")
    provider = WarabiProvider(server, "blobs", provider_id=1)
    app = cluster.add_margo("app", node="a0")
    handle = WarabiClient(app).make_handle(server.address, 1)

    def setup():
        ids = []
        for _ in range(3):
            blob_id = yield from handle.create(size=0)
            ids.append(blob_id)
        return ids

    blob_ids = cluster.run_ult(app, setup())

    def writer(blob_id, fill):
        yield from handle.write(blob_id, bytes([fill]) * 512)
        data = yield from handle.read(blob_id)
        return len(data)

    ults = [
        cluster.spawn(app, writer(blob_id, 65 + i), name=f"writer{i}")
        for i, blob_id in enumerate(blob_ids)
    ]
    cluster.wait_ults(ults)
    return {
        str(blob_id): hashlib.sha256(bytes(provider._blobs[blob_id])).hexdigest()
        for blob_id in blob_ids
    }


def remi_scenario(seed: int = 7) -> dict[str, Any]:
    """Chunked fileset migration, small chunk size to exercise reassembly."""
    cluster = Cluster(seed=seed)
    src_node = cluster.node("src")
    dst_node = cluster.node("dst")
    src_store = LocalStore(src_node)
    dst_store = LocalStore(dst_node)
    src = cluster.add_margo("src-proc", node=src_node)
    dst = cluster.add_margo("dst-proc", node=dst_node)
    RemiProvider(dst, "remi", provider_id=0)
    handle = RemiClient(src).make_handle(dst.address, 0)
    paths = []
    for i in range(4):
        path = f"data/{i:04d}"
        src_store.write(path, bytes([i % 256]) * 1000)
        paths.append(path)
    fileset = FileSet.from_prefix(src_store, "data/")

    def driver():
        report = yield from handle.migrate_fileset(
            fileset, method="chunks", chunk_size=512
        )
        return report

    cluster.run_ult(src, driver())
    return {p: hashlib.sha256(dst_store.read(p)).hexdigest() for p in paths}


def raft_scenario(seed: int = 21) -> dict[str, Any]:
    """Three-node Raft election; facts are invariants, not who won."""
    rc = RaftConfig(
        heartbeat_interval=0.05,
        election_timeout_min=0.15,
        election_timeout_max=0.3,
        rpc_timeout=0.06,
        submit_timeout=5.0,
        snapshot_threshold=64,
    )
    cluster = Cluster(seed=seed)
    margos = [cluster.add_margo(f"r{i}", node=f"n{i}") for i in range(3)]
    peers = [m.address for m in margos]
    nodes = [
        RaftNode(
            margo,
            f"raft{i}",
            provider_id=1,
            state_machine=CounterStateMachine(),
            peers=peers,
            rng=cluster.randomness.stream(f"raft:{i}"),
            config=rc,
        )
        for i, margo in enumerate(margos)
    ]
    cluster.run(until=3.0)
    leaders = [n for n in nodes if n.role == Role.LEADER and n._running]
    terms = {n.current_term for n in nodes}
    return {
        "num_leaders": len(leaders),
        "terms_converged": len(terms) == 1,
        "all_running": all(n._running for n in nodes),
    }


# ----------------------------------------------------------------------
# health: incident stories
# ----------------------------------------------------------------------
#: Objectives used by both stories ("yokan_put/1" is the profiler's
#: decomposition key for the put RPC of provider id 1; "yokan:1" the
#: provider traffic key).
KV_SLOS: list[dict[str, Any]] = [
    {"name": "kv-p99", "objective": "latency_p99",
     "target": "yokan_put/1", "threshold": 0.05,
     "window": 8, "short_windows": 2},
    {"name": "kv-err", "objective": "error_rate",
     "target": "yokan:*", "threshold": 0.05,
     "window": 8, "short_windows": 2},
]


def _kv_process_spec(name: str, node: str, latency_threshold: float) -> ProcessSpec:
    slo_docs = [dict(s) for s in KV_SLOS]
    for doc in slo_docs:
        if doc["objective"] == "latency_p99":
            doc["threshold"] = latency_threshold
    return ProcessSpec(
        name=name,
        node=node,
        config={
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [
                {"name": f"remi-{name}", "type": "remi", "provider_id": 0},
                {"name": f"db-{name}", "type": "yokan", "provider_id": 1,
                 "config": {"database": {"type": "persistent"}}},
            ],
            "margo": {
                "observability": {
                    "profiling": True,
                    "profile_window": 0.5,
                    "slos": slo_docs,
                },
            },
        },
    )


def _kv_service(cluster: Cluster, n: int, latency_threshold: float) -> DynamicService:
    spec = ServiceSpec(
        name="kv",
        processes=[
            _kv_process_spec(f"kv{i}", f"n{i}", latency_threshold)
            for i in range(n)
        ],
        group="kv-g",
        swim=SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0),
    )
    return DynamicService.deploy(cluster, spec, pfs=ParallelFileSystem())


def _spawn_writers(cluster: Cluster, service: DynamicService, count: int) -> None:
    """Each member writes to the next member's database, so both the
    client-side latency decomposition ("total") and the server-side
    provider traffic land in profiled processes."""
    names = sorted(service.processes)
    for i, name in enumerate(names):
        client_margo = service.processes[name].margo
        target = service.processes[names[(i + 1) % len(names)]].address
        db = YokanClient(client_margo).make_handle(target, 1)

        def writer(db=db, prefix=name):
            for j in range(count):
                try:
                    yield from db.put(f"{prefix}-k{j}", f"v{j}")
                except Exception:
                    return
                yield UltSleep(0.05)

        cluster.spawn(client_margo, writer())


def run_crash_scenario(seed: int = 42) -> dict[str, Any]:
    """Kill the node under ``kv1`` at t=6 s and let the stack react."""
    cluster = Cluster(seed=seed)
    service = _kv_service(cluster, n=3, latency_threshold=0.05)
    health = cluster.enable_health()
    health.watch_service(service)

    # A Raft group co-hosted on the service processes, so the victim's
    # death also forces a leader election the incident log correlates.
    margos = [service.processes[f"kv{i}"].margo for i in range(3)]
    peers = [m.address for m in margos]
    raft_config = RaftConfig(
        heartbeat_interval=0.05,
        election_timeout_min=0.15,
        election_timeout_max=0.3,
        rpc_timeout=0.06,
    )
    for i, margo in enumerate(margos):
        node = RaftNode(
            margo, f"raft{i}", provider_id=5,
            state_machine=KVStateMachine(MapBackend()),
            peers=peers, rng=cluster.randomness.stream(f"raft:{i}"),
            config=raft_config,
        )
        health.watch_raft(node)

    spares = ["spare0", "spare1"]
    controller = ServiceController(
        service, ("resilience",), period=1.5,
        allocate_node=lambda: spares.pop(0) if spares else None,
    )
    decisions: list[dict[str, Any]] = []
    controller.on_decision.append(decisions.append)
    controller.start()

    _spawn_writers(cluster, service, count=250)
    cluster.faults.kill_node_at(6.0, cluster.network.nodes["n1"])
    cluster.run(until=45.0)
    controller.stop()

    return {
        "seed": seed,
        "health": health.health_doc(),
        "incidents": health.incidents.to_json(),
        "dump": health.dump("scenario-end"),
        "recoveries": [
            {"failed": d["process"], "replacement": d["replacement"],
             "duration": d["duration"]}
            for d in decisions
            if d["kind"] == "recovery"
        ],
    }


def run_slo_scenario(seed: int = 42) -> dict[str, Any]:
    """An impossible latency objective: the budget burns to breach."""
    cluster = Cluster(seed=seed)
    # A threshold of 1 ns is unachievable: every window with put
    # traffic is a bad window, burning 1/budget per window.
    service = _kv_service(cluster, n=2, latency_threshold=1e-9)
    health = cluster.enable_health()
    health.watch_service(service)
    _spawn_writers(cluster, service, count=300)
    cluster.run(until=20.0)
    slo_status, alerts = health.slo_status()
    return {
        "seed": seed,
        "health": health.health_doc(),
        "incidents": health.incidents.to_json(),
        "slo_status": slo_status,
        "alerts": alerts,
        "dump": health.dump("scenario-end"),
        "dumps": [d["reason"] for d in health.recorder.dumps],
    }


# ----------------------------------------------------------------------
# xray: known bottlenecks
# ----------------------------------------------------------------------
#: Observability mix every xray endpoint runs with: short windows so a
#: run of a few hundred simulated milliseconds closes several.
_OBS = {
    "tracing": True,
    "profiling": True,
    "profile_window": 0.02,
    "xray": True,
}


def _xray_doc(
    name: str, seed: int, cluster: Cluster, bottleneck: dict[str, Any]
) -> dict[str, Any]:
    """Whole-run attribution + ranking (windowed analyses stay available
    on the plane; the aggregate makes the acceptance assertions
    independent of window phasing)."""
    plane = cluster.xray_plane()
    paths = plane.critical_paths()
    attribution = attribute_paths(paths)
    ranking = what_if(paths, attribution)
    return {
        "scenario": name,
        "seed": seed,
        "injected_bottleneck": bottleneck,
        "requests": len(paths),
        "windows": len(plane.windows),
        "attribution": attribution,
        "whatif": ranking,
        "top_segment": attribution["segments"][0] if attribution["segments"] else None,
        "top_action": ranking["actions"][0] if ranking["actions"] else None,
    }


def _burst_scenario(
    name: str,
    seed: int,
    pool: str,
    xstreams: list[str],
    handler_for: Callable[[Cluster], Callable],
    bottleneck: dict[str, Any],
) -> dict[str, Any]:
    """A server whose ``work`` handler runs on ``pool`` (served by
    ``xstreams``), fed 24 bursts of 10 concurrent requests 1 ms apart."""
    cluster = Cluster(seed=seed)
    server = cluster.add_margo(
        "srv",
        node="n0",
        config={
            "argobots": {
                "pools": [{"name": "__primary__"}, {"name": pool}],
                "xstreams": [
                    {"name": "__primary__", "scheduler": {"pools": ["__primary__"]}}
                ]
                + [{"name": x, "scheduler": {"pools": [pool]}} for x in xstreams],
            },
            "observability": dict(_OBS),
        },
    )
    client = cluster.add_margo("cli", node="n0", config={"observability": dict(_OBS)})
    server.register("work", handler_for(cluster), pool=pool)

    def request(delay: float, tag: int):
        yield UltSleep(delay)
        yield from client.forward(server.address, "work", tag)

    ults = [
        cluster.spawn(client, request(burst * 1e-3, i))
        for burst in range(24)
        for i in range(10)
    ]
    cluster.wait_ults(ults)
    cluster.run(until=0.1)
    return _xray_doc(name, seed, cluster, bottleneck)


def scenario_pool(seed: int = 7) -> dict[str, Any]:
    """Slow pool: within a burst the single ``hot_es`` xstream serializes
    the 30 us handlers, so later arrivals queue -- the top segment is the
    pool's ``sched`` wait and the top action ``add_xstream``."""

    def handler_for(cluster):
        def handler(ctx):
            yield Compute(30e-6)
            return ctx.args

        return handler

    return _burst_scenario(
        "pool", seed, "hot", ["hot_es"], handler_for,
        {"process": "srv", "pool": "hot", "phase": "sched"},
    )


def scenario_lock(seed: int = 7) -> dict[str, Any]:
    """Lock convoy: four xstreams, but every handler serializes on one
    shared mutex -- the ``lock`` wait dominates the tail and the top
    action is ``migrate_provider`` (split the contenders apart)."""

    def handler_for(cluster):
        mutex = UltMutex(cluster.kernel, name="convoy")

        def handler(ctx):
            yield from mutex.acquire()
            try:
                yield Compute(40e-6)
            finally:
                mutex.release()
            return ctx.args

        return handler

    return _burst_scenario(
        "lock", seed, "rpc", [f"rpc_es{i}" for i in range(4)], handler_for,
        {"process": "srv", "pool": "mutex:convoy", "phase": "lock"},
    )


def scenario_network(seed: int = 7) -> dict[str, Any]:
    """Slow link: a low-bandwidth cross-node fabric where every 8th
    request ships 40 KB -- the big transfers are the tail, the
    ``network`` wire segment dominates and the top action is
    ``add_node``."""
    cluster = Cluster(
        seed=seed,
        network_config=NetworkConfig(
            fabric=LinkModel(latency=5e-6, bandwidth=5e7)
        ),
    )
    server = cluster.add_margo("srv", node="n0", config={"observability": dict(_OBS)})
    client = cluster.add_margo("cli", node="n1", config={"observability": dict(_OBS)})

    def handler(ctx):
        yield Compute(10e-6)
        return None  # keep the respond wire out of the way

    server.register("ship", handler)

    def driver():
        for i in range(240):
            payload = "x" * 40000 if i % 8 == 0 else "x"
            yield from client.forward(server.address, "ship", payload)
        return None

    cluster.run_ult(client, driver())
    cluster.run(until=cluster.now + 0.05)
    return _xray_doc(
        "network", seed, cluster,
        {"process": "cli->srv", "pool": "wire", "phase": "network"},
    )


SCENARIOS: dict[str, dict[str, Callable[..., dict[str, Any]]]] = {
    "race": {
        "yokan-kv": yokan_scenario,
        "warabi-blobs": warabi_scenario,
        "remi-migration": remi_scenario,
        "raft-election": raft_scenario,
    },
    "health": {"crash": run_crash_scenario, "slo": run_slo_scenario},
    "xray": {"pool": scenario_pool, "lock": scenario_lock, "network": scenario_network},
}


def run_race_suite(
    seeds: int = 8, emit: Callable[[str], Any] = print
) -> tuple[list, list[ExplorationReport]]:
    """Explore every race scenario; return (findings, reports)."""
    findings = []
    reports = []
    for name, scenario in SCENARIOS["race"].items():
        report = explore(scenario, name, seeds=tuple(range(1, seeds + 1)))
        reports.append(report)
        findings.extend(report.findings)
        emit(
            f"race: {name}: {len(report.runs)} perturbed runs, "
            f"{len(report.diverging)} diverging, {len(report.findings)} finding(s)"
        )
    return findings, reports
