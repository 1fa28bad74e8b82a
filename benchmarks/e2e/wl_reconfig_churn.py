"""Workload ``reconfig_churn``: the service reconfigures while it serves.

**Open loop in simulated time.**  Two client processes each replay a
seeded Poisson arrival schedule (together :data:`ARRIVALS_PER_SIM_S`
operations per simulated second, a quarter of what the deployment
sustains with :data:`IN_FLIGHT_CAP` operations in flight -- measured
once with ``--capacity`` and pinned here).  Every operation is its own
ULT and is timed **from its due time**, so a stall makes every later
request late too; at most :data:`IN_FLIGHT_CAP` operations are in
flight and how late the generator itself ran is reported
(``harness.sim_late_p99_us``).

Operations are small-object :mod:`objstore` calls (~900 B inline, ~4 KiB
blob) on 3 storage servers plus 1 spare.  Meanwhile an admin process
fires one reconfiguration every N operations through ``BedrockClient``,
in a fixed cycle per shard:

1. ``add_pool`` + ``add_xstream``  (a second stream serves the handlers)
2. ``migrate_provider``            (Yokan metadata shard -> spare, via REMI)
3. ``checkpoint_provider``         (next shard -> parallel file system)
4. ``remove_xstream`` + ``remove_pool``
5. ``migrate_provider``            (shard back home)

While a shard moves, its writers wait at the directory's gate and its
readers carry on at the old address until it disappears, then resolve
again and retry.  This is the one workload that runs with the observers
a dynamic service really keeps on: the Listing-1 ``StatisticsMonitor``,
metrics, sampled tracing, the continuous profiler at one request in 64,
and the health plane.

Why it exists: ``bedrock``, ``remi``, ``core``, Margo's reconfiguration
calls and the ``observers`` do work here and nowhere else, and the open
loop makes a stall during migration cost every later request -- the
paper's headline property is that it does not have to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.margo.ult import UltEvent, UltSleep
from repro.monitoring import StatisticsMonitor
from repro.storage import ParallelFileSystem

from deploy import CLIENT_PROCESSES, Deployment, add_clients, server_margo_doc
from measure import Meter, Recorder, percentile, tail_quantile
from objstore import REMI_PROVIDER_ID, Directory, ObjectStore, server_document
from wl_objstore_mixed import (
    EVICT,
    EXISTS,
    GET,
    PUT,
    SERVERS,
    ClientPlan,
    ObjstoreMixed,
    perform,
    plan_client,
)

SPARE = SERVERS  # index of the spare process
IN_FLIGHT_CAP = 64
#: pinned: a quarter of the 64-in-flight capacity measured by --capacity.
ARRIVALS_PER_SIM_S = 100_000.0
CYCLES = 6
STEPS_PER_CYCLE = 5
OBSERVABILITY = {
    "tracing": True,
    "trace_sample_rate": 1.0 / 64,
    "max_spans": 100_000,
    "metrics": True,
    "profiling": True,
    "profile_sample_every": 64,
    "profile_window": 0.005,
}


@dataclass
class ChurnInputs:
    seed: int
    plans: list[ClientPlan]
    #: per client process: simulated due time of each operation, from
    #: the start of the timed phase.
    dues: list[list[float]]
    reconfigure_every: int


class ReconfigChurn(ObjstoreMixed):
    name = "reconfig_churn"
    pinned_ops_per_s = 2_400
    segment_ops = 100
    setup_segment_ops = 100
    slo_limit_us = 200.0
    min_ops = 1_200
    live_per_ult = 2_000  # per client process here: 4 000 live objects
    block = [GET] * 8 + [PUT] * 8 + [EXISTS] * 2 + [EVICT] * 2
    size_block = [896] * 8 + [4096] * 2
    observability = OBSERVABILITY
    arrivals_per_sim_s = ARRIVALS_PER_SIM_S

    def generate(self, seed: int, ops: int) -> ChurnInputs:
        rng = random.Random(seed)
        plans, dues = [], []
        for index in range(CLIENT_PROCESSES):
            stream = random.Random(rng.getrandbits(64))
            plan = plan_client(
                stream, f"p{index}", self.live_per_ult, ops // CLIENT_PROCESSES,
                self.size_block, self.block,
            )
            rate = self.arrivals_per_sim_s / CLIENT_PROCESSES
            clock, schedule = 0.0, []
            for _ in plan.ops:
                clock += stream.expovariate(rate)
                schedule.append(clock)
            plans.append(plan)
            dues.append(schedule)
        total = sum(len(plan.ops) for plan in plans)
        return ChurnInputs(
            seed=seed,
            plans=plans,
            dues=dues,
            reconfigure_every=max(1, total // (CYCLES * STEPS_PER_CYCLE + 1)),
        )

    # -- set-up --------------------------------------------------------
    def boot(self, inputs: ChurnInputs) -> Deployment:
        cluster = Cluster(seed=inputs.seed)
        pfs = ParallelFileSystem()
        servers, monitors = [], []
        for index in range(SERVERS + 1):
            monitor = StatisticsMonitor()
            margo, _bedrock = boot_process(
                cluster,
                f"server{index}",
                f"snode{index}",
                server_document(
                    index,
                    server_margo_doc(OBSERVABILITY),
                    with_shard=index != SPARE,
                    with_remi=True,
                ),
                pfs=pfs,
                monitors=(monitor,),
            )
            servers.append(margo)
            monitors.append(monitor)
        clients = add_clients(cluster, first_node="snode0", observability=OBSERVABILITY)
        admin = cluster.add_margo(
            "admin", node="anode", config={"observability": dict(OBSERVABILITY)}
        )
        plane = cluster.enable_health()
        for margo in cluster.margos.values():
            plane.watch_margo(margo)
        homes = [margo.address for margo in servers[:SERVERS]]
        directory = Directory(cluster.kernel, homes, homes)
        return Deployment(
            cluster=cluster,
            servers=servers,
            clients=clients,
            extra={
                "directory": directory,
                "stores": [ObjectStore(client, directory) for client in clients],
                "admin": admin,
                "pfs": pfs,
                "monitors": monitors,
                "reconfigs": [],
                "problems": [],
            },
        )

    # -- the reconfiguration schedule ----------------------------------
    def reconfigure(self, deployment: Deployment, step: int) -> Generator:
        """Step ``step`` of the fixed cycle; returns (kind, bytes moved)."""
        extra = deployment.extra
        servers = deployment.servers
        directory: Directory = extra["directory"]
        bedrock = BedrockClient(extra["admin"])
        cycle, phase = divmod(step, STEPS_PER_CYCLE)
        shard = cycle % SERVERS
        home = servers[shard]
        spare = servers[SPARE]
        name = f"meta{shard}"
        if phase == 0:
            handle = bedrock.make_service_handle(home.address)
            yield from handle.add_pool({"name": "extra", "type": "fifo_wait", "access": "mpmc"})
            yield from handle.add_xstream(
                {"name": "es_extra", "scheduler": {"type": "basic_wait", "pools": ["rpc", "extra"]}}
            )
            return "grow", 0
        if phase == 3:
            handle = bedrock.make_service_handle(home.address)
            deployment.retired_xstreams.append(home.xstreams["es_extra"])
            yield from handle.remove_xstream("es_extra")
            yield from handle.remove_pool("extra")
            return "shrink", 0
        if phase == 2:
            other = (shard + 1) % SERVERS
            handle = bedrock.make_service_handle(servers[other].address)
            result = yield from handle.checkpoint_provider(
                f"meta{other}", f"checkpoints/meta{other}/{cycle}"
            )
            if not extra["pfs"].exists(result["path"]):
                extra["problems"].append(f"checkpoint {result['path']} is not on the PFS")
            return "checkpoint", 0
        source, destination = (home, spare) if phase == 1 else (spare, home)
        store: ObjectStore = extra["stores"][0]
        yield from directory.begin_move(shard)
        before = yield from store.database(shard).count()
        result = yield from bedrock.make_service_handle(source.address).migrate_provider(
            name, destination.address, remi_provider_id=REMI_PROVIDER_ID
        )
        directory.publish(shard, destination.address)
        after = yield from store.database(shard).count()
        if after != before:
            extra["problems"].append(
                f"shard {shard} held {before} records before moving and {after} after"
            )
        return "migrate", result["moved_bytes"]

    # -- timed phase ---------------------------------------------------
    def drive(self, deployment: Deployment, inputs: ChurnInputs, recorder: Recorder) -> None:
        cluster = deployment.cluster
        kernel = cluster.kernel
        extra = deployment.extra
        stores = extra["stores"]
        for store in stores:
            store.recorder = recorder
        done = recorder.done
        origin = kernel.now
        steps = CYCLES * STEPS_PER_CYCLE
        every = inputs.reconfigure_every
        total = sum(len(plan.ops) for plan in inputs.plans)
        state = {"in_flight": 0, "issued": 0, "finished": 0, "triggered": 0}
        lateness: list[float] = []
        slot_free = UltEvent(kernel, name="slot")
        trigger = UltEvent(kernel, name="reconfigure")
        all_done = UltEvent(kernel, name="all-done")
        #: last operation dispatched on each key: a key's operations run
        #: in plan order, which is what the model assumed.
        tail: dict[bytes, UltEvent] = {}

        def operation(store: ObjectStore, op: tuple, due: float, prior: Any, mine: UltEvent):
            key = op[1]
            if prior is not None and not prior.is_set:
                yield from prior.wait()
            ok, why = yield from perform(store, op)
            mine.set()
            if tail.get(key) is mine:
                del tail[key]
            done(op[0], kernel.now - due, ok, why=why)
            state["in_flight"] -= 1
            state["finished"] += 1
            slot_free.set()
            if state["finished"] == total:
                all_done.set()

        def generator(store: ObjectStore, plan: ClientPlan, dues: list[float]):
            margo = store.margo
            for op, offset in zip(plan.ops, dues):
                due = origin + offset
                if due > kernel.now:
                    yield UltSleep(due - kernel.now)
                while state["in_flight"] >= IN_FLIGHT_CAP:
                    slot_free.clear()
                    yield from slot_free.wait()
                lateness.append(kernel.now - due)
                key = op[1]
                prior = tail.get(key)
                mine = tail[key] = UltEvent(kernel, name="key")
                state["in_flight"] += 1
                state["issued"] += 1
                margo.spawn_ult(operation(store, op, due, prior, mine))
                if state["issued"] % every == 0 and state["triggered"] < steps:
                    state["triggered"] += 1
                    trigger.set()

        def controller():
            for step in range(steps):
                while state["triggered"] <= step:
                    trigger.clear()
                    yield from trigger.wait()
                started = kernel.now
                kind, moved = yield from self.reconfigure(deployment, step)
                extra["reconfigs"].append((kind, kernel.now - started, moved))

        def joiner():
            if state["finished"] < total:
                yield from all_done.wait()

        ults = [
            cluster.spawn(store.margo, generator(store, plan, dues))
            for store, plan, dues in zip(stores, inputs.plans, inputs.dues)
        ]
        ults.append(cluster.spawn(extra["admin"], controller()))
        ults.append(cluster.spawn(stores[0].margo, joiner()))
        cluster.wait_ults(ults)
        extra["lateness"] = lateness

    def reduce(self, deployment, inputs, recorder, before, after) -> dict[str, float]:
        exact = super().reduce(deployment, inputs, recorder, before, after)
        extra = deployment.extra
        reconfigs = extra["reconfigs"]
        durations = sorted(duration for _kind, duration, _moved in reconfigs)
        migrations = [entry for entry in reconfigs if entry[0] == "migrate"]
        late = sorted(extra["lateness"])
        tracers = deployment.cluster.tracers()
        spans = sum(len(t.spans) + t.dropped_spans for t in tracers)
        forwards = sum(1 for t in tracers for span in t.spans if span.category == "forward")
        rpcs_total = sum(m.rpcs_sent for m in deployment.cluster.margos.values())
        exact.update(
            {
                "bedrock.reconfigs_done": float(len(reconfigs)),
                "bedrock.sim_reconfig_p50_us": percentile(durations, 0.5) * 1e6,
                "harness.migrations": float(len(migrations)),
                "harness.checkpoints": float(
                    sum(1 for entry in reconfigs if entry[0] == "checkpoint")
                ),
                "remi.sim_migrate_s": sum(duration for _k, duration, _m in migrations),
                "remi.bytes_moved": float(sum(moved for _k, _d, moved in migrations)),
                "harness.sim_late_p99_us": percentile(late, tail_quantile(len(late))) * 1e6,
                # Spans and windows since boot: the observers are never reset.
                "observers.spans_per_op": spans / max(recorder.attempted, 1),
                "observers.windows_closed": float(
                    sum(p.store.current.index for p in deployment.cluster.profilers())
                ),
                "observers.sampled_share": forwards / max(rpcs_total, 1),
            }
        )
        return exact

    def verify(self, deployment: Deployment, inputs: ChurnInputs) -> list[str]:
        problems = list(deployment.extra["problems"])
        directory: Directory = deployment.extra["directory"]
        homes = [margo.address for margo in deployment.servers[:SERVERS]]
        if directory.meta_address != homes:
            problems.append("a shard did not return home")
        for monitor in deployment.extra["monitors"]:
            if not monitor.to_json().get("rpcs"):
                problems.append("a StatisticsMonitor recorded nothing")
        return problems + super().verify(deployment, inputs)


def measure_capacity(seed: int, ops: int = 8_000) -> dict[str, float]:
    """What the deployment sustains with IN_FLIGHT_CAP operations in
    flight: every operation due at once, reconfigurations running.
    ARRIVALS_PER_SIM_S is pinned at a quarter of this."""
    workload = ReconfigChurn()
    workload.arrivals_per_sim_s = 1e12
    inputs = workload.generate(seed, ops)
    deployment = workload.build(inputs, lambda ops=1: None)
    recorder = Recorder(Meter(ops + 1, calibrated=False), workload.slo_limit_us * 1e-6)
    started = deployment.cluster.now
    workload.drive(deployment, inputs, recorder)
    capacity = recorder.attempted / (deployment.cluster.now - started)
    return {
        "capacity_ops_per_sim_s": capacity,
        "quarter": capacity / 4,
        "pinned": ARRIVALS_PER_SIM_S,
        "failed": recorder.failed,
    }
