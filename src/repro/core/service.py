"""DynamicService: the paper's contribution as one orchestration object.

Deploys a :class:`~repro.core.spec.ServiceSpec` (Bedrock boot per
process + one SSG group), then exposes the dynamic operations the paper
derives in sections 5-7:

* **online reconfiguration** -- per-process Bedrock handles;
* **elasticity** -- ``grow()`` / ``shrink()`` with REMI-backed provider
  migration and Pufferscale-planned rebalancing;
* **resilience** -- service-wide checkpoints to a PFS and failure
  recovery (see :mod:`repro.core.resilience`).

All mutating methods are ULT generators driven from the service's
control process.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from collections import deque

from ..bedrock.boot import boot_process
from ..bedrock.client import BedrockClient, ServiceHandle
from ..bedrock.server import BEDROCK_PROVIDER_ID, BedrockServer
from ..cluster import Cluster
from ..margo.runtime import MargoInstance
from ..margo.ult import UltSleep
from ..observability.profile import LoadEstimator
from ..pufferscale.model import Placement, Shard
from ..pufferscale.planner import MigrationPlan, Objective, plan_rebalance
from ..ssg.bootstrap import create_group
from ..ssg.group import SSGGroup
from ..storage.pfs import ParallelFileSystem
from .spec import ProcessSpec, ServiceSpec

__all__ = [
    "DynamicService",
    "ReconfigurationController",
    "ServiceError",
    "ManagedProcess",
]


class ServiceError(RuntimeError):
    """Service-level orchestration failure."""


class ManagedProcess:
    """Everything the service knows about one of its processes."""

    def __init__(
        self,
        spec: ProcessSpec,
        margo: MargoInstance,
        bedrock: BedrockServer,
        group: Optional[SSGGroup],
    ) -> None:
        self.spec = spec
        self.margo = margo
        self.bedrock = bedrock
        self.group = group

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def address(self) -> str:
        return self.margo.address

    @property
    def alive(self) -> bool:
        return self.margo.process.alive


class DynamicService:
    """A deployed, dynamically manageable Mochi service."""

    def __init__(
        self,
        cluster: Cluster,
        spec: ServiceSpec,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.pfs = pfs
        self.processes: dict[str, ManagedProcess] = {}
        self.control: Optional[MargoInstance] = None
        self._bedrock_client: Optional[BedrockClient] = None
        self._groups: list[SSGGroup] = []

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    @classmethod
    def deploy(
        cls,
        cluster: Cluster,
        spec: ServiceSpec,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> "DynamicService":
        """Boot every process of the spec and form the service group."""
        service = cls(cluster, spec, pfs=pfs)
        booted: list[tuple[ProcessSpec, MargoInstance, BedrockServer]] = []
        for proc_spec in spec.processes:
            margo, bedrock = boot_process(
                cluster, proc_spec.name, proc_spec.node, proc_spec.config, pfs=pfs
            )
            booted.append((proc_spec, margo, bedrock))
        groups: dict[str, SSGGroup] = {}
        if spec.group is not None:
            ssg_groups = create_group(
                spec.group,
                [margo for _, margo, _ in booted],
                cluster.randomness,
                swim=spec.swim,
            )
            groups = {g.margo.address: g for g in ssg_groups}
            service._groups = ssg_groups
        for proc_spec, margo, bedrock in booted:
            service.processes[proc_spec.name] = ManagedProcess(
                proc_spec, margo, bedrock, groups.get(margo.address)
            )
        # Dedicated control process for service-wide operations.
        service.control = cluster.add_margo(
            f"{spec.name}-ctl", cluster.node(f"{spec.name}-ctl-node")
        )
        service._bedrock_client = BedrockClient(service.control)
        return service

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> list[str]:
        return [p.address for p in self.processes.values() if p.alive]

    def handle_for(self, process_name: str) -> ServiceHandle:
        assert self._bedrock_client is not None
        return self._bedrock_client.make_service_handle(
            self.processes[process_name].address
        )

    def view(self):
        """The current SSG view (from any live member)."""
        for process in self.processes.values():
            if process.alive and process.group is not None:
                return process.group.view
        raise ServiceError("no live group member")

    def run_control(self, gen: Generator) -> Any:
        """Run a driver ULT on the control process to completion."""
        assert self.control is not None
        return self.cluster.run_ult(self.control, gen)

    def service_config(self) -> Generator:
        """Fetch every process's configuration (one JSON document)."""
        out: dict[str, Any] = {"name": self.spec.name, "processes": {}}
        for name, process in self.processes.items():
            if not process.alive:
                out["processes"][name] = None
                continue
            config = yield from self.handle_for(name).get_config()
            out["processes"][name] = config
        return out

    # ------------------------------------------------------------------
    # elasticity (paper section 6)
    # ------------------------------------------------------------------
    def grow(self, proc_spec: ProcessSpec) -> Generator:
        """Add a process to the running service (scale-out)."""
        if proc_spec.name in self.processes:
            raise ServiceError(f"process {proc_spec.name!r} already in service")
        margo, bedrock = boot_process(
            self.cluster, proc_spec.name, proc_spec.node, proc_spec.config, pfs=self.pfs
        )
        group: Optional[SSGGroup] = None
        if self.spec.group is not None:
            from ..ssg.bootstrap import join_group

            group = yield from join_group(
                self.spec.group,
                margo,
                self.addresses,
                self.cluster.randomness,
                swim=self.spec.swim,
            )
            self._groups.append(group)
        self.processes[proc_spec.name] = ManagedProcess(proc_spec, margo, bedrock, group)
        self.spec.processes.append(proc_spec)
        return self.processes[proc_spec.name]

    def shrink(self, process_name: str, migrate_to: Optional[str] = None) -> Generator:
        """Remove a process: migrate its data away first (paper Obs. 4:
        'Removing nodes first requires their data to be sent to
        remaining nodes'), then leave the group and shut down."""
        process = self.processes.get(process_name)
        if process is None:
            raise ServiceError(f"no process named {process_name!r}")
        survivors = [p for p in self.processes.values() if p is not process and p.alive]
        if not survivors:
            raise ServiceError("cannot shrink the last process of a service")
        handle = self.handle_for(process_name)
        migratable = [
            r for r in process.bedrock.records.values() if r.module.supports_migration
        ]
        target = (
            self.processes[migrate_to]
            if migrate_to is not None
            else min(survivors, key=lambda p: len(p.bedrock.records))
        )
        remi_id = self._remi_provider_id(target)
        for record in migratable:
            yield from handle.migrate_provider(
                record.name, target.address, remi_provider_id=remi_id
            )
        if process.group is not None:
            # Announce the departure from the leaving process itself and
            # wait for it before tearing the process down.
            leave_ult = process.margo.spawn_ult(
                process.group.leave(), name=f"leave:{process_name}"
            )
            from ..margo.ult import Park

            yield Park(leave_ult.done_event, 5.0)
        process.margo.shutdown()
        process.margo.process.alive = False
        del self.processes[process_name]
        self.spec.processes = [p for p in self.spec.processes if p.name != process_name]
        return target.name

    @staticmethod
    def _remi_provider_id(process: ManagedProcess) -> int:
        for record in process.bedrock.records.values():
            if record.type_name == "remi":
                return record.provider_id
        raise ServiceError(
            f"process {process.name!r} has no REMI provider to receive migrations"
        )

    # ------------------------------------------------------------------
    # rebalancing (Pufferscale integration, paper Obs. 6)
    # ------------------------------------------------------------------
    def placement(self) -> Placement:
        """Current placement of migratable providers, sized from their
        live statistics (performance introspection feeding rebalancing)."""
        placement = Placement([p.name for p in self.processes.values() if p.alive])
        for process in self.processes.values():
            if not process.alive:
                continue
            for record in process.bedrock.records.values():
                if not record.module.supports_migration:
                    continue
                stats = record.instance.get_config().get("statistics", {})
                placement.add(
                    process.name,
                    Shard(
                        shard_id=record.name,
                        size_bytes=int(stats.get("size_bytes", 0)),
                        load=float(stats.get("count", 0)),
                    ),
                )
        return placement

    def measured_placement(
        self, estimates_by_process: dict[str, dict[str, dict[str, float]]]
    ) -> Placement:
        """Placement whose shard loads come from *measured* windows.

        ``estimates_by_process`` maps process name to a
        :meth:`LoadEstimator.estimate` result (provider key
        ``"<type>:<provider_id>"`` -> ``{"load": ...}``).  Shard sizes
        still come from provider statistics (bytes at rest are known
        exactly); loads are the observed request rates -- this is the
        seam where the monitor -> decide loop replaces hand-fed
        ``Shard.load`` values.
        """
        placement = Placement([p.name for p in self.processes.values() if p.alive])
        for process in self.processes.values():
            if not process.alive:
                continue
            estimates = estimates_by_process.get(process.name, {})
            for record in process.bedrock.records.values():
                if not record.module.supports_migration:
                    continue
                stats = record.instance.get_config().get("statistics", {})
                key = f"{record.type_name}:{record.provider_id}"
                entry = estimates.get(key)
                placement.add(
                    process.name,
                    Shard(
                        shard_id=record.name,
                        size_bytes=int(stats.get("size_bytes", 0)),
                        load=entry["load"] if entry is not None else 0.0,
                    ),
                )
        return placement

    def rebalance(
        self,
        objective: Optional[Objective] = None,
        target: Optional[list[str]] = None,
        placement: Optional[Placement] = None,
    ) -> Generator:
        """Plan with Pufferscale; execute with Bedrock/REMI migrations.

        ``placement`` overrides the synthetically-sized default -- the
        :class:`ReconfigurationController` passes a measured one.
        """
        if placement is None:
            placement = self.placement()
        target_nodes = target if target is not None else placement.nodes
        plan = plan_rebalance(placement, target_nodes, objective)
        for move in plan.moves:
            source = self.processes[move.source]
            destination = self.processes[move.destination]
            remi_id = self._remi_provider_id(destination)
            handle = self.handle_for(move.source)
            yield from handle.migrate_provider(
                move.shard.shard_id, destination.address, remi_provider_id=remi_id
            )
        return plan

    # ------------------------------------------------------------------
    # resilience hooks (paper section 7)
    # ------------------------------------------------------------------
    def checkpoint_all(self, prefix: str) -> Generator:
        """Checkpoint every checkpointable provider to the PFS."""
        if self.pfs is None:
            raise ServiceError("service has no PFS for checkpoints")
        written: dict[str, int] = {}
        for name, process in self.processes.items():
            if not process.alive:
                continue
            handle = self.handle_for(name)
            for record in list(process.bedrock.records.values()):
                if not record.module.supports_checkpoint:
                    continue
                path = f"{prefix}/{name}/{record.name}"
                result = yield from handle.checkpoint_provider(record.name, path)
                written[path] = result["bytes"]
        return written

    def shutdown(self) -> None:
        for process in self.processes.values():
            if process.group is not None:
                process.group.stop()
            process.margo.shutdown()
        if self.control is not None:
            self.control.shutdown()


class ReconfigurationController:
    """Autonomic monitor -> decide -> reconfigure loop (ROADMAP north
    star: the paper's "performance introspection" made actionable).

    Each control cycle the controller sends every live process's
    Bedrock one ``query`` for its last profile windows and xstream
    utilization (``$__profile__``), reduces the measured windows to
    per-provider loads with a
    :class:`~repro.observability.profile.LoadEstimator`, and compares
    them against the declarative thresholds of the processes'
    :class:`~repro.observability.ObservabilitySpec`:

    * ``load_imbalance_threshold`` -- measured max/mean node load above
      which a Pufferscale rebalance is planned and executed;
    * ``busy_threshold`` -- measured per-xstream busy fraction above
      which a process counts as overloaded (same reaction).

    Every decision -- triggered or not -- is recorded in a bounded ring
    and attributed to the profile windows that produced it; when the
    control process traces, each decision is also emitted as a span.
    Decisions are deterministic functions of the measured windows, so
    two identical runs produce byte-identical decision traces (tested).

    When a process runs mochi-xray, each cycle additionally queries the
    latest tail-attribution window (``$__xray__``) and
    records the top-ranked what-if action under ``decision["xray"]``.
    With ``apply_xray_actions`` the controller *acts* on ``add_xstream``
    recommendations whose predicted p99 improvement clears
    ``xray_min_improvement``, then writes the realized improvement into
    that same decision on the next cycle -- the predicted-vs-realized
    delta the what-if engine is judged by.  ``migrate_provider`` and
    ``add_node`` recommendations are recorded but never auto-applied:
    both move state or hardware, which stays an operator decision.
    """

    def __init__(
        self,
        service: DynamicService,
        objective: Optional[Objective] = None,
        period: Optional[float] = None,
        smoothing: int = 3,
        load_imbalance_threshold: Optional[float] = None,
        busy_threshold: Optional[float] = None,
        max_decisions: int = 64,
        apply_xray_actions: bool = False,
        xray_min_improvement: float = 0.05,
    ) -> None:
        self.service = service
        self.objective = objective
        self.estimator = LoadEstimator(smoothing=smoothing)
        first = next(iter(service.processes.values()), None)
        obs = first.margo.config.observability if first is not None else None
        if period is None:
            period = obs.profile_window if obs is not None else 1.0
        if load_imbalance_threshold is None:
            load_imbalance_threshold = (
                obs.load_imbalance_threshold if obs is not None else 1.5
            )
        if busy_threshold is None:
            busy_threshold = obs.busy_threshold if obs is not None else 0.9
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.load_imbalance_threshold = load_imbalance_threshold
        self.busy_threshold = busy_threshold
        #: Bounded decision trace (see lint rule MCH004: control loops
        #: must not accumulate unbounded state).
        self.decisions: deque[dict[str, Any]] = deque(maxlen=max_decisions)
        self.rebalances = 0
        self.apply_xray_actions = apply_xray_actions
        self.xray_min_improvement = xray_min_improvement
        self.xray_actions_applied = 0
        #: ``(decision, predicted_p99, base_p99)`` of an applied xray
        #: action whose effect has not been measured yet; the next
        #: cycle's window resolves it into ``realized_improvement``.
        self._pending_prediction: Optional[tuple[dict[str, Any], float, float]] = None

    # ------------------------------------------------------------------
    def run(self, cycles: int) -> Generator:
        """Drive ``cycles`` control cycles (a ULT on the control
        process); returns the list of decisions taken."""
        taken: list[dict[str, Any]] = []
        for cycle in range(cycles):
            yield UltSleep(self.period)
            decision = yield from self.evaluate_once(cycle)
            taken.append(decision)
        return taken

    def evaluate_once(self, cycle: int = 0) -> Generator:
        """One control cycle: measure, decide, (maybe) rebalance."""
        service = self.service
        control = service.control
        assert control is not None
        started = control.kernel.now
        estimates: dict[str, dict[str, dict[str, float]]] = {}
        windows_used: dict[str, Any] = {}
        busy: dict[str, float] = {}
        for name in sorted(service.processes):
            process = service.processes[name]
            if not process.alive:
                continue
            profile = yield from service.handle_for(name).query(
                "if ($__profile__ == null) { return null; }"
                ' return {"windows": array_slice($__profile__.windows, -%d),'
                ' "xstreams": $__profile__.utilization.xstreams};' % self.estimator.smoothing
            )
            if profile is None:
                continue
            estimates[name] = self.estimator.estimate(profile)
            windows = profile["windows"]
            windows_used[name] = (
                [windows[0]["index"], windows[-1]["index"]] if windows else None
            )
            busy[name] = max(
                (s["utilization"] for s in profile["xstreams"].values()), default=0.0
            )
        placement = service.measured_placement(estimates)
        imbalance = placement.load_imbalance()
        max_busy = max(busy.values(), default=0.0)
        total_load = sum(placement.load_of(n) for n in placement.nodes)
        triggered = total_load > 0 and (
            imbalance > self.load_imbalance_threshold
            or max_busy > self.busy_threshold
        )
        # Health veto (ISSUE 6): never plan migrations *onto* a target
        # the health plane currently holds suspect or dead -- moving
        # shards to a dying process converts an imbalance into an
        # outage.  Degraded targets stay eligible (the move may be the
        # cure for their burning SLO).
        health = getattr(service.cluster, "health", None)
        vetoed: list[str] = []
        if health is not None:
            vetoed = sorted(
                name
                for name in placement.nodes
                if not health.registry.is_placeable(name)
            )
        decision: dict[str, Any] = {
            "cycle": cycle,
            "time": started,
            "windows": windows_used,
            "load_imbalance": imbalance,
            "max_busy": max_busy,
            "loads": {n: placement.load_of(n) for n in sorted(placement.nodes)},
            "triggered": triggered,
            "vetoed_nodes": vetoed,
            "moves": [],
        }
        eligible = [n for n in placement.nodes if n not in vetoed]
        if triggered and len(eligible) >= 1:
            plan = yield from service.rebalance(
                objective=self.objective, placement=placement, target=eligible
            )
            self.rebalances += 1
            decision["moves"] = [
                {
                    "shard": move.shard.shard_id,
                    "source": move.source,
                    "destination": move.destination,
                }
                for move in plan.moves
            ]
        decision["xray"] = yield from self._evaluate_xray(decision)
        self.decisions.append(decision)
        if health is not None:
            health.note_decision(decision)
        if control.tracer is not None:
            control.tracer.record_span(
                name="reconfiguration_decision",
                category="control",
                process=control.process.name,
                start=started,
                end=control.kernel.now,
                attributes={
                    "cycle": cycle,
                    "triggered": triggered,
                    "load_imbalance": imbalance,
                    "max_busy": max_busy,
                    "moves": len(decision["moves"]),
                },
            )
        return decision

    def _evaluate_xray(self, decision: dict[str, Any]) -> Generator:
        """Tail-attribution step of one cycle: query the latest xray
        window, resolve any pending predicted-vs-realized delta, and
        (optionally) apply the top ``add_xstream`` recommendation."""
        service = self.service
        source = None
        for name in sorted(service.processes):
            process = service.processes[name]
            if not process.alive:
                continue
            if getattr(process.margo.config.observability, "xray", False):
                source = name
                break
        if source is None:
            return None
        windows = yield from service.handle_for(source).query(
            "if ($__xray__ == null) { return null; }"
            " return array_slice($__xray__.windows, -1);"
        )
        if not windows:  # no xray plane (null) or no closed window yet
            return None
        window = windows[-1]
        attribution = window["attribution"]
        actions = window["whatif"]["actions"]
        top = actions[0] if actions else None
        doc: dict[str, Any] = {
            "window": window["index"],
            "p99": attribution["p99"],
            "top_action": None
            if top is None
            else {
                "action": top["action"],
                "process": top["process"],
                "target": top["target"],
                "predicted_p99": top["predicted_p99"],
                "predicted_improvement": top["predicted_improvement"],
            },
        }
        if self._pending_prediction is not None:
            prior, predicted_p99, base_p99 = self._pending_prediction
            realized_p99 = attribution["p99"]
            prior["xray"]["realized_p99"] = realized_p99
            prior["xray"]["realized_improvement"] = (
                (base_p99 - realized_p99) / base_p99 if base_p99 > 0 else 0.0
            )
            self._pending_prediction = None
        elif (
            self.apply_xray_actions
            and top is not None
            and top["action"] == "add_xstream"
            and top["predicted_improvement"] >= self.xray_min_improvement
            and top["process"] in service.processes
            and service.processes[top["process"]].alive
        ):
            xs_name = f"xray_xs_{decision['cycle']}"
            yield from service.handle_for(top["process"]).add_xstream(
                {"name": xs_name, "scheduler": {"pools": [top["target"]]}}
            )
            self.xray_actions_applied += 1
            doc["applied"] = {
                "action": "add_xstream",
                "name": xs_name,
                "pool": top["target"],
                "process": top["process"],
            }
            self._pending_prediction = (
                decision,
                top["predicted_p99"],
                attribution["p99"],
            )
        return doc
