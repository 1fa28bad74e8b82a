"""DynamicService: the paper's contribution as one orchestration object.

Deploys a :class:`~repro.core.spec.ServiceSpec` (Bedrock boot per
process + one SSG group), then exposes the dynamic operations the paper
derives in sections 5-7:

* **online reconfiguration** -- per-process Bedrock handles;
* **elasticity** -- ``grow()`` / ``shrink()`` with REMI-backed provider
  migration and Pufferscale-planned rebalancing;
* **resilience** -- service-wide checkpoints to a PFS and failure
  recovery.

The :class:`~repro.core.controller.ServiceController` drives these
operations from measurements.

All mutating methods are ULT generators driven from the service's
control process.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..bedrock.boot import boot_process
from ..bedrock.client import BedrockClient, ServiceHandle
from ..bedrock.server import BEDROCK_PROVIDER_ID, BedrockServer
from ..cluster import Cluster
from ..margo.runtime import MargoInstance
from ..pufferscale.model import Placement, Shard
from ..pufferscale.planner import Objective, plan_rebalance
from ..ssg.bootstrap import create_group
from ..ssg.group import SSGGroup
from ..storage.pfs import ParallelFileSystem
from .spec import ProcessSpec, ServiceSpec

__all__ = ["DynamicService", "ServiceError", "ManagedProcess"]


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
    def placement(
        self, estimates: Optional[dict[str, dict[str, dict[str, float]]]] = None
    ) -> Placement:
        """Current placement of migratable providers.

        Shard sizes come from provider statistics (bytes at rest are
        known exactly).  Loads are each provider's request count, or,
        with ``estimates`` (process name -> a
        :class:`~repro.observability.profile.LoadEstimator` estimate,
        ``"<type>:<provider_id>"`` -> ``{"load": ...}``), the measured
        rates, unmeasured providers at zero.
        """
        placement = Placement([p.name for p in self.processes.values() if p.alive])
        for process in self.processes.values():
            if not process.alive:
                continue
            measured = None if estimates is None else estimates.get(process.name, {})
            for record in process.bedrock.records.values():
                if not record.module.supports_migration:
                    continue
                stats = record.instance.get_config().get("statistics", {})
                if measured is None:
                    load = float(stats.get("count", 0))
                else:
                    entry = measured.get(f"{record.type_name}:{record.provider_id}")
                    load = entry["load"] if entry is not None else 0.0
                placement.add(
                    process.name,
                    Shard(
                        shard_id=record.name,
                        size_bytes=int(stats.get("size_bytes", 0)),
                        load=load,
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

        ``placement`` overrides the count-sized default -- the
        :class:`~repro.core.controller.ServiceController` passes a
        measured one.
        """
        if placement is None:
            placement = self.placement()
        target_nodes = target if target is not None else placement.nodes
        plan = plan_rebalance(placement, target_nodes, objective)
        for move in plan.moves:
            destination = self.processes[move.destination]
            remi_id = self._remi_provider_id(destination)
            handle = self.handle_for(move.source)
            yield from handle.migrate_provider(
                move.shard.shard_id, destination.address, remi_provider_id=remi_id
            )
        return plan
