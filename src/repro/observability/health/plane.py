"""The cluster health plane: registry, incidents, recorder.

One :class:`HealthPlane` per :class:`~repro.cluster.Cluster` (opt-in via
``cluster.enable_health()``) ties the pieces of ISSUE 6 together:

* the **flight recorder** receives every fault, membership transition,
  health transition, election, migration, recovery, SLO alert, and
  reconfiguration decision (the always-on black box);
* the **health registry** holds the observed per-target state ladder
  (healthy/degraded/suspect/dead) that the reconfiguration controller
  consults before placing shards.  SWIM, the one failure detector, sets
  ``suspect``/``dead``/``healthy``; SLO alerts set ``degraded``;
* the **incident log** correlates injected faults with SWIM detection,
  Raft elections, and REMI recoveries into measured detection-latency
  and MTTR numbers.

The plane is *off the RPC path*: it subscribes to callbacks that
components already fire (or fire at most once per protocol round), never
to per-RPC monitor hooks, so enabling it costs nothing on the
request fast path (gated by ``BENCH_HEALTH.json``).

The plane installs itself as ``cluster.health`` and as
``network.health_plane`` -- the network object is reachable from every
Margo instance, which is how Bedrock queries reading ``$__health__`` /
``$__incidents__`` find it without new plumbing.
"""

from __future__ import annotations

from typing import Any

from ...sim.faults import FaultRecord
from .incidents import IncidentLog
from .recorder import FlightRecorder
from .registry import HealthRegistry

__all__ = ["HealthPlane"]


class HealthPlane:
    """Cluster-wide failure detection, incidents, and post-mortems."""

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.recorder = FlightRecorder(self.kernel)
        self.registry = HealthRegistry(self.recorder)
        self.incidents = IncidentLog(self.kernel)
        # Ground truth: the chaos controller's injections open incidents.
        cluster.faults.on_fault.append(self.on_fault)
        cluster.health = self
        cluster.network.health_plane = self

    # ------------------------------------------------------------------
    # watch_* -- subscribe to a component's existing callbacks
    # ------------------------------------------------------------------
    def watch_group(self, group: Any) -> None:
        """Subscribe to one SSG group: membership transitions feed the
        registry and the incidents."""
        group.on_membership_event.append(
            lambda kind, address, g=group: self._on_membership(g, kind, address)
        )

    def watch_raft(self, node: Any) -> None:
        node.on_role_change.append(
            lambda role, term, n=node: self._on_role_change(n, role, term)
        )

    def watch_controller(self, controller: Any) -> None:
        """Subscribe to a ServiceController's decision stream: rebalance
        cycles are black-boxed, recoveries close their incident.  A
        controller built on a cluster with a health plane calls this
        itself."""
        controller.on_decision.append(
            lambda decision, c=controller: self._on_decision(c, decision)
        )

    def watch_margo(self, margo: Any) -> None:
        """Subscribe to a process's SLO engine (if it has one)."""
        engine = getattr(margo, "slo_engine", None)
        if engine is not None:
            engine.on_alert.append(
                lambda alert, m=margo: self._on_slo_alert(m, alert)
            )

    def watch_service(self, service: Any) -> None:
        """Watch a whole :class:`DynamicService`: every member's group
        and SLO engine (the common entry point for tests and demos)."""
        for name in sorted(service.processes):
            process = service.processes[name]
            if process.group is not None:
                self.watch_group(process.group)
            self.watch_margo(process.margo)

    # ------------------------------------------------------------------
    # event sinks
    # ------------------------------------------------------------------
    def on_fault(self, record: FaultRecord) -> None:
        """Ground-truth fault injection (satellite: the FaultRecord path
        ends here instead of dead-ending in ``faults.history``)."""
        self.recorder.record("fault", record.kind, record.target)
        if record.kind == "process":
            # Incidents open at injection time; SWIM detection and REMI
            # recovery stamp their latencies against this origin.  The
            # registry is *not* told: it tracks observed state only, so
            # detection latency is honestly measured.
            self.incidents.open("crash", record.target, fault_kind=record.kind)
            # The black-box use case: everything up to the crash.
            self.recorder.dump(f"crash:{record.target}")
        elif record.kind in ("partition", "heal", "loss"):
            self.incidents.attach_all("network", {"event": record.kind,
                                                  "detail": record.target})

    def _on_membership(self, group: Any, kind: str, address: str) -> None:
        target = self._process_of(address)
        self.recorder.record(
            "membership", kind, target, group=group.group_name, address=address
        )
        source = f"swim:{group.group_name}"
        if kind == "suspect":
            self.registry.observe(target, "suspect", source)
            self.incidents.note_detection(target, "suspect")
        elif kind == "dead":
            self.registry.observe(target, "dead", source)
            self.incidents.note_detection(target, "dead")
        elif kind == "alive":
            self.registry.observe(target, "healthy", source)

    def _on_role_change(self, node: Any, role: str, term: int) -> None:
        target = node.margo.process.name
        self.recorder.record(
            "election", role, target, group=node.name, term=term
        )
        self.incidents.attach_all(
            "election", {"process": target, "role": role, "term": term}
        )

    def _on_decision(self, controller: Any, decision: dict[str, Any]) -> None:
        if decision["kind"] == "rebalance":
            self.recorder.record(
                "reconfiguration",
                "rebalance" if decision["triggered"] else "steady",
                "",
                cycle=decision["cycle"],
                load_imbalance=decision["load_imbalance"],
                moves=len(decision["moves"]),
                vetoed=len(decision["vetoed_nodes"]),
            )
        elif decision["kind"] == "recovery":
            self._on_recovery(controller.service, decision)

    def _on_recovery(self, service: Any, decision: dict[str, Any]) -> None:
        self.recorder.record(
            "recovery",
            "recovered",
            decision["process"],
            replacement=decision["replacement"],
            providers_restored=decision["providers_restored"],
            duration=decision["duration"],
        )
        incident = self.incidents.close(
            decision["process"],
            "recovered",
            replacement=decision["replacement"],
            providers_restored=decision["providers_restored"],
        )
        if incident is not None:
            self.recorder.record(
                "incident", "closed", incident.target,
                id=incident.incident_id, mttr=incident.mttr,
            )
        # The replacement is a new, healthy member; watch it like the
        # controller does.
        replacement = service.processes.get(decision["replacement"])
        if replacement is not None:
            if replacement.group is not None:
                self.watch_group(replacement.group)
            self.watch_margo(replacement.margo)

    def _on_slo_alert(self, margo: Any, alert: dict[str, Any]) -> None:
        target = margo.process.name
        self.recorder.record(
            "slo", alert["to"], f"{target}:{alert['slo']}",
            previous=alert["from"],
            burn_short=alert["burn_short"],
            burn_long=alert["burn_long"],
        )
        state = alert["to"]
        if state in ("page", "breach"):
            self.registry.observe(target, "degraded", f"slo:{alert['slo']}")
            self.incidents.open(
                "slo", target, slo=alert["slo"], state=state
            )
            if state == "breach":
                self.recorder.dump(f"slo:{target}:{alert['slo']}")
        elif state == "ok":
            if self.registry.state_of(target) == "degraded":
                self.registry.observe(target, "healthy", f"slo:{alert['slo']}")
            self.incidents.close(target, "slo_recovered", slo=alert["slo"])

    def note_migration(self, shard: str, source: str, destination: str,
                       duration: float) -> None:
        """Called by Bedrock after a provider migration completes."""
        self.recorder.record(
            "migration", "migrated", shard,
            source=source, destination=destination, duration=duration,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _process_of(self, address: str) -> str:
        try:
            return self.cluster.network.lookup(address).name
        except Exception:
            return address

    def health_doc(self) -> dict[str, Any]:
        """The cluster health snapshot (a query's ``$__health__``)."""
        return {
            "time": self.kernel.now,
            "states": dict(sorted(self.registry.states.items())),
            "unhealthy": self.registry.unhealthy(),
            "open_incidents": len(self.incidents.open_incidents()),
            "recorded_events": self.recorder.recorded,
        }

    def slo_status(self) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """Per-process SLO states and every alert raised so far, over
        the processes that run an SLO engine, in name order."""
        slo_status: dict[str, Any] = {}
        alerts: list[dict[str, Any]] = []
        for name in sorted(self.cluster.margos):
            engine = self.cluster.margos[name].slo_engine
            if engine is None:
                continue
            status = engine.status()
            slo_status[name] = status["slos"]
            alerts.extend(status["alerts"])
        return slo_status, alerts

    def dump(self, reason: str = "on-demand") -> dict[str, Any]:
        return self.recorder.dump(reason)

    def to_json(self) -> dict[str, Any]:
        return {
            "health": self.health_doc(),
            "registry": self.registry.to_json(),
            "incidents": self.incidents.to_json(),
            "recorder": self.recorder.to_json(),
        }
