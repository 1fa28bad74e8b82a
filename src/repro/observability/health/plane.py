"""The cluster health plane: detectors, registry, incidents, recorder.

One :class:`HealthPlane` per :class:`~repro.cluster.Cluster` (opt-in via
``cluster.enable_health()``) ties the pieces of ISSUE 6 together:

* the **flight recorder** receives every fault, membership transition,
  election, migration, recovery, SLO alert, and reconfiguration
  decision (the always-on black box);
* the **health registry** holds the observed per-target state ladder
  (healthy/degraded/suspect/dead) that the reconfiguration controller
  consults before placing shards;
* the **phi-accrual detector** accrues continuous suspicion from SWIM
  heartbeats (pings and acks), shading between SWIM's binary states;
* the **incident log** correlates injected faults with SWIM detection,
  Raft elections, and REMI recoveries into measured detection-latency
  and MTTR numbers.

The plane is *off the RPC path*: it subscribes to callbacks that
components already fire (or fire at most once per protocol round), never
to per-RPC monitor hooks, so enabling it costs nothing on the
request fast path (gated by ``BENCH_HEALTH.json``).

The plane installs itself as ``cluster.health`` and as
``network.health_plane`` -- the network object is reachable from every
Margo instance, which is how the Bedrock ``get_health``/``get_incidents``
introspection RPCs find it without new plumbing.
"""

from __future__ import annotations

from typing import Any, Optional

from ...sim.faults import FaultRecord
from .detector import PhiAccrualDetector
from .incidents import IncidentLog
from .recorder import FlightRecorder
from .registry import HealthRegistry

__all__ = ["HealthPlane"]


class HealthPlane:
    """Cluster-wide failure detection, incidents, and post-mortems."""

    def __init__(
        self,
        cluster: Any,
        recorder_capacity: int = 4096,
        max_incidents: int = 128,
        max_transitions: int = 256,
        phi_threshold: float = 8.0,
        phi_window: int = 32,
        auto_dump: bool = True,
    ) -> None:
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.recorder = FlightRecorder(self.kernel, capacity=recorder_capacity)
        self.registry = HealthRegistry(self.kernel, max_transitions=max_transitions)
        self.incidents = IncidentLog(self.kernel, max_incidents=max_incidents)
        self.detector = PhiAccrualDetector(threshold=phi_threshold, window=phi_window)
        self.auto_dump = auto_dump
        self._sweep_running = False
        # Every registry transition is black-boxed.
        self.registry.on_transition.append(self._on_registry_transition)
        # Ground truth: the chaos controller's injections open incidents.
        cluster.faults.on_fault.append(self.on_fault)
        cluster.health = self
        cluster.network.health_plane = self

    # ------------------------------------------------------------------
    # watch_* -- subscribe to a component's existing callbacks
    # ------------------------------------------------------------------
    def watch_group(self, group: Any) -> None:
        """Subscribe to one SSG group: membership transitions feed the
        registry/incidents, ping traffic feeds the phi detector."""
        group.on_membership_event.append(
            lambda kind, address, g=group: self._on_membership(g, kind, address)
        )
        group.on_heartbeat.append(self.detector.heartbeat)

    def watch_raft(self, node: Any) -> None:
        node.on_role_change.append(
            lambda role, term, n=node: self._on_role_change(n, role, term)
        )

    def watch_resilience(self, manager: Any) -> None:
        manager.on_recovery.append(
            lambda event, m=manager: self._on_recovery(m, event)
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
            if self.auto_dump:
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
            self.detector.forget(address)
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

    def _on_recovery(self, manager: Any, event: Any) -> None:
        self.recorder.record(
            "recovery",
            "recovered",
            event.failed_process,
            replacement=event.replacement_process,
            providers_restored=event.providers_restored,
            duration=event.recovery_duration,
        )
        incident = self.incidents.close(
            event.failed_process,
            "recovered",
            replacement=event.replacement_process,
            providers_restored=event.providers_restored,
        )
        if incident is not None:
            self.recorder.record(
                "incident", "closed", incident.target,
                id=incident.incident_id, mttr=incident.mttr,
            )
        # The replacement is a new, healthy member; watch it like the
        # resilience manager does.
        service = manager.service
        replacement = service.processes.get(event.replacement_process)
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
            if self.auto_dump and state == "breach":
                self.recorder.dump(f"slo:{target}:{alert['slo']}")
        elif state == "ok":
            if self.registry.state_of(target) == "degraded":
                self.registry.observe(target, "healthy", f"slo:{alert['slo']}")
            self.incidents.close(target, "slo_recovered", slo=alert["slo"])

    def _on_registry_transition(self, transition: dict[str, Any]) -> None:
        self.recorder.record(
            "health",
            transition["to"],
            transition["target"],
            previous=transition["from"],
            source=transition["source"],
        )

    def note_migration(self, shard: str, source: str, destination: str,
                       duration: float) -> None:
        """Called by Bedrock after a provider migration completes."""
        self.recorder.record(
            "migration", "migrated", shard,
            source=source, destination=destination, duration=duration,
        )

    def note_decision(self, decision: dict[str, Any]) -> None:
        """Called by the reconfiguration controller after each cycle."""
        self.recorder.record(
            "reconfiguration",
            "rebalance" if decision.get("triggered") else "steady",
            "",
            cycle=decision.get("cycle", 0),
            load_imbalance=decision.get("load_imbalance", 0.0),
            moves=len(decision.get("moves", [])),
            vetoed=len(decision.get("vetoed_nodes", [])),
        )

    # ------------------------------------------------------------------
    # the phi sweep (optional periodic evaluation)
    # ------------------------------------------------------------------
    def evaluate_detector(self) -> dict[str, Any]:
        """One phi sweep: every watched address's suspicion level; the
        registry picks up ``degraded`` (phi past half the threshold) and
        ``suspect`` (past it) shades ahead of SWIM's confirmation."""
        now = self.kernel.now
        snapshot = self.detector.snapshot(now)
        for address in sorted(snapshot):
            info = snapshot[address]
            if info["samples"] < 2:
                continue
            target = self._process_of(address)
            current = self.registry.state_of(target)
            if current == "dead":
                continue
            phi = info["phi"]
            if phi >= self.detector.threshold:
                self.registry.observe(target, "suspect", "phi")
            elif phi >= self.detector.threshold / 2.0:
                if current == "healthy":
                    self.registry.observe(target, "degraded", "phi")
            elif current in ("degraded", "suspect"):
                self.registry.observe(target, "healthy", "phi")
        return snapshot

    def start_sweep(self, period: float) -> None:
        """Schedule a recurring phi sweep every ``period`` sim-seconds."""
        if period <= 0:
            raise ValueError(f"sweep period must be positive, got {period}")
        if self._sweep_running:
            return
        self._sweep_running = True

        def tick() -> None:
            if not self._sweep_running:
                return
            self.evaluate_detector()
            self.kernel.schedule(period, tick)

        self.kernel.schedule(period, tick)

    def stop_sweep(self) -> None:
        self._sweep_running = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _process_of(self, address: str) -> str:
        try:
            return self.cluster.network.lookup(address).name
        except Exception:
            return address

    def health_doc(self) -> dict[str, Any]:
        """The cluster health snapshot served by ``get_health``."""
        now = self.kernel.now
        return {
            "time": now,
            "states": dict(sorted(self.registry.states.items())),
            "unhealthy": self.registry.unhealthy(),
            "phi": self.detector.snapshot(now),
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
