"""ServiceController: the one control loop over a :class:`DynamicService`.

Introspection (paper section 4) drives reconfiguration (section 5),
elasticity (section 6) and the top-down resilience reactor (section 7).
One control ULT wakes every ``period`` and runs the enabled policies:

* ``watermark`` -- grow/shrink on execution-stream utilization
  (:class:`ElasticityPolicy`); it sends no RPC;
* ``rebalance`` -- one profile ``query`` per live process, a Pufferscale
  rebalance when the measured imbalance or busy fraction crosses the
  processes' ``ObservabilitySpec`` thresholds (never onto a target the
  health plane holds suspect or dead), and the latest xray window's top
  what-if action; ``xray`` also applies that action when it is an
  ``add_xstream`` and records the realized improvement a cycle later;
* ``resilience`` -- every provider's state to the PFS (Observation 9);
  and, event-driven, on an SSG death notification (Observation 12)
  re-provision the dead process's providers on a node from
  ``allocate_node`` -- the resource manager (Flux [6] in the paper) --
  and restore each from its latest checkpoint.

Every decision is one dict with a ``kind`` in one bounded ring, handed
to the ``on_decision`` subscribers; a cluster with a health plane
subscribes it at construction (``HealthPlane.watch_controller``).  The
ring keeps the last ``DECISION_RING`` decisions; a caller that needs the
whole history subscribes its own list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

from ..margo.ult import UltSleep
from ..observability.profile import LoadEstimator
from ..observability.spec import ObservabilitySpec
from ..pufferscale.planner import Objective
from .service import DynamicService, ManagedProcess, ServiceError
from .spec import ProcessSpec

__all__ = ["ServiceController", "ElasticityPolicy"]

#: Policies a controller can enable.
POLICIES = ("watermark", "rebalance", "xray", "resilience")
#: Capacity of the decision ring.
DECISION_RING = 256
#: An ``add_xstream`` recommendation is applied only when it predicts at
#: least this fractional p99 improvement.
XRAY_MIN_IMPROVEMENT = 0.05


@dataclass(frozen=True)
class ElasticityPolicy:
    """Threshold policy over per-process execution-stream utilization.

    Utilization is the fraction of the control period the process's
    execution streams spent running ULTs (averaged over streams and
    processes) -- the busy-time series the monitoring layer exposes.
    """

    #: Scale out when mean utilization exceeds this.
    high_watermark: float = 0.7
    #: Scale in when it drops below this (and more than min_processes run).
    low_watermark: float = 0.1
    min_processes: int = 1
    max_processes: int = 64
    #: Consecutive observations required before acting (hysteresis).
    patience: int = 2

    def __post_init__(self) -> None:
        if self.low_watermark >= self.high_watermark:
            raise ValueError("low_watermark must be below high_watermark")
        if self.min_processes < 1 or self.max_processes < self.min_processes:
            raise ValueError("bad process bounds")


class ServiceController:
    """Monitor -> decide -> reconfigure, for one service.

    Decisions are deterministic functions of the measured state, so two
    identical runs produce byte-identical decision rings (tested).
    """

    def __init__(
        self,
        service: DynamicService,
        policies: Iterable[str],
        period: Optional[float] = None,
        elasticity: ElasticityPolicy = ElasticityPolicy(),
        objective: Optional[Objective] = None,
        smoothing: int = 3,
        allocate_node: Optional[Callable[[], Optional[str]]] = None,
        release_node: Optional[Callable[[str], None]] = None,
        make_process_spec: Optional[Callable[[str, str], ProcessSpec]] = None,
    ) -> None:
        self.policies = frozenset(policies)
        unknown = sorted(self.policies.difference(POLICIES))
        if unknown:
            raise ValueError(f"unknown policies {unknown}; known: {list(POLICIES)}")
        if "xray" in self.policies and "rebalance" not in self.policies:
            raise ValueError("the xray policy acts inside the rebalance cycle")
        broker = (allocate_node, release_node, make_process_spec)
        if "watermark" in self.policies and None in broker:
            raise ValueError("watermark needs allocate_node, release_node and make_process_spec")
        if "resilience" in self.policies and allocate_node is None:
            raise ValueError("the resilience policy needs allocate_node")
        if "resilience" in self.policies and service.pfs is None:
            raise ServiceError("the resilience policy needs a service with a PFS")
        first = next(iter(service.processes.values()), None)
        obs = first.margo.config.observability if first else ObservabilitySpec()
        if period is None:
            period = obs.profile_window
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.service = service
        self.period = period
        self.elasticity = elasticity
        self.objective = objective
        self.estimator = LoadEstimator(smoothing=smoothing)
        self.allocate_node = allocate_node
        self.release_node = release_node
        self.make_process_spec = make_process_spec
        #: Thresholds of the processes' declarative ObservabilitySpec.
        self.load_imbalance_threshold = obs.load_imbalance_threshold
        self.busy_threshold = obs.busy_threshold
        #: The bounded decision ring (every kind) and lifetime counts.
        self.decisions: deque[dict[str, Any]] = deque(maxlen=DECISION_RING)
        self.counts: dict[str, int] = {}
        #: Called with every decision as it is recorded.
        self.on_decision: list[Callable[[dict[str, Any]], None]] = []
        self._started = False
        self._stopped = False
        self._counter = 0
        self._streak = 0  # positive = consecutive high, negative = low
        #: live process -> (time, total busy seconds) at the last observation.
        self._busy_snapshots: dict[str, tuple[float, float]] = {}
        #: ``(decision, predicted_p99, base_p99)`` of an applied xray
        #: action whose effect has not been measured yet; the next
        #: cycle's window resolves it into ``realized_improvement``.
        self._pending_prediction: Optional[tuple[dict[str, Any], float, float]] = None
        #: hosted provider -> latest checkpoint path, boot spec and owner.
        self._checkpoints: dict[str, dict[str, Any]] = {}
        self._version = 0
        #: The cluster's health plane, if any: the rebalance veto reads
        #: it and it subscribes to the decision stream.
        self.health = getattr(service.cluster, "health", None)
        if self.health is not None:
            self.health.watch_controller(self)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the control ULT and arm failure recovery."""
        if self._started:
            raise ServiceError("controller already started")
        self._started = True
        control = self.service.control
        assert control is not None
        control.spawn_ult(self.run(), name=f"controller:{self.service.spec.name}")
        if "resilience" in self.policies:
            for process in self.service.processes.values():
                self._watch(process)

    def stop(self) -> None:
        """Stop the control ULT and recovery for good: a stopped
        controller cannot be started again."""
        self._stopped = True

    def run(self, cycles: Optional[int] = None) -> Generator:
        """The control ULT: one cycle per period, ``cycles`` times or
        until :meth:`stop`."""
        cycle = 0
        while cycle != cycles:
            yield UltSleep(self.period)
            if self._stopped:
                return
            if "watermark" in self.policies:
                yield from self._watermark()
            if "rebalance" in self.policies:
                yield from self._rebalance(cycle)
            if "resilience" in self.policies:
                yield from self.checkpoint()
            cycle += 1

    def _record(self, decision: dict[str, Any]) -> None:
        kind = decision["kind"]
        self.decisions.append(decision)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        for callback in list(self.on_decision):
            callback(decision)

    # ------------------------------------------------------------------
    # watermark elasticity (section 6)
    # ------------------------------------------------------------------
    def current_load(self) -> float:
        """Mean execution-stream utilization per live process since the
        previous observation."""
        now = self.service.cluster.now
        processes = [p for p in self.service.processes.values() if p.alive]
        previous, self._busy_snapshots = self._busy_snapshots, {}
        utilizations = []
        for process in processes:
            xstreams = list(process.margo.xstreams.values())
            busy = sum(x.busy_time for x in xstreams)
            last_time, last_busy = previous.get(process.name, (now - self.period, 0.0))
            self._busy_snapshots[process.name] = (now, busy)
            elapsed = now - last_time
            if elapsed <= 0 or not xstreams:
                continue
            utilizations.append((busy - last_busy) / (elapsed * len(xstreams)))
        return sum(utilizations) / len(utilizations) if utilizations else 0.0

    def _watermark(self) -> Generator:
        policy = self.elasticity
        load = self.current_load()
        self._record({"kind": "watermark", "time": self.service.cluster.now, "load": load})
        n = len([p for p in self.service.processes.values() if p.alive])
        if load > policy.high_watermark and n < policy.max_processes:
            self._streak = self._streak + 1 if self._streak > 0 else 1
            if self._streak >= policy.patience:
                yield from self._scale_out(load)
                self._streak = 0
        elif load < policy.low_watermark and n > policy.min_processes:
            self._streak = self._streak - 1 if self._streak < 0 else -1
            if -self._streak >= policy.patience:
                yield from self._scale_in(load)
                self._streak = 0
        else:
            self._streak = 0

    def _scale_out(self, load: float) -> Generator:
        assert self.allocate_node is not None and self.make_process_spec is not None
        node = self.allocate_node()
        if node is None:
            return  # resource manager has nothing to give
        self._counter += 1
        name = f"{self.service.spec.name}-elastic-{self._counter}"
        yield from self.service.grow(self.make_process_spec(name, node))
        self._record({"kind": "scale_out", "time": self.service.cluster.now,
                      "process": name, "load": load})

    def _scale_in(self, load: float) -> Generator:
        # Retire the most recently added elastic process first: the
        # service keeps its processes in the order they joined.
        processes = self.service.processes.values()
        candidates = [p for p in processes if p.alive and "-elastic-" in p.name]
        if not candidates:
            return
        victim = candidates[-1]
        node = victim.spec.node
        yield from self.service.shrink(victim.name)
        assert self.release_node is not None
        self.release_node(node)
        self._record({"kind": "scale_in", "time": self.service.cluster.now,
                      "process": victim.name, "load": load})

    # ------------------------------------------------------------------
    # measured rebalance with the health veto, and xray (sections 4-5)
    # ------------------------------------------------------------------
    def _rebalance(self, cycle: int) -> Generator:
        """One rebalance cycle: measure, decide, (maybe) rebalance."""
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
        placement = service.placement(estimates)
        imbalance = placement.load_imbalance()
        max_busy = max(busy.values(), default=0.0)
        total_load = sum(placement.load_of(n) for n in placement.nodes)
        triggered = total_load > 0 and (
            imbalance > self.load_imbalance_threshold
            or max_busy > self.busy_threshold
        )
        # Health veto: never plan migrations *onto* a target the health
        # plane currently holds suspect or dead -- moving shards to a
        # dying process converts an imbalance into an outage.  Degraded
        # targets stay eligible (the move may be the cure for their
        # burning SLO).
        vetoed: list[str] = []
        if self.health is not None:
            vetoed = sorted(
                name
                for name in placement.nodes
                if not self.health.registry.is_placeable(name)
            )
        decision: dict[str, Any] = {
            "kind": "rebalance",
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
            decision["moves"] = [
                {"shard": m.shard.shard_id, "source": m.source, "destination": m.destination}
                for m in plan.moves
            ]
        decision["xray"] = yield from self._evaluate_xray(decision)
        self._record(decision)
        if control.tracer is not None:
            control.tracer.record_span(
                name="reconfiguration_decision", category="control",
                process=control.process.name, start=started, end=control.kernel.now,
                attributes={"cycle": cycle, "triggered": triggered, "load_imbalance": imbalance,
                            "max_busy": max_busy, "moves": len(decision["moves"])},
            )

    def _evaluate_xray(self, decision: dict[str, Any]) -> Generator:
        """Tail-attribution step of one cycle: query the latest xray
        window, resolve any pending predicted-vs-realized delta, and
        (with the ``xray`` policy) apply the top ``add_xstream``
        recommendation; ``migrate_provider``/``add_node`` move state or
        hardware, so they stay an operator decision."""
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
            "top_action": None if top is None else {
                key: top[key]
                for key in ("action", "process", "target", "predicted_p99", "predicted_improvement")
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
            "xray" in self.policies
            and top is not None
            and top["action"] == "add_xstream"
            and top["predicted_improvement"] >= XRAY_MIN_IMPROVEMENT
            and top["process"] in service.processes
            and service.processes[top["process"]].alive
        ):
            xs_name = f"xray_xs_{decision['cycle']}"
            yield from service.handle_for(top["process"]).add_xstream(
                {"name": xs_name, "scheduler": {"pools": [top["target"]]}}
            )
            doc["applied"] = {"action": "add_xstream", "name": xs_name,
                              "pool": top["target"], "process": top["process"]}
            self._pending_prediction = (decision, top["predicted_p99"], attribution["p99"])
        return doc

    # ------------------------------------------------------------------
    # checkpointing (bottom-up, Observation 9)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Generator:
        """One checkpoint round over every live process."""
        self._version += 1
        version = self._version
        written = 0
        for name, process in list(self.service.processes.items()):
            if not process.alive:
                continue
            handle = self.service.handle_for(name)
            for record in list(process.bedrock.records.values()):
                if not record.module.supports_checkpoint:
                    continue
                path = f"ckpt/v{version}/{record.name}"
                try:
                    yield from handle.checkpoint_provider(record.name, path)
                except Exception:
                    continue  # process may have died mid-round
                self._checkpoints[record.name] = {
                    "path": path,
                    "type": record.type_name,
                    "provider_id": record.provider_id,
                    "config": record.config,
                    "owner": name,
                }
                written += 1
        # Forget providers no process hosts any more.
        hosted = {
            provider
            for process in self.service.processes.values()
            for provider in process.bedrock.records
        }
        for provider in [p for p in self._checkpoints if p not in hosted]:
            del self._checkpoints[provider]
        self._record({"kind": "checkpoint", "time": self.service.cluster.now,
                      "version": version, "providers": written})
        return version

    # ------------------------------------------------------------------
    # failure reaction (top-down, Observation 12)
    # ------------------------------------------------------------------
    def _watch(self, process: ManagedProcess) -> None:
        if process.group is None:
            return
        process.group.on_member_died.append(self._on_member_died)

    def _on_member_died(self, address: str) -> None:
        control = self.service.control
        if control is None or control.finalized or self._stopped:
            return
        processes = self.service.processes.values()
        dead = next((p for p in processes if p.address == address), None)
        if dead is None or dead.alive:
            return  # not ours, or a false positive
        control.spawn_ult(self._recover(dead), name=f"recover:{dead.name}")

    def _recover(self, dead: ManagedProcess) -> Generator:
        started = self.service.cluster.now
        assert self.allocate_node is not None
        node = self.allocate_node()
        if node is None:
            return None
        replacement_name = f"{dead.name}-r{int(started * 1000) % 1000000}"
        # Re-create the process shell (same margo/bedrock config shape),
        # without its providers: we restore them one by one from
        # checkpoints instead.
        boot_config = dict(dead.spec.config)
        boot_config.pop("providers", [])
        spec = ProcessSpec(name=replacement_name, node=node, config=boot_config)
        lost = {
            name: entry
            for name, entry in self._checkpoints.items()
            if entry["owner"] == dead.name
        }
        del self.service.processes[dead.name]
        self.service.spec.processes = [
            p for p in self.service.spec.processes if p.name != dead.name
        ]
        replacement = yield from self.service.grow(spec)
        self._watch(replacement)
        handle = self.service.handle_for(replacement_name)
        for provider_name, entry in lost.items():
            yield from handle.start_provider(
                provider_name,
                entry["type"],
                provider_id=entry["provider_id"],
                config=entry["config"],
            )
            yield from handle.restore_provider(provider_name, entry["path"])
            self._checkpoints[provider_name] = dict(entry, owner=replacement_name)
        self._record({
            "kind": "recovery",
            "time": self.service.cluster.now,
            "process": dead.name,
            "replacement": replacement_name,
            "providers_restored": len(lost),
            "duration": self.service.cluster.now - started,
        })
        return None
