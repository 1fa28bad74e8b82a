"""Deployment convenience: build a simulated cluster in a few lines.

A :class:`Cluster` owns the kernel, network, randomness, and fault
injector, and offers helpers to create nodes, Margo-equipped processes,
and to drive ULTs to completion.  Examples, tests, and benchmarks all
start here::

    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        reply = yield from client.forward(server.address, "echo", "hi")
        return reply

    assert cluster.run_ult(client, driver()) == "hi"
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .margo.runtime import MargoInstance
from .margo.ult import ULT, UltState
from .observability import exporters as _obs_exporters
from .observability.health.plane import HealthPlane
from .observability.tracer import Tracer
from .sim.faults import FaultInjector
from .sim.kernel import DeadlockError, SimKernel, Timer
from .sim.network import Network, NetworkConfig, Node, Process
from .sim.random import RandomSource

__all__ = ["Cluster", "UltFailedError"]


class UltFailedError(RuntimeError):
    """A driver ULT raised; the original error is ``__cause__``."""


class Cluster:
    """A self-contained simulated deployment."""

    def __init__(
        self,
        seed: int = 0,
        network_config: Optional[NetworkConfig] = None,
    ) -> None:
        self.kernel = SimKernel()
        self.randomness = RandomSource(seed)
        self.network = Network(self.kernel, config=network_config, randomness=self.randomness)
        self.faults = FaultInjector(self.kernel, self.network)
        self.margos: dict[str, MargoInstance] = {}
        #: The cluster health plane (ISSUE 6); ``None`` until
        #: :meth:`enable_health` opts in.
        self.health: Optional[HealthPlane] = None

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Node:
        return self.network.add_node(name)

    def node(self, name: str) -> Node:
        if name not in self.network.nodes:
            return self.network.add_node(name)
        return self.network.nodes[name]

    def add_process(self, name: str, node: str | Node) -> Process:
        if isinstance(node, str):
            node = self.node(node)
        return self.network.add_process(name, node)

    def add_margo(
        self,
        name: str,
        node: str | Node,
        config: Any = None,
        monitors: tuple = (),
        default_rpc_timeout: Optional[float] = None,
    ) -> MargoInstance:
        """Create a process on ``node`` running a Margo instance."""
        process = self.add_process(name, node)
        margo = MargoInstance(
            process,
            self.network,
            config=config,
            monitors=monitors,
            default_rpc_timeout=default_rpc_timeout,
        )
        self.margos[name] = margo
        return margo

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run_ult(self, margo: MargoInstance, gen: Generator, pool: Any = None) -> Any:
        """Run ``gen`` as a ULT on ``margo`` until it finishes.

        Returns the ULT's return value; re-raises its exception.
        """
        return self.wait_ults([self.spawn(margo, gen, pool=pool)])[0]

    def spawn(self, margo: MargoInstance, gen: Generator, pool: Any = None, name: str = "") -> ULT:
        """Start a ULT without waiting for it."""
        return margo.spawn_ult(gen, pool=pool, name=name)

    def wait_ults(self, ults: list[ULT]) -> list[Any]:
        """Run the simulation until every ULT in ``ults`` finishes.

        Unlike ``kernel.run()`` with no stop condition, this works in the
        presence of perpetual background activity (SWIM loops, samplers):
        the last ULT to finish posts :meth:`SimKernel.halt`.  Returns the
        ULTs' results; re-raises the first error, and raises
        :class:`DeadlockError` when the event queue drains first.
        """
        pending = [u for u in ults if u.state is not UltState.DONE]
        if pending:
            kernel = self.kernel
            left = len(pending)
            halt: Optional[Timer] = None

            def on_one_finished(_ult: ULT) -> None:
                nonlocal left, halt
                left -= 1
                if not left:
                    halt = kernel.schedule(0.0, kernel.halt)

            for ult in pending:
                ult.on_finish.append(on_one_finished)
            try:
                kernel.run()
            finally:
                # A wait given up on must not stop a later run(): drop
                # the callbacks and any halt not yet fired.
                for ult in pending:
                    ult.on_finish.remove(on_one_finished)
                if halt is not None:
                    halt.cancel()
            if left:
                names = [u.name for u in pending if u.state is not UltState.DONE]
                raise DeadlockError(f"event queue drained but ULTs still pending: {names}")
        for ult in ults:
            if ult.error is not None:
                raise ult.error
        return [u.result for u in ults]

    def run(self, **kwargs: Any) -> None:
        """Advance the simulation (passes through to ``kernel.run``)."""
        self.kernel.run(**kwargs)

    @property
    def now(self) -> float:
        return self.kernel.now

    # ------------------------------------------------------------------
    # observability (cluster-wide views over per-process planes)
    # ------------------------------------------------------------------
    def enable_health(self) -> HealthPlane:
        """Attach the cluster health plane (flight recorder, health
        registry, incident log).  Idempotent: a second call returns the
        existing plane."""
        if self.health is None:
            HealthPlane(self)  # installs itself as self.health
        return self.health

    def tracers(self) -> list[Tracer]:
        """Tracers of every margo with tracing enabled (sorted by name)."""
        return [
            self.margos[name].tracer
            for name in sorted(self.margos)
            if self.margos[name].tracer is not None
        ]

    def profilers(self) -> list[Any]:
        """Profilers of every margo with profiling enabled (sorted by name)."""
        return [
            self.margos[name].profiler
            for name in sorted(self.margos)
            if self.margos[name].profiler is not None
        ]

    def xray_plane(self) -> Optional[Any]:
        """The kernel-shared mochi-xray plane, or ``None`` when no
        process enabled ``observability.xray``."""
        return getattr(self.kernel, "xray_plane", None)

    def chrome_trace(self, highlight_critical: bool = False) -> dict[str, Any]:
        """All spans cluster-wide as one Chrome trace-event document."""
        return _obs_exporters.chrome_trace(
            *self.tracers(), highlight_critical=highlight_critical
        )

    def dumps_chrome_trace(self, indent: int = 2) -> str:
        return _obs_exporters.dumps_chrome_trace(*self.tracers(), indent=indent)

    def metrics_snapshot(self) -> dict[str, Any]:
        """Every process's metrics registry, keyed by process name."""
        return _obs_exporters.metrics_snapshot(
            {name: margo.metrics for name, margo in self.margos.items()}
        )
