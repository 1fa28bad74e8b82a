"""Failure injection.

Implements the two fault classes the paper distinguishes (section 2.3,
"Resilience"):

* **transient failure** -- a service process crashes but its data is
  still available in node-local storage (``kill_process``);
* **permanent failure** -- a node dies and everything local to it is
  lost (``kill_node``).

Plus network partitions and probabilistic message loss (used by the SWIM
experiments).  All injections are regular simulated events, so a failure
schedule is part of the deterministic run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .kernel import SimKernel
from .network import Network, Node, Process

__all__ = ["FaultInjector", "FaultRecord"]


def _edge_label(a: Node | str, b: Node | str) -> str:
    """``"a|b"`` by node name, in the given order, whichever form came in."""
    return "|".join(n if isinstance(n, str) else n.name for n in (a, b))


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, for post-run inspection."""

    time: float
    kind: str  # "process", "node", "partition", "heal", "loss"
    target: str


class FaultInjector:
    """Injects crashes, node deaths, partitions, and loss into a network."""

    def __init__(self, kernel: SimKernel, network: Network) -> None:
        self.kernel = kernel
        self.network = network
        self.history: list[FaultRecord] = []
        #: Subscribers called with every :class:`FaultRecord` as it is
        #: injected (the health plane's flight recorder and incident log
        #: hang off this; empty by default, so injection stays cheap).
        self.on_fault: list[Callable[[FaultRecord], None]] = []

    def _record(self, kind: str, target: str) -> FaultRecord:
        record = FaultRecord(self.kernel.now, kind, target)
        self.history.append(record)
        for callback in list(self.on_fault):
            callback(record)
        return record

    # ------------------------------------------------------------------
    # immediate injections
    # ------------------------------------------------------------------
    def kill_process(self, proc: Process) -> None:
        """Transient failure: the process dies; node-local data survives."""
        if not proc.alive:
            return
        proc.alive = False
        self._record("process", proc.name)
        for callback in list(proc.on_killed):
            callback()

    def kill_node(self, node: Node) -> None:
        """Permanent failure: node dies, local data is wiped, processes die."""
        if not node.alive:
            return
        node.alive = False
        self._record("node", node.name)
        for store in node.attachments.values():
            wipe = getattr(store, "wipe", None)
            if callable(wipe):
                wipe()
        for proc in [p for p in self.network.processes.values() if p.node is node]:
            self.kill_process(proc)

    def partition(self, a: Node | str, b: Node | str) -> None:
        self.network.partition(a, b)
        self._record("partition", _edge_label(a, b))

    def heal(self, a: Node | str, b: Node | str) -> None:
        self.network.heal(a, b)
        self._record("heal", _edge_label(a, b))

    def set_message_loss(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        self.network.loss_probability = probability
        self._record("loss", f"{probability}")

    # ------------------------------------------------------------------
    # scheduled injections
    # ------------------------------------------------------------------
    def kill_process_at(self, delay: float, proc: Process) -> None:
        self.kernel.post(delay, self.kill_process, proc)

    def kill_node_at(self, delay: float, node: Node) -> None:
        self.kernel.post(delay, self.kill_node, node)

    def partition_at(self, delay: float, a: Node | str, b: Node | str) -> None:
        self.kernel.schedule(delay, lambda: self.partition(a, b))

    def heal_at(self, delay: float, a: Node | str, b: Node | str) -> None:
        self.kernel.schedule(delay, lambda: self.heal(a, b))
