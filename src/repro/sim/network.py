"""Simulated cluster topology and network.

Models the pieces of an HPC machine that the Mochi stack cares about:

* :class:`Node` -- a host with node-local storage attached later by
  :mod:`repro.storage`.
* :class:`Process` -- an OS process on a node; the unit that runs a Margo
  instance and that failures kill.
* :class:`Network` -- point-to-point message delivery with a per-transport
  cost model (:class:`NetworkConfig`), partitions, and probabilistic loss.

Transport selection mirrors Margo/Mercury behaviour described in the
paper (section 3.2): an RPC between a process and itself is a function
call, between processes on one node it uses shared memory, and across
nodes it uses the high-performance fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .kernel import SimKernel
from .random import RandomSource

__all__ = [
    "Transport",
    "LinkModel",
    "NetworkConfig",
    "Node",
    "Process",
    "Network",
    "AddressError",
]


class AddressError(ValueError):
    """Unknown or malformed process address."""


class Transport:
    """Transport kinds, ordered from cheapest to most expensive."""

    SELF = "self"
    SM = "sm"  # shared memory, same node
    RDMA = "rdma"  # one-sided fabric transfer (bulk path)
    FABRIC = "fabric"  # two-sided fabric messaging (RPC path)
    TCP = "tcp"


@dataclass(frozen=True)
class LinkModel:
    """Latency/bandwidth pair; transfer time is ``latency + size/bandwidth``."""

    latency: float  # seconds per message
    bandwidth: float  # bytes per second

    def time(self, size: int) -> float:
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        return self.latency + (size / self.bandwidth if size else 0.0)


@dataclass(frozen=True)
class NetworkConfig:
    """Cost model for all transports.

    Defaults approximate a Slingshot/InfiniBand-class HPC fabric with
    node-local shared memory, and a slower TCP path for comparison runs.
    """

    self_link: LinkModel = LinkModel(latency=50e-9, bandwidth=50e9)
    sm: LinkModel = LinkModel(latency=400e-9, bandwidth=12e9)
    fabric: LinkModel = LinkModel(latency=2.0e-6, bandwidth=10e9)
    rdma: LinkModel = LinkModel(latency=2.5e-6, bandwidth=12e9)
    tcp: LinkModel = LinkModel(latency=25e-6, bandwidth=1.2e9)
    # Per-RPC software overheads charged at each endpoint.
    send_overhead: float = 300e-9
    recv_overhead: float = 300e-9

    def __post_init__(self) -> None:
        # Once per config, not per message (not a field: eq ignores it).
        object.__setattr__(self, "_links", {
            Transport.SELF: self.self_link,
            Transport.SM: self.sm,
            Transport.FABRIC: self.fabric,
            Transport.RDMA: self.rdma,
            Transport.TCP: self.tcp,
        })

    def link(self, transport: str) -> LinkModel:
        try:
            return self._links[transport]
        except KeyError as err:
            raise AddressError(f"unknown transport {transport!r}") from err


class Node:
    """A simulated host.  Storage devices attach via ``attach(name, obj)``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True
        self.attachments: dict[str, Any] = {}

    def attach(self, name: str, obj: Any) -> None:
        self.attachments[name] = obj


class Process:
    """A simulated OS process.

    A raw listener is installed as :attr:`on_message` and reached through
    :meth:`deliver`, which drops what arrives after the process died.
    Routes post ``deliver``, so a listener that drops messages itself once
    its owner is down may replace it: Margo installs its progress loop's
    ``deliver``, and a kill finalizes that instance through ``on_killed``.
    ``on_killed`` callbacks let upper layers (Margo, Bedrock, SSG) tear
    down state when a fault kills the process.
    """

    def __init__(self, network: "Network", name: str, node: Node) -> None:
        self.network = network
        self.name = name
        self.node = node
        self.alive = True
        self.address = f"na+ofi://{node.name}/{name}"
        self.on_message: Optional[Callable[[Any], None]] = None
        self.on_killed: list[Callable[[], None]] = []
        #: Destination address -> resolved route (:meth:`Network.route`),
        #: Mercury's looked-up ``hg_addr_t``; emptied on topology change.
        self.routes: dict[str, tuple] = {}

    def deliver(self, payload: Any) -> None:
        if not self.alive:
            return
        if self.on_message is None:
            raise RuntimeError(f"process {self.name} has no message handler")
        self.on_message(payload)


class Network:
    """Message fabric connecting every :class:`Process` in the simulation."""

    def __init__(
        self,
        kernel: SimKernel,
        config: Optional[NetworkConfig] = None,
        randomness: Optional[RandomSource] = None,
    ) -> None:
        self.kernel = kernel
        self.config = config or NetworkConfig()
        self.randomness = randomness or RandomSource(0)
        self._loss_rng = self.randomness.stream("network.loss")
        self.nodes: dict[str, Node] = {}
        self.processes: dict[str, Process] = {}
        self._partitions: set[frozenset[str]] = set()
        self.loss_probability = 0.0
        # Counters used by benchmarks and tests.
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(name)
        self.nodes[name] = node
        return node

    def add_process(self, name: str, node: Node | str) -> Process:
        if isinstance(node, str):
            node = self.nodes[node]
        if name in (p.name for p in self.processes.values()):
            raise ValueError(f"duplicate process name {name!r}")
        proc = Process(self, name, node)
        self.processes[proc.address] = proc
        self._forget_routes()
        return proc

    def lookup(self, address: str) -> Process:
        try:
            return self.processes[address]
        except KeyError as err:
            raise AddressError(f"unknown address {address!r}") from err

    def remove_process(self, proc: Process) -> None:
        """Forget a dead process entirely (permanent failure)."""
        self.processes.pop(proc.address, None)
        self._forget_routes()

    def _forget_routes(self) -> None:
        for proc in self.processes.values():
            proc.routes.clear()

    # ------------------------------------------------------------------
    # transport model
    # ------------------------------------------------------------------
    def transport_between(self, src: Process, dst: Process) -> str:
        if src is dst:
            return Transport.SELF
        if src.node is dst.node:
            return Transport.SM
        return Transport.FABRIC

    def transfer_time(self, src: Process, dst: Process, size: int, bulk: bool = False) -> float:
        """Pure cost-model query (no message is sent)."""
        transport = self.transport_between(src, dst)
        if bulk and transport == Transport.FABRIC:
            transport = Transport.RDMA
        return self.config.link(transport).time(size)

    def route(self, src: Process, address: str) -> Optional[tuple]:
        """Resolve ``src``'s route to ``address`` into ``src.routes``:
        ``(dst, rpc latency, rpc bandwidth, bulk latency, bulk bandwidth,
        cross_node, dst.deliver)`` -- the receiver's own listener when it
        installed one as ``deliver``; None, and nothing cached, for an
        unknown address.  Callers try ``src.routes`` first."""
        dst = self.processes.get(address)
        if dst is None:
            return None
        transport = self.transport_between(src, dst)
        rpc = self.config.link(transport)
        bulk = self.config.link(Transport.RDMA if transport == Transport.FABRIC else transport)
        route = src.routes[address] = (
            dst, rpc.latency, rpc.bandwidth, bulk.latency, bulk.bandwidth,
            src.node is not dst.node, dst.deliver,
        )
        return route

    # ------------------------------------------------------------------
    # partitions / loss
    # ------------------------------------------------------------------
    def partition(self, a: Node | str, b: Node | str) -> None:
        self._partitions.add(self._edge(a, b))

    def heal(self, a: Node | str, b: Node | str) -> None:
        self._partitions.discard(self._edge(a, b))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, a: Node, b: Node) -> bool:
        return frozenset((a.name, b.name)) in self._partitions

    def _edge(self, a: Node | str, b: Node | str) -> frozenset[str]:
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        return frozenset((name_a, name_b))

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: Process, dst_address: str, payload: Any, size: int) -> bool:
        """Fire-and-forget message send.

        Returns ``True`` if the message was put on the wire (it may still
        be dropped by loss, partition, or receiver death before delivery)
        and ``False`` when the destination is not even known.  A negative
        ``size`` is refused before anything is counted.
        """
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        self.messages_sent += 1
        self.bytes_sent += size
        route = src.routes.get(dst_address) or self.route(src, dst_address)
        if route is None or not src.alive:
            self.messages_dropped += 1
            return False
        dst, latency, bandwidth, _, _, cross_node, deliver = route
        if cross_node and self._partitions and self.is_partitioned(src.node, dst.node):
            self.messages_dropped += 1
            return True
        if self.loss_probability > 0 and src is not dst:
            if self._loss_rng.random() < self.loss_probability:
                self.messages_dropped += 1
                return True
        # LinkModel.time's expression, term for term: simulated times
        # stay bit-identical to transfer_time's.
        delay = (latency + (size / bandwidth if size else 0.0)) + self.config.send_overhead
        self.kernel.post(delay, deliver, payload)
        return True
