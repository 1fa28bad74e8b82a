"""Node-local storage.

"Most data managed by Mochi components resides in files stored in a
local storage device" (paper section 6).  A :class:`LocalStore` is such
a device, attached to a :class:`~repro.sim.network.Node`.  Its contents
survive *process* crashes (transient failures) but are wiped by *node*
death (permanent failures) -- the distinction at the heart of the
paper's resilience discussion (section 2.3).

I/O costs are exposed as ``*_cost(size)`` helpers; callers charge them
in ULT context (``yield UltSleep(store.write_cost(n))``), modelling a
device that does not occupy the CPU while transferring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..sim.network import Node

__all__ = ["LocalStore", "StorageError", "NoSuchFileError", "StorageCostModel"]


class StorageError(RuntimeError):
    """Base class for storage failures."""


class NoSuchFileError(StorageError, KeyError):
    """Path not found in the store."""


@dataclass(frozen=True)
class StorageCostModel:
    """Latency + bandwidth model for a storage device.

    Defaults approximate a datacenter NVMe SSD.
    """

    read_latency: float = 20e-6
    write_latency: float = 30e-6
    read_bandwidth: float = 3.2e9
    write_bandwidth: float = 1.8e9

    def read_time(self, size: int) -> float:
        return self.read_latency + size / self.read_bandwidth

    def write_time(self, size: int) -> float:
        return self.write_latency + size / self.write_bandwidth


class LocalStore:
    """A flat path -> bytes store on one node."""

    def __init__(self, node: Node, name: str = "disk", cost: Optional[StorageCostModel] = None) -> None:
        self.node = node
        self.name = name
        self.cost = cost or StorageCostModel()
        self._files: dict[str, bytes] = {}
        self.wiped = False
        node.attach(name, self)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def write(self, path: str, data: bytes) -> None:
        """Keep ``data``: an exact ``bytes`` by identity (writer and device
        share the one object), anything mutable as a copy."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"store holds bytes, got {type(data).__name__}")
        self._check_alive()
        self._files[path] = bytes(data)

    def read(self, path: str) -> bytes:
        self._check_alive()
        try:
            return self._files[path]
        except KeyError as err:
            raise NoSuchFileError(f"{self.node.name}:{path}") from err

    def delete(self, path: str) -> None:
        self._check_alive()
        if path not in self._files:
            raise NoSuchFileError(f"{self.node.name}:{path}")
        del self._files[path]

    def exists(self, path: str) -> bool:
        return path in self._files

    def size_of(self, path: str) -> int:
        return len(self.read(path))

    def list(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def total_bytes(self) -> int:
        return sum(len(v) for v in self._files.values())

    # ------------------------------------------------------------------
    # cost helpers
    # ------------------------------------------------------------------
    def read_cost(self, size: int) -> float:
        return self.cost.read_time(size)

    def write_cost(self, size: int) -> float:
        return self.cost.write_time(size)

    # ------------------------------------------------------------------
    # failure integration
    # ------------------------------------------------------------------
    def wipe(self) -> None:
        """Called by the fault injector on node death: all data is lost."""
        self._files.clear()
        self.wiped = True

    def _check_alive(self) -> None:
        if not self.node.alive:
            raise StorageError(f"node {self.node.name} is dead")
