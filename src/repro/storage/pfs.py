"""A shared parallel file system.

"Just as data services complement parallel file systems, parallel file
systems can support specialized Mochi-based services by storing
checkpoints in a way that makes them accessible from any node" (paper
section 7, Observation 9).  :class:`ParallelFileSystem` is that shared
namespace: slower than node-local storage, but it survives node death
and is readable from every node.
"""

from __future__ import annotations

from typing import Optional

from .local import NoSuchFileError, StorageCostModel, StorageError

__all__ = ["ParallelFileSystem"]

#: Default PFS cost model: high latency (metadata round trips), decent
#: streaming bandwidth shared across the machine.
PFS_COST = StorageCostModel(
    read_latency=1e-3,
    write_latency=2e-3,
    read_bandwidth=2.0e9,
    write_bandwidth=1.0e9,
)


class ParallelFileSystem:
    """A globally accessible path -> bytes namespace."""

    def __init__(self, name: str = "pfs", cost: Optional[StorageCostModel] = None) -> None:
        self.name = name
        self.cost = cost or PFS_COST
        self._files: dict[str, bytes] = {}

    # ------------------------------------------------------------------
    def write(self, path: str, data: bytes) -> None:
        """Keep ``data``: an exact ``bytes`` by identity, else a copy."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"PFS holds bytes, got {type(data).__name__}")
        self._files[path] = bytes(data)

    def read(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError as err:
            raise NoSuchFileError(f"{self.name}:{path}") from err

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise NoSuchFileError(f"{self.name}:{path}")
        del self._files[path]

    def exists(self, path: str) -> bool:
        return path in self._files

    def list(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def total_bytes(self) -> int:
        return sum(len(v) for v in self._files.values())

    # ------------------------------------------------------------------
    def read_cost(self, size: int) -> float:
        return self.cost.read_time(size)

    def write_cost(self, size: int) -> float:
        return self.cost.write_time(size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ParallelFileSystem {self.name} files={len(self._files)}>"
