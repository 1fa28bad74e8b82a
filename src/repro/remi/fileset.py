"""Filesets: the unit REMI migrates.

"Migrating a resource from a node to another often comes down to
transferring files between two nodes" (paper section 6).  A
:class:`FileSet` names a group of files in one node-local store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..storage.local import LocalStore

__all__ = ["FileSet", "RemiError"]


class RemiError(RuntimeError):
    """Base class for REMI errors."""


@dataclass(init=False)
class FileSet:
    """A named set of paths inside a local store; ``loaded`` holds the
    bytes of those the caller already has in memory, read from there."""

    store: LocalStore
    paths: list[str] = field(default_factory=list)
    loaded: dict[str, bytes] = field(default_factory=dict)

    def __init__(
        self,
        store: LocalStore,
        paths: Optional[list[str]] = None,
        loaded: Optional[dict[str, bytes]] = None,
    ) -> None:
        self.store = store
        self.paths = [] if paths is None else paths
        self.loaded = {} if loaded is None else loaded
        missing = [p for p in self.paths if p not in self.loaded and not store.exists(p)]
        if missing:
            raise RemiError(f"fileset references missing files: {missing}")

    @classmethod
    def from_prefix(cls, store: LocalStore, prefix: str) -> "FileSet":
        return cls(store, store.list(prefix))

    @property
    def total_bytes(self) -> int:
        return sum(len(data) for _, data in self.read_all())

    @property
    def num_files(self) -> int:
        return len(self.paths)

    def read_all(self) -> list[tuple[str, bytes]]:
        return [(p, self.loaded[p] if p in self.loaded else self.store.read(p)) for p in self.paths]
