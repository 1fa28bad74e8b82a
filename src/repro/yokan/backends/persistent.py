"""Persistent backend: ordered map over a node-local segment log.

"Most data managed by Mochi components resides in files stored in a
local storage device" (paper section 6).  This backend keeps the working
set in memory (like an LSM memtable + block cache) plus a *tail* of the
records changed since the last seal, and persists as the append-only
segment log of :mod:`repro.storage.segments` under a configured
``path``.  A flush writes only the tail; the segments are what REMI
migrates and what survives a process crash (transient failure).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...observability.health.slo import json_typed
from ...storage.local import LocalStore
from ...storage.segments import Segment, SegmentLog
from ..backend import YokanError, register_backend
from .ordered import OrderedBackend

__all__ = ["PersistentBackend"]


class PersistentBackend(OrderedBackend):
    """Ordered in-memory map over a segment log.

    Config keys:

    * ``path`` -- the database's name inside the local store (required);
    * ``store`` -- the :class:`LocalStore` instance (injected by the
      provider, which knows its node);
    * ``lineage`` -- which of the logs at ``path`` is this database's
      (injected by the provider); default: the one created last;
    * ``sync_on_put`` -- if true, the provider flushes after every
      mutating RPC (slow, durable); default false (call :meth:`flush`).
    """

    type_name = "persistent"

    def __init__(self, config: Optional[dict] = None) -> None:
        config = config or {}
        store = config.get("store")
        if not isinstance(store, LocalStore):
            raise YokanError(
                "persistent backend requires a 'store' (LocalStore) in its config"
            )
        path = config.get("path")
        if not path:
            raise YokanError("persistent backend requires a 'path' in its config")
        super().__init__()
        self.store: LocalStore = store
        self.path: str = path
        self.sync_on_put: bool = json_typed(config.get("sync_on_put", False), bool,
                                            "sync_on_put", YokanError)
        self.log = SegmentLog(store, path, config.get("lineage"))
        super().put_multi(self.log.replay().items())
        #: changed since the last seal: key -> value, ``None`` if erased.
        self._tail: dict[bytes, Optional[bytes]] = {}
        #: set by clear(): the changes are not known, seal the image.
        self._rebase = False

    # ---- mutations: one more dict store each -----------------------------
    def put(self, key: bytes, value: bytes) -> None:
        super().put(key, value)
        self._tail[key] = value

    def put_multi(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        if not isinstance(pairs, list):
            pairs = list(pairs)  # one-shot iterables feed both maps
        try:
            super().put_multi(pairs)
        except (TypeError, ValueError):
            # A malformed pair stopped the batch partway; what it stored
            # is not tracked, so the next seal writes the whole image.
            self._rebase = True
            raise
        self._tail.update(pairs)

    def erase(self, key: bytes) -> None:
        super().erase(key)
        self._tail[key] = None

    def clear(self) -> None:
        super().clear()
        self._tail.clear()
        self._rebase = True

    # ---- persistence ---------------------------------------------------
    def seal(self) -> Optional[Segment]:
        """Cut the tail into the next segment (not yet written); ``None``
        when nothing changed since the last seal."""
        if not self._tail and not self._rebase:
            return None
        segment = self.log.seal(None if self._rebase else self._tail.items(), self)
        self._tail, self._rebase = {}, False
        return segment

    def flush(self) -> int:
        """Seal and write at once; returns the bytes written."""
        segment = self.seal()
        if segment is None:
            return 0
        self.log.write(segment)
        return len(segment.data)

    def files(self) -> list[str]:
        """The live segments (local-store paths), oldest first."""
        return self.log.files()

    def load(self, data: bytes) -> None:
        super().load(data)
        self.flush()


register_backend("persistent", PersistentBackend)
