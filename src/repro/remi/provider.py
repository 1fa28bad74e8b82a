"""REMI provider: receives migrated files into the local store.

Two receive paths mirror the two transfer methods of the paper
(section 6, Observation 4):

* ``recv_file`` -- the file arrives via a one-sided bulk (RDMA) pull of
  the memory-mapped source file ("more efficient for large files");
* ``recv_chunk`` -- a packed chunk of (possibly many small) file pieces
  arrives inline in the RPC payload ("more efficient when sending
  multiple small files, since they can be packed together into larger
  chunks and the transfer of chunks can be pipelined").
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..analysis.race import hooks as _race
from ..config import json_typed
from ..core.component import Provider
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import Compute, UltSleep
from ..mercury import BULK_OP_PULL
from ..storage.local import LocalStore
from .fileset import RemiError

__all__ = ["RemiProvider"]

OP_BASE_COST = 300e-9
BYTES_PER_SECOND = 10e9


class RemiProvider(Provider):
    """Receives filesets into this process's node-local store.

    Config::

        {"store_attachment": "disk", "sync": true}

    ``sync``: when true (default) every received piece pays the storage
    write cost immediately; when false, data lands in memory/page cache
    and the cost is deferred (useful to isolate transfer-path costs).
    """

    component_type = "remi"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config=config)
        attachment = self.config.get("store_attachment", "disk")
        store = margo.process.node.attachments.get(attachment)
        if not isinstance(store, LocalStore):
            raise RemiError(
                f"REMI provider needs LocalStore attachment {attachment!r} "
                f"on node {margo.process.node.name}"
            )
        self.store: LocalStore = store
        self.sync = json_typed(self.config.get("sync", True), bool, "sync", RemiError)
        if _race.ENABLED:
            _race.track(self.store, f"remi:{name}.store")
        # Partially received files (chunked path): path -> (size, {offset: bytes}).
        self._partial: dict[str, tuple[int, dict[int, bytes]]] = {}
        self.files_received = self.bytes_received = 0
        for counter in ("files_received", "bytes_received"):
            margo.export(f"remi_{counter}{{provider={name}}}", self, counter)

        self.register_rpc("recv_file", self._on_recv_file)
        self.register_rpc("recv_chunk", self._on_recv_chunk)
        self.register_rpc("finalize", self._on_finalize)
        self.register_rpc("have", self._on_have)

    # ------------------------------------------------------------------
    def _on_recv_file(self, ctx: RequestContext) -> Generator:
        """RDMA path: pull the whole file from the source's mapped memory.

        Both endpoints memory-map, so source reads and destination
        writes stream concurrently with the fabric transfer; the slice
        costs the *maximum* of the three, not their sum.
        """
        args = ctx.args
        path = args["path"]
        bulk = args["bulk"]
        src_read_cost = float(args.get("src_read_cost", 0.0))
        wire = yield from self.margo.bulk_transfer(ctx.source, bulk.size, op=BULK_OP_PULL)
        overlapped = max(src_read_cost, self.store.write_cost(bulk.size) if self.sync else 0.0)
        if overlapped > wire:
            yield UltSleep(overlapped - wire)
        if _race.ENABLED:
            _race.note_write(self.store, path, f"remi:{self.name}.recv_file")
        self.store.write(path, bulk.data)
        self.files_received += 1
        self.bytes_received += bulk.size
        return bulk.size

    def _on_recv_chunk(self, ctx: RequestContext) -> Generator:
        """Chunked-RPC path: unpack pieces; assemble multi-chunk files."""
        pieces = ctx.args["pieces"]  # [(path, offset, total_size, data), ...]
        total = sum(len(data) for _, _, _, data in pieces)
        yield Compute(OP_BASE_COST * max(1, len(pieces)) + total / BYTES_PER_SECOND)
        if self.sync:
            yield UltSleep(self.store.write_cost(total))
        for path, offset, total_size, data in pieces:
            if offset == 0 and len(data) == total_size:
                if _race.ENABLED:
                    _race.note_write(self.store, path, f"remi:{self.name}.recv_chunk")
                self.store.write(path, data)
                self.files_received += 1
            else:
                # Pipelined chunks land pieces of the same file from
                # concurrent handler ULTs *by design*; assembly sorts by
                # offset, so the granularity that must be ordered is the
                # (path, offset) cell, not the whole file.
                if _race.ENABLED:
                    _race.note_write(
                        self.store, (path, offset), f"remi:{self.name}.recv_chunk"
                    )
                # A second offset-0 piece or another size: a new transfer.
                held = self._partial.get(path)
                if held is None or held[0] != total_size or (offset == 0 and 0 in held[1]):
                    held = self._partial[path] = (total_size, {})
                parts = held[1]
                parts[offset] = data
                have = sum(len(d) for d in parts.values())
                if have == total_size:
                    assembled = b"".join(parts[o] for o in sorted(parts))
                    if _race.ENABLED:
                        _race.note_write(
                            self.store, path, f"remi:{self.name}.assemble"
                        )
                    self.store.write(path, assembled)
                    del self._partial[path]
                    self.files_received += 1
            self.bytes_received += len(data)
        return total

    def _on_finalize(self, ctx: RequestContext) -> Generator:
        """End of a migration: totals, and any paths still partial."""
        yield Compute(OP_BASE_COST)
        summary: dict[str, Any] = {"files": self.files_received, "bytes": self.bytes_received}
        if self._partial:
            summary["partial"] = sorted(self._partial)
        return summary

    def _on_have(self, ctx: RequestContext) -> Generator:
        """Delta check: the offered (path, size) files this store holds."""
        files, store = ctx.args["files"], self.store
        yield Compute(OP_BASE_COST * max(1, len(files)))
        return [p for p, size in files if store.exists(p) and store.size_of(p) == size]

    # ------------------------------------------------------------------
    def get_config(self) -> dict[str, Any]:
        doc = dict(self.config)
        doc["sync"] = self.sync
        doc["statistics"] = {
            "files_received": self.files_received,
            "bytes_received": self.bytes_received,
        }
        return doc
