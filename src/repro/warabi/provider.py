"""Warabi provider: the blob-storage component (paper section 3.2).

Manages named blob *targets*: clients create blobs, then read/write byte
ranges.  Like Yokan, backends are pluggable (``memory`` or
``persistent``), large transfers use the bulk path, and the provider
implements the dynamic-service hooks.

A blob is one immutable ``bytes`` value shared by reference (client ->
bulk handle -> ``_blobs`` -> ``LocalStore`` hold the *same* object); a
write replaces it at its commit point, with no yield between reading the
old value and storing the new one, so a reader never sees it torn.
"""

from __future__ import annotations

import json
from typing import Any, Generator, Optional

from ..analysis.race import hooks as _race
from ..core.component import Provider
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import UltSleep
from ..mercury import BULK_OP_PULL, BULK_OP_PUSH, BulkHandle
from ..observability.health.slo import json_typed
from ..storage.local import LocalStore
from ..storage.segments import decode_records, encode_records

__all__ = ["WarabiProvider", "WarabiError", "NoSuchBlobError"]

OP_BASE_COST = 300e-9
BYTES_PER_SECOND = 10e9
DEFAULT_BULK_THRESHOLD = 8192


class WarabiError(RuntimeError):
    """Base class for Warabi errors."""


class NoSuchBlobError(WarabiError, KeyError):
    def __init__(self, blob_id: int) -> None:
        super().__init__(blob_id)
        self.blob_id = blob_id

    def __str__(self) -> str:
        return f"no such blob: {self.blob_id}"


class WarabiProvider(Provider):
    """Manages one blob target.

    Config::

        {"target": {"type": "memory" | "persistent"}, "bulk_threshold": 8192}
    """

    component_type = "warabi"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config=config)
        target = dict(self.config.get("target", {}))
        self.target_type = target.get("type", "memory")
        if self.target_type not in ("memory", "persistent"):
            raise WarabiError(f"unknown target type {self.target_type!r}")
        self.store: Optional[LocalStore] = None
        if self.target_type == "persistent":
            attachment = target.get("store_attachment", "disk")
            store = margo.process.node.attachments.get(attachment)
            if not isinstance(store, LocalStore):
                raise WarabiError(
                    f"persistent target needs LocalStore attachment {attachment!r}"
                )
            self.store = store
        threshold = self.config.get("bulk_threshold", DEFAULT_BULK_THRESHOLD)
        self.bulk_threshold = json_typed(threshold, int, "bulk_threshold", WarabiError)
        self._blobs: dict[int, bytes] = {}
        self._next_id = 0
        if self.store is not None:
            self._load_persisted()
        if _race.ENABLED:
            _race.track(self._blobs, f"warabi:{name}.blobs")

        self.register_rpc("create", self._on_create)
        self.register_rpc("write", self._on_write)
        self.register_rpc("read", self._on_read)
        self.register_rpc("size", self._on_size)
        self.register_rpc("erase", self._on_erase)
        self.register_rpc("list", self._on_list)

    # ------------------------------------------------------------------
    def _blob(self, blob_id: int) -> bytes:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise NoSuchBlobError(blob_id) from None

    def _blob_path(self, blob_id: int) -> str:
        return f"warabi/{self.name}/{blob_id}"

    def _meta_path(self) -> str:
        return f"warabi/{self.name}/meta"

    def _persist(self, blob_id: int) -> Generator:
        if self.store is not None:
            yield UltSleep(self.store.write_cost(len(self._blobs[blob_id])))
            # Charged on the length before the sleep, written with the
            # value current after it: a write that lands meanwhile goes
            # out here and again from its own _persist, and a blob erased
            # meanwhile leaves no file.
            if blob_id in self._blobs:
                self.store.write(self._blob_path(blob_id), self._blobs[blob_id])
        return None

    def _persist_meta(self) -> Generator:
        """Write the id-counter sidecar next to the blob files.

        The counter is authoritative state, not derivable from the
        surviving blobs: after erasing the highest-id blob,
        ``max(ids) + 1`` would re-issue an id a client may still hold.
        The sidecar travels with ``local_files()`` so a REMI migration
        carries it.
        """
        if self.store is not None:
            doc = json.dumps({"next_id": self._next_id}).encode()
            yield UltSleep(self.store.write_cost(len(doc)))
            self.store.write(self._meta_path(), doc)
        return None

    def _load_persisted(self) -> None:
        """Rebuild blobs + id counter from the local store (constructor
        path: how the destination provider of a migration comes up over
        the files REMI just landed)."""
        assert self.store is not None
        next_id = 0
        for path in self.store.list(f"warabi/{self.name}/"):
            leaf = path.rsplit("/", 1)[-1]
            if leaf == "meta":
                try:
                    next_id = max(next_id, int(json.loads(self.store.read(path))["next_id"]))
                except (ValueError, KeyError, TypeError):
                    pass
                continue
            try:
                blob_id = int(leaf)
            except ValueError:
                continue
            self._blobs[blob_id] = self.store.read(path)
        self._next_id = max(next_id, max(self._blobs, default=-1) + 1)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _on_create(self, ctx: RequestContext) -> Generator:
        size = int((ctx.args or {}).get("size", 0))
        if size < 0:
            raise WarabiError(f"negative blob size: {size}")
        yield OP_BASE_COST
        blob_id = self._next_id
        self._next_id += 1
        if _race.ENABLED:
            # The id counter is itself shared state: unordered creates
            # hand out schedule-dependent blob ids.
            _race.note_write(self._blobs, "next_id", f"warabi:{self.name}.create")
            _race.note_write(self._blobs, blob_id, f"warabi:{self.name}.create")
        self._blobs[blob_id] = bytes(size)
        yield from self._persist(blob_id)
        yield from self._persist_meta()
        return blob_id

    def _on_write(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        blob_id = args["id"]
        offset = args.get("offset", 0)
        bulk = args.get("bulk")
        if bulk is not None:
            yield from self.margo.bulk_transfer(ctx.source, bulk.size, op=BULK_OP_PULL)
            data = bulk.data
        else:
            data = args["data"]
        self._blob(blob_id)  # existence check
        if offset < 0:
            raise WarabiError(f"negative offset: {offset}")
        yield OP_BASE_COST + len(data) / BYTES_PER_SECOND
        # Commit point: an erase or another write may have landed meanwhile.
        old = self._blob(blob_id)
        if _race.ENABLED:
            _race.note_write(self._blobs, blob_id, f"warabi:{self.name}.write")
        end = offset + len(data)
        if offset == 0 and end >= len(old):
            self._blobs[blob_id] = bytes(data)  # the received object itself
        else:
            head = old[:offset].ljust(offset, b"\x00")
            self._blobs[blob_id] = b"".join((head, data, old[end:]))
        yield from self._persist(blob_id)
        return len(data)

    def _on_read(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        blob = self._blob(args["id"])
        if _race.ENABLED:
            _race.note_read(self._blobs, args["id"], f"warabi:{self.name}.read")
        offset = args.get("offset", 0)
        size = args.get("size")
        if size is None:
            size = len(blob) - offset
        if offset < 0 or size < 0 or offset + size > len(blob):
            raise WarabiError(
                f"read out of range: offset={offset} size={size} blob={len(blob)}"
            )
        yield OP_BASE_COST + size / BYTES_PER_SECOND
        data = blob[offset : offset + size]  # the whole blob: the stored object
        if self.store is not None:
            yield UltSleep(self.store.read_cost(size))
        if len(data) >= self.bulk_threshold:
            yield from self.margo.bulk_transfer(ctx.source, len(data), op=BULK_OP_PUSH)
            return BulkHandle(self.margo.address, len(data), data)
        return data

    def _on_size(self, ctx: RequestContext) -> Generator:
        yield OP_BASE_COST
        if _race.ENABLED:
            _race.note_read(self._blobs, ctx.args["id"], f"warabi:{self.name}.size")
        return len(self._blob(ctx.args["id"]))

    def _on_erase(self, ctx: RequestContext) -> Generator:
        blob_id = ctx.args["id"]
        self._blob(blob_id)  # existence check
        yield OP_BASE_COST
        if _race.ENABLED:
            _race.note_write(self._blobs, blob_id, f"warabi:{self.name}.erase")
        self._blob(blob_id)  # an erase that raced this one may have won
        del self._blobs[blob_id]
        if self.store is not None and self.store.exists(self._blob_path(blob_id)):
            self.store.delete(self._blob_path(blob_id))
        return None

    def _on_list(self, ctx: RequestContext) -> Generator:
        yield OP_BASE_COST
        return sorted(self._blobs)

    # ------------------------------------------------------------------
    # dynamic-service hooks
    # ------------------------------------------------------------------
    def local_files(self) -> list[str]:
        if self.store is None:
            return []
        return self.store.list(f"warabi/{self.name}/")

    def get_config(self) -> dict[str, Any]:
        doc = dict(self.config)
        doc["target"] = {"type": self.target_type}
        doc["statistics"] = {
            "num_blobs": len(self._blobs),
            "size_bytes": sum(len(b) for b in self._blobs.values()),
        }
        return doc

    def migrate(self, remi_client: Any, dest_address: str, dest_provider_id: int) -> Generator:
        if self.store is None:
            raise WarabiError("migration requires a persistent target")
        for blob_id in self._blobs:
            yield from self._persist(blob_id)
        yield from self._persist_meta()
        result = yield from remi_client.migrate_files(
            dest_address, self.local_files(), dest_provider_id=dest_provider_id
        )
        return result

    #: reserved (non-numeric) record key carrying the id counter in a
    #: checkpoint image; blob records use their decimal id as the key.
    _META_KEY = b"meta"

    def checkpoint(self, pfs: Any, path: str) -> Generator:
        records = [
            (self._META_KEY, json.dumps({"next_id": self._next_id}).encode())
        ]
        records.extend(
            (str(blob_id).encode(), blob)
            for blob_id, blob in sorted(self._blobs.items())
        )
        image = encode_records(records)
        yield UltSleep(pfs.write_cost(len(image)))
        pfs.write(path, image)
        return len(image)

    def restore(self, pfs: Any, path: str) -> Generator:
        image = pfs.read(path)
        yield UltSleep(pfs.read_cost(len(image)))
        blobs: dict[int, bytes] = {}
        next_id = 0
        for key, value in decode_records(image):
            if key == self._META_KEY:
                next_id = int(json.loads(value)["next_id"])
                continue
            blobs[int(key)] = value
        self._blobs = blobs
        # Pre-sidecar images have no meta record: fall back to the old
        # derivation rather than refusing to restore.
        self._next_id = max(next_id, max(self._blobs, default=-1) + 1)
        return len(image)
