"""Yokan provider: the server side of the key-value component.

Follows the Fig. 1 anatomy: configured from JSON, backend-agnostic,
RPCs registered under its provider id in its pool.  Values above
``bulk_threshold`` move over the one-sided bulk (RDMA) path instead of
inline RPC payloads, as Mercury-based services do.

Implements the dynamic-service hooks: ``migrate`` (via REMI, paper
section 6), ``checkpoint``/``restore`` (via the parallel file system,
paper section 7 Observation 9).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..analysis.race import hooks as _race
from ..config import json_typed
from ..core.component import Provider
from ..core.parallel import ParallelError, parallel
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import UltSleep
from ..mercury import BULK_OP_PULL, BULK_OP_PUSH, BulkHandle
from ..storage.local import LocalStore
from ..storage.segments import (Segment, checkpoint_files, checkpoint_image, lineage_of,
                                newest_lineage)
from . import backends as _backends  # noqa: F401 - registers built-ins
from .backend import Batch, KVBackend, YokanError, _to_bytes, create_backend

__all__ = ["YokanProvider", "OP_BASE_COST", "BYTES_PER_SECOND"]

#: CPU cost of one key-value operation (hashing, lookup, allocator).
OP_BASE_COST = 300e-9
#: Memory bandwidth for copying keys/values inside the provider.
BYTES_PER_SECOND = 10e9

#: Values at or above this many bytes use the bulk path by default.
DEFAULT_BULK_THRESHOLD = 8192


def _op_cost(nbytes: int) -> float:
    return OP_BASE_COST + nbytes / BYTES_PER_SECOND


class YokanProvider(Provider):
    """Manages one key-value database and serves it over RPC."""

    component_type = "yokan"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config=config)
        db_config = dict(self.config.get("database", {}))
        backend_type = db_config.pop("type", "map")
        if backend_type == "persistent":
            attachment = db_config.get("store_attachment", "disk")
            store = margo.process.node.attachments.get(attachment)
            if not isinstance(store, LocalStore):
                raise YokanError(
                    f"persistent database needs LocalStore attachment "
                    f"{attachment!r} on node {margo.process.node.name}"
                )
            db_config.setdefault("path", f"yokan/{name}.db")
            db_config["store"] = store
            # A migrated copy names its lineage (and carries it on).
            db_config.setdefault("lineage", newest_lineage(store, db_config["path"])
                                 or lineage_of(margo.process.name, margo.kernel.now))
            self.config["database"] = dict(self.config["database"], lineage=db_config["lineage"])
        self.backend: KVBackend = create_backend(backend_type, db_config)
        self.backend_type = backend_type
        if _race.ENABLED:
            _race.track(self.backend, f"yokan:{name}.db")
        threshold = self.config.get("bulk_threshold", DEFAULT_BULK_THRESHOLD)
        self.bulk_threshold = json_typed(threshold, int, "bulk_threshold", YokanError)

        self.register_rpc("put", self._on_put)
        self.register_rpc("get", self._on_get)
        self.register_rpc("erase", self._on_erase)
        self.register_rpc("exists", self._on_exists)
        self.register_rpc("count", self._on_count)
        self.register_rpc("list_keys", self._on_list_keys)
        self.register_rpc("put_multi", self._on_put_multi)
        self.register_rpc("get_multi", self._on_get_multi)
        self.register_rpc("flush", self._on_flush)
        self.register_rpc("fetch_image", self._on_fetch_image)
        self.register_rpc("erase_matching", self._on_erase_matching)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _extract_value(self, ctx: RequestContext, args: dict) -> Generator:
        """Get the value from inline args or via the bulk path."""
        bulk = args.get("bulk")
        if bulk is not None:
            yield from self.margo.bulk_transfer(ctx.source, bulk.size, op=BULK_OP_PULL)
            return bulk.data
        return args["value"]

    def _on_put(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        key = args["key"]
        value = yield from self._extract_value(ctx, args)
        if type(key) is not bytes or type(value) is not bytes:
            key, value = _to_bytes(key), _to_bytes(value)
        yield _op_cost(len(key) + len(value))
        if _race.ENABLED:
            _race.note_write(self.backend, key, f"yokan:{self.name}.put")
        self.backend.put(key, value)
        yield from self._maybe_sync()
        return None

    def _on_get(self, ctx: RequestContext) -> Generator:
        key = ctx.args["key"]
        key = key if type(key) is bytes else _to_bytes(key)
        yield _op_cost(len(key))
        if _race.ENABLED:
            _race.note_read(self.backend, key, f"yokan:{self.name}.get")
        value = self.backend.get(key)
        yield len(value) / BYTES_PER_SECOND
        if len(value) >= self.bulk_threshold:
            yield from self.margo.bulk_transfer(ctx.source, len(value), op=BULK_OP_PUSH)
            return BulkHandle(self.margo.address, len(value), value)
        return value

    def _on_erase(self, ctx: RequestContext) -> Generator:
        key = ctx.args["key"]
        key = key if type(key) is bytes else _to_bytes(key)
        yield _op_cost(len(key))
        if _race.ENABLED:
            _race.note_write(self.backend, key, f"yokan:{self.name}.erase")
        self.backend.erase(key)
        yield from self._maybe_sync()
        return None

    def _on_exists(self, ctx: RequestContext) -> Generator:
        key = ctx.args["key"]
        key = key if type(key) is bytes else _to_bytes(key)
        yield _op_cost(len(key))
        if _race.ENABLED:
            _race.note_read(self.backend, key, f"yokan:{self.name}.exists")
        return self.backend.exists(key)

    def _on_count(self, ctx: RequestContext) -> Generator:
        yield OP_BASE_COST
        return self.backend.count()

    def _on_list_keys(self, ctx: RequestContext) -> Generator:
        args = ctx.args or {}
        prefix = args.get("prefix", b"")
        start_after = args.get("start_after")
        max_keys = args.get("max_keys", 0)
        if max_keys < 0:
            raise YokanError(f"max_keys must be 0 (no limit) or positive, got {max_keys}")
        yield OP_BASE_COST
        keys = self.backend.list_keys(prefix, start_after, max_keys)
        total = sum(map(len, keys))
        yield total / BYTES_PER_SECOND
        return Batch(keys).measured(total)

    def _on_put_multi(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        bulk = args.get("bulk")
        if bulk is not None:
            # Batch arrived via the bulk path: ``data`` is the client's
            # own batch, ``size`` what its record stream occupies.
            yield from self.margo.bulk_transfer(ctx.source, bulk.size, op=BULK_OP_PULL)
            pairs = bulk.data
        else:
            pairs = args["pairs"]
        if type(pairs) is not Batch:
            pairs = Batch.of_pairs(pairs)  # from a sender other than DatabaseHandle
        if _race.ENABLED:
            for key, _value in pairs:
                _race.note_write(self.backend, key, f"yokan:{self.name}.put_multi")
        self.backend.put_multi(pairs)
        yield OP_BASE_COST * max(1, len(pairs)) + pairs.nbytes / BYTES_PER_SECOND
        yield from self._maybe_sync()
        return None

    def _on_get_multi(self, ctx: RequestContext) -> Generator:
        keys = ctx.args["keys"]
        if type(keys) is not Batch:
            keys = Batch.of_keys(keys)
        yield OP_BASE_COST * max(1, len(keys))
        if _race.ENABLED:
            for key in keys:
                _race.note_read(self.backend, key, f"yokan:{self.name}.get_multi")
        values = self.backend.get_multi(keys)
        total = sum(map(len, values))
        yield total / BYTES_PER_SECOND
        if total >= self.bulk_threshold:
            size = 8 * len(keys) + keys.nbytes + total  # the (key, value) record stream
            yield from self.margo.bulk_transfer(ctx.source, size, op=BULK_OP_PUSH)
            return BulkHandle(self.margo.address, size, values)
        return Batch(values).measured(total)

    def _on_erase_matching(self, ctx: RequestContext) -> Generator:
        """Erase all keys with ``prefix`` and (optionally) ``suffix``.

        Supports retention policies (e.g. dropping raw products after a
        filtering pass) without a round trip per key."""
        args = ctx.args or {}
        prefix = args.get("prefix", b"")
        suffix = args.get("suffix", b"")
        victims = [
            k
            for k in self.backend.list_keys(prefix=prefix)
            if not suffix or k.endswith(suffix)
        ]
        if _race.ENABLED:
            for key in victims:
                _race.note_write(self.backend, key, f"yokan:{self.name}.erase_matching")
        erased_bytes = 0
        for key in victims:
            erased_bytes += len(key) + len(self.backend.get(key))
            self.backend.erase(key)
        yield OP_BASE_COST * max(1, len(victims)) + erased_bytes / BYTES_PER_SECOND
        yield from self._maybe_sync()
        return len(victims)

    def _on_flush(self, ctx: RequestContext) -> Generator:
        yield from self._flush_backend()
        return None

    def _on_fetch_image(self, ctx: RequestContext) -> Generator:
        """Serve the full database image over the bulk path (used by
        virtual-database resync and top-down recovery)."""
        if _race.ENABLED:
            for key in self.backend.list_keys():
                _race.note_read(self.backend, key, f"yokan:{self.name}.fetch_image")
        image = self.backend.dump()
        yield _op_cost(len(image))
        yield from self.margo.bulk_transfer(ctx.source, len(image), op=BULK_OP_PUSH)
        return BulkHandle(self.margo.address, len(image), image)

    # ------------------------------------------------------------------
    # persistence helpers
    # ------------------------------------------------------------------
    def _maybe_sync(self) -> Generator:
        if getattr(self.backend, "sync_on_put", False):
            yield from self._flush_backend()
        return None

    def _flush_backend(self) -> Generator:
        """Seal the changes since the last flush, sleep for the bytes,
        write them: one store write, charged at its length.  A mutation
        during the sleep goes to the next segment; one sealed before and
        still asleep is written first, so the store holds a log prefix."""
        seal = getattr(self.backend, "seal", None)
        if seal is None:
            return 0  # memory backend
        segment = seal()
        yield from self._write_sealed(segment)
        return len(segment.data) if segment is not None else 0

    def _write_sealed(self, segment: Optional[Segment]) -> Generator:
        """Sleep for a sealed segment's bytes, then write it."""
        if segment is not None:
            store = self.backend.store  # type: ignore[attr-defined]
            yield UltSleep(store.write_cost(len(segment.data)))
        self.backend.log.write(segment)  # type: ignore[attr-defined]

    def local_files(self) -> list[str]:
        """Local-store paths holding this provider's persistent state."""
        files = getattr(self.backend, "files", None)
        return files() if files is not None else []

    # ------------------------------------------------------------------
    # dynamic-service hooks
    # ------------------------------------------------------------------
    def get_config(self) -> dict[str, Any]:
        doc = dict(self.config)
        doc["database"] = dict(doc.get("database", {}))
        doc["database"]["type"] = self.backend_type
        doc["statistics"] = {
            "count": self.backend.count(),
            "size_bytes": self.backend.size_bytes(),
        }
        return doc

    def migrate(self, remi_client: Any, dest_address: str, dest_provider_id: int) -> Generator:
        """Seal, then write the segment locally while shipping the live
        segments the destination lacks (by name and size); the one just
        sealed travels from memory, so neither waits for the other.

        REMI moves the files; the caller (Bedrock) is responsible for
        instantiating the destination provider over them and destroying
        this one (paper section 6: "the migration of a component can be
        reduced to the migration of its files to a new location...").
        """
        log = getattr(self.backend, "log", None)
        if log is None:
            raise YokanError("migration requires a persistent database")
        segment = self.backend.seal()  # type: ignore[attr-defined]

        def ship() -> Generator:
            held = yield from remi_client.have(
                dest_address, log.files(), dest_provider_id=dest_provider_id
            )
            # Listed after the check: a compaction meanwhile retires files.
            live = [(name, data) for name, data in log.live() if name not in held]
            report = yield from remi_client.migrate_files(
                dest_address, [name for name, _ in live], dest_provider_id=dest_provider_id,
                loaded={name: data for name, data in live if data is not None},
            )
            return report

        try:
            _, report = yield from parallel(self.margo, [self._write_sealed(segment), ship()])
        except ParallelError as err:
            raise err.errors[0][1]
        return report

    def checkpoint(self, pfs: Any, path: str) -> Generator:
        """Copy the segments the PFS lacks and the unsealed changes; no
        seal, so the next migration's segment stays whole."""
        files = checkpoint_files(self.backend, path, pfs)
        size = sum(len(data) for _, data in files)
        yield UltSleep(pfs.write_cost(size))
        for name, data in files:
            pfs.write(name, data)
        return size

    def restore(self, pfs: Any, path: str) -> Generator:
        image, size = checkpoint_image(pfs.read(path), pfs.read)
        yield UltSleep(pfs.read_cost(size))
        self.backend.replace(image.items())
        yield from self._flush_backend()  # persistent: one image segment
        return size
