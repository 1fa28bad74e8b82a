"""A ProxyStore-shaped object store composed from Mochi components.

The client surface is the one ProxyStore's ``MargoConnector`` offers
(SNIPPETS.md section 1): ``put`` / ``get`` / ``exists`` / ``evict`` of
byte objects addressed by a key.  Nothing here is in ``src/repro``: the
store is *composition* -- metadata in Yokan, payload in Warabi, both
booted by Bedrock from a Listing-3 document -- which is exactly what the
paper says a Mochi service is.

* key -> shard by CRC-32, one Yokan database (``persistent`` backend)
  and one Warabi target (``persistent``) per shard;
* objects of at most :data:`INLINE_MAX` bytes live inside the metadata
  record; larger ones go to a Warabi blob and the record points at it
  (and travels over the bulk path from 8 KiB up);
* a :class:`Directory` maps shards to providers.  Clients resolve
  through it on every operation, so a migrated shard is found at its
  new address; while a shard moves its writers wait at a gate and its
  readers retry once the move is published.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Generator, Optional

from repro.margo.errors import NoSuchRpcError
from repro.margo.ult import UltEvent
from repro.warabi import WarabiClient
from repro.yokan import YokanClient

INLINE_MAX = 1024
MAX_RESOLVE_RETRIES = 8

YOKAN_PROVIDER_BASE = 10  # shard s is Yokan provider 10 + s wherever it runs
WARABI_PROVIDER_ID = 1
REMI_PROVIDER_ID = 0

_INLINE = b"I"
_BLOB = b"B"
_BLOB_RECORD = struct.Struct("<HQQ")  # warabi shard, blob id, size


def shard_of(key: bytes, shards: int) -> int:
    return zlib.crc32(key) % shards


def server_document(
    index: int,
    margo_doc: dict[str, Any],
    with_shard: bool = True,
    with_remi: bool = False,
) -> dict[str, Any]:
    """Listing-3 document of storage server ``index``."""
    libraries = {"yokan": "libyokan.so", "warabi": "libwarabi.so"}
    providers: list[dict[str, Any]] = []
    if with_remi:
        libraries["remi"] = "libremi.so"
        providers.append(
            {"name": "mover", "type": "remi", "provider_id": REMI_PROVIDER_ID, "pool": "rpc"}
        )
    if with_shard:
        providers.append(
            {
                "name": f"meta{index}",
                "type": "yokan",
                "provider_id": YOKAN_PROVIDER_BASE + index,
                "pool": "rpc",
                "config": {"database": {"type": "persistent"}},
            }
        )
        providers.append(
            {
                "name": f"blob{index}",
                "type": "warabi",
                "provider_id": WARABI_PROVIDER_ID,
                "pool": "rpc",
                "config": {"target": {"type": "persistent"}},
            }
        )
    return {"margo": margo_doc, "libraries": libraries, "providers": providers}


class Directory:
    """Where each shard's providers run; shared by every client.

    Stands in for the group-membership view (SSG) a real deployment
    would consult.  ``begin_move`` closes the shard's write gate and
    ``publish`` reopens it at the new address.
    """

    def __init__(self, kernel: Any, meta: list[str], blobs: list[str]) -> None:
        self.kernel = kernel
        self.meta_address = list(meta)
        self.blob_address = list(blobs)
        self.shards = len(meta)
        self._gate: list[Optional[UltEvent]] = [None] * self.shards
        self._writers = [0] * self.shards
        self._drained: list[Optional[UltEvent]] = [None] * self.shards

    # -- used by the store ---------------------------------------------
    def wait_writable(self, shard: int) -> Generator:
        gate = self._gate[shard]
        while gate is not None:
            yield from gate.wait()
            gate = self._gate[shard]

    def wait_moved(self, shard: int) -> Generator:
        """Park until the move in flight on ``shard`` is published."""
        gate = self._gate[shard]
        if gate is not None:
            yield from gate.wait()

    def writer_enter(self, shard: int) -> None:
        self._writers[shard] += 1

    def writer_exit(self, shard: int) -> None:
        self._writers[shard] -= 1
        drained = self._drained[shard]
        if drained is not None and self._writers[shard] == 0:
            drained.set()

    # -- used by the reconfiguration controller ------------------------
    def begin_move(self, shard: int) -> Generator:
        """Close the write gate and wait for in-flight writers: nothing
        acknowledged after the provider's flush may be left behind."""
        self._gate[shard] = UltEvent(self.kernel, name=f"gate:{shard}")
        if self._writers[shard]:
            drained = self._drained[shard] = UltEvent(self.kernel, name=f"drain:{shard}")
            yield from drained.wait()
            self._drained[shard] = None

    def publish(self, shard: int, address: str) -> None:
        self.meta_address[shard] = address
        gate, self._gate[shard] = self._gate[shard], None
        if gate is not None:
            gate.set()


class ObjectStore:
    """One client's view of the store (one per client process)."""

    def __init__(self, margo: Any, directory: Directory) -> None:
        self.margo = margo
        self.directory = directory
        #: set by the workload for the timed phase: counts resolve retries.
        self.recorder: Any = None
        self._yokan = YokanClient(margo)
        self._warabi = WarabiClient(margo)
        self._targets = [
            self._warabi.make_handle(address, WARABI_PROVIDER_ID)
            for address in directory.blob_address
        ]
        self._dbs: list[Any] = [None] * directory.shards

    def database(self, shard: int) -> Any:
        """The shard's database handle, re-resolved when it has moved."""
        address = self.directory.meta_address[shard]
        db = self._dbs[shard]
        if db is None or db.address != address:
            db = self._dbs[shard] = self._yokan.make_handle(
                address, YOKAN_PROVIDER_BASE + shard
            )
        return db

    def _read_meta(self, shard: int, operation: str, key: bytes) -> Generator:
        """A metadata read that survives the shard moving under it."""
        for _attempt in range(MAX_RESOLVE_RETRIES):
            try:
                result = yield from getattr(self.database(shard), operation)(key)
                return result
            except NoSuchRpcError:
                # The provider left between resolve and delivery.
                if self.recorder is not None:
                    self.recorder.retries += 1
                yield from self.directory.wait_moved(shard)
        raise NoSuchRpcError(f"shard {shard} not found after {MAX_RESOLVE_RETRIES} resolves")

    # -- the ProxyStore surface ----------------------------------------
    def put(self, key: bytes, data: bytes) -> Generator:
        directory = self.directory
        shard = shard_of(key, directory.shards)
        yield from directory.wait_writable(shard)
        directory.writer_enter(shard)
        try:
            db = self.database(shard)
            old = None
            present = yield from db.exists(key)
            if present:
                old = yield from db.get(key)
            if len(data) <= INLINE_MAX:
                record = _INLINE + data
            else:
                target = self._targets[shard]
                blob_id = yield from target.create(0)
                yield from target.write(blob_id, data)
                record = _BLOB + _BLOB_RECORD.pack(shard, blob_id, len(data))
            yield from db.put(key, record)
            if old is not None and old[:1] == _BLOB:
                old_shard, old_blob, _size = _BLOB_RECORD.unpack(old[1:])
                yield from self._targets[old_shard].erase(old_blob)
        finally:
            directory.writer_exit(shard)
        return (key, len(data), directory.meta_address[shard])

    def get(self, key: bytes) -> Generator:
        shard = shard_of(key, self.directory.shards)
        record = yield from self._read_meta(shard, "get", key)
        if record[:1] == _INLINE:
            return record[1:]
        blob_shard, blob_id, _size = _BLOB_RECORD.unpack(record[1:])
        data = yield from self._targets[blob_shard].read(blob_id)
        return data

    def exists(self, key: bytes) -> Generator:
        shard = shard_of(key, self.directory.shards)
        present = yield from self._read_meta(shard, "exists", key)
        return present

    def evict(self, key: bytes) -> Generator:
        directory = self.directory
        shard = shard_of(key, directory.shards)
        yield from directory.wait_writable(shard)
        directory.writer_enter(shard)
        try:
            db = self.database(shard)
            record = yield from db.get(key)
            yield from db.erase(key)
            if record[:1] == _BLOB:
                blob_shard, blob_id, _size = _BLOB_RECORD.unpack(record[1:])
                yield from self._targets[blob_shard].erase(blob_id)
        finally:
            directory.writer_exit(shard)
        return None

    # -- whole-store checks --------------------------------------------
    def census(self) -> Generator:
        """(metadata records, blobs) summed over all shards."""
        records = blobs = 0
        for shard in range(self.directory.shards):
            records += yield from self.database(shard).count()
            blobs += len((yield from self._targets[shard].list()))
        return records, blobs
