"""REMI client: drives fileset migrations from the source side.

Implements both transfer methods of the paper (section 6):

* ``method="rdma"`` -- memory-map each file and let the destination pull
  it one-sidedly (per-file setup cost, full fabric bandwidth);
* ``method="chunks"`` -- pack files into fixed-size chunks sent as
  pipelined RPCs (per-chunk overhead amortized over many small files);
* ``method="auto"`` -- choose by mean file size.

Benchmark E5 sweeps file count x file size over both methods and locates
the crossover the paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..core.component import Client, ResourceHandle
from ..core.parallel import parallel
from ..margo.ult import UltSleep
from ..mercury import BulkHandle
from ..storage.local import LocalStore
from .fileset import FileSet, RemiError

__all__ = ["RemiClient", "MigrationHandle", "MigrationReport", "AUTO_RDMA_THRESHOLD"]

#: ``auto`` picks RDMA when the mean file size is at least this.
AUTO_RDMA_THRESHOLD = 256 * 1024

DEFAULT_CHUNK_SIZE = 1 << 20  # 1 MiB
DEFAULT_WINDOW = 4  # chunks in flight


@dataclass(frozen=True, init=False)
class MigrationReport:
    """Outcome of one fileset migration."""

    method: str
    num_files: int
    total_bytes: int
    num_chunks: int
    duration: float

    def __init__(
        self, method: str, num_files: int, total_bytes: int, num_chunks: int, duration: float
    ) -> None:
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "num_files", num_files)
        object.__setattr__(self, "total_bytes", total_bytes)
        object.__setattr__(self, "num_chunks", num_chunks)
        object.__setattr__(self, "duration", duration)


class MigrationHandle(ResourceHandle):
    """Handle to a remote REMI provider; migration driver."""

    def migrate_fileset(
        self,
        fileset: FileSet,
        method: str = "auto",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        window: int = DEFAULT_WINDOW,
    ) -> Generator:
        """Transfer every file in ``fileset`` to the remote provider."""
        if method not in ("auto", "rdma", "chunks"):
            raise RemiError(f"unknown migration method {method!r}")
        if chunk_size <= 0:
            raise RemiError(f"chunk size must be positive, got {chunk_size}")
        if window <= 0:
            raise RemiError(f"window must be positive, got {window}")
        margo = self.client.margo
        started = margo.kernel.now
        files = fileset.read_all()
        total_bytes = sum(len(data) for _, data in files)
        if method == "auto":
            mean = total_bytes / len(files) if files else 0
            method = "rdma" if mean >= AUTO_RDMA_THRESHOLD else "chunks"

        num_chunks = 0
        if method == "rdma":
            # Memory-map each file and let the destination pull it; the
            # storage read streams concurrently with the transfer, so its
            # cost travels with the request and is overlapped at the
            # receiver (see RemiProvider._on_recv_file).
            for path, data in files:
                bulk = BulkHandle(margo.address, len(data), data)
                yield from self._forward(
                    "recv_file",
                    {
                        "path": path,
                        "bulk": bulk,
                        "src_read_cost": 0.0 if path in fileset.loaded
                        else fileset.store.read_cost(len(data)),
                    },
                )
        else:
            # Bytes the caller holds are not read; any store read, even of
            # nothing, is charged.
            stored = [data for path, data in files if path not in fileset.loaded]
            if stored or not fileset.loaded:
                yield UltSleep(fileset.store.read_cost(sum(map(len, stored))))
            chunks = self._pack(files, chunk_size)
            num_chunks = len(chunks)
            # Pipeline: up to `window` chunk RPCs in flight.
            from ..core.parallel import ParallelError

            for wave_start in range(0, len(chunks), window):
                wave = chunks[wave_start : wave_start + window]
                try:
                    yield from parallel(
                        margo,
                        [
                            self._forward("recv_chunk", {"pieces": chunk})
                            for chunk in wave
                        ],
                    )
                except ParallelError as err:
                    # Surface the underlying transport/remote error.
                    raise err.errors[0][1]
        summary = yield from self._forward("finalize")
        incomplete = sorted(set(summary.get("partial", ())).intersection(fileset.paths))
        if incomplete:
            raise RemiError(f"migration finalized with incomplete files: {incomplete}")
        duration = margo.kernel.now - started
        return MigrationReport(
            method=method,
            num_files=len(files),
            total_bytes=total_bytes,
            num_chunks=num_chunks,
            duration=duration,
        )

    def migrate_files(
        self, paths: list[str], store: Optional[LocalStore] = None,
        loaded: Optional[dict[str, bytes]] = None, **kwargs: Any
    ) -> Generator:
        """Convenience: build the fileset from this process's local store
        and the bytes of ``paths`` the caller already holds (``loaded``)."""
        fileset = FileSet(store or self._local_store(), list(paths), loaded or {})
        report = yield from self.migrate_fileset(fileset, **kwargs)
        return report

    def have(self, paths: list[str]) -> Generator:
        """The ``paths`` the remote store holds at the same size as this
        node's: what a delta migration need not ship."""
        store = self._local_store()
        held = yield from self._forward("have", {"files": [(p, store.size_of(p)) for p in paths]})
        return held

    def _local_store(self) -> LocalStore:
        store = self.client.margo.process.node.attachments.get("disk")
        if not isinstance(store, LocalStore):
            raise RemiError("no 'disk' LocalStore attached to the source node")
        return store

    @staticmethod
    def _pack(
        files: list[tuple[str, bytes]], chunk_size: int
    ) -> list[list[tuple[str, int, int, bytes]]]:
        """Pack file pieces into chunks of at most ``chunk_size`` bytes.

        Large files are split across chunks; small files are batched
        together -- exactly the packing the paper describes.
        """
        chunks: list[list[tuple[str, int, int, bytes]]] = []
        current: list[tuple[str, int, int, bytes]] = []
        room = chunk_size
        for path, data in files:
            total_size = len(data)
            offset = 0
            if total_size == 0:
                piece = (path, 0, 0, b"")
                if room <= 0:
                    chunks.append(current)
                    current, room = [], chunk_size
                current.append(piece)
                continue
            while offset < total_size:
                take = min(room, total_size - offset)
                current.append((path, offset, total_size, data[offset : offset + take]))
                offset += take
                room -= take
                if room == 0:
                    chunks.append(current)
                    current, room = [], chunk_size
        if current:
            chunks.append(current)
        return chunks


class RemiClient(Client):
    """Client library of the REMI component."""

    component_type = "remi"
    handle_cls = MigrationHandle

    def make_handle(self, address: str, provider_id: int) -> MigrationHandle:
        return MigrationHandle(self, address, provider_id)

    def migrate_files(
        self,
        dest_address: str,
        paths: list[str],
        dest_provider_id: int = 0,
        store: Optional[LocalStore] = None,
        **kwargs: Any,
    ) -> Generator:
        """One-shot: migrate ``paths`` from this node's store to the REMI
        provider at (dest_address, dest_provider_id).

        This is the interface component ``migrate`` hooks use (paper
        section 6, Observation 5).
        """
        handle = self.make_handle(dest_address, dest_provider_id)
        report = yield from handle.migrate_files(paths, store=store, **kwargs)
        return report

    def have(self, dest_address: str, paths: list[str], dest_provider_id: int = 0) -> Generator:
        """One-shot :meth:`MigrationHandle.have` (the delta check)."""
        held = yield from self.make_handle(dest_address, dest_provider_id).have(paths)
        return held
