"""Segment log: how a database persists in a node-local store.

A database at ``path`` is an append-only log of sealed, immutable
segments ``{path}/{lineage}/{seq}``.  ``lineage`` is fixed when the
database is first created (:func:`lineage_of`) and moves with it;
``seq`` is allocated at seal time and never reissued.  A segment is a
header naming the live range (the first live ``seq``, then its own) and
a record stream of puts and tombstones, so a flush is one store write
and there is no manifest.  Segments are written in seal order; opening
replays the live range the newest one names and deletes those below
it.  Once the live segments exceed :data:`COMPACT_FACTOR` times the
image, the next seal writes the whole image and retires the rest.

A checkpoint copies the live segments by name, then the unsealed tail.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .local import LocalStore, StorageError

__all__ = ["COMPACT_FACTOR", "Segment", "SegmentLog", "checkpoint_files", "checkpoint_image",
           "decode_records", "encode_records", "lineage_of", "newest_lineage"]

_LEN = struct.Struct("<I")
#: the value length of a tombstone: no value is 4 GiB long.
_TOMBSTONE = 0xFFFFFFFF
_HEADER = struct.Struct("<II")  # first live seq, this segment's seq
_TAIL = struct.Struct("<III")  # a checkpoint's live range, its log's name length
#: a seal rewrites the whole image once the live segments outgrow it
#: by this factor.
COMPACT_FACTOR = 2


def encode_records(items: Iterable[tuple[bytes, Optional[bytes]]], header: bytes = b"") -> bytes:
    """Serialize (key, value) pairs after ``header``; a ``None`` value
    is a tombstone."""
    pack = _LEN.pack
    tombstone = pack(_TOMBSTONE)
    fields = [header]
    fields += [
        field
        for key, value in items
        for field in ((pack(len(key)), key, tombstone) if value is None
                      else (pack(len(key)), key, pack(len(value)), value))
    ]
    return b"".join(fields)


def decode_records(data: bytes, offset: int = 0) -> list[tuple[bytes, Optional[bytes]]]:
    """Inverse of :func:`encode_records`, from ``offset`` on."""
    items: list[tuple[bytes, Optional[bytes]]] = []
    total, size, unpack = len(data), _LEN.size, _LEN.unpack_from
    while offset < total:
        if offset + size > total:
            raise StorageError("truncated record stream (key length)")
        key_end = offset + size + unpack(data, offset)[0]
        if key_end + size > total:
            raise StorageError("truncated record stream (key body or value length)")
        key = data[offset + size : key_end]
        (vlen,) = unpack(data, key_end)
        offset = key_end + size
        if vlen == _TOMBSTONE:
            items.append((key, None))
        elif offset + vlen > total:
            raise StorageError("truncated record stream (value body)")
        else:
            items.append((key, data[offset : offset + vlen]))
            offset += vlen
    return items


def replay(streams: Iterable[tuple[bytes, int]]) -> dict[bytes, bytes]:
    """The image (data, offset) record streams describe, oldest first."""
    image = dict(pair for data, offset in streams for pair in decode_records(data, offset))
    return {key: value for key, value in image.items() if value is not None}


def checkpoint_files(backend: Any, path: str, target: Any) -> list[tuple[str, bytes]]:
    """The live segments of ``backend``'s log ``target`` lacks, as the log's
    own ``bytes``, then a tail at ``path``: the changes since the last seal
    behind a header naming their range.  No log or known changes, or a
    segment ``target`` holds with other bytes (a crash reissued its seq):
    the tail is the image, as a segment older checkpoints name stays."""
    log = getattr(backend, "log", None)
    changes = log and backend.changes()
    live = [] if changes is None else [(name, data or log.store.read(name))
                                       for name, data in log.live()]
    if changes is None or any(target.read(n) != data for n, data in live if target.exists(n)):
        return [(path, backend.dump(_TAIL.pack(1, 0, 0)))]
    prefix = f"{log.path}/{log.lineage}".encode()
    header = _TAIL.pack(log.first, log.last, len(prefix)) + prefix
    live = [(name, data) for name, data in live if not target.exists(name)]
    return live + [(path, encode_records(changes, header))]


def checkpoint_image(tail: bytes, read: Callable[[str], bytes]) -> tuple[dict[bytes, bytes], int]:
    """A checkpoint's image and size: the range its tail names, then it."""
    first, last, length = _TAIL.unpack_from(tail)
    prefix = tail[_TAIL.size : _TAIL.size + length].decode()
    streams = [(read(f"{prefix}/{seq}"), _HEADER.size) for seq in range(first, last + 1)]
    streams.append((tail, _TAIL.size + length))
    return replay(streams), sum(len(data) for data, _ in streams)


def lineage_of(process: str, now: float) -> str:
    """The lineage of a database ``process`` creates at simulated ``now``."""
    return f"{round(now * 1e9)}-{process}"


def newest_lineage(store: LocalStore, path: str) -> Optional[str]:
    """The lineage at ``path`` created last, if any."""
    found = {name[len(path) + 1 :].rpartition("/")[0] for name in store.list(path + "/")}
    found.discard("")
    return max(found, key=lambda n: (int(n.partition("-")[0]), n), default=None)


class Segment(NamedTuple):
    """A sealed segment not yet written; ``retired`` go once it is."""

    name: str
    data: bytes
    retired: list[str]


class SegmentLog:
    """One database's segments in one store: those of ``lineage``, by
    default the newest at ``path``."""

    def __init__(self, store: LocalStore, path: str, lineage: Optional[str] = None) -> None:
        self.store = store
        self.path = path
        self.lineage = lineage or newest_lineage(store, path) or "0"
        prefix = f"{path}/{self.lineage}/"
        seqs = [int(name[len(prefix) :]) for name in store.list(prefix)]
        #: the sealed live range is [first, last]; last 0: nothing sealed yet.
        self.last = max(seqs, default=0)
        self.first = _HEADER.unpack_from(store.read(self.name(self.last)))[0] if self.last else 1
        for seq in seqs:
            if seq < self.first:
                store.delete(self.name(seq))
        #: the live range the store holds; ``seal`` runs ahead of it.
        self.written = (self.first, self.last)
        self.pending: list[Segment] = []
        self.live_bytes = sum(map(store.size_of, self.files()))

    def name(self, seq: int) -> str:
        return f"{self.path}/{self.lineage}/{seq}"

    def files(self) -> list[str]:
        """The live segments the store holds, oldest first."""
        first, last = self.written
        return [self.name(seq) for seq in range(first, last + 1)]

    def live(self) -> list[tuple[str, Optional[bytes]]]:
        """The live range as of the last seal, oldest first, as (name,
        data) pairs: ``data`` is a pending segment's own bytes, ``None``
        for one the store holds."""
        pending = {segment.name: segment.data for segment in self.pending}
        return [(self.name(seq), pending.get(self.name(seq)))
                for seq in range(self.first, self.last + 1)]

    def replay(self) -> dict[bytes, bytes]:
        """The image the live range describes."""
        return replay((self.store.read(name), _HEADER.size) for name in self.files())

    def seal(self, changes: Optional[Iterable[tuple[bytes, Any]]], image: Any) -> Segment:
        """Cut the next segment from ``changes`` since the last seal, or
        from the whole ``image`` (a KV backend) when the live segments
        have outgrown it or ``changes`` is None (not known)."""
        seq = self.last + 1
        retired: list[str] = []
        image_size = image.size_bytes() + 2 * _LEN.size * image.count()
        if changes is None or self.live_bytes > COMPACT_FACTOR * image_size:
            retired = [self.name(old) for old in range(self.first, seq)]
            changes, self.first, self.live_bytes = image.items(), seq, 0
        data = encode_records(changes, _HEADER.pack(self.first, seq))
        self.last = seq
        self.live_bytes += len(data)
        self.pending.append(Segment(self.name(seq), data, retired))
        return self.pending[-1]

    def write(self, upto: Optional[Segment] = None) -> None:
        """Write the sealed segments up to ``upto`` (all by default) in
        seal order, each then dropping those it retired: an earlier one
        still in its write sleep goes now, so the store always holds a
        prefix of the log.  One written already: nothing to do."""
        last = self.last if upto is None else _HEADER.unpack_from(upto.data)[1]
        while self.written[1] < last:
            segment = self.pending.pop(0)
            self.store.write(segment.name, segment.data)
            self.written = _HEADER.unpack_from(segment.data)
            for name in segment.retired:
                self.store.delete(name)
