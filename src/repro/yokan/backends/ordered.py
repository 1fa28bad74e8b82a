"""Ordered backend: sorted keys, efficient prefix/range listing.

Models the LevelDB/RocksDB-style sorted backends Yokan supports; the
sorted key array is maintained with :mod:`bisect`.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from ..backend import KVBackend, NoSuchKeyError, encode_records, register_backend

__all__ = ["OrderedBackend"]


class OrderedBackend(KVBackend):
    """dict + sorted key list; O(log n) ordered scans."""

    type_name = "ordered"

    def __init__(self, config: Optional[dict] = None) -> None:
        self._data: dict[bytes, bytes] = {}
        self._keys: list[bytes] = []
        self._bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        old = self._data.get(key)
        if old is None:
            bisect.insort(self._keys, key)
        else:
            self._bytes -= len(key) + len(old)
        self._data[key] = value
        self._bytes += len(key) + len(value)

    def get(self, key: bytes) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise NoSuchKeyError(key) from None

    def put_multi(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        # One pass over the batch, then one merge of its new keys into
        # the key array.
        data = self._data
        get = data.get
        nbytes = self._bytes
        fresh: list[bytes] = []
        for key, value in pairs:
            old = get(key)
            if old is None:
                fresh.append(key)
                nbytes += len(key) + len(value)
            else:
                nbytes += len(value) - len(old)
            data[key] = value
        self._bytes = nbytes
        if not fresh:
            return
        fresh.sort()
        keys = self._keys
        at = bisect.bisect_left(keys, fresh[0])
        if at == len(keys) or fresh[-1] < keys[at]:
            # All new keys fall into one gap (or after the last key).
            keys[at:at] = fresh
        else:
            # Spread over several gaps: Timsort merges the two sorted
            # runs in linear time.
            keys.extend(fresh)
            keys.sort()

    def get_multi(self, keys: Iterable[bytes]) -> list[bytes]:
        data = self._data
        try:
            return [data[key] for key in keys]
        except KeyError as err:
            raise NoSuchKeyError(err.args[0]) from None

    def erase(self, key: bytes) -> None:
        value = self._data.pop(key, None)
        if value is None:
            raise NoSuchKeyError(key)
        index = bisect.bisect_left(self._keys, key)
        del self._keys[index]
        self._bytes -= len(key) + len(value)

    def exists(self, key: bytes) -> bool:
        return key in self._data

    def count(self) -> int:
        return len(self._data)

    def list_keys(
        self,
        prefix: bytes = b"",
        start_after: Optional[bytes] = None,
        max_keys: int = 0,
    ) -> list[bytes]:
        keys = self._keys
        if start_after is not None and start_after >= prefix:
            start = bisect.bisect_right(keys, start_after)
        else:
            start = bisect.bisect_left(keys, prefix)
        # Keys with ``prefix`` are exactly those in [prefix, successor):
        # the prefix without its trailing 0xff bytes, last byte plus one.
        # An empty or all-0xff prefix has no successor.
        stem = prefix.rstrip(b"\xff")
        if stem:
            successor = stem[:-1] + bytes((stem[-1] + 1,))
            end = bisect.bisect_left(keys, successor, start)
        else:
            end = len(keys)
        if max_keys:
            end = min(end, start + max_keys)
        return keys[start:end]

    def dump(self) -> bytes:
        return encode_records(self.items())  # already in key order

    def items(self) -> Iterable[tuple[bytes, bytes]]:
        return ((k, self._data[k]) for k in self._keys)

    def size_bytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._data.clear()
        self._keys.clear()
        self._bytes = 0


register_backend("ordered", OrderedBackend)
