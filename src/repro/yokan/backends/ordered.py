"""Ordered backend: sorted keys, efficient prefix/range listing.

Models the LevelDB/RocksDB-style sorted backends Yokan supports; the
sorted key array is maintained with :mod:`bisect`.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Iterable, Optional

from ..backend import encode_records, register_backend
from .map import MapBackend

__all__ = ["OrderedBackend"]


class OrderedBackend(MapBackend):
    """The map backend plus a sorted key list; O(log n) ordered scans."""

    type_name = "ordered"

    def __init__(self, config: Optional[dict] = None) -> None:
        super().__init__(config)
        self._keys: list[bytes] = []

    def put(self, key: bytes, value: bytes) -> None:
        if key not in self._data:
            bisect.insort(self._keys, key)
        self._data[key] = value

    def put_multi(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        # One dict update for the batch; the keys it added are the dict's
        # newest entries (an overwrite keeps its place), sorted and
        # merged into the key array once -- also when a malformed pair
        # stops the update partway, so the two never disagree.
        data = self._data
        before = len(data)
        try:
            data.update(pairs)
        finally:
            added = len(data) - before
            if added:
                fresh = sorted(islice(reversed(data), added))
                keys = self._keys
                at = bisect.bisect_left(keys, fresh[0])
                if at == len(keys) or fresh[-1] < keys[at]:
                    # All new keys fall into one gap (or after the last key).
                    keys[at:at] = fresh
                else:
                    # Spread over several gaps: Timsort merges the two
                    # sorted runs in linear time.
                    keys.extend(fresh)
                    keys.sort()

    def erase(self, key: bytes) -> None:
        super().erase(key)
        del self._keys[bisect.bisect_left(self._keys, key)]

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

    def dump(self, header: bytes = b"") -> bytes:
        return encode_records(self.items(), header)  # already in key order

    def items(self) -> Iterable[tuple[bytes, bytes]]:
        return ((k, self._data[k]) for k in self._keys)

    def clear(self) -> None:
        super().clear()
        self._keys.clear()


register_backend("ordered", OrderedBackend)
