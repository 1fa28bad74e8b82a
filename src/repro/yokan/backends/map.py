"""Hash-map backend: unordered, O(1) point operations."""

from __future__ import annotations

from typing import Iterable, Optional

from ..backend import KVBackend, NoSuchKeyError, register_backend

__all__ = ["MapBackend"]


class MapBackend(KVBackend):
    """A plain dict; ``list_keys`` sorts on demand."""

    type_name = "map"

    def __init__(self, config: Optional[dict] = None) -> None:
        self._data: dict[bytes, bytes] = {}
        self._bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        old = self._data.get(key)
        if old is not None:
            self._bytes -= len(key) + len(old)
        self._data[key] = value
        self._bytes += len(key) + len(value)

    def get(self, key: bytes) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise NoSuchKeyError(key) from None

    def put_multi(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        # One pass over a local dict reference: no per-key method dispatch.
        data = self._data
        get = data.get
        nbytes = self._bytes
        for key, value in pairs:
            old = get(key)
            if old is None:
                nbytes += len(key) + len(value)
            else:
                nbytes += len(value) - len(old)
            data[key] = value
        self._bytes = nbytes

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
        keys = sorted(k for k in self._data if k.startswith(prefix))
        if start_after is not None:
            keys = [k for k in keys if k > start_after]
        if max_keys:
            keys = keys[:max_keys]
        return keys

    def items(self) -> Iterable[tuple[bytes, bytes]]:
        return self._data.items()

    def size_bytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._data.clear()
        self._bytes = 0


register_backend("map", MapBackend)
