"""Hash-map backend: unordered, O(1) point operations."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Optional, Sequence

from ..backend import KVBackend, NoSuchKeyError, register_backend

__all__ = ["MapBackend"]


class MapBackend(KVBackend):
    """A plain dict; ``list_keys`` sorts on demand."""

    type_name = "map"

    def __init__(self, config: Optional[dict] = None) -> None:
        self._data: dict[bytes, bytes] = {}

    def put(self, key: bytes, value: bytes) -> None:
        self._data[key] = value

    def get(self, key: bytes) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise NoSuchKeyError(key) from None

    def put_multi(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        # One C call for the whole batch, as C Yokan's yk_put_multi.
        self._data.update(pairs)

    def get_multi(self, keys: Sequence[bytes]) -> list[bytes]:
        # One C call gathers a batch; itemgetter of one key returns no tuple.
        try:
            if len(keys) > 1:
                return list(itemgetter(*keys)(self._data))
            return [self._data[key] for key in keys]
        except KeyError as err:
            raise NoSuchKeyError(err.args[0]) from None

    def erase(self, key: bytes) -> None:
        try:
            del self._data[key]
        except KeyError:
            raise NoSuchKeyError(key) from None

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
        """Summed on demand: only ``get_config`` asks, so no write path
        keeps a running count."""
        data = self._data
        return sum(map(len, data)) + sum(map(len, data.values()))

    def clear(self) -> None:
        self._data.clear()


register_backend("map", MapBackend)
