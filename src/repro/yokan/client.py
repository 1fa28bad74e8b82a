"""Yokan client: resource handles for remote key-value databases.

The handle "maps to a remote resource by encapsulating the address and
provider ID of the provider holding that resource" (paper Fig. 1) and
"provides an API to access the resource, for instance putting and
getting key-value pairs" (section 3.1).  All methods are generators:
``value = yield from db.get(key)``.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from ..core.component import Client, ResourceHandle
from ..mercury import BulkHandle
from .backend import Batch, _to_bytes
from .provider import DEFAULT_BULK_THRESHOLD

__all__ = ["YokanClient", "DatabaseHandle"]


class DatabaseHandle(ResourceHandle):
    """Handle to one remote Yokan database."""

    def put(self, key: Any, value: Any) -> Generator:
        key_b, value_b = _to_bytes(key), _to_bytes(value)
        if len(value_b) >= DEFAULT_BULK_THRESHOLD:
            # Data plane: expose the value via a bulk handle; the provider
            # pulls it with RDMA instead of shipping it inline.
            args = {
                "key": key_b,
                "bulk": BulkHandle(self.client.margo.address, len(value_b), value_b),
            }
        else:
            args = {"key": key_b, "value": value_b}
        yield from self._forward("put", args)
        return None

    def get(self, key: Any) -> Generator:
        result = yield from self._forward("get", {"key": _to_bytes(key)})
        if isinstance(result, BulkHandle):
            return result.data
        return result

    def erase(self, key: Any) -> Generator:
        yield from self._forward("erase", {"key": _to_bytes(key)})
        return None

    def exists(self, key: Any) -> Generator:
        result = yield from self._forward("exists", {"key": _to_bytes(key)})
        return result

    def count(self) -> Generator:
        result = yield from self._forward("count")
        return result

    def list_keys(
        self,
        prefix: Any = b"",
        start_after: Optional[Any] = None,
        max_keys: int = 0,
    ) -> Generator:
        args = {
            "prefix": _to_bytes(prefix),
            "start_after": _to_bytes(start_after) if start_after is not None else None,
            "max_keys": max_keys,
        }
        result = yield from self._forward("list_keys", args)
        return list(result)  # a plain list: a measured Batch stays unmutated

    def put_multi(self, pairs: Iterable[tuple[Any, Any]]) -> Generator:
        # Always a batch of our own: the caller may mutate theirs while
        # this RPC is parked, and the bulk path carries it by reference.
        batch = Batch.of_pairs(pairs)
        if batch.nbytes >= DEFAULT_BULK_THRESHOLD:
            # Large batches travel over the bulk path: the provider pulls
            # what would be one encoded record stream with RDMA.
            args: dict = {"bulk": BulkHandle(self.client.margo.address, batch.records(), batch)}
        else:
            args = {"pairs": batch}
        yield from self._forward("put_multi", args)
        return None

    def get_multi(self, keys: Iterable[Any]) -> Generator:
        result = yield from self._forward("get_multi", {"keys": Batch.of_keys(keys)})
        if isinstance(result, BulkHandle):
            return result.data
        return list(result)

    def erase_matching(self, prefix: Any = b"", suffix: Any = b"") -> Generator:
        """Erase every key with ``prefix`` and ``suffix``; returns count."""
        count = yield from self._forward(
            "erase_matching",
            {"prefix": _to_bytes(prefix), "suffix": _to_bytes(suffix)},
        )
        return count

    def flush(self) -> Generator:
        yield from self._forward("flush")
        return None

    def fetch_image(self) -> Generator:
        """Pull the whole database image (bytes)."""
        result = yield from self._forward("fetch_image")
        if isinstance(result, BulkHandle):
            return result.data
        return result


class YokanClient(Client):
    """Client library of the Yokan component."""

    component_type = "yokan"
    handle_cls = DatabaseHandle

    def make_handle(self, address: str, provider_id: int) -> DatabaseHandle:
        return DatabaseHandle(self, address, provider_id)
