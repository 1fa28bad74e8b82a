"""Warabi client: handles to remote blob targets."""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..core.component import Client, ResourceHandle
from ..mercury import BulkHandle
from .provider import DEFAULT_BULK_THRESHOLD

__all__ = ["WarabiClient", "TargetHandle"]


class TargetHandle(ResourceHandle):
    """Handle to one remote blob target."""

    def create(self, size: int = 0) -> Generator:
        blob_id = yield from self._forward("create", {"size": size})
        return blob_id

    def write(self, blob_id: int, data: bytes, offset: int = 0) -> Generator:
        if isinstance(data, str):
            data = data.encode("utf-8")
        if len(data) >= DEFAULT_BULK_THRESHOLD:
            args: dict[str, Any] = {
                "id": blob_id,
                "offset": offset,
                "bulk": BulkHandle(self.client.margo.address, len(data), bytes(data)),
            }
        else:
            args = {"id": blob_id, "offset": offset, "data": bytes(data)}
        written = yield from self._forward("write", args)
        return written

    def read(self, blob_id: int, offset: int = 0, size: Optional[int] = None) -> Generator:
        result = yield from self._forward(
            "read", {"id": blob_id, "offset": offset, "size": size}
        )
        if isinstance(result, BulkHandle):
            return result.data
        return result

    def size(self, blob_id: int) -> Generator:
        result = yield from self._forward("size", {"id": blob_id})
        return result

    def erase(self, blob_id: int) -> Generator:
        yield from self._forward("erase", {"id": blob_id})
        return None

    def list(self) -> Generator:
        result = yield from self._forward("list")
        return result


class WarabiClient(Client):
    """Client library of the Warabi component."""

    component_type = "warabi"
    handle_cls = TargetHandle

    def make_handle(self, address: str, provider_id: int) -> TargetHandle:
        return TargetHandle(self, address, provider_id)
