"""Bulk (RDMA) transfer descriptors.

Mercury bulk handles describe registered memory regions; the actual
transfer is one-sided and does not pass through the receiving process's
RPC dispatch path -- which is why it is the efficient option for large
payloads (paper section 6, REMI's memory-mapped file transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["BulkHandle", "BULK_OP_PULL", "BULK_OP_PUSH", "BULK_SETUP_COST"]

BULK_OP_PULL = "pull"
BULK_OP_PUSH = "push"

#: One-time cost of registering memory and exchanging the handle
#: (registration, key exchange); charged per bulk operation.
BULK_SETUP_COST = 1.5e-6


@dataclass(init=False)
class BulkHandle:
    """A remotely accessible memory region of ``size`` bytes.

    ``data`` carries the region's contents through the simulation, by
    reference: a byte string, or the object the region would encode (a
    Yokan batch travels as its list of pairs), immutable or private to
    the sender, never packed just to be measured.  Only ``size`` is
    modelled.  ``data`` is excluded from the RPC wire size
    (``__wire_size__``) because the bytes move via the one-sided bulk
    path, not inside the RPC message.
    """

    owner_address: str
    size: int
    data: Any = b""

    #: What the handle itself occupies inside an RPC message.
    __wire_size__ = 32

    def __init__(self, owner_address: str, size: int, data: Any = b"") -> None:
        if size < 0:
            raise ValueError(f"negative bulk size: {size}")
        self.owner_address = owner_address
        self.size = size
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BulkHandle {self.owner_address} size={self.size}>"
