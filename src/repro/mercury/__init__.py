"""Mercury-like RPC substrate: ids, wire messages, sizes, bulk handles."""

from .bulk import BULK_OP_PULL, BULK_OP_PUSH, BULK_SETUP_COST, BulkHandle
from .hg import (
    NULL_PROVIDER,
    NULL_RPC,
    RPCRequest,
    RPCResponse,
    STATUS_ERROR,
    STATUS_NO_RPC,
    STATUS_OK,
    rpc_id_of,
)
from .serialization import codec_cost, estimate_size

__all__ = [
    "rpc_id_of",
    "NULL_PROVIDER",
    "NULL_RPC",
    "RPCRequest",
    "RPCResponse",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_NO_RPC",
    "BulkHandle",
    "BULK_OP_PULL",
    "BULK_OP_PUSH",
    "BULK_SETUP_COST",
    "estimate_size",
    "codec_cost",
]
