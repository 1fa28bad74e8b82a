"""Margo-like runtime: ULTs, pools, execution streams, RPC, reconfiguration."""

from .config import MargoConfig, PoolSpec, XStreamSpec
from .errors import (
    ConfigError,
    DuplicateNameError,
    FinalizedError,
    MargoError,
    NoSuchPoolError,
    NoSuchRpcError,
    NoSuchXStreamError,
    PoolInUseError,
    RpcError,
    RpcFailedError,
    RpcTimeoutError,
)
from .pool import Pool
from .runtime import MargoInstance, Registration, RequestContext
from .ult import (
    Compute,
    Park,
    ULT,
    UltEvent,
    UltMutex,
    UltSleep,
    UltState,
    UltYield,
    current_ult,
)
from .xstream import XStream

__all__ = [
    "MargoInstance",
    "RequestContext",
    "Registration",
    "MargoConfig",
    "PoolSpec",
    "XStreamSpec",
    "Pool",
    "XStream",
    "ULT",
    "UltEvent",
    "UltMutex",
    "UltState",
    "Compute",
    "Park",
    "UltSleep",
    "UltYield",
    "current_ult",
    "MargoError",
    "ConfigError",
    "DuplicateNameError",
    "NoSuchPoolError",
    "NoSuchXStreamError",
    "PoolInUseError",
    "RpcError",
    "RpcTimeoutError",
    "RpcFailedError",
    "NoSuchRpcError",
    "FinalizedError",
]
