"""Mercury core concepts: RPC identifiers and wire messages.

Mercury identifies an RPC by a 32-bit hash of its registered name; the
paper's Listing 1 shows such an id (2924675071 for "echo"-adjacent
registration).  We use CRC-32 of the name, which is stable across
processes -- a property the dispatch path relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Optional

__all__ = [
    "rpc_id_of",
    "NULL_PROVIDER",
    "NULL_RPC",
    "RPCRequest",
    "RPCResponse",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_NO_RPC",
]

#: Provider id used when an RPC is not directed at a specific provider,
#: and as the "no parent" marker in monitoring keys (paper Listing 1).
NULL_PROVIDER = 65535

#: RPC id used as the "no parent RPC" marker.
NULL_RPC = 65535

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_NO_RPC = "no_rpc"


@lru_cache(maxsize=4096)
def rpc_id_of(name: str) -> int:
    """Stable 32-bit id for an RPC name (CRC-32, like Mercury's hash).

    Memoized: the id is recomputed on every ``forward()`` and the set of
    RPC names in a deployment is small and fixed.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class _lazy:
    """A value computed on first read and stored in the instance dict.

    ``functools.cached_property`` without its lock: on Python 3.11 its
    first read takes an ``RLock``, and a simulated request is only ever
    read from one thread.  Not a data descriptor, so the stored value
    shadows it from then on.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


@dataclass
class RPCRequest:
    """A request message on the wire."""

    seq: int
    rpc_id: int
    rpc_name: str
    provider_id: int
    args: Any
    payload_size: int
    src_address: str
    dst_address: str = ""
    parent_rpc_id: int = NULL_RPC
    parent_provider_id: int = NULL_PROVIDER
    #: Trace context (repro.observability), stamped by the Margo forward
    #: path; generalizes the Listing-1 parent_rpc_id chain to per-call
    #: identity.  ``origin`` is the calling process's name, the parent ids
    #: come from a traced handler; own ids are formatted on first read.
    origin: str = ""
    parent_trace_id: str = ""
    parent_span_id: str = ""

    #: Fixed header size added to the payload on the wire.
    HEADER_SIZE = 64

    @_lazy
    def span_id(self) -> str:
        """This call's id: deterministic, unique per calling process."""
        return f"{self.origin}:{self.seq}" if self.origin else ""

    @_lazy
    def trace_id(self) -> str:
        """The causal tree this call belongs to (a root call names it)."""
        return self.parent_trace_id or self.span_id

    @property
    def wire_size(self) -> int:
        return self.HEADER_SIZE + self.payload_size


@dataclass
class RPCResponse:
    """A response message on the wire."""

    seq: int
    status: str
    value: Any
    payload_size: int
    src_address: str
    error_message: Optional[str] = None

    HEADER_SIZE = 48

    @property
    def wire_size(self) -> int:
        return self.HEADER_SIZE + self.payload_size
