"""Mercury core concepts: RPC identifiers and wire messages.

Mercury identifies an RPC by a 32-bit hash of its registered name; the
paper's Listing 1 shows such an id (2924675071 for "echo"-adjacent
registration).  We use CRC-32 of the name, which is stable across
processes -- a property the dispatch path relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional

from .serialization import SER_BASE_COST, SER_BYTES_PER_SECOND

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


#: ``RPCRequest.trace_crc`` before it is known, or of a call in no trace:
#: above every CRC-32, so no sample rate keeps it.
NO_TRACE = 1 << 32


def trace_crc_of(trace_id: str) -> int:
    """What trace sampling compares: the trace id's (seed-free) CRC-32."""
    return zlib.crc32(trace_id.encode("utf-8")) if trace_id else NO_TRACE


class _RequestStamps:
    """Observer stamps and cached ids: declared slots, unset until set, so
    ``getattr(request, name, default)`` reads "not stamped" as ``default``."""

    __slots__ = ("_profile_sample_weight", "_profile_fwd_start", "_profile_sent_at",
                 "_profile_received_at", "_profile_ult_start_at", "_profile_ult_end_at",
                 "_xray_edges", "_span_id", "_trace_id")


@dataclass(slots=True, init=False)
class RPCRequest(_RequestStamps):
    """A request message on the wire.

    Like a Mercury handle whose proc has run, it knows its encoded size
    from construction: ``wire_size`` is ``HEADER_SIZE + payload_size``
    and ``codec_cost`` the CPU seconds to encode (or decode) the payload
    (``serialization.codec_cost``, inlined)."""

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
    #: ``trace_crc_of(trace_id)``, set by a traced forward without
    #: formatting ``trace_id``; else the first tracer's decision sets it.
    trace_crc: int = NO_TRACE
    wire_size: int = field(init=False, repr=False, compare=False)
    codec_cost: float = field(init=False, repr=False, compare=False)

    #: Fixed header size added to the payload on the wire.
    HEADER_SIZE = 64

    def __init__(
        self,
        seq: int,
        rpc_id: int,
        rpc_name: str,
        provider_id: int,
        args: Any,
        payload_size: int,
        src_address: str,
        dst_address: str = "",
        parent_rpc_id: int = NULL_RPC,
        parent_provider_id: int = NULL_PROVIDER,
        origin: str = "",
        parent_trace_id: str = "",
        parent_span_id: str = "",
        trace_crc: int = NO_TRACE,
    ) -> None:
        self.seq = seq
        self.rpc_id = rpc_id
        self.rpc_name = rpc_name
        self.provider_id = provider_id
        self.args = args
        self.payload_size = payload_size
        self.src_address = src_address
        self.dst_address = dst_address
        self.parent_rpc_id = parent_rpc_id
        self.parent_provider_id = parent_provider_id
        self.origin = origin
        self.parent_trace_id = parent_trace_id
        self.parent_span_id = parent_span_id
        self.trace_crc = trace_crc
        self.wire_size = self.HEADER_SIZE + payload_size
        self.codec_cost = SER_BASE_COST + payload_size / SER_BYTES_PER_SECOND

    @property
    def span_id(self) -> str:
        """This call's id: deterministic, unique per calling process."""
        try:
            return self._span_id
        except AttributeError:
            value = self._span_id = f"{self.origin}:{self.seq}" if self.origin else ""
            return value

    @property
    def trace_id(self) -> str:
        """The causal tree this call belongs to (a root call names it)."""
        try:
            return self._trace_id
        except AttributeError:
            value = self._trace_id = self.parent_trace_id or self.span_id
            return value


class _ResponseStamps:
    """The profiler's respond stamp, a declared slot unset until stamped."""

    __slots__ = ("_profile_responded_at",)


@dataclass(slots=True, init=False)
class RPCResponse(_ResponseStamps):
    """A response message on the wire, sized and costed like a request."""

    seq: int
    status: str
    value: Any
    payload_size: int
    src_address: str
    error_message: Optional[str] = None
    wire_size: int = field(init=False, repr=False, compare=False)
    codec_cost: float = field(init=False, repr=False, compare=False)

    HEADER_SIZE = 48

    def __init__(
        self,
        seq: int,
        status: str,
        value: Any,
        payload_size: int,
        src_address: str,
        error_message: Optional[str] = None,
    ) -> None:
        self.seq = seq
        self.status = status
        self.value = value
        self.payload_size = payload_size
        self.src_address = src_address
        self.error_message = error_message
        self.wire_size = self.HEADER_SIZE + payload_size
        self.codec_cost = SER_BASE_COST + payload_size / SER_BYTES_PER_SECOND
