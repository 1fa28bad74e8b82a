"""Wire-size estimation and serialization cost model.

Mercury serializes RPC input/output structures into network buffers.  In
the simulation, payloads stay as Python objects; what matters is (a) how
many bytes they would occupy on the wire -- which drives network transfer
time -- and (b) how long encoding/decoding takes -- which drives the CPU
cost attributed to the serialization phases that the paper's monitoring
distinguishes (section 4: "from the serialization of input and output
data to the scheduling of ULTs").
"""

from __future__ import annotations

from itertools import chain
from typing import Any

__all__ = [
    "estimate_size",
    "codec_cost",
    "SER_BASE_COST",
    "SER_BYTES_PER_SECOND",
]

# Fixed per-call encoder setup cost plus a throughput term.  8 GB/s is a
# reasonable memcpy-bound figure for a tuned C encoder.
SER_BASE_COST = 150e-9
SER_BYTES_PER_SECOND = 8e9

_CONTAINER_OVERHEAD = 8
_PRIMITIVE_SIZES = {int: 8, float: 8, bool: 1, type(None): 1}
_BYTE_STRINGS = frozenset((bytes, bytearray, memoryview))


def estimate_size(obj: Any) -> int:
    """Approximate the encoded size of ``obj`` in bytes.

    Deterministic and cheap; handles the JSON-ish values RPC payloads are
    made of, plus raw ``bytes`` buffers (data-plane payloads).
    """
    t = type(obj)
    if t is bytes:
        return len(obj)
    if t is dict:
        # Argument dicts are sized in this frame: str names, byte-string,
        # scalar and declared (``__wire_size__``) values take no call.
        size = _CONTAINER_OVERHEAD
        for k, v in obj.items():
            if type(k) is str and k.isascii():
                size += len(k) + 4
            else:
                size += estimate_size(k)
            tv = type(v)
            if tv is bytes:
                size += len(v)
            elif tv in _PRIMITIVE_SIZES:
                size += _PRIMITIVE_SIZES[tv]
            else:
                size += getattr(v, "__wire_size__", 0) or estimate_size(v)
        return size
    if t in _PRIMITIVE_SIZES:
        return _PRIMITIVE_SIZES[t]
    if t is str:
        return len(obj.encode("utf-8", errors="replace")) + 4
    if t is list or t is tuple:
        # Flat batches (Yokan's keys / values / (key, value) pairs) are
        # sized without a Python frame per element.  Exact types only:
        # a subclass may declare ``__wire_size__``, so it takes the walk.
        kinds = set(map(type, obj))
        if kinds <= _BYTE_STRINGS:
            return _CONTAINER_OVERHEAD + sum(map(len, obj))
        if kinds == {tuple} and _BYTE_STRINGS.issuperset(
            map(type, chain.from_iterable(obj))
        ):
            return _CONTAINER_OVERHEAD * (len(obj) + 1) + sum(
                map(len, chain.from_iterable(obj))
            )
        return _CONTAINER_OVERHEAD + sum(estimate_size(item) for item in obj)
    if t is bytearray or t is memoryview:
        return len(obj)
    if t is set or t is frozenset:
        return _CONTAINER_OVERHEAD + sum(estimate_size(item) for item in obj)
    # The exact built-in types above cannot carry attributes; any other
    # object can declare its own wire footprint.  Bulk handles do, so
    # that RDMA-bound payloads are not double-charged as RPC payload.
    declared = getattr(obj, "__wire_size__", None)
    if declared is not None:
        return declared
    if isinstance(obj, (int, float)):  # numpy scalars, enums, bools subclassing int
        return 8
    # Dataclass-like objects with __dict__: encode their fields.
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return _CONTAINER_OVERHEAD + estimate_size(attrs)
    slots = getattr(obj, "__slots__", None)
    if slots is not None:
        return _CONTAINER_OVERHEAD + sum(
            estimate_size(getattr(obj, s)) for s in slots if hasattr(obj, s)
        )
    raise TypeError(f"cannot estimate wire size of {type(obj).__name__}")


def codec_cost(size: int) -> float:
    """CPU seconds to encode, or to decode, ``size`` bytes (one model)."""
    return SER_BASE_COST + size / SER_BYTES_PER_SECOND
