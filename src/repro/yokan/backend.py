"""Abstract key-value backend interface (the "resource" of Fig. 1).

Yokan "provides key-value storage on top of backends such as RocksDB,
LevelDB, and Berkeley DB" (paper section 3.1).  Here the backend
interface is the same idea: the provider is backend-agnostic, and
backends register themselves in a factory by type name.

Keys and values are ``bytes`` (``str`` inputs are UTF-8 encoded at the
provider boundary).  Backends must implement a codec-stable
``dump()``/``load()`` pair used for checkpointing and migration.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence

from ..storage import StorageError, segments as _segments
from ..storage.segments import encode_records

__all__ = [
    "Batch",
    "KVBackend",
    "register_backend",
    "create_backend",
    "backend_types",
    "encode_records",
    "decode_records",
    "YokanError",
    "NoSuchKeyError",
    "UnknownBackendError",
]


class YokanError(RuntimeError):
    """Base class for Yokan errors."""


class NoSuchKeyError(YokanError, KeyError):
    """Key not present in the database."""

    def __init__(self, key: bytes) -> None:
        super().__init__(repr(key))
        self.key = key

    def __str__(self) -> str:
        return f"no such key: {self.key!r}"


class UnknownBackendError(YokanError, ValueError):
    """Backend type name not registered."""


def _to_bytes(value: Any) -> bytes:
    if type(value) is bytes:
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    raise YokanError(f"keys/values must be bytes or str, got {type(value).__name__}")


class Batch(list):
    """Keys, values or (key, value) pairs as exact ``bytes``, measured
    once where the batch is built (``Batch(items).measured(...)``), as C
    Yokan's ``yk_put_multi`` takes ``ksizes``/``vsizes`` from its caller.
    ``nbytes`` sums the field lengths; ``__wire_size__`` is what
    ``estimate_size`` returns for the same plain list (8 for the list, 8
    per pair), so no later layer walks it.  Never mutated once built."""

    __slots__ = ("nbytes", "__wire_size__")

    def measured(self, nbytes: int, per_item: int = 0) -> "Batch":
        self.nbytes = nbytes
        self.__wire_size__ = 8 + per_item * len(self) + nbytes
        return self

    @classmethod
    def of_pairs(cls, pairs: Iterable[tuple[Any, Any]]) -> "Batch":
        """A copy of ``pairs`` with ``bytes`` fields (``str`` encoded),
        checked by counting exact types and lengths in C-level sweeps."""
        batch = cls(pairs)
        n = len(batch)
        if list(map(type, batch)).count(tuple) == n and list(map(len, batch)).count(2) == n:
            fields = list(chain.from_iterable(batch))
            if list(map(type, fields)).count(bytes) == 2 * n:
                return batch.measured(sum(map(len, fields)), 8)
        batch[:] = [(_to_bytes(key), _to_bytes(value)) for key, value in batch]
        return batch.measured(sum(map(len, chain.from_iterable(batch))), 8)

    @classmethod
    def of_keys(cls, keys: Iterable[Any]) -> "Batch":
        """A copy of ``keys`` as ``bytes`` (``str`` encoded), measured."""
        batch = cls(keys)
        if list(map(type, batch)).count(bytes) != len(batch):
            batch[:] = map(_to_bytes, batch)
        return batch.measured(sum(map(len, batch)))

    def records(self) -> int:
        """``len(encode_records(self))`` of a batch of pairs: what it
        occupies on the bulk path (a 4-byte length per field)."""
        return 8 * len(self) + self.nbytes


# ----------------------------------------------------------------------
# binary codec for dump/load: the segment log's record stream
# ----------------------------------------------------------------------
def decode_records(data: bytes) -> list[tuple[bytes, bytes]]:
    """Inverse of :func:`encode_records`."""
    try:
        return _segments.decode_records(data)  # type: ignore[return-value]
    except StorageError as err:
        raise YokanError(str(err)) from None


# ----------------------------------------------------------------------
# the abstract interface
# ----------------------------------------------------------------------
class KVBackend:
    """Interface all Yokan backends implement."""

    #: Set by subclasses; used in configs ({"database": {"type": ...}}).
    type_name: str = "abstract"

    def put(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def get(self, key: bytes) -> bytes:
        raise NotImplementedError

    # ---- batch operations ---------------------------------------------
    # Backends override these when they can do better than a per-key
    # loop; the provider's put_multi/get_multi RPCs call them so a bulk
    # workload pays one backend crossing per batch, not one per record.
    def put_multi(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Store every (key, value) pair in one call."""
        for key, value in pairs:
            self.put(key, value)

    def get_multi(self, keys: Sequence[bytes]) -> list[bytes]:
        """Values for ``keys``, in order; raises on the first missing key."""
        return [self.get(key) for key in keys]

    def erase(self, key: bytes) -> None:
        raise NotImplementedError

    def exists(self, key: bytes) -> bool:
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def list_keys(
        self,
        prefix: bytes = b"",
        start_after: Optional[bytes] = None,
        max_keys: int = 0,
    ) -> list[bytes]:
        """Keys with ``prefix``, after ``start_after``, up to ``max_keys``
        (0 = unlimited).  Ordered backends return sorted keys."""
        raise NotImplementedError

    def items(self) -> Iterable[tuple[bytes, bytes]]:
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Approximate stored size (keys + values)."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    # ---- persistence ---------------------------------------------------
    def dump(self) -> bytes:
        """Serialize the whole database."""
        return encode_records(sorted(self.items()))

    def load(self, data: bytes) -> None:
        """Replace contents with a previous :meth:`dump`."""
        self.clear()
        self.put_multi(decode_records(data))


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[dict], KVBackend]] = {}


def register_backend(type_name: str, factory: Callable[[dict], KVBackend]) -> None:
    if type_name in _REGISTRY:
        raise ValueError(f"backend type {type_name!r} already registered")
    _REGISTRY[type_name] = factory


def create_backend(type_name: str, config: Optional[dict] = None) -> KVBackend:
    try:
        factory = _REGISTRY[type_name]
    except KeyError as err:
        raise UnknownBackendError(
            f"unknown backend type {type_name!r}; known: {sorted(_REGISTRY)}"
        ) from err
    return factory(config or {})


def backend_types() -> list[str]:
    return sorted(_REGISTRY)
