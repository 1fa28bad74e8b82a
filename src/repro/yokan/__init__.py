"""Yokan: Mochi's node-based key-value store component.

Server side: :class:`YokanProvider` (backends: ``map``, ``ordered``,
``persistent``) and :class:`VirtualYokanProvider` (transparent N-way
replication, paper section 7 Observation 10).  Client side:
:class:`YokanClient` / :class:`DatabaseHandle`.
"""

from .backend import (
    Batch,
    KVBackend,
    NoSuchKeyError,
    UnknownBackendError,
    YokanError,
    backend_types,
    create_backend,
    decode_records,
    encode_records,
    register_backend,
)
from .backends import MapBackend, OrderedBackend, PersistentBackend
from .client import DatabaseHandle, YokanClient
from .provider import YokanProvider
from .virtual import VirtualYokanProvider

__all__ = [
    "YokanProvider",
    "VirtualYokanProvider",
    "YokanClient",
    "DatabaseHandle",
    "Batch",
    "KVBackend",
    "MapBackend",
    "OrderedBackend",
    "PersistentBackend",
    "register_backend",
    "create_backend",
    "backend_types",
    "encode_records",
    "decode_records",
    "YokanError",
    "NoSuchKeyError",
    "UnknownBackendError",
]
