"""Warabi: Mochi's blob-storage component."""

from .client import TargetHandle, WarabiClient
from .provider import NoSuchBlobError, WarabiError, WarabiProvider

__all__ = [
    "WarabiProvider",
    "WarabiClient",
    "TargetHandle",
    "WarabiError",
    "NoSuchBlobError",
]
