"""Bedrock modules: how Bedrock learns to instantiate component types.

Paper Listing 3: the ``libraries`` section "tells Bedrock which
libraries to load to know how to instantiate a provider of type 'A'.
This library contains a structure of function pointers that Bedrock will
call to instantiate providers, clients, and resource handles, as well as
to obtain their configuration."

:class:`BedrockModule` is that structure of function pointers; the
library registry maps ``.so`` names to modules.  The built-in Mochi
components register their libraries at import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "BedrockModule",
    "register_library",
    "resolve_library",
    "known_libraries",
    "builtin_libraries",
    "ModuleError",
]


class ModuleError(RuntimeError):
    """Unknown library / type, or a module contract violation."""


@dataclass(frozen=True)
class BedrockModule:
    """Function-pointer table for one component type."""

    type_name: str
    #: (margo, name, provider_id, pool, config, dependencies) -> Provider
    provider_factory: Callable[..., Any]
    #: (margo) -> Client; optional.
    client_factory: Optional[Callable[..., Any]] = None
    #: Names of dependencies the provider requires, e.g. ("remi",).
    required_dependencies: tuple[str, ...] = ()
    #: Whether providers of this type support migrate()/checkpoint().
    supports_migration: bool = False
    supports_checkpoint: bool = False


_LIBRARIES: dict[str, BedrockModule] = {}


def register_library(library: str, module: BedrockModule) -> None:
    """Associate a library path (e.g. ``"libyokan.so"``) with a module."""
    existing = _LIBRARIES.get(library)
    if existing is not None and existing is not module:
        raise ModuleError(f"library {library!r} already registered")
    _LIBRARIES[library] = module


def resolve_library(library: str) -> BedrockModule:
    try:
        return _LIBRARIES[library]
    except (KeyError, TypeError) as err:
        raise ModuleError(
            f"unknown library {library!r}; known: {sorted(_LIBRARIES)}"
        ) from err


def known_libraries() -> list[str]:
    return sorted(_LIBRARIES)


# ----------------------------------------------------------------------
# built-in component libraries
# ----------------------------------------------------------------------
def _yokan_factory(margo, name, provider_id, pool, config, dependencies):
    from ..yokan.provider import YokanProvider

    return YokanProvider(margo, name, provider_id, pool=pool, config=config)


def _yokan_virtual_factory(margo, name, provider_id, pool, config, dependencies):
    from ..yokan.virtual import VirtualYokanProvider

    return VirtualYokanProvider(margo, name, provider_id, pool=pool, config=config)


def _warabi_factory(margo, name, provider_id, pool, config, dependencies):
    from ..warabi.provider import WarabiProvider

    return WarabiProvider(margo, name, provider_id, pool=pool, config=config)


def _poesie_factory(margo, name, provider_id, pool, config, dependencies):
    from ..poesie.provider import PoesieProvider

    return PoesieProvider(margo, name, provider_id, pool=pool, config=config)


def _remi_factory(margo, name, provider_id, pool, config, dependencies):
    from ..remi.provider import RemiProvider

    return RemiProvider(margo, name, provider_id, pool=pool, config=config)


def _yokan_client(margo):
    from ..yokan.client import YokanClient

    return YokanClient(margo)


def _warabi_client(margo):
    from ..warabi.client import WarabiClient

    return WarabiClient(margo)


def _poesie_client(margo):
    from ..poesie.provider import PoesieClient

    return PoesieClient(margo)


def _remi_client(margo):
    from ..remi.client import RemiClient

    return RemiClient(margo)


def builtin_libraries() -> dict[str, BedrockModule]:
    """The standard Mochi component libraries."""
    return {
        "libyokan.so": BedrockModule(
            type_name="yokan",
            provider_factory=_yokan_factory,
            client_factory=_yokan_client,
            supports_migration=True,
            supports_checkpoint=True,
        ),
        "libyokan-virtual.so": BedrockModule(
            type_name="yokan-virtual",
            provider_factory=_yokan_virtual_factory,
            client_factory=_yokan_client,
        ),
        "libwarabi.so": BedrockModule(
            type_name="warabi",
            provider_factory=_warabi_factory,
            client_factory=_warabi_client,
            supports_migration=True,
            supports_checkpoint=True,
        ),
        "libpoesie.so": BedrockModule(
            type_name="poesie",
            provider_factory=_poesie_factory,
            client_factory=_poesie_client,
        ),
        "libremi.so": BedrockModule(
            type_name="remi",
            provider_factory=_remi_factory,
            client_factory=_remi_client,
        ),
    }


for _lib, _mod in builtin_libraries().items():
    if _lib not in _LIBRARIES:
        register_library(_lib, _mod)
