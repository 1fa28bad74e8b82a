"""Typed reads of JSON configuration documents.

Every config parser -- the observability and SLO specs, and the
providers' own documents -- checks a value's JSON kind with
:func:`json_typed` instead of coercing it.
"""

from __future__ import annotations

from typing import Any

__all__ = ["json_typed"]

#: What :func:`json_typed` calls each kind it checks.
_NOUNS = {bool: "a boolean", int: "an integer", (int, float): "a number"}


def json_typed(value: Any, kind: Any, what: str, error: type = ValueError) -> Any:
    """``value`` if it is a JSON value of ``kind``: ``bool``, ``int`` or
    ``(int, float)``, and no boolean unless ``kind`` is ``bool``.
    Outside input is never coerced: ``"false"`` is no switch, ``2.9``
    no count and ``"0.5"`` no number.  A bad one raises ``error``."""
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
        raise error(f"{what} must be {_NOUNS[kind]}, got {value!r}")
    return value
