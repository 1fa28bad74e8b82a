"""State machines replicated by Raft.

Mochi-RAFT's composability story (paper section 7, Observation 11):
"individual Yokan instances are unaware of their database being
RAFT-replicated across nodes, while Mochi-RAFT itself does not need to
know that the commands it logs represent Yokan key-value pairs."

:class:`StateMachine` is the opaque interface Raft drives;
:class:`KVStateMachine` adapts any Yokan :class:`KVBackend` to it --
Yokan gains consensus with zero changes to its own code.
"""

from __future__ import annotations

from typing import Any, Optional

from ..yokan.backend import KVBackend, NoSuchKeyError, decode_records

__all__ = ["StateMachine", "KVStateMachine", "CounterStateMachine"]


class StateMachine:
    """What Raft requires of an application state machine."""

    def apply(self, command: Any) -> Any:
        """Apply a committed command; must be deterministic."""
        raise NotImplementedError

    def query(self, command: Any) -> Any:
        """Read-only query (must not mutate state).  Used by the
        ReadIndex fast path; defaults to unsupported."""
        raise NotImplementedError(f"{type(self).__name__} does not support queries")

    def snapshot(self) -> bytes:
        """Serialize the full state (for log compaction)."""
        raise NotImplementedError

    def restore(self, data: bytes) -> None:
        """Replace state with a snapshot."""
        raise NotImplementedError


class KVStateMachine(StateMachine):
    """Drives an (unmodified) Yokan backend from Raft commands.

    Commands are dicts: ``{"op": "put"|"get"|"erase"|"exists"|"count",
    "key": bytes, "value": bytes}``.  Reads go through the log too, which
    makes them linearizable.
    """

    def __init__(self, backend: KVBackend) -> None:
        self.backend = backend

    def apply(self, command: dict) -> Any:
        op = command["op"]
        if op == "put":
            self.backend.put(command["key"], command["value"])
            return None
        if op == "get":
            try:
                return self.backend.get(command["key"])
            except NoSuchKeyError:
                return None
        if op == "erase":
            try:
                self.backend.erase(command["key"])
                return True
            except NoSuchKeyError:
                return False
        if op == "exists":
            return self.backend.exists(command["key"])
        if op == "count":
            return self.backend.count()
        if op == "noop":
            return None
        raise ValueError(f"unknown KV command {op!r}")

    def query(self, command: dict) -> Any:
        op = command["op"]
        if op == "get":
            try:
                return self.backend.get(command["key"])
            except NoSuchKeyError:
                return None
        if op == "exists":
            return self.backend.exists(command["key"])
        if op == "count":
            return self.backend.count()
        if op == "list_keys":
            return self.backend.list_keys(
                command.get("prefix", b""),
                command.get("start_after"),
                command.get("max_keys", 0),
            )
        raise ValueError(f"unsupported read-only query {op!r}")

    def snapshot(self) -> bytes:
        return self.backend.dump()

    def restore(self, data: bytes) -> None:
        self.backend.replace(decode_records(data))


class CounterStateMachine(StateMachine):
    """A tiny deterministic SM used by tests: add / read."""

    def __init__(self) -> None:
        self.value = 0
        self.applied: list[Any] = []

    def apply(self, command: Any) -> Any:
        self.applied.append(command)
        if isinstance(command, dict) and command.get("op") == "noop":
            return None
        delta = int(command)
        self.value += delta
        return self.value

    def snapshot(self) -> bytes:
        return str(self.value).encode()

    def restore(self, data: bytes) -> None:
        self.value = int(data.decode())
        self.applied = []
