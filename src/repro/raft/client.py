"""Raft client: leader discovery, redirects, and retries."""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ..core.component import Client, ResourceHandle
from ..margo.errors import RpcError, RpcFailedError
from ..margo.runtime import MargoInstance
from ..margo.ult import UltSleep

__all__ = ["RaftClient", "RaftGroupHandle", "RaftUnavailableError"]

# Process-wide handle numbers (h1, h2, ...), kept off the class: a store
# to a class attribute resets CPython's attribute caches for its type.
_HANDLE_IDS = itertools.count(1)


class RaftUnavailableError(RuntimeError):
    """No leader could be reached within the retry budget."""


class RaftGroupHandle(ResourceHandle):
    """Handle to a whole consensus group (not a single provider).

    ``address`` tracks the current leader guess; ``members`` is the full
    candidate list used for discovery.
    """

    def __init__(
        self,
        client: "RaftClient",
        members: list[str],
        provider_id: int,
        retry_interval: float = 0.15,
        max_attempts: int = 60,
    ) -> None:
        super().__init__(client, members[0], provider_id)
        self.members = list(members)
        self.retry_interval = retry_interval
        self.max_attempts = max_attempts
        #: Client-session identity for exactly-once command semantics.
        self.client_id = f"{client.margo.address}/h{next(_HANDLE_IDS)}"
        self._sequence = 0

    def submit(self, command: Any, rpc_timeout: float = 1.0) -> Generator:
        """Replicate ``command``; returns the state machine's result.

        Follows leader hints, rotates through members while electing,
        and retries across leader failures.  Commands carry a client
        session (id, sequence), so a retry after a lost acknowledgement
        is deduplicated server-side (exactly-once application).
        """
        margo = self.client.margo
        from .node import CONFIG_OP

        if not (isinstance(command, dict) and CONFIG_OP in command):
            self._sequence += 1
            command = {
                "__client__": self.client_id,
                "__seq__": self._sequence,
                "__command__": command,
            }
        target: Optional[str] = self.address
        rotation = 0
        for _attempt in range(self.max_attempts):
            if target is None:
                target = self.members[rotation % len(self.members)]
                rotation += 1
            try:
                reply = yield from margo.forward(
                    target,
                    "raft_submit",
                    {"command": command},
                    provider_id=self.provider_id,
                    timeout=rpc_timeout,
                )
            except RpcFailedError:
                raise  # the remote handler answered with an error: authoritative
            except RpcError:
                target = None
                yield UltSleep(self.retry_interval)
                continue
            if reply.get("ok"):
                self.address = target  # cache the confirmed leader
                return reply.get("result")
            hint = reply.get("leader")
            target = hint if hint and hint != target else None
            yield UltSleep(self.retry_interval)
        raise RaftUnavailableError(
            f"no leader reachable after {self.max_attempts} attempts"
        )

    def read(self, query: Any, rpc_timeout: float = 1.0) -> Generator:
        """Linearizable read via the leader's ReadIndex fast path: no log
        entry is appended; one heartbeat round confirms leadership."""
        margo = self.client.margo
        target: Optional[str] = self.address
        rotation = 0
        for _attempt in range(self.max_attempts):
            if target is None:
                target = self.members[rotation % len(self.members)]
                rotation += 1
            try:
                reply = yield from margo.forward(
                    target,
                    "raft_read",
                    {"command": query},
                    provider_id=self.provider_id,
                    timeout=rpc_timeout,
                )
            except RpcFailedError:
                raise  # the remote handler answered with an error: authoritative
            except RpcError:
                target = None
                yield UltSleep(self.retry_interval)
                continue
            if reply.get("ok"):
                self.address = target
                return reply.get("result")
            hint = reply.get("leader")
            target = hint if hint and hint != target else None
            yield UltSleep(self.retry_interval)
        raise RaftUnavailableError(
            f"no leader reachable for read after {self.max_attempts} attempts"
        )

    def status_of(self, member: str) -> Generator:
        reply = yield from self.client.margo.forward(
            member, "raft_status", provider_id=self.provider_id, timeout=1.0
        )
        return reply

    def find_leader(self) -> Generator:
        """Poll members until one reports itself leader."""
        for _ in range(self.max_attempts):
            for member in self.members:
                try:
                    status = yield from self.status_of(member)
                except RpcError:
                    continue
                if status["role"] == "leader":
                    self.address = member
                    return member
            yield UltSleep(self.retry_interval)
        raise RaftUnavailableError("no leader found")

    def change_membership(self, members: list[str]) -> Generator:
        from .node import CONFIG_OP

        result = yield from self.submit({CONFIG_OP: list(members)})
        self.members = list(members)
        return result


class RaftClient(Client):
    """Client library of the Mochi-RAFT component."""

    component_type = "raft"
    handle_cls = RaftGroupHandle

    def make_group_handle(
        self, members: list[str], provider_id: int, **kwargs: Any
    ) -> RaftGroupHandle:
        return RaftGroupHandle(self, members, provider_id, **kwargs)
