"""Colza client: view-hash-stamped staging with automatic refresh.

Implements the client side of the protocol: every RPC carries the
client's view hash; a ``stale-view`` reply makes the client adopt the
fresh view and retry.  This is how "several strategies can be put in
place to react to a change in the service's group" (paper section 6) --
here, the Colza strategy.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ..core.component import Client, ResourceHandle
from ..core.parallel import parallel
from ..margo.errors import RpcError
from ..margo.runtime import MargoInstance
from ..ssg.view import view_hash_of
from .provider import STATUS_OK, STATUS_STALE_VIEW, ColzaError

__all__ = ["ColzaClient", "PipelineHandle"]

# Process-wide view-change transaction numbers, kept off the class: a
# store to a class attribute resets CPython's attribute caches for it.
_TX_IDS = itertools.count(1)


class PipelineHandle:
    """Handle to the whole elastic pipeline (all members)."""

    def __init__(
        self, client: "ColzaClient", members: list[str], provider_id: int
    ) -> None:
        if not members:
            raise ColzaError("pipeline needs at least one member")
        self.client = client
        self.provider_id = provider_id
        self.members = sorted(members)
        self.view_hash = view_hash_of(self.members)
        self.view_refreshes = 0

    # ------------------------------------------------------------------
    def _call(self, member: str, operation: str, args: dict[str, Any]) -> Generator:
        args = dict(args, view_hash=self.view_hash)
        reply = yield from self.client.margo.forward(
            member,
            f"colza_{operation}",
            args,
            provider_id=self.provider_id,
            timeout=2.0,
        )
        return reply

    def _refresh_from(self, reply: dict[str, Any]) -> None:
        self.members = sorted(reply["members"])
        self.view_hash = reply["view_hash"]
        self.view_refreshes += 1

    def refresh(self) -> Generator:
        """Explicitly re-fetch the view from any live member."""
        last: Optional[BaseException] = None
        for member in self.members:
            try:
                reply = yield from self._call(member, "get_view", {})
            except RpcError as err:
                last = err
                continue
            self._refresh_from(reply)
            return self.view_hash
        raise ColzaError("no live pipeline member to refresh from") from last

    # ------------------------------------------------------------------
    def stage(self, iteration: int, chunks: list[bytes], max_retries: int = 4) -> Generator:
        """Distribute ``chunks`` round-robin over the current view.

        On a stale-view rejection the client adopts the new view and
        retries the affected chunks.
        """
        pending = list(chunks)
        for _attempt in range(max_retries + 1):
            failures: list[bytes] = []
            stale_reply: Optional[dict[str, Any]] = None
            for index, chunk in enumerate(pending):
                member = self.members[index % len(self.members)]
                try:
                    reply = yield from self._call(
                        member, "stage", {"iteration": iteration, "chunk": chunk}
                    )
                except RpcError:
                    failures.append(chunk)  # dead member: retry after refresh
                    continue
                if reply["status"] == STATUS_STALE_VIEW:
                    stale_reply = reply
                    failures.append(chunk)
                elif reply["status"] != STATUS_OK:
                    raise ColzaError(f"stage failed: {reply}")
            if not failures:
                return None
            if stale_reply is not None:
                self._refresh_from(stale_reply)
            else:
                yield from self.refresh()
            pending = failures
        raise ColzaError(f"staging failed after {max_retries} view refreshes")

    def execute(self, iteration: int, max_retries: int = 4) -> Generator:
        """Run the pipeline collectively on every member; returns the
        merged result."""
        for _attempt in range(max_retries + 1):
            try:
                replies = yield from parallel(
                    self.client.margo,
                    [
                        self._call(member, "execute", {"iteration": iteration})
                        for member in self.members
                    ],
                )
            except Exception:
                yield from self.refresh()
                continue
            if any(r["status"] == STATUS_STALE_VIEW for r in replies):
                stale = next(r for r in replies if r["status"] == STATUS_STALE_VIEW)
                self._refresh_from(stale)
                continue
            return {
                "chunks": sum(r["chunks"] for r in replies),
                "bytes": sum(r["bytes"] for r in replies),
                "checksum": sum(r["checksum"] for r in replies) % (1 << 32),
                "members": len(replies),
            }
        raise ColzaError(f"execute failed after {max_retries} view refreshes")


    # ------------------------------------------------------------------
    # 2PC-consistent view change (the application as controller)
    # ------------------------------------------------------------------
    def update_view(self, new_members: list[str]) -> Generator:
        """Atomically switch the pipeline to ``new_members``.

        Two-phase commit driven by the application: every *new* member
        must prepare; on unanimous yes the view commits everywhere and
        this handle adopts it; otherwise the change aborts and the old
        view stays valid.  Unlike the SSG-derived view, the committed
        view is strongly consistent: no member ever serves two different
        views for the same hash.
        """
        if not new_members:
            raise ColzaError("new view must have at least one member")
        txid = f"view:{self.client.margo.address}:{next(_TX_IDS)}"
        participants = sorted(set(new_members))

        def phase(operation: str) -> Generator:
            replies = yield from parallel(
                self.client.margo,
                [
                    self.client.margo.forward(
                        member,
                        f"colza_{operation}",
                        {"txid": txid, "members": participants},
                        provider_id=self.provider_id,
                        timeout=2.0,
                    )
                    for member in participants
                ],
            )
            return replies

        votes = yield from phase("prepare_view")
        if all(v.get("vote") for v in votes):
            yield from phase("commit_view")
            self.members = participants
            self.view_hash = view_hash_of(self.members)
            return True
        yield from phase("abort_view")
        reasons = [v.get("reason") for v in votes if not v.get("vote")]
        raise ColzaError(f"view change aborted: {'; '.join(map(str, reasons))}")


class ColzaClient(Client):
    """Client library of the Colza component."""

    component_type = "colza"
    handle_cls = ResourceHandle  # unused; Colza uses pipeline handles

    def make_pipeline_handle(
        self, members: list[str], provider_id: int = 1
    ) -> PipelineHandle:
        return PipelineHandle(self, members, provider_id)
