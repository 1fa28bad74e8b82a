"""Bedrock client: remote manipulation of a process's configuration.

Mirrors the C++ API of paper Listing 5::

    bedrock::Client client{...};
    bedrock::ServiceHandle p = client.makeServiceHandle(address);
    p.addPool(jsonPoolConfig);
    p.removePool("MyPoolX");
    p.loadModule("B", "libcomponent_b.so");
    p.startProvider("myProviderB", "B", ...);

plus the distributed-transaction coordinator that gives concurrent
reconfigurations all-or-nothing semantics across processes (section 5,
Observation 3).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..core.component import Client, ResourceHandle
from ..core.parallel import parallel
from .errors import TransactionError
from .server import BEDROCK_PROVIDER_ID

__all__ = ["BedrockClient", "ServiceHandle", "ServiceGroupHandle"]


class ServiceHandle(ResourceHandle):
    """Handle to the Bedrock server of one process."""

    # ---- argobots-level reconfiguration --------------------------------
    def add_pool(self, pool_config: dict[str, Any]) -> Generator:
        yield from self._forward("add_pool", pool_config)
        return None

    def remove_pool(self, name: str) -> Generator:
        yield from self._forward("remove_pool", {"name": name})
        return None

    def add_xstream(self, xstream_config: dict[str, Any]) -> Generator:
        yield from self._forward("add_xstream", xstream_config)
        return None

    def remove_xstream(self, name: str) -> Generator:
        yield from self._forward("remove_xstream", {"name": name})
        return None

    # ---- provider-level reconfiguration --------------------------------
    def load_module(self, type_name: str, library: str) -> Generator:
        yield from self._forward("load_module", {"type": type_name, "library": library})
        return None

    def start_provider(
        self,
        name: str,
        type_name: str,
        provider_id: int = 1,
        pool: Optional[str] = None,
        config: Optional[dict[str, Any]] = None,
        dependencies: Optional[dict[str, Any]] = None,
    ) -> Generator:
        op: dict[str, Any] = {
            "name": name,
            "type": type_name,
            "provider_id": provider_id,
            "config": config or {},
            "dependencies": dependencies or {},
        }
        if pool is not None:
            op["pool"] = pool
        result = yield from self._forward("start_provider", op)
        return result

    def stop_provider(self, name: str) -> Generator:
        yield from self._forward("stop_provider", {"name": name})
        return None

    def list_providers(self) -> Generator:
        result = yield from self._forward("list_providers")
        return result

    # ---- configuration access ------------------------------------------
    def get_config(self) -> Generator:
        result = yield from self._forward("get_config")
        return result

    def query(self, jx9_script: str) -> Generator:
        """Run a Jx9 query on the remote process: ``$__config__`` and the
        observer planes (``$__metrics__``, ``$__traces__``,
        ``$__profile__``, ``$__health__``, ``$__incidents__``,
        ``$__slo__``, ``$__xray__``; ``null`` when a plane is off)."""
        result = yield from self._forward("query", {"script": jx9_script})
        return result

    # ---- dynamic-service operations --------------------------------------
    def migrate_provider(
        self,
        name: str,
        dest_address: str,
        remi_provider_id: int = 0,
        method: str = "auto",
        **kwargs: Any,
    ) -> Generator:
        op = {
            "name": name,
            "dest_address": dest_address,
            "remi_provider_id": remi_provider_id,
            "method": method,
            **kwargs,
        }
        result = yield from self._forward("migrate_provider", op, timeout=30.0)
        return result

    def checkpoint_provider(self, name: str, path: str) -> Generator:
        result = yield from self._forward(
            "checkpoint_provider", {"name": name, "path": path}, timeout=30.0
        )
        return result

    def restore_provider(self, name: str, path: str) -> Generator:
        result = yield from self._forward(
            "restore_provider", {"name": name, "path": path}, timeout=30.0
        )
        return result


class ServiceGroupHandle:
    """Coordinates reconfigurations across several Bedrock processes.

    Implements the two-phase-commit protocol whose guarantee the paper
    states for concurrent conflicting requests: "either c1's or c2's
    request will succeed, but not both."
    """

    def __init__(self, client: "BedrockClient", addresses: list[str]) -> None:
        self.client = client
        self.addresses = list(addresses)
        self._tx_counter = 0

    def handle_for(self, address: str) -> ServiceHandle:
        return self.client.make_handle(address, BEDROCK_PROVIDER_ID)

    def _next_txid(self) -> str:
        self._tx_counter += 1
        return f"tx:{self.client.margo.address}:{self._tx_counter}"

    def execute_transaction(
        self, ops_by_address: dict[str, list[dict[str, Any]]]
    ) -> Generator:
        """Atomically apply ops across processes; raises
        :class:`TransactionError` (after aborting everywhere) if any
        participant votes no."""
        margo = self.client.margo
        txid = self._next_txid()
        participants = sorted(ops_by_address)

        def prepare(address: str) -> Generator:
            reply = yield from margo.forward(
                address,
                "bedrock_tx_prepare",
                {"txid": txid, "ops": ops_by_address[address]},
                provider_id=BEDROCK_PROVIDER_ID,
                timeout=5.0,
            )
            return reply

        votes = yield from parallel(margo, [prepare(a) for a in participants])
        if all(v["vote"] for v in votes):
            verb, outcome = "bedrock_tx_commit", None
        else:
            reasons = [v.get("reason") for v in votes if not v["vote"]]
            verb, outcome = "bedrock_tx_abort", reasons

        def finish(address: str) -> Generator:
            yield from margo.forward(
                address,
                verb,
                {"txid": txid},
                provider_id=BEDROCK_PROVIDER_ID,
                timeout=5.0,
            )

        yield from parallel(margo, [finish(a) for a in participants])
        if outcome is not None:
            raise TransactionError(
                f"transaction {txid} aborted: {'; '.join(map(str, outcome))}"
            )
        return txid

    def start_provider_tx(
        self, address: str, op: dict[str, Any]
    ) -> Generator:
        """Start a provider transactionally, pinning its remote
        dependencies so concurrent destruction cannot race it (the
        paper's c1/c2 scenario)."""
        ops: dict[str, list[dict[str, Any]]] = {address: [dict(op, action="start_provider")]}
        token = f"remote:{address}:{op['name']}"
        for spec in (op.get("dependencies") or {}).values():
            if isinstance(spec, dict):
                pin = {
                    "action": "pin_provider",
                    "name": spec.get("provider_name"),
                    "dependent": token,
                }
                if pin["name"] is None:
                    raise TransactionError(
                        "transactional remote dependencies need 'provider_name'"
                    )
                ops.setdefault(spec["address"], []).append(pin)
        txid = yield from self.execute_transaction(ops)
        return txid

    def stop_provider_tx(self, address: str, name: str) -> Generator:
        txid = yield from self.execute_transaction(
            {address: [{"action": "stop_provider", "name": name}]}
        )
        return txid


class BedrockClient(Client):
    """Client library of the Bedrock component."""

    component_type = "bedrock"
    handle_cls = ServiceHandle

    def make_service_handle(self, address: str) -> ServiceHandle:
        """``client.makeServiceHandle(address)`` of Listing 5."""
        return self.make_handle(address, BEDROCK_PROVIDER_ID)

    def make_service_group_handle(self, addresses: list[str]) -> ServiceGroupHandle:
        return ServiceGroupHandle(self, addresses)
