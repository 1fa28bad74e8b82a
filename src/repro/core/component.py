"""The anatomy of a Mochi component (paper Fig. 1).

Every component in this package provides:

* a **server library**: a :class:`Provider` subclass that manages a
  resource and registers RPCs for remote access.  Multiple providers
  coexist in one process, distinguished by their *provider id*; each is
  configured from a JSON document and runs its handlers in an Argobots
  pool;
* a **client library**: a :class:`Client` subclass from which users
  instantiate :class:`ResourceHandle` objects encapsulating the address
  and provider id of the provider holding the resource;
* a **resource** following an abstract backend interface so the
  component's functionality "can be implemented in various ways"
  (e.g. Yokan over map/ordered-map/file backends).

Dynamic-service hooks (``migrate``, ``checkpoint``, ``restore``,
``get_config``) are part of the provider interface so Bedrock can
orchestrate migration and resilience without knowing component
internals (paper sections 6-7).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..margo.pool import Pool
from ..margo.runtime import MargoInstance, RequestContext
from ..mercury import NULL_PROVIDER

__all__ = ["Provider", "Client", "ResourceHandle", "ComponentError", "ProviderIdError"]

_UNSET = object()


class ComponentError(RuntimeError):
    """Base class for component-level errors."""


class ProviderIdError(ComponentError, ValueError):
    """Invalid or conflicting provider id."""


class Provider:
    """Base class for the server side of a component.

    Subclasses set :attr:`component_type` (the RPC namespace) and call
    :meth:`register_rpc` for each operation.  RPC names on the wire are
    ``"<component_type>_<operation>"``, so different component types
    never collide even at the same provider id.
    """

    #: Override in subclasses, e.g. ``"yokan"``.
    component_type: str = "component"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: str | Pool | None = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        if not 0 <= provider_id < NULL_PROVIDER:
            raise ProviderIdError(
                f"provider id must be in [0, {NULL_PROVIDER}), got {provider_id}"
            )
        self.margo = margo
        self.name = name
        self.provider_id = provider_id
        self.config: dict[str, Any] = dict(config or {})
        pool_name = pool if isinstance(pool, str) else (
            pool.name if pool is not None else margo.config.rpc_pool
        )
        self.pool: Pool = margo.claim_pool(pool_name, owner=f"provider:{name}")
        self._registered: list[str] = []
        self._destroyed = False

    # ------------------------------------------------------------------
    def register_rpc(self, operation: str, handler: Any) -> None:
        """Register an RPC handler under this provider's id and pool."""
        rpc_name = f"{self.component_type}_{operation}"
        self.margo.register(
            rpc_name, handler, provider_id=self.provider_id, pool=self.pool
        )
        self._registered.append(rpc_name)

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def destroy(self) -> None:
        """Deregister all RPCs and release the pool claim."""
        if self._destroyed:
            return
        self._destroyed = True
        for rpc_name in self._registered:
            try:
                self.margo.deregister(rpc_name, provider_id=self.provider_id)
            except Exception:
                pass  # margo may already be finalized
        self._registered.clear()
        self.margo.release_pool(self.pool.name, owner=f"provider:{self.name}")

    # ------------------------------------------------------------------
    # dynamic-service hooks (Bedrock modules call these)
    # ------------------------------------------------------------------
    def get_config(self) -> dict[str, Any]:
        """The provider's live JSON configuration."""
        return dict(self.config)

    def migrate(self, remi_client: Any, dest_address: str, dest_provider_id: int) -> Generator:
        """Move this provider's state to another process via REMI.

        Components that own persistent state override this (paper
        section 6, Observation 5: components "expose a migrate function
        pointer for Bedrock to call").
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support migration"
        )
        yield  # pragma: no cover - makes this a generator

    def checkpoint(self, pfs: Any, path: str) -> Generator:
        """Save the provider's state to a parallel file system path
        (paper section 7, Observation 9)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )
        yield  # pragma: no cover

    def restore(self, pfs: Any, path: str) -> Generator:
        """Restore the provider's state from a checkpoint."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support restore"
        )
        yield  # pragma: no cover


class Client:
    """Base class for the client side of a component."""

    #: Must match the provider's :attr:`Provider.component_type`.
    component_type: str = "component"
    #: Subclasses point this at their ResourceHandle subclass.
    handle_cls: type["ResourceHandle"]

    def __init__(self, margo: MargoInstance) -> None:
        self.margo = margo

    def make_handle(self, address: str, provider_id: int) -> "ResourceHandle":
        """Create a handle to the remote resource at (address, provider_id)."""
        return self.handle_cls(self, address, provider_id)


class ResourceHandle:
    """Maps to a remote resource: encapsulates address + provider id
    (paper Fig. 1)."""

    def __init__(self, client: Client, address: str, provider_id: int) -> None:
        self.client = client
        self.address = address
        self.provider_id = provider_id
        #: Per-handle default RPC timeout; when set, applies to every
        #: operation issued through this handle (overridable per call).
        self.timeout: Any = _UNSET
        #: When set, every RPC carries this capability token; guarded
        #: providers (repro.security) unwrap and verify it.
        self.auth_token: Optional[str] = None

    def _forward(self, operation: str, args: Any = None, timeout: Any = _UNSET) -> Generator:
        """Issue ``<component_type>_<operation>`` to the remote provider:
        Margo's own forward generator, so no frame of ours sits between
        the caller's ``yield from`` and Margo on any resume."""
        client = self.client
        rpc_name = f"{client.component_type}_{operation}"
        if self.auth_token is not None:
            args = {"__token__": self.auth_token, "__args__": args}
        if timeout is _UNSET:
            timeout = self.timeout
            if timeout is _UNSET:
                return client.margo.forward(self.address, rpc_name, args, self.provider_id)
        return client.margo.forward(self.address, rpc_name, args, self.provider_id, timeout)
