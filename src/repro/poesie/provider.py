"""Poesie provider/client: remote script execution.

The provider hosts named interpreter *sessions* with persistent
environments; clients submit scripts.  Execution is charged CPU time
proportional to interpreter steps, so heavy scripts occupy the
provider's execution stream like real embedded interpreters do.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..config import json_typed
from ..core.component import Client, Provider, ResourceHandle
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import Compute
from .interpreter import MiniInterpreter, ScriptError

__all__ = ["PoesieProvider", "PoesieClient", "InterpreterHandle"]

#: Simulated cost per interpreter step.
STEP_COST = 50e-9


class PoesieProvider(Provider):
    """Hosts script-interpreter sessions.

    Config: ``{"max_steps": 100000}``.
    """

    component_type = "poesie"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config=config)
        self.max_steps = json_typed(self.config.get("max_steps", 100_000), int, "max_steps",
                                    ScriptError)
        self._sessions: dict[str, MiniInterpreter] = {}
        self.register_rpc("execute", self._on_execute)
        self.register_rpc("get_var", self._on_get_var)
        self.register_rpc("reset", self._on_reset)

    def _session(self, name: str) -> MiniInterpreter:
        session = self._sessions.get(name)
        if session is None:
            session = MiniInterpreter(max_steps=self.max_steps)
            self._sessions[name] = session
        return session

    def _on_execute(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        session = self._session(args.get("session", "default"))
        result = session.execute(args["code"], env=args.get("env"))
        yield Compute(STEP_COST * max(1, session._steps))
        return result

    def _on_get_var(self, ctx: RequestContext) -> Generator:
        session = self._session(ctx.args.get("session", "default"))
        name = ctx.args["name"]
        yield Compute(STEP_COST)
        if name not in session.env:
            raise ScriptError(f"undefined variable {name!r}")
        return session.env[name]

    def _on_reset(self, ctx: RequestContext) -> Generator:
        yield Compute(STEP_COST)
        self._sessions.pop(ctx.args.get("session", "default"), None)
        return None

    def get_config(self) -> dict[str, Any]:
        doc = dict(self.config)
        doc["max_steps"] = self.max_steps
        doc["sessions"] = sorted(self._sessions)
        return doc


class InterpreterHandle(ResourceHandle):
    """Handle to a remote Poesie interpreter."""

    def execute(self, code: str, session: str = "default", env: Optional[dict] = None) -> Generator:
        result = yield from self._forward(
            "execute", {"code": code, "session": session, "env": env}
        )
        return result

    def get_var(self, name: str, session: str = "default") -> Generator:
        result = yield from self._forward("get_var", {"name": name, "session": session})
        return result

    def reset(self, session: str = "default") -> Generator:
        yield from self._forward("reset", {"session": session})
        return None


class PoesieClient(Client):
    """Client library of the Poesie component."""

    component_type = "poesie"
    handle_cls = InterpreterHandle

    def make_handle(self, address: str, provider_id: int) -> InterpreterHandle:
        return InterpreterHandle(self, address, provider_id)
