"""The authentication component: a security building block.

An :class:`AuthProvider` authenticates principals (username/password
table in its config) and issues scoped, expiring capability tokens.
Validation can happen remotely (RPC to this provider) or locally by any
component sharing the signing secret -- the composable "secure building
block" pattern of the paper's section 9.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..config import json_typed
from ..core.component import Client, Provider, ResourceHandle
from ..margo.runtime import MargoInstance, RequestContext
from ..margo.ult import Compute
from .tokens import TokenError, sign_token, verify_token

__all__ = ["AuthProvider", "AuthClient", "AuthHandle", "AuthError"]

#: Cost of one token signature / verification (HMAC-SHA256 of ~200 B).
CRYPTO_OP_COST = 1.5e-6


class AuthError(RuntimeError):
    """Authentication or authorization failure."""


class AuthProvider(Provider):
    """Issues and validates capability tokens.

    Config::

        {
          "secret": "signing-secret",
          "users": {"alice": {"password": "pw", "scopes": {"yokan": ["*"]}}},
          "token_ttl": 60.0
        }
    """

    component_type = "auth"

    def __init__(
        self,
        margo: MargoInstance,
        name: str,
        provider_id: int,
        pool: Any = None,
        config: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(margo, name, provider_id, pool=pool, config=config)
        self.secret: str = self.config.get("secret", f"secret:{name}")
        self.users: dict[str, dict] = dict(self.config.get("users", {}))
        self.token_ttl: float = float(json_typed(self.config.get("token_ttl", 60.0), (int, float),
                                                 "token_ttl", AuthError))
        self._revoked: set[str] = set()
        self._issued = 0

        self.register_rpc("login", self._on_login)
        self.register_rpc("validate", self._on_validate)
        self.register_rpc("revoke", self._on_revoke)

    # ------------------------------------------------------------------
    def _on_login(self, ctx: RequestContext) -> Generator:
        args = ctx.args
        yield Compute(CRYPTO_OP_COST)
        user = self.users.get(args["user"])
        if user is None or user.get("password") != args.get("password"):
            raise AuthError(f"authentication failed for {args.get('user')!r}")
        self._issued += 1
        token = sign_token(
            self.secret,
            principal=args["user"],
            scopes=user.get("scopes", {}),
            expires_at=self.margo.kernel.now + self.token_ttl,
            token_id=f"{self.name}:{self._issued}",
        )
        return token

    def _on_validate(self, ctx: RequestContext) -> Generator:
        yield Compute(CRYPTO_OP_COST)
        payload = self.check(ctx.args["token"])
        return {
            "principal": payload.principal,
            "scopes": payload.scopes,
            "expires_at": payload.expires_at,
            "token_id": payload.token_id,
        }

    def _on_revoke(self, ctx: RequestContext) -> Generator:
        yield Compute(CRYPTO_OP_COST)
        payload = self.check(ctx.args["token"])
        self._revoked.add(payload.token_id)
        return None

    # ------------------------------------------------------------------
    def check(self, token: str):
        """Local validation path (for components sharing the secret)."""
        payload = verify_token(self.secret, token, now=self.margo.kernel.now)
        if payload.token_id in self._revoked:
            raise TokenError(f"token {payload.token_id} was revoked")
        return payload

    def get_config(self) -> dict[str, Any]:
        doc = dict(self.config)
        doc.pop("secret", None)  # never expose the signing secret
        doc["users"] = sorted(self.users)
        doc["tokens_issued"] = self._issued
        doc["tokens_revoked"] = len(self._revoked)
        return doc


class AuthHandle(ResourceHandle):
    """Handle to a remote auth provider."""

    def login(self, user: str, password: str) -> Generator:
        token = yield from self._forward("login", {"user": user, "password": password})
        return token

    def validate(self, token: str) -> Generator:
        payload = yield from self._forward("validate", {"token": token})
        return payload

    def revoke(self, token: str) -> Generator:
        yield from self._forward("revoke", {"token": token})
        return None


class AuthClient(Client):
    """Client library of the auth component."""

    component_type = "auth"
    handle_cls = AuthHandle

    def make_handle(self, address: str, provider_id: int) -> AuthHandle:
        return AuthHandle(self, address, provider_id)
