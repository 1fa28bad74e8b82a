"""SSG: scalable service groups -- dynamic membership + SWIM fault detection."""

from .bootstrap import create_group, join_group
from .group import DEFAULT_SSG_PROVIDER_ID, SSGError, SSGGroup
from .swim import MemberStatus, SwimConfig, SwimState, Update
from .view import GroupView, view_hash_of

__all__ = [
    "SSGGroup",
    "SSGError",
    "DEFAULT_SSG_PROVIDER_ID",
    "create_group",
    "join_group",
    "GroupView",
    "view_hash_of",
    "SwimConfig",
    "SwimState",
    "MemberStatus",
    "Update",
]
