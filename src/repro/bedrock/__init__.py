"""Bedrock: bootstrapping + online reconfiguration (paper section 5)."""

from .boot import boot_process, check_boot_config
from .client import BedrockClient, ServiceGroupHandle, ServiceHandle
from .errors import (
    BedrockConfigError,
    BedrockError,
    DependencyError,
    EntityLockedError,
    NoSuchProviderError,
    ProviderConflictError,
    TransactionError,
)
from .jx9 import Jx9Error, Jx9SyntaxError, jx9_execute
from .module import (
    BedrockModule,
    ModuleError,
    builtin_libraries,
    known_libraries,
    register_library,
    resolve_library,
)
from .server import BEDROCK_PROVIDER_ID, BedrockServer, ProviderRecord

__all__ = [
    "BedrockServer",
    "BedrockClient",
    "ServiceHandle",
    "ServiceGroupHandle",
    "ProviderRecord",
    "BEDROCK_PROVIDER_ID",
    "boot_process",
    "check_boot_config",
    "BedrockModule",
    "register_library",
    "resolve_library",
    "known_libraries",
    "builtin_libraries",
    "ModuleError",
    "jx9_execute",
    "Jx9Error",
    "Jx9SyntaxError",
    "BedrockError",
    "BedrockConfigError",
    "DependencyError",
    "NoSuchProviderError",
    "ProviderConflictError",
    "TransactionError",
    "EntityLockedError",
]
