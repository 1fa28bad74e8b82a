"""MCH020: a Margo/Bedrock document the boot path would reject.

No check lives here: Listing 3 goes through :func:`check_boot_config`,
Listing 2 through :meth:`MargoConfig.from_json`, and what they raise is
the finding.
"""

from __future__ import annotations

import json
from typing import Any

from ..bedrock import BedrockError, ModuleError, check_boot_config
from ..margo.config import MargoConfig
from ..margo.errors import ConfigError
from .findings import Finding, Severity
from .registry import GROUP_CONFIG, RuleInfo, make_finding, register

__all__ = ["validate_config_doc", "validate_config_file"]

register(RuleInfo(
    "MCH020", "config-rejected", GROUP_CONFIG, Severity.ERROR,
    summary="a document the boot path would reject",
    rationale=(
        "a bad document otherwise fails only when a process boots from "
        "it; checked on the file, the failure names the config"
    ),
))

#: Listing-3 top-level keys, then every key that marks a JSON file as a
#: config (other JSON, such as benchmark results, is skipped).
_BEDROCK_KEYS = frozenset({"margo", "libraries", "providers"})
CONFIG_MARKERS = _BEDROCK_KEYS | {"argobots", "progress_pool", "rpc_pool"}


def validate_config_doc(doc: Any, path: str = "<config>") -> list[Finding]:
    """Why booting ``doc`` (a dict or JSON text) would fail, if it would."""
    try:
        if isinstance(doc, str):
            doc = json.loads(doc)
        if isinstance(doc, dict) and _BEDROCK_KEYS.intersection(doc):
            check_boot_config(doc)
        else:
            MargoConfig.from_json(doc)
    except (json.JSONDecodeError, ConfigError, BedrockError, ModuleError) as err:
        return [make_finding("MCH020", path, 0, f"{type(err).__name__}: {err}")]
    return []


def validate_config_file(path: str, only_configs: bool = False) -> list[Finding]:
    """Check one JSON file; ``only_configs`` skips non-config documents."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return validate_config_doc(text, path)
    if only_configs and not (isinstance(doc, dict) and CONFIG_MARKERS.intersection(doc)):
        return []
    return validate_config_doc(doc, path)
