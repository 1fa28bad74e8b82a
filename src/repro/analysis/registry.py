"""The mochi-lint rule registry.

Every rule -- static AST rule, configuration cross-check, or runtime
sanitizer assertion -- registers here under a stable ``MCH0xx`` id so
that suppressions, the CLI, the docs, and the sanitizer all speak the
same vocabulary.

Rule id blocks:

* ``MCH00x`` -- determinism (wall clock);
* ``MCH01x`` -- cooperative scheduling (yield-while-holding-lock,
  handlers that never respond);
* ``MCH020`` -- configuration (a document the boot path would reject);
* ``MCH03x``/``MCH04x`` -- concurrency (mochi-race: unordered accesses
  to shared state, order-dependent outcomes, lock-order cycles,
  wait-while-holding);
* ``MCH06x`` -- partitioning & migration (cross-component shared-state
  writes, migration snapshot coverage);
* ``MCH09x`` -- meta (parse errors, bare suppressions).

A static rule's check has one of two scopes: ``file`` checks take the
:class:`~repro.analysis.rules.FileContext` of one parsed file,
``project`` checks take the engine's ``Project`` (every file plus the
shared call graph).  Both register through
:func:`rule` and run in the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .findings import Finding, Severity

__all__ = [
    "RuleInfo",
    "Rule",
    "register",
    "rule",
    "all_rules",
    "rule_catalog",
    "static_ids",
    "GROUP_DETERMINISM",
    "GROUP_SCHEDULING",
    "GROUP_CONFIG",
    "GROUP_CONCURRENCY",
    "GROUP_PARTITION",
    "GROUP_META",
]

GROUP_DETERMINISM = "determinism"
GROUP_SCHEDULING = "scheduling"
GROUP_CONFIG = "configuration"
GROUP_CONCURRENCY = "concurrency"
GROUP_PARTITION = "partitioning"
GROUP_META = "meta"


@dataclass(frozen=True)
class RuleInfo:
    """Identity + documentation for one rule."""

    id: str
    name: str
    group: str
    severity: str
    summary: str
    #: Why the invariant matters for the reproduction (rendered in
    #: ``--list-rules`` and the DESIGN.md catalog).
    rationale: str


@dataclass(frozen=True)
class Rule:
    """One static check and the rule ids it reports under (a check that
    shares one traversal between several ids registers them together)."""

    infos: tuple[RuleInfo, ...]
    scope: str  #: ``file`` or ``project``
    check: Callable[..., list[Finding]]


_RULES: list[Rule] = []
_INFOS: dict[str, RuleInfo] = {}


def register(*infos: RuleInfo) -> None:
    """Add rules that run outside the static pipeline (configuration
    cross-checks, the runtime sanitizer, the race detector) to the
    catalog; static rules use :func:`rule`."""
    for info in infos:
        if info.id in _INFOS:
            raise ValueError(f"duplicate rule id {info.id}")
        _INFOS[info.id] = info


def rule(*infos: RuleInfo, scope: str = "file") -> Callable:
    """Decorator registering a static check under ``infos``."""

    def wrap(check: Callable[..., list[Finding]]) -> Callable:
        register(*infos)
        _RULES.append(Rule(infos, scope, check))
        return check

    return wrap


def all_rules() -> list[Rule]:
    """Registered static rules, in id order (deterministic run order)."""
    return sorted(_RULES, key=lambda r: r.infos[0].id)


def static_ids() -> set[str]:
    """The ids a registered static check reports."""
    return {info.id for rule in _RULES for info in rule.infos}


def rule_catalog() -> list[RuleInfo]:
    """Every known rule (static, config, and runtime), in id order."""
    return [_INFOS[rid] for rid in sorted(_INFOS)]


def info_for(rule_id: str) -> Optional[RuleInfo]:
    return _INFOS.get(rule_id)


def make_finding(
    rule_id: str, path: str, line: int, message: str, source: str = "config"
) -> Finding:
    """Build a finding for a registered non-AST rule (config/runtime)."""
    info = _INFOS[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=info.severity,
        path=path,
        line=line,
        message=message,
        source=source,
    )


# Meta rules (registered here so the ids exist before any pass runs).
PARSE_ERROR = RuleInfo(
    id="MCH090",
    name="parse-error",
    group=GROUP_META,
    severity=Severity.ERROR,
    summary="file could not be parsed (Python syntax error / invalid JSON)",
    rationale=(
        "a file the linter cannot read is a file none of the invariants "
        "below are checked on; CI must fail loudly, not skip silently"
    ),
)

BARE_SUPPRESSION = RuleInfo(
    id="MCH091",
    name="suppression-without-justification",
    group=GROUP_META,
    severity=Severity.ERROR,
    summary=(
        "`# mochi-lint: disable=...` without a `-- justification` tail, "
        "or naming an id no static check reports"
    ),
    rationale=(
        "suppressions are load-bearing: each one is a claim that a "
        "checked invariant holds for out-of-band reasons, and that claim "
        "must be written down where the suppression lives; one that "
        "names a retired or runtime-only rule silences nothing"
    ),
)

register(PARSE_ERROR, BARE_SUPPRESSION)
