"""Static Margo/Bedrock configuration cross-validator (MCH02x).

Checks a Listing-2 (Margo) or Listing-3 (Bedrock) JSON document without
booting a process: pool/xstream references resolve, names are unique,
provider dependencies are resolvable in boot order and acyclic, and
declared libraries actually provide the types they claim.

Two consumers:

* the mochi-lint CLI / CI gate validate config *files* on disk
  (:func:`validate_config_file`);
* :func:`repro.bedrock.boot.boot_process` runs :func:`check_boot_config`
  before touching the cluster, so a bad document fails with the same
  exception types the runtime would raise -- just earlier and with the
  whole document checked statically first.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..bedrock.errors import BedrockConfigError, DependencyError, ProviderConflictError
from ..bedrock.module import ModuleError, resolve_library
from ..margo.config import DEFAULT_POOL, MargoConfig
from ..margo.errors import ConfigError
from .findings import Finding, Severity
from .registry import (
    GROUP_CONFIG,
    RuleInfo,
    register,
)

__all__ = [
    "validate_margo_doc",
    "validate_bedrock_doc",
    "validate_config_doc",
    "validate_config_file",
    "check_boot_config",
]

DANGLING_REF = RuleInfo(
    id="MCH020",
    name="config-dangling-reference",
    group=GROUP_CONFIG,
    severity=Severity.ERROR,
    summary="config references a pool that is not defined (or never served)",
    rationale=(
        "an xstream scheduler, progress_pool, rpc_pool, or provider that "
        "names an undefined pool boots into a runtime error (or a pool "
        "no xstream drains, which wedges every ULT pushed to it); the "
        "reference graph is fully checkable before any process exists"
    ),
)

DUPLICATE_NAME = RuleInfo(
    id="MCH021",
    name="config-duplicate-name",
    group=GROUP_CONFIG,
    severity=Severity.ERROR,
    summary="duplicate pool / xstream / provider name in one document",
    rationale=(
        "names are the join keys of the whole configuration: a duplicate "
        "makes every later reference ambiguous, and Margo/Bedrock resolve "
        "it arbitrarily by construction order -- a classic silent "
        "misconfiguration"
    ),
)

DEPENDENCY_ERROR = RuleInfo(
    id="MCH022",
    name="config-dependency-error",
    group=GROUP_CONFIG,
    severity=Severity.ERROR,
    summary="provider dependency unresolvable, out of boot order, or cyclic",
    rationale=(
        "Bedrock starts providers in list order; a dependency on a "
        "provider declared later (or transitively on itself) can never "
        "resolve, and an unknown library means the type can never be "
        "instantiated"
    ),
)

MALFORMED = RuleInfo(
    id="MCH023",
    name="config-malformed",
    group=GROUP_CONFIG,
    severity=Severity.ERROR,
    summary="config document is structurally invalid",
    rationale=(
        "unknown keys and wrong shapes are silently fatal at boot time; "
        "catching them on the file keeps CI failures attached to the "
        "config that caused them"
    ),
)

register(DANGLING_REF)
register(DUPLICATE_NAME)
register(DEPENDENCY_ERROR)
register(MALFORMED)


def _finding(info: RuleInfo, path: str, message: str, kind: str) -> Finding:
    return Finding(
        rule_id=info.id,
        severity=info.severity,
        path=path,
        line=0,
        message=message,
        source="config",
        context={"kind": kind},
    )


def _duplicates(names: list[str]) -> list[str]:
    seen: set[str] = set()
    dupes: list[str] = []
    for name in names:
        if name in seen and name not in dupes:
            dupes.append(name)
        seen.add(name)
    return dupes


def _margo_names(doc: dict[str, Any]) -> tuple[list[str], list[dict[str, Any]]]:
    """(pool names, xstream docs) with the same defaulting as MargoConfig."""
    argobots = doc.get("argobots") or {}
    if not isinstance(argobots, dict):
        return [DEFAULT_POOL], []
    pool_docs = argobots.get("pools") or []
    pools = [p["name"] for p in pool_docs if isinstance(p, dict) and "name" in p]
    if not pools:
        pools = [DEFAULT_POOL]
    xstreams = [x for x in (argobots.get("xstreams") or []) if isinstance(x, dict)]
    return pools, xstreams


def validate_margo_doc(doc: Any, path: str = "<margo>") -> list[Finding]:
    """Cross-validate a Listing-2 Margo document; returns all findings."""
    findings: list[Finding] = []
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as err:
            return [_finding(MALFORMED, path, f"invalid JSON: {err}", "margo")]
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        return [
            _finding(
                MALFORMED,
                path,
                f"margo config must be an object, got {type(doc).__name__}",
                "margo",
            )
        ]
    pools, xstream_docs = _margo_names(doc)
    for name in _duplicates(pools):
        findings.append(
            _finding(DUPLICATE_NAME, path, f"duplicate pool name {name!r}", "margo")
        )
    xstream_names = [x["name"] for x in xstream_docs if "name" in x]
    for name in _duplicates(xstream_names):
        findings.append(
            _finding(DUPLICATE_NAME, path, f"duplicate xstream name {name!r}", "margo")
        )
    known = set(pools)
    served: set[str] = set()
    for xstream in xstream_docs:
        sched = xstream.get("scheduler") or {}
        sched_pools = sched.get("pools", []) if isinstance(sched, dict) else []
        for pool in sched_pools:
            served.add(pool)
            if pool not in known:
                findings.append(
                    _finding(
                        DANGLING_REF,
                        path,
                        f"xstream {xstream.get('name', '?')!r} references "
                        f"undefined pool {pool!r}",
                        "margo",
                    )
                )
    if not xstream_docs:
        # The implicit default xstream serves only the first pool (the
        # same defaulting MargoConfig.from_json applies).
        served = {pools[0]}
    unserved = sorted(known - served)
    for pool in unserved:
        findings.append(
            _finding(
                DANGLING_REF,
                path,
                f"pool {pool!r} is not served by any xstream "
                "(ULTs pushed to it would never run)",
                "margo",
            )
        )
    for key in ("progress_pool", "rpc_pool"):
        ref = doc.get(key, pools[0])
        if ref not in known:
            findings.append(
                _finding(
                    DANGLING_REF,
                    path,
                    f"{key} {ref!r} is not a defined pool",
                    "margo",
                )
            )
    # Structural validation (unknown keys, bad per-object shapes) is the
    # runtime parser's: reuse it so the two can never disagree.
    if not findings:
        try:
            MargoConfig.from_json(doc)
        except ConfigError as err:
            findings.append(_finding(MALFORMED, path, str(err), "margo"))
    return findings


def _validate_providers(
    providers: Any,
    libraries: dict[str, Any],
    pool_names: set[str],
    path: str,
) -> list[Finding]:
    findings: list[Finding] = []
    if not isinstance(providers, list):
        return [_finding(MALFORMED, path, "'providers' must be a list", "unknown-keys")]
    seen_names: list[str] = []
    seen_ids: set[tuple[str, int]] = set()
    dep_graph: dict[str, list[str]] = {}
    for index, entry in enumerate(providers):
        if not isinstance(entry, dict) or "name" not in entry or "type" not in entry:
            findings.append(
                _finding(
                    MALFORMED,
                    path,
                    f"provider entry #{index} must be an object with "
                    f"'name' and 'type': {entry!r}",
                    "unknown-keys",
                )
            )
            continue
        name, type_name = entry["name"], entry["type"]
        if name in seen_names:
            findings.append(
                _finding(
                    DUPLICATE_NAME,
                    path,
                    f"provider {name!r} already exists",
                    "duplicate-provider",
                )
            )
        if type_name not in libraries:
            findings.append(
                _finding(
                    DEPENDENCY_ERROR,
                    path,
                    f"no module loaded for type {type_name!r} "
                    f"(declared libraries: {sorted(libraries)})",
                    "library",
                )
            )
        provider_id = int(entry.get("provider_id", 1))
        if (type_name, provider_id) in seen_ids:
            findings.append(
                _finding(
                    DUPLICATE_NAME,
                    path,
                    f"(type={type_name}, provider_id={provider_id}) "
                    "already in use",
                    "duplicate-provider",
                )
            )
        seen_ids.add((type_name, provider_id))
        pool = entry.get("pool")
        if pool is not None and pool not in pool_names:
            findings.append(
                _finding(
                    DANGLING_REF,
                    path,
                    f"provider {name!r} references unknown pool {pool!r}",
                    "provider-pool",
                )
            )
        deps = entry.get("dependencies") or {}
        local_deps: list[str] = []
        for dep_name, spec in deps.items() if isinstance(deps, dict) else ():
            if isinstance(spec, str):
                local_deps.append(spec)
                if spec not in seen_names:
                    later = any(
                        isinstance(e, dict) and e.get("name") == spec
                        for e in providers[index + 1 :]
                    )
                    if later:
                        findings.append(
                            _finding(
                                DEPENDENCY_ERROR,
                                path,
                                f"provider {name!r} depends on {spec!r}, which "
                                "is declared later; Bedrock starts providers "
                                "in list order",
                                "dependency",
                            )
                        )
                    else:
                        findings.append(
                            _finding(
                                DEPENDENCY_ERROR,
                                path,
                                f"provider {name!r} depends on unknown local "
                                f"provider {spec!r}",
                                "dependency",
                            )
                        )
            elif isinstance(spec, dict):
                missing = {"type", "address", "provider_id"} - set(spec)
                if missing:
                    findings.append(
                        _finding(
                            DEPENDENCY_ERROR,
                            path,
                            f"remote dependency {dep_name!r} of {name!r} "
                            f"missing {sorted(missing)}",
                            "dependency",
                        )
                    )
                elif spec["type"] not in libraries:
                    findings.append(
                        _finding(
                            DEPENDENCY_ERROR,
                            path,
                            f"remote dependency {dep_name!r} of {name!r} has "
                            f"unloaded type {spec['type']!r}",
                            "dependency",
                        )
                    )
            else:
                findings.append(
                    _finding(
                        DEPENDENCY_ERROR,
                        path,
                        f"dependency {dep_name!r} of {name!r} must be a local "
                        "provider name or a {type, address, provider_id} object",
                        "dependency",
                    )
                )
        dep_graph[name] = local_deps
        seen_names.append(name)
    findings.extend(_find_cycles(dep_graph, path))
    return findings


def _find_cycles(graph: dict[str, list[str]], path: str) -> list[Finding]:
    """One finding per dependency cycle among local providers."""
    findings: list[Finding] = []
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph}
    stack: list[str] = []

    def visit(node: str) -> None:
        color[node] = GREY
        stack.append(node)
        for dep in graph.get(node, ()):
            if dep not in color:
                continue
            if color[dep] == GREY:
                cycle = stack[stack.index(dep) :] + [dep]
                findings.append(
                    _finding(
                        DEPENDENCY_ERROR,
                        path,
                        "provider dependency cycle: " + " -> ".join(cycle),
                        "dependency",
                    )
                )
            elif color[dep] == WHITE:
                visit(dep)
        stack.pop()
        color[node] = BLACK

    for name in graph:
        if color[name] == WHITE:
            visit(name)
    return findings


def validate_bedrock_doc(doc: Any, path: str = "<bedrock>") -> list[Finding]:
    """Cross-validate a Listing-3 Bedrock boot document."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as err:
            return [_finding(MALFORMED, path, f"invalid JSON: {err}", "unknown-keys")]
    if not isinstance(doc, dict):
        return [
            _finding(
                MALFORMED,
                path,
                f"bedrock config must be an object, got {type(doc).__name__}",
                "unknown-keys",
            )
        ]
    findings: list[Finding] = []
    unknown = set(doc) - {"margo", "libraries", "providers"}
    if unknown:
        findings.append(
            _finding(
                MALFORMED,
                path,
                f"unknown bedrock config keys: {sorted(unknown)}",
                "unknown-keys",
            )
        )
    margo_doc = doc.get("margo")
    findings.extend(validate_margo_doc(margo_doc, path=path))
    libraries = doc.get("libraries", {})
    if not isinstance(libraries, dict):
        findings.append(
            _finding(
                MALFORMED, path, "'libraries' must be an object {type: path}", "unknown-keys"
            )
        )
        libraries = {}
    for type_name, library in libraries.items():
        try:
            module = resolve_library(library)
        except ModuleError as err:
            findings.append(_finding(DEPENDENCY_ERROR, path, str(err), "library"))
            continue
        if module.type_name != type_name:
            findings.append(
                _finding(
                    MALFORMED,
                    path,
                    f"library {library!r} provides type {module.type_name!r}, "
                    f"not {type_name!r}",
                    "library-type-mismatch",
                )
            )
    pools, _ = _margo_names(margo_doc if isinstance(margo_doc, dict) else {})
    findings.extend(
        _validate_providers(doc.get("providers", []), libraries, set(pools), path)
    )
    return findings


def validate_config_doc(doc: Any, path: str = "<config>") -> list[Finding]:
    """Validate either document flavor, deciding by shape."""
    probe = doc
    if isinstance(probe, str):
        try:
            probe = json.loads(probe)
        except json.JSONDecodeError as err:
            return [_finding(MALFORMED, path, f"invalid JSON: {err}", "unknown-keys")]
    if isinstance(probe, dict) and (
        "libraries" in probe or "providers" in probe or "margo" in probe
    ):
        return validate_bedrock_doc(probe, path=path)
    return validate_margo_doc(probe, path=path)


#: Top-level JSON keys that mark a document as a Margo/Bedrock config
#: (other JSON files -- benchmark results, datasets -- are skipped).
CONFIG_MARKERS = frozenset(
    {"margo", "argobots", "libraries", "providers", "progress_pool", "rpc_pool"}
)


def validate_config_file(path: str, only_configs: bool = False) -> list[Finding]:
    """Validate one JSON file.  With ``only_configs=True``, documents
    that do not look like Margo/Bedrock configs are skipped (so the
    linter can sweep directories containing benchmark-result JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as err:
        return [_finding(MALFORMED, path, f"invalid JSON: {err}", "unknown-keys")]
    if only_configs and not (
        isinstance(doc, dict) and CONFIG_MARKERS.intersection(doc)
    ):
        return []
    return validate_config_doc(doc, path=path)


#: How strict boot validation maps finding kinds onto the exception
#: types the runtime boot path itself raises for the same mistake.
_STRICT_EXCEPTIONS = {
    "unknown-keys": BedrockConfigError,
    "library": ModuleError,
    "library-type-mismatch": BedrockConfigError,
    "duplicate-provider": ProviderConflictError,
    "provider-pool": BedrockConfigError,
    "dependency": DependencyError,
    "margo": ConfigError,
}


def check_boot_config(doc: Optional[dict[str, Any]], path: str = "<boot>") -> None:
    """Validate a boot document, raising like the runtime would.

    Used by :func:`repro.bedrock.boot.boot_process`: the first finding
    (in document order, which mirrors boot order) is raised with the
    exception type the runtime boot path uses for that class of error,
    so callers and tests observe identical failure modes -- just before
    any process, pool, or provider has been created.
    """
    findings = validate_bedrock_doc(doc or {}, path=path)
    if not findings:
        return
    first = findings[0]
    exc_type = _STRICT_EXCEPTIONS.get(first.context.get("kind"), BedrockConfigError)
    error = exc_type(first.message)
    error.findings = findings  # type: ignore[attr-defined]
    raise error
