"""Margo JSON configuration (paper Listing 2).

A Margo instance is initialized from a document of the form::

    {
      "argobots": {
        "pools":    [ {"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"}, ... ],
        "xstreams": [ {"name": "MyES0",
                       "scheduler": {"type": "basic", "pools": ["MyPoolX"]}}, ... ]
      },
      "progress_pool": "MyPoolZ",   # where the network progress loop runs
      "rpc_pool": "MyPoolX"         # default pool for handler ULTs
    }

Everything is optional; defaults create one ``__primary__`` pool/xstream
that also hosts the progress loop, matching Margo's defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from ..observability.spec import ObservabilitySpec
from .errors import ConfigError

__all__ = ["MargoConfig", "PoolSpec", "XStreamSpec"]

DEFAULT_POOL = "__primary__"


@dataclass(frozen=True, init=False)
class PoolSpec:
    name: str
    kind: str = "fifo_wait"
    access: str = "mpmc"

    def __init__(self, name: str, kind: str = "fifo_wait", access: str = "mpmc") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "access", access)

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "PoolSpec":
        if not isinstance(doc, dict):
            raise ConfigError(f"pool spec must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"name", "type", "access"}
        if unknown:
            raise ConfigError(f"unknown pool spec keys: {sorted(unknown)}")
        if not isinstance(doc.get("name"), str):
            raise ConfigError("pool spec requires a string 'name'")
        return cls(
            name=doc["name"],
            kind=doc.get("type", "fifo_wait"),
            access=doc.get("access", "mpmc"),
        )

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind, "access": self.access}


@dataclass(frozen=True, init=False)
class XStreamSpec:
    name: str
    scheduler: str = "basic_wait"
    pools: tuple[str, ...] = ()

    def __init__(
        self, name: str, scheduler: str = "basic_wait", pools: tuple[str, ...] = ()
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "scheduler", scheduler)
        object.__setattr__(self, "pools", pools)

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "XStreamSpec":
        if not isinstance(doc, dict):
            raise ConfigError(f"xstream spec must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"name", "scheduler"}
        if unknown:
            raise ConfigError(f"unknown xstream spec keys: {sorted(unknown)}")
        if not isinstance(doc.get("name"), str):
            raise ConfigError("xstream spec requires a string 'name'")
        sched = doc.get("scheduler", {})
        if not isinstance(sched, dict):
            raise ConfigError("xstream 'scheduler' must be an object")
        pools = sched.get("pools", [])
        if not isinstance(pools, list) or not all(isinstance(p, str) for p in pools):
            raise ConfigError("scheduler 'pools' must be a list of pool names")
        if not pools:
            raise ConfigError(f"xstream {doc['name']!r} must reference at least one pool")
        return cls(
            name=doc["name"],
            scheduler=sched.get("type", "basic_wait"),
            pools=tuple(pools),
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "scheduler": {"type": self.scheduler, "pools": list(self.pools)},
        }


@dataclass
class MargoConfig:
    """Parsed and validated Margo configuration."""

    pools: list[PoolSpec] = field(default_factory=list)
    xstreams: list[XStreamSpec] = field(default_factory=list)
    progress_pool: str = DEFAULT_POOL
    rpc_pool: str = DEFAULT_POOL
    #: Dispatch cost paid by the progress loop per incoming message.
    dispatch_cost: float = 200e-9
    #: Extra simulated cost charged per monitoring callback fired in the
    #: RPC fast path (0 when no monitors are attached).
    monitoring_cost_per_event: float = 20e-9
    #: Observability plane (tracing + metrics export), see
    #: :class:`repro.observability.ObservabilitySpec`.
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)

    @classmethod
    def from_json(cls, doc: str | dict[str, Any] | None) -> "MargoConfig":
        """Parse a Listing-2-style document (JSON text or dict)."""
        if doc is None:
            doc = {}
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as err:
                raise ConfigError(f"invalid JSON: {err}") from err
        if not isinstance(doc, dict):
            raise ConfigError(f"margo config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {
            "argobots",
            "progress_pool",
            "rpc_pool",
            "dispatch_cost",
            "monitoring_cost_per_event",
            "observability",
        }
        if unknown:
            raise ConfigError(f"unknown margo config keys: {sorted(unknown)}")
        argobots = doc.get("argobots", {})
        if not isinstance(argobots, dict):
            raise ConfigError("'argobots' must be an object")
        pool_docs = argobots.get("pools", [])
        xstream_docs = argobots.get("xstreams", [])
        pools = [PoolSpec.from_json(p) for p in pool_docs]
        xstreams = [XStreamSpec.from_json(x) for x in xstream_docs]
        if not pools:
            pools = [PoolSpec(name=DEFAULT_POOL)]
        if not xstreams:
            xstreams = [XStreamSpec(name=DEFAULT_POOL, pools=(pools[0].name,))]
        config = cls(
            pools=pools,
            xstreams=xstreams,
            progress_pool=doc.get("progress_pool", pools[0].name),
            rpc_pool=doc.get("rpc_pool", pools[0].name),
            dispatch_cost=_cost(doc, "dispatch_cost", cls.dispatch_cost),
            monitoring_cost_per_event=_cost(
                doc, "monitoring_cost_per_event", cls.monitoring_cost_per_event
            ),
            observability=_parse_observability(doc.get("observability")),
        )
        config.validate()
        return config

    def validate(self) -> None:
        names = [p.name for p in self.pools]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate pool names in config: {dupes}")
        xnames = [x.name for x in self.xstreams]
        xdupes = sorted({n for n in xnames if xnames.count(n) > 1})
        if xdupes:
            raise ConfigError(f"duplicate xstream names in config: {xdupes}")
        known = set(names)
        for xstream in self.xstreams:
            missing = [p for p in xstream.pools if p not in known]
            if missing:
                raise ConfigError(
                    f"xstream {xstream.name!r} references unknown pools {missing}"
                )
        served = {p for x in self.xstreams for p in x.pools}
        unserved = known - served
        if unserved:
            raise ConfigError(f"pools not served by any xstream: {sorted(unserved)}")
        for key in ("progress_pool", "rpc_pool"):
            ref = getattr(self, key)
            if not isinstance(ref, str) or ref not in known:
                raise ConfigError(f"{key} {ref!r} is not a defined pool")

    def to_json(self) -> dict[str, Any]:
        return {
            "argobots": {
                "pools": [p.to_json() for p in self.pools],
                "xstreams": [x.to_json() for x in self.xstreams],
            },
            "progress_pool": self.progress_pool,
            "rpc_pool": self.rpc_pool,
            "observability": self.observability.to_json(),
        }


def _cost(doc: dict[str, Any], key: str, default: float) -> float:
    """A simulated cost in seconds: a finite number, at least 0."""
    try:
        value = float(doc.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be a number, got {doc[key]!r}") from None
    if not 0 <= value < math.inf:  # also refuses NaN
        raise ConfigError(f"{key!r} must be a finite number >= 0, got {doc[key]!r}")
    return value


def _parse_observability(doc: Any) -> ObservabilitySpec:
    try:
        return ObservabilitySpec.from_json(doc)
    except ValueError as err:
        raise ConfigError(str(err)) from err
