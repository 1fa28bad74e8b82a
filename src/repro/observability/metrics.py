"""A unified metrics registry for Mochi components.

The paper's performance-introspection pillar (section 4) gives every
component a *statistics* view of RPC traffic, but each component in this
reproduction also grew ad-hoc live counters (``rpcs_sent`` on Margo,
``pings_sent`` on SSG, ``files_received`` on REMI, ...).  This module
replaces those with one registry per process: components register
**counters** and **histograms** (optionally labelled) and read-only
**readings** of their own attributes (counters or gauges) into
``margo.metrics``, and the whole process state becomes one deterministic
JSON snapshot -- queryable at run time through Bedrock
(a ``$__metrics__`` query) and dumped alongside the Listing-1 statistics
document on finalize.

Determinism: metrics carry no wall-clock timestamps; snapshots are
keyed and rendered in sorted order so two identical runs produce
byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "MetricFamily",
    "MetricError",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: latency-oriented, microseconds to tens of
#: seconds of *simulated* time (upper bounds, seconds).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class MetricError(RuntimeError):
    """Invalid metric registration or use."""


class _Metric:
    """One time series: a (family, label set) pair."""

    __slots__ = ("family", "label_values")

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        self.family = family
        self.label_values = label_values

    @property
    def name(self) -> str:
        return self.family.name

    @property
    def labels_key(self) -> str:
        return ",".join(
            f"{n}={v}" for n, v in zip(self.family.label_names, self.label_values)
        )


class Counter(_Metric):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount

    def to_json(self) -> dict[str, Any]:
        return {"value": self._value}


class _Reading(_Metric):
    """A counter or gauge whose number lives in a plain attribute of its
    owner (updated on a hot path with ``+=``) and is read on export."""

    __slots__ = ("owner", "attr")

    @property
    def value(self) -> float:
        return float(getattr(self.owner, self.attr))

    def inc(self, amount: float = 1.0) -> None:
        raise MetricError(f"{self.name!r} reads its owner's {self.attr!r}: update that")

    dec = set = inc

    def to_json(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram(_Metric):
    """Distribution of observations over fixed buckets.

    Buckets are upper bounds; an implicit ``+inf`` bucket catches the
    tail.  ``count``/``sum``/``min``/``max`` ride along so means and
    ranges survive without the raw samples.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self.buckets: tuple[float, ...] = family.buckets
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"count": self.count, "sum": self.sum}
        if self.count:
            doc["min"] = self.min
            doc["max"] = self.max
        doc["buckets"] = {
            **{f"le:{bound:g}": n for bound, n in zip(self.buckets, self.bucket_counts)},
            "le:+inf": self.bucket_counts[-1],
        }
        return doc


_KIND_CLS = {"counter": Counter, "histogram": Histogram}


class MetricFamily:
    """All series sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(buckets))
        self._series: dict[tuple[str, ...], _Metric] = {}

    def labels(self, **label_values: str) -> Any:
        """The series for this label set (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(label_values)}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        series = self._series.get(key)
        if series is None:
            series = _KIND_CLS[self.kind](self, key)
            self._series[key] = series
        return series

    @property
    def series(self) -> list[_Metric]:
        return [self._series[k] for k in sorted(self._series)]

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": {s.labels_key: s.to_json() for s in self.series},
        }


class MetricsRegistry:
    """One process's metric namespace.

    Registration is idempotent: asking twice for the same (name, kind,
    labels) returns the same family, so independent components can share
    a series without coordination; a kind or label mismatch is an error.
    For convenience, registering an *unlabelled* metric returns the
    single series directly (``registry.counter("x").inc()``).

    ``enabled=False`` (from ``ObservabilitySpec.metrics``) keeps the
    live objects working -- runtime counters back public attributes --
    but suppresses the exported snapshot.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, label_names, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise MetricError(
                f"metric {name!r} already registered as a {family.kind}, not a {kind}"
            )
        if family.label_names != tuple(label_names):
            raise MetricError(
                f"metric {name!r} already registered with labels "
                f"{list(family.label_names)}, not {list(label_names)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Any:
        family = self._get_or_create(name, "counter", help, label_names)
        return family if label_names else family.labels()

    def reading(self, name: str, kind: str, help: str, owner: Any, attr: str) -> None:
        """Export ``owner.<attr>`` as the unlabelled ``kind`` ``name``."""
        series = _Reading(self._get_or_create(name, kind, help, ()), ())
        series.owner, series.attr = owner, attr
        series.family._series[()] = series

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Any:
        family = self._get_or_create(name, "histogram", help, label_names, buckets)
        return family if label_names else family.labels()

    # ------------------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> dict[str, Any]:
        """The full registry as a deterministic JSON document."""
        if not self.enabled:
            return {}
        return {f.name: f.to_json() for f in self.families()}

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
