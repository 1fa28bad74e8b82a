"""Declarative SLOs with rolling error budgets and burn-rate alerting.

An SLO is declared in ``ObservabilitySpec`` (the ``slos`` list) and
evaluated against the continuous profiler's closed windows -- the same
measured data the reconfiguration controller consumes, so "is the
service meeting its objectives" and "should we reconfigure" share one
source of truth.  Three objective kinds::

    {"name": "kv-p99",   "objective": "latency_p99",
     "target": "yokan_put/1", "threshold": 0.002}
    {"name": "kv-avail", "objective": "availability",
     "target": "yokan:1", "threshold": 0.999}
    {"name": "kv-err",   "objective": "error_rate",
     "target": "yokan:1", "threshold": 0.01}

``target`` selects profiler series: ``"<rpc_name>/<provider_id>"``
decomposition keys for latency objectives, ``"<component>:<id>"``
provider keys for availability/error-rate; a trailing ``*`` is a prefix
wildcard.  Each closed window is reduced to a **burn rate** -- budget
consumed per window, normalized so 1.0 means exactly on budget:

* ``latency_p99``  -- a window is bad iff p99(total) > threshold; burn
  = bad / budget, with ``budget`` the tolerated bad-window fraction;
* ``error_rate``   -- burn = measured rate / threshold;
* ``availability`` -- burn = (1 - measured availability) / (1 - threshold).

Windows with no matching traffic contribute nothing (no traffic is not
an outage; SWIM owns liveness).  Alerting is the multi-window burn-rate
scheme of the Google SRE workbook, discretized to profiler windows:

* **page**   -- burn over the short window (``short_windows``) and over
  a quarter of the budget window both >= ``fast_burn``;
* **warn**   -- burn over the full budget window >= ``slow_burn``;
* **breach** -- the rolling budget is exhausted (mean burn >= 1).

State transitions are recorded in a bounded ring and reported to the
cluster's health plane, if one is on (flight-recorder events, degraded
health states, SLO incidents).  Everything is pure arithmetic over closed
windows, so two identical seeded runs alert at identical times.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ...config import json_typed

__all__ = ["SLOSpec", "SLOEngine", "OBJECTIVES"]

OBJECTIVES = ("latency_p99", "availability", "error_rate")

#: Alert transitions an engine keeps.
MAX_ALERTS = 64


class SLOSpec:
    """One validated objective declaration (parsed from JSON)."""

    __slots__ = (
        "name", "objective", "target", "threshold", "window",
        "budget", "short_windows", "fast_burn", "slow_burn",
    )

    _KNOWN_KEYS = {
        "name", "objective", "target", "threshold", "window",
        "budget", "short_windows", "fast_burn", "slow_burn",
    }

    def __init__(
        self,
        name: str,
        objective: str,
        target: str,
        threshold: float,
        window: int = 12,
        budget: float = 0.1,
        short_windows: int = 3,
        fast_burn: float = 6.0,
        slow_burn: float = 2.0,
    ) -> None:
        if not name:
            raise ValueError("SLO needs a non-empty 'name'")
        if objective not in OBJECTIVES:
            raise ValueError(
                f"SLO {name!r}: unknown objective {objective!r} "
                f"(expected one of {sorted(OBJECTIVES)})"
            )
        if not target:
            raise ValueError(f"SLO {name!r} needs a non-empty 'target'")
        threshold = float(json_typed(threshold, (int, float), f"SLO {name!r}: threshold"))
        if objective == "availability":
            if not 0.0 < threshold < 1.0:
                raise ValueError(
                    f"SLO {name!r}: availability threshold must be in (0, 1), "
                    f"got {threshold}"
                )
        elif objective == "error_rate":
            if not 0.0 < threshold <= 1.0:
                raise ValueError(
                    f"SLO {name!r}: error_rate threshold must be in (0, 1], "
                    f"got {threshold}"
                )
        elif threshold <= 0:
            raise ValueError(
                f"SLO {name!r}: latency threshold must be positive, got {threshold}"
            )
        window = json_typed(window, int, f"SLO {name!r}: window")
        short_windows = json_typed(short_windows, int, f"SLO {name!r}: short_windows")
        if window < 1:
            raise ValueError(f"SLO {name!r}: window must be >= 1, got {window}")
        if not 1 <= short_windows <= window:
            raise ValueError(
                f"SLO {name!r}: short_windows must be in [1, window], "
                f"got {short_windows}"
            )
        budget = float(json_typed(budget, (int, float), f"SLO {name!r}: budget"))
        if not 0.0 < budget <= 1.0:
            raise ValueError(
                f"SLO {name!r}: budget must be in (0, 1], got {budget}"
            )
        fast_burn = float(json_typed(fast_burn, (int, float), f"SLO {name!r}: fast_burn"))
        slow_burn = float(json_typed(slow_burn, (int, float), f"SLO {name!r}: slow_burn"))
        if fast_burn < slow_burn or slow_burn <= 0:
            raise ValueError(
                f"SLO {name!r}: need fast_burn >= slow_burn > 0, "
                f"got {fast_burn} / {slow_burn}"
            )
        self.name = name
        self.objective = objective
        self.target = target
        self.threshold = threshold
        self.window = window
        self.budget = budget
        self.short_windows = short_windows
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn

    def _astuple(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SLOSpec):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, doc: Any) -> "SLOSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"an SLO must be an object, got {type(doc).__name__}")
        unknown = set(doc) - cls._KNOWN_KEYS
        if unknown:
            raise ValueError(
                f"SLO {doc.get('name', '?')!r}: unknown keys {sorted(unknown)}"
            )
        for key in ("name", "objective", "target", "threshold"):
            if key not in doc:
                raise ValueError(f"an SLO needs {key!r} (got {sorted(doc)})")
        return cls(**doc)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "objective": self.objective,
            "target": self.target,
            "threshold": self.threshold,
        }
        # Tuning keys are emitted only off-default (minimal round-trips,
        # same discipline as ObservabilitySpec.to_json).
        if self.window != 12:
            doc["window"] = self.window
        if self.budget != 0.1:
            doc["budget"] = self.budget
        if self.short_windows != 3:
            doc["short_windows"] = self.short_windows
        if self.fast_burn != 6.0:
            doc["fast_burn"] = self.fast_burn
        if self.slow_burn != 2.0:
            doc["slow_burn"] = self.slow_burn
        return doc

    # ------------------------------------------------------------------
    def matches(self, key: str) -> bool:
        if self.target.endswith("*"):
            return key.startswith(self.target[:-1])
        return key == self.target

    def window_burn(self, window_doc: dict[str, Any]) -> Optional[float]:
        """Reduce one closed profiler window to a burn rate, or None if
        the window saw no matching traffic."""
        if self.objective == "latency_p99":
            worst: Optional[float] = None
            for key, phases in window_doc.get("rpc", {}).items():
                if not self.matches(key):
                    continue
                total = phases.get("total")
                if total is not None and total["count"] > 0:
                    p99 = total["p99"]
                    worst = p99 if worst is None else max(worst, p99)
            if worst is None:
                return None
            return (1.0 if worst > self.threshold else 0.0) / self.budget
        requests = 0
        errors = 0
        for key, entry in window_doc.get("providers", {}).items():
            if not self.matches(key):
                continue
            requests += int(entry.get("requests", 0))
            errors += int(entry.get("errors", 0))
        if requests == 0:
            return None
        rate = errors / requests
        if self.objective == "error_rate":
            return rate / self.threshold
        return rate / (1.0 - self.threshold)  # availability


class _SLOState:
    """Rolling evaluation state for one objective."""

    __slots__ = ("spec", "burns", "windows_seen", "state")

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        self.burns: deque[float] = deque(maxlen=spec.window)
        self.windows_seen = 0
        self.state = "ok"

    @staticmethod
    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def evaluate(self) -> dict[str, Any]:
        spec = self.spec
        burns = list(self.burns)
        burn_long = self._mean(burns)
        burn_short = self._mean(burns[-spec.short_windows:])
        mid = max(spec.short_windows, spec.window // 4)
        burn_mid = self._mean(burns[-mid:])
        budget_remaining = 1.0 - burn_long
        if burns and burn_long >= 1.0:
            state = "breach"
        elif burns and burn_short >= spec.fast_burn and burn_mid >= spec.fast_burn:
            state = "page"
        elif burns and burn_long >= spec.slow_burn:
            state = "warn"
        else:
            state = "ok"
        return {
            "slo": spec.name,
            "objective": spec.objective,
            "target": spec.target,
            "threshold": spec.threshold,
            "state": state,
            "burn_short": burn_short,
            "burn_long": burn_long,
            "budget_remaining": budget_remaining,
            "windows_evaluated": len(burns),
            "windows_seen": self.windows_seen,
        }


class SLOEngine:
    """Evaluates a process's SLOs at every profiler window boundary."""

    def __init__(self, margo: Any, specs: list[SLOSpec]) -> None:
        self.margo = margo
        self.kernel = margo.kernel
        self.specs = list(specs)
        self._states = {spec.name: _SLOState(spec) for spec in self.specs}
        #: alert-state transition ring (bounded).
        self.alerts: deque[dict[str, Any]] = deque(maxlen=MAX_ALERTS)

    # ------------------------------------------------------------------
    def observe_window(self, window_doc: dict[str, Any]) -> None:
        """Fed by the profiler at every window close."""
        for spec in self.specs:
            state = self._states[spec.name]
            burn = spec.window_burn(window_doc)
            if burn is None:
                continue
            state.windows_seen += 1
            state.burns.append(burn)
            status = state.evaluate()
            if status["state"] != state.state:
                alert = {
                    "time": self.kernel.now,
                    "process": self.margo.process.name,
                    "slo": spec.name,
                    "from": state.state,
                    "to": status["state"],
                    "burn_short": status["burn_short"],
                    "burn_long": status["burn_long"],
                    "budget_remaining": status["budget_remaining"],
                }
                state.state = status["state"]
                self.alerts.append(alert)
                plane = getattr(self.margo.network, "health_plane", None)
                if plane is not None:
                    plane.note_slo_alert(alert)

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        return {
            "process": self.margo.process.name,
            "time": self.kernel.now,
            "slos": [self._states[s.name].evaluate() for s in self.specs],
            "alerts": [dict(a) for a in self.alerts],
        }
