"""ObservabilitySpec: the JSON surface of the observability plane.

Margo (and therefore Bedrock, whose ``margo`` section is consumed by
the Margo instance) accepts an ``observability`` object::

    {
      "observability": {
        "tracing": true,        # materialize per-RPC spans (default off)
        "metrics": true,        # serve counters as $__metrics__ (default on)
        "max_spans": 100000,    # span-buffer cap (default unbounded)

        "profiling": true,      # continuous profiler (default off)
        "profile_window": 1.0,  # rollup window, simulated seconds

        "profile_sample_every": 16,  # decompose every Nth RPC (default 1)
        "trace_sample_rate": 0.1,    # fraction of traces kept (default 1.0)

        "slos": [                 # declarative objectives (needs profiling)
          {"name": "kv-p99", "objective": "latency_p99",
           "target": "yokan_put/1", "threshold": 0.002}
        ],
        "xray": true              # critical paths + what-if (needs profiling)
      }
    }

The ``profile_*`` keys configure :mod:`repro.observability.profile`;
``slos`` and ``xray`` ride the profiler's closed windows.  Like every
other part of the Listing-2/Listing-3 configuration it is validated on
parse and reflected back by ``get_config`` so a shared configuration
document reproduces the observability setup too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .health.slo import SLOSpec, json_typed

__all__ = ["ObservabilitySpec"]

_KNOWN_KEYS = {
    "tracing",
    "trace_sample_rate",
    "metrics",
    "max_spans",
    "profiling",
    "profile_window",
    "profile_sample_every",
    "slos",
    "xray",
}


@dataclass(frozen=True)
class ObservabilitySpec:
    """Per-process observability configuration."""

    tracing: bool = False
    #: Probabilistic span sampling: the fraction of traces materialized
    #: (1.0 = every span; the decision is per trace id, so a sampled
    #: trace keeps *all* its spans and trees never come out partial).
    trace_sample_rate: float = 1.0
    metrics: bool = True
    max_spans: Optional[int] = None
    #: Continuous profiling (sampling + RPC latency decomposition).
    profiling: bool = False
    #: Rollup window length in simulated seconds (windows are aligned to
    #: multiples of this value, so boundaries are deterministic).
    profile_window: float = 1.0
    #: Adaptive observer sampling: decompose every Nth RPC only (1 =
    #: every RPC).  Sampled requests are weighted by N in the
    #: load-estimator counts, so measured rates stay unbiased.
    profile_sample_every: int = 1
    #: Declarative service-level objectives (ISSUE 6): evaluated by the
    #: per-process SLO engine against closed profiler windows, so
    #: ``slos`` requires ``profiling``.
    slos: tuple[SLOSpec, ...] = ()
    #: mochi-xray (ISSUE 10): record per-request causal edges and run
    #: tail-latency attribution + what-if analysis per closed profiler
    #: window.  Rides the profiler's sampling decision and cross-process
    #: stamps, so ``xray`` requires ``profiling``.
    xray: bool = False

    @classmethod
    def from_json(cls, doc: Any) -> "ObservabilitySpec":
        if doc is None:
            return cls()
        if not isinstance(doc, dict):
            raise ValueError(
                f"'observability' must be an object, got {type(doc).__name__}"
            )
        unknown = set(doc) - _KNOWN_KEYS
        if unknown:
            raise ValueError(f"unknown observability keys: {sorted(unknown)}")
        max_spans = doc.get("max_spans")
        if max_spans is not None:
            if json_typed(max_spans, int, "max_spans") <= 0:
                raise ValueError(f"max_spans must be positive, got {max_spans}")
        profile_window = float(json_typed(
            doc.get("profile_window", cls.profile_window), (int, float), "profile_window"
        ))
        if profile_window <= 0:
            raise ValueError(
                f"profile_window must be positive, got {profile_window}"
            )
        trace_sample_rate = float(json_typed(
            doc.get("trace_sample_rate", cls.trace_sample_rate), (int, float),
            "trace_sample_rate",
        ))
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {trace_sample_rate}"
            )
        profile_sample_every = json_typed(
            doc.get("profile_sample_every", cls.profile_sample_every),
            int, "profile_sample_every",
        )
        if profile_sample_every < 1:
            raise ValueError(
                f"profile_sample_every must be >= 1, got {profile_sample_every}"
            )
        tracing = json_typed(doc.get("tracing", False), bool, "tracing")
        metrics = json_typed(doc.get("metrics", True), bool, "metrics")
        profiling = json_typed(doc.get("profiling", False), bool, "profiling")
        xray = json_typed(doc.get("xray", False), bool, "xray")
        slos_doc = doc.get("slos", [])
        if not isinstance(slos_doc, list):
            raise ValueError(
                f"'slos' must be a list, got {type(slos_doc).__name__}"
            )
        slos = tuple(SLOSpec.from_json(entry) for entry in slos_doc)
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        if slos and not profiling:
            raise ValueError(
                "'slos' are evaluated against profiler windows: set "
                "'profiling': true"
            )
        if xray and not profiling:
            raise ValueError(
                "'xray' rides the profiler's sampling and phase stamps: "
                "set 'profiling': true"
            )
        return cls(
            tracing=tracing,
            trace_sample_rate=trace_sample_rate,
            metrics=metrics,
            max_spans=max_spans,
            profiling=profiling,
            profile_window=profile_window,
            profile_sample_every=profile_sample_every,
            slos=slos,
            xray=xray,
        )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"tracing": self.tracing, "metrics": self.metrics}
        if self.max_spans is not None:
            doc["max_spans"] = self.max_spans
        # Profiling keys are emitted only when they deviate from the
        # defaults, keeping configuration round-trips minimal (and the
        # reflected documents of non-profiled processes unchanged).
        if self.profiling:
            doc["profiling"] = True
        if self.profile_window != ObservabilitySpec.profile_window:
            doc["profile_window"] = self.profile_window
        if self.profile_sample_every != ObservabilitySpec.profile_sample_every:
            doc["profile_sample_every"] = self.profile_sample_every
        if self.trace_sample_rate != ObservabilitySpec.trace_sample_rate:
            doc["trace_sample_rate"] = self.trace_sample_rate
        if self.slos:
            doc["slos"] = [slo.to_json() for slo in self.slos]
        if self.xray:
            doc["xray"] = True
        return doc
