"""End-to-end observability for the Mochi runtime (paper section 4+).

The Listing-1 :class:`~repro.monitoring.StatisticsMonitor` answers
"how long do RPCs of this kind take, on aggregate".  This package adds
the causal, per-request view the dynamic pillars (reconfiguration,
elasticity, resilience) need to act on:

* :class:`Tracer` -- per-RPC **spans** (forward -> wire -> queue ->
  handler -> respond) with trace-context propagation across processes,
  so nested RPCs form a single causal trace tree;
* :class:`MetricsRegistry` -- labelled counters / gauges / histograms
  that margo, bedrock, raft, remi, pufferscale and ssg register into;
* exporters -- Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto) and a deterministic metrics snapshot;
* :class:`ObservabilitySpec` -- the ``"observability"`` section of the
  margo/bedrock JSON configuration that turns it all on;
* :mod:`~repro.observability.health` -- the mochi-health plane (ISSUE
  6): declarative SLOs with burn-rate alerting, a health registry fed
  by SWIM membership, incident correlation (detection latency / MTTR),
  and the always-on flight recorder;
* :mod:`~repro.observability.xray` -- the mochi-xray causal plane
  (ISSUE 10): per-request critical paths from sampled blocked-on/wakeup
  edges, differential tail-latency attribution per closed profiler
  window, and a Coz-style what-if engine ranking reconfiguration
  actions by predicted p99 improvement.

Everything is deterministic (simulated clocks only): same seed, same
bytes out.
"""

from .exporters import (
    build_trace_tree,
    chrome_trace,
    chrome_trace_profile,
    collect_spans,
    dumps_chrome_trace,
    dumps_chrome_trace_profile,
    dumps_metrics,
    metrics_snapshot,
)
from .profile import (
    PHASES,
    ContinuousProfiler,
    LoadEstimator,
    PhaseAggregate,
    ProfileStore,
    WindowRollup,
    quantile_from_buckets,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
)
from .health import (
    FlightRecorder,
    HealthPlane,
    HealthRegistry,
    Incident,
    IncidentLog,
    SLOEngine,
    SLOSpec,
)
from .span import Span, SpanContext, child_span_id
from .spec import ObservabilitySpec
from .tracer import Tracer, current_span_context
from .xray import (
    XrayPlane,
    XrayRecorder,
    attribute_paths,
    critical_chain,
    critical_span_ids,
    what_if,
)

__all__ = [
    "Tracer",
    "current_span_context",
    "Span",
    "SpanContext",
    "child_span_id",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BUCKETS",
    "ObservabilitySpec",
    "collect_spans",
    "chrome_trace",
    "chrome_trace_profile",
    "dumps_chrome_trace",
    "dumps_chrome_trace_profile",
    "metrics_snapshot",
    "dumps_metrics",
    "build_trace_tree",
    "PHASES",
    "ContinuousProfiler",
    "LoadEstimator",
    "PhaseAggregate",
    "ProfileStore",
    "WindowRollup",
    "quantile_from_buckets",
    "FlightRecorder",
    "HealthPlane",
    "HealthRegistry",
    "Incident",
    "IncidentLog",
    "SLOEngine",
    "SLOSpec",
    "XrayPlane",
    "XrayRecorder",
    "attribute_paths",
    "critical_chain",
    "critical_span_ids",
    "what_if",
]
