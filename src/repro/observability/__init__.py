"""End-to-end observability for the Mochi runtime (paper section 4+).

The Listing-1 :class:`~repro.monitoring.StatisticsMonitor` answers
"how long do RPCs of this kind take, on aggregate".  This package adds
the causal, per-request view the dynamic pillars (reconfiguration,
elasticity, resilience) act on.  Two switches turn it on, both off by
default:

* the ``observability`` section of a margo/Bedrock configuration
  (:class:`ObservabilitySpec`) builds, per process, the
  :class:`Tracer` (per-RPC spans with cross-process trace context) and
  the :class:`ContinuousProfiler` (windowed rollups and RPC latency
  decomposition).  Two keys ride the profiler: ``xray`` makes it
  record per-request critical paths into the kernel's
  :class:`XrayPlane`, which attributes each closed window's tail and
  ranks what-if actions; ``slos`` gives the process an
  :class:`SLOEngine` that the profiler feeds every closed window;
* ``cluster.enable_health()`` builds the :class:`HealthPlane`
  (registry, incidents, flight recorder).  SSG groups, Raft nodes and
  SLO engines report to it by themselves.

Bedrock's ``query`` RPC reads every plane (``$__metrics__``,
``$__traces__``, ``$__profile__``, ``$__health__``, ``$__incidents__``,
``$__slo__``, ``$__xray__``); ``$__metrics__`` is the flat, sorted
``{name: number}`` of the counters margo, bedrock, raft, remi, ssg and
pufferscale export into their Margo instance (``MargoInstance.export``),
read at query time; ``$__traces__`` is Chrome trace-event JSON.
Everything runs on simulated clocks: same seed, same bytes out.
"""

from .exporters import chrome_trace, collect_spans
from .profile import (
    PHASES,
    ContinuousProfiler,
    LoadEstimator,
    PhaseAggregate,
    ProfileStore,
    WindowRollup,
    quantile_from_buckets,
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
from .xray import XrayPlane, attribute_paths, what_if

__all__ = [
    "Tracer",
    "current_span_context",
    "Span",
    "SpanContext",
    "child_span_id",
    "ObservabilitySpec",
    "collect_spans",
    "chrome_trace",
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
    "attribute_paths",
    "what_if",
]
