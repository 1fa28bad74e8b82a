"""mochi-profile: continuous profiling, RPC latency decomposition, and
the measured-load inputs that feed reconfiguration decisions.

Layered on the tracer plane:

* :class:`ProfileStore` / :class:`WindowRollup` -- fixed-memory ring of
  windowed rollups (p50/p95/p99, rates, utilization) with deterministic
  window boundaries;
* :class:`ContinuousProfiler` -- the per-Margo sampler + monitor that
  fills the store that Bedrock queries read as ``$__profile__``;
* :class:`LoadEstimator` -- measured windows reduced to Pufferscale
  ``Shard.load`` / ``size`` inputs, closing the monitor -> decide ->
  reconfigure loop.
"""

from .estimator import LoadEstimator
from .profiler import SAMPLE_STAMP, ContinuousProfiler
from .store import (
    PHASES,
    PhaseAggregate,
    ProfileStore,
    WindowRollup,
    quantile_from_buckets,
)

__all__ = [
    "PHASES",
    "SAMPLE_STAMP",
    "ContinuousProfiler",
    "LoadEstimator",
    "PhaseAggregate",
    "ProfileStore",
    "WindowRollup",
    "quantile_from_buckets",
]
