"""Unified performance introspection for Mochi components (paper section 4).

Attach a :class:`StatisticsMonitor` to a Margo instance and every
component on that instance participates in monitoring "at no engineering
cost"; inject :class:`CallbackMonitor` callbacks for custom probes; run
a :class:`PeriodicSampler` for pool-size / in-flight-RPC time series.
"""

from .monitor import CallbackMonitor, HOOK_NAMES, Monitor
from .sampler import PeriodicSampler
from .statistics import RunningStats
from .stats_monitor import StatisticsMonitor

__all__ = [
    "Monitor",
    "CallbackMonitor",
    "HOOK_NAMES",
    "StatisticsMonitor",
    "PeriodicSampler",
    "RunningStats",
]
