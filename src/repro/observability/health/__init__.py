"""mochi-health: SLO engine, failure-detection health plane, and the
always-on flight recorder (ISSUE 6).

Entry points:

* ``cluster.enable_health()`` -- attach a :class:`HealthPlane` to a
  cluster; then ``plane.watch_service(service)`` (or ``watch_group`` /
  ``watch_raft`` / ``watch_resilience`` individually).
* ``ObservabilitySpec.slos`` -- declarative objectives evaluated by a
  per-process :class:`SLOEngine` against profiler windows.
* Bedrock ``get_health`` / ``get_incidents`` / ``get_slo_status`` RPCs,
  ``tools.health_report`` / ``tools.fault_report``, and
  ``repro health {crash,slo}`` (scenarios in :mod:`repro.scenarios`).
"""

from .detector import PhiAccrualDetector
from .incidents import Incident, IncidentLog
from .plane import HealthPlane
from .recorder import EVENT_CATEGORIES, FlightRecorder
from .registry import HEALTH_STATES, HealthRegistry
from .slo import OBJECTIVES, SLOEngine, SLOSpec

__all__ = [
    "EVENT_CATEGORIES",
    "FlightRecorder",
    "HEALTH_STATES",
    "HealthPlane",
    "HealthRegistry",
    "Incident",
    "IncidentLog",
    "OBJECTIVES",
    "PhiAccrualDetector",
    "SLOEngine",
    "SLOSpec",
]
