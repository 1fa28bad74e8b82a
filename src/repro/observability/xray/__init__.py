"""mochi-xray: per-request critical paths, tail attribution, what-if.

The fourth observer plane (after tracing, profiling, and health): it
turns the other three's measurements into *decisions* by answering, per
closed profiler window, (1) where each sampled request actually blocked
-- :class:`XrayRecorder` / :class:`XrayPlane`; (2) which
``(process, pool, phase)`` segments make the p99 cohort slower than the
p50 cohort -- :func:`attribute_paths`; and (3) which reconfiguration
action would shrink the tail the most -- :func:`what_if`, a Coz-style
virtual-speedup estimate the :class:`~repro.core.controller.\
ServiceController` ranks and (optionally) applies.
"""

from .attribution import attribute_paths, nearest_rank, segment_key
from .critical_path import critical_chain, critical_span_ids, format_path_record
from .plane import EDGES_ATTR, XrayPlane, XrayRecorder
from .whatif import SHRINK, candidate_for, what_if

__all__ = [
    "EDGES_ATTR",
    "SHRINK",
    "XrayPlane",
    "XrayRecorder",
    "attribute_paths",
    "candidate_for",
    "critical_chain",
    "critical_span_ids",
    "format_path_record",
    "nearest_rank",
    "segment_key",
    "what_if",
]
