"""The flight recorder: an always-on bounded ring of structured events.

Aviation-style post-mortem support for the health plane (ISSUE 6): the
recorder keeps the last :data:`CAPACITY` structured events -- membership
transitions, migrations, elections, faults, SLO alerts, reconfiguration
decisions -- in a ``deque(maxlen=...)`` ring (the MCH004-sanctioned
bounded pattern), so it can stay attached for the whole life of a
service at fixed memory cost.  On a crash, an SLO breach, or on demand,
:meth:`dump` freezes the ring into a post-mortem timeline document; the
same events export as Chrome-trace instant events for side-by-side
inspection with the tracer's spans.

Determinism: events carry only simulated timestamps and a monotonic
sequence number assigned at record time; the kernel's event order is a
pure function of the seed, so dumps from two identical runs are
byte-identical (tested, including under ``REPRO_SANITIZE=race``).
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["FlightRecorder", "EVENT_CATEGORIES", "events_to_chrome"]

#: Events the ring keeps.
CAPACITY = 4096
#: Post-mortem dumps kept (a crash storm must not turn the recorder
#: itself into a leak).
MAX_DUMPS = 8

#: The event taxonomy.  Keeping it closed makes dumps greppable and the
#: Chrome export's category lanes stable.
EVENT_CATEGORIES = (
    "fault",          # FaultInjector injections (process/node/partition/heal/loss)
    "membership",     # SWIM suspect/alive/dead transitions
    "health",         # health-registry state changes
    "election",       # Raft role transitions
    "recovery",       # REMI/resilience recovery spans
    "migration",      # provider migrations
    "slo",            # SLO alert state transitions
    "reconfiguration",  # controller decisions
    "incident",       # incident open/close
)


class FlightRecorder:
    """A bounded, always-on structured-event ring with dump support."""

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.events: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        #: total events ever recorded (``seq`` of the next event); the
        #: difference with ``len(events)`` is how many fell off the ring.
        self.recorded = 0
        #: Post-mortem dumps taken so far.
        self.dumps: deque[dict[str, Any]] = deque(maxlen=MAX_DUMPS)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        name: str,
        target: str = "",
        **attrs: Any,
    ) -> dict[str, Any]:
        """Append one event.  ``attrs`` must be JSON-serializable."""
        if category not in EVENT_CATEGORIES:
            raise ValueError(f"unknown flight-recorder category {category!r}")
        event = {
            "seq": self.recorded,
            "time": self.kernel.now,
            "category": category,
            "name": name,
            "target": target,
            "attrs": dict(sorted(attrs.items())),
        }
        self.recorded += 1
        self.events.append(event)
        return event

    @property
    def dropped(self) -> int:
        """Events that have fallen off the far end of the ring."""
        return self.recorded - len(self.events)

    # ------------------------------------------------------------------
    # post-mortem dumps
    # ------------------------------------------------------------------
    def dump(self, reason: str) -> dict[str, Any]:
        """Freeze the ring into a timeline document and retain it."""
        doc = {
            "reason": reason,
            "time": self.kernel.now,
            "capacity": self.events.maxlen,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": [dict(e) for e in self.events],
        }
        self.dumps.append(doc)
        return doc

    def to_json(self) -> dict[str, Any]:
        """The live ring (without taking a dump)."""
        return {
            "capacity": self.events.maxlen,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": [dict(e) for e in self.events],
        }

    # ------------------------------------------------------------------
    # Chrome-trace export (instant events on one lane per category)
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict[str, Any]:
        """The live ring as Chrome trace-event JSON."""
        return events_to_chrome(self.events)


def events_to_chrome(events: Any) -> dict[str, Any]:
    """Flight-recorder events as Chrome trace-event JSON
    (``chrome://tracing`` / Perfetto).  Works on the live ring or on the
    ``events`` list of a frozen dump.

    Each event becomes a process-scoped instant event; ``pid`` is the
    event's category lane and ``tid`` its target, so a crash reads as a
    vertical line through the membership/election/recovery lanes.
    """
    trace_events: list[dict[str, Any]] = []
    for event in events:
        trace_events.append(
            {
                "name": f"{event['name']}:{event['target']}" if event["target"]
                else event["name"],
                "cat": event["category"],
                "ph": "i",
                "s": "p",
                "ts": event["time"] * 1e6,
                "pid": event["category"],
                "tid": event["target"] or "-",
                "args": dict(event["attrs"], seq=event["seq"]),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
