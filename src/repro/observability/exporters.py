"""Chrome trace-event export of the tracer's spans.

:func:`chrome_trace` renders every span as a complete ("ph": "X") event
loadable in ``chrome://tracing`` or Perfetto; the process name maps to
``pid`` and the trace id to ``tid``, so one row per causal tree per
process.  Bedrock's ``$__traces__`` document is this rendering.  It is
deterministic: timestamps are simulated seconds (never wall clocks) and
events are sorted by explicit keys, so two runs with the same seed
produce the same document (tested).
"""

from __future__ import annotations

from typing import Any

from .span import Span, WIRE_SUFFIX, child_span_id
from .tracer import Tracer

__all__ = ["collect_spans", "chrome_trace"]


def collect_spans(*tracers: Tracer) -> list[Span]:
    """All completed spans across ``tracers``, plus wire spans.

    A wire span is assembled from its two halves (client "sent", server
    "received"); when the endpoints are observed by different tracers
    the halves live in different ``edges`` maps, so pairing happens
    here, over the union.
    """
    spans: list[Span] = []
    for tracer in tracers:
        spans.extend(tracer.spans)
    merged: dict[tuple[str, str], dict[str, Any]] = {}
    for tracer in tracers:
        for key, half in tracer.edges.items():
            merged.setdefault(key, {}).update(half)
    for (trace_id, span_id), edge in merged.items():
        if "sent" not in edge or "received" not in edge:
            continue  # one-sided observation (peer not traced): skip
        spans.append(
            Span(
                name=edge.get("name", ""),
                category="wire",
                trace_id=trace_id,
                span_id=child_span_id(span_id, WIRE_SUFFIX),
                parent_span_id=span_id,
                process=edge.get("dst", edge.get("src", "")),
                start=edge["sent"],
                end=edge["received"],
                attributes={"src": edge.get("src", ""), "dst": edge.get("dst", "")},
            )
        )
    spans.sort(key=lambda s: (s.trace_id, s.start, s.span_id))
    return spans


def chrome_trace(*tracers: Tracer) -> dict[str, Any]:
    """Render all spans as a Chrome trace-event document."""
    events: list[dict[str, Any]] = []
    for span in collect_spans(*tracers):
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),  # microseconds
                "dur": round(span.duration * 1e6, 3),
                "pid": span.process,
                "tid": span.trace_id,
                "args": {
                    "span_id": span.span_id,
                    "parent_span_id": span.parent_span_id,
                    **span.attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
