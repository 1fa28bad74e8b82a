"""Span model for distributed traces.

A **span** is one timed phase of one RPC (or a manually instrumented
operation like a Pufferscale rebalance), identified by a
``(trace_id, span_id)`` pair and linked to its parent by
``parent_span_id``.  A **trace** is the tree of spans sharing one
``trace_id``: the paper's ``parent_rpc_id``/``parent_provider_id``
chain (Listing 1) gives each request a causal parent, and the runtime
extends it with per-call span identifiers so nested RPCs (HEPnOS ->
Yokan, Raft AppendEntries fan-out) form a single causal tree rather
than aggregate buckets.

Span ids are derived from deterministic simulation state (process name
plus the per-instance RPC sequence number), never from wall clocks or
PRNGs outside the seeded simulation, so two runs with the same seed
produce byte-identical trace exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Span", "SpanContext", "child_span_id", "HANDLER_SUFFIX"]

#: Suffixes deriving the per-phase span ids from the request's call id.
WIRE_SUFFIX = "/w"
QUEUE_SUFFIX = "/q"
HANDLER_SUFFIX = "/h"
RESPOND_SUFFIX = "/r"


def child_span_id(span_id: str, suffix: str) -> str:
    """The derived id of a request's wire/queue/handler/respond span."""
    return span_id + suffix


@dataclass(frozen=True, init=False)
class SpanContext:
    """What propagates across processes: which trace, which parent."""

    trace_id: str
    span_id: str

    def __init__(self, trace_id: str, span_id: str) -> None:
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)


@dataclass(init=False)
class Span:
    """One completed, timed phase of a trace."""

    name: str
    category: str  # "forward" | "wire" | "queue" | "handler" | "respond" | "bulk" | ...
    trace_id: str
    span_id: str
    parent_span_id: str
    process: str
    start: float
    end: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        name: str,
        category: str,
        trace_id: str,
        span_id: str,
        parent_span_id: str,
        process: str,
        start: float,
        end: float,
        attributes: Optional[dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.process = process
        self.start = start
        self.end = end
        self.attributes = {} if attributes is None else attributes

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "process": self.process,
            "start": self.start,
            "end": self.end,
            "attributes": dict(sorted(self.attributes.items())),
        }
