"""The distributed tracer: monitor hooks -> causal span trees.

:class:`Tracer` plugs into the same monitor mechanism as the Listing-1
:class:`~repro.monitoring.stats_monitor.StatisticsMonitor` (it exposes
the standard hook methods and is attached with ``margo.add_monitor`` or
via ``ObservabilitySpec.tracing``), but instead of aggregating running
statistics it materializes **per-request spans**:

======== ======================= =====================================
span     id                      bounds
======== ======================= =====================================
forward  ``<span_id>``           on_forward_start -> on_response_received
wire     ``<span_id>/w``         on_forward_sent -> on_request_received
queue    ``<span_id>/q``         on_ult_enqueued -> on_ult_start
handler  ``<span_id>/h``         on_ult_start -> on_ult_complete
respond  ``<span_id>/r``         on_respond (instant)
======== ======================= =====================================

``span_id`` is the request's call id, stamped by
:meth:`MargoInstance.forward <repro.margo.runtime.MargoInstance.forward>`;
a nested RPC's ``parent_span_id`` is its parent handler's span id, so a
HEPnOS store that fans out into Yokan puts -- or a Raft AppendEntries
fan-out -- yields one tree per root request.

A wire span needs both endpoints' clocks; when client and server are
observed by *different* tracer instances, each records its half as an
"edge" and :func:`~repro.observability.exporters.collect_spans` pairs
them at export time.
"""

from __future__ import annotations

from typing import Any, Optional

from ..mercury.hg import trace_crc_of
from .span import (
    HANDLER_SUFFIX,
    QUEUE_SUFFIX,
    RESPOND_SUFFIX,
    WIRE_SUFFIX,
    Span,
    SpanContext,
    child_span_id,
)

__all__ = ["Tracer", "current_span_context"]


def current_span_context() -> Optional[SpanContext]:
    """The span context of the RPC handler the calling ULT services.

    Manual instrumentation (Pufferscale rebalances, Bedrock migrations)
    uses this to attach its spans to the enclosing trace; ``None`` when
    the current ULT is not an RPC handler.
    """
    # Imported lazily: repro.margo imports this module at start-up (the
    # runtime owns a Tracer), so a top-level import would be circular.
    from ..margo.ult import current_ult

    ult = current_ult()
    request = getattr(ult, "rpc_context", None) if ult is not None else None
    if request is None or not getattr(request, "trace_id", ""):
        return None
    return SpanContext(
        trace_id=request.trace_id,
        span_id=child_span_id(request.span_id, HANDLER_SUFFIX),
    )


class Tracer:
    """Collects spans from monitor hooks on one or more Margo instances.

    Like every monitor, hook methods must not raise and must not issue
    RPCs; the tracer only appends to in-memory structures.  ``max_spans``
    bounds memory for long runs (oldest spans are retained; once the cap
    is hit new spans are dropped and counted in :attr:`dropped_spans`).
    Sampling is one decision per request per endpoint (:meth:`keeps`):
    the runtime calls the request hooks of kept requests only, and still
    charges a dropped one for them (the decision selects calls, never
    simulated cost).
    """

    def __init__(
        self, max_spans: Optional[int] = None, sample_rate: float = 1.0
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.max_spans = max_spans
        #: Probabilistic trace sampling (ISSUE 6, adaptive observer
        #: sampling): the keep/drop decision hashes the *trace id*, so
        #: every span of one trace -- bulk transfers included, across all
        #: processes and tracer instances -- samples together and trees
        #: never come out partial.  CRC32 is seed-free and platform-
        #: stable, so the decision is deterministic across identical runs.
        self.sample_rate = sample_rate
        self._sample_cutoff = int(sample_rate * (1 << 32))
        self.spans: list[Span] = []
        self.dropped_spans = 0
        #: requests the sampling decision dropped, once per endpoint (a
        #: request dropped by client and server counts twice; distinct
        #: from ``dropped_spans``, the max_spans overflow count).
        self.sampled_out = 0
        #: (trace_id, span_id) -> client-side in-progress forward span.
        self._forward_open: dict[tuple[str, str], dict[str, Any]] = {}
        #: (trace_id, span_id) -> {"sent": t, "received": t, ...} halves
        #: of the wire span (paired at export time).
        self.edges: dict[tuple[str, str], dict[str, Any]] = {}
        #: (trace_id, span_id) -> queue/handler start bookkeeping.
        self._server_open: dict[tuple[str, str], dict[str, Any]] = {}
        self._manual_seq = 0

    # ------------------------------------------------------------------
    def _add(self, span: Span) -> None:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def keeps(self, request: Any) -> bool:
        """Whether this tracer keeps ``request``'s trace, from the trace id;
        sets ``request.trace_crc`` on the way.

        The Margo runtime decides once per request and endpoint, before
        the first hook, and calls the request hooks below only for a kept
        request, so they do no sampling of their own.  It compares
        ``trace_crc`` with ``_sample_cutoff`` inline, asks here only while
        that is ``NO_TRACE``, and counts what it drops in ``sampled_out``.
        """
        request.trace_crc = trace_crc_of(request.trace_id)
        return request.trace_crc < self._sample_cutoff

    # ------------------------------------------------------------------
    # client-side hooks
    # ------------------------------------------------------------------
    def on_forward_start(self, time: float, margo: Any, request: Any) -> None:
        self._forward_open[(request.trace_id, request.span_id)] = {
            "start": time,
            "process": margo.process.name,
        }

    def on_forward_sent(self, time: float, margo: Any, request: Any) -> None:
        key = (request.trace_id, request.span_id)
        edge = self.edges.setdefault(key, {"name": request.rpc_name})
        edge["sent"] = time
        edge["src"] = margo.process.name

    def on_response_received(
        self, time: float, margo: Any, request: Any, response: Any, elapsed: float
    ) -> None:
        open_span = self._forward_open.pop((request.trace_id, request.span_id), None)
        if open_span is None:
            return
        self._add(
            Span(
                name=request.rpc_name,
                category="forward",
                trace_id=request.trace_id,
                span_id=request.span_id,
                parent_span_id=request.parent_span_id,
                process=open_span["process"],
                start=open_span["start"],
                end=time,
                attributes={
                    "dst": request.dst_address,
                    "provider_id": request.provider_id,
                    "status": response.status,
                    "payload_size": request.payload_size,
                },
            )
        )

    # ------------------------------------------------------------------
    # server-side hooks
    # ------------------------------------------------------------------
    def on_request_received(self, time: float, margo: Any, request: Any) -> None:
        key = (request.trace_id, request.span_id)
        edge = self.edges.setdefault(key, {"name": request.rpc_name})
        edge["received"] = time
        edge["dst"] = margo.process.name

    def on_ult_enqueued(self, time: float, margo: Any, request: Any, pool: Any) -> None:
        self._server_open[(request.trace_id, request.span_id)] = {
            "enqueued": time,
            "pool": pool.name,
            "process": margo.process.name,
        }

    def on_ult_start(
        self, time: float, margo: Any, request: Any, queued_for: float
    ) -> None:
        state = self._server_open.setdefault(
            (request.trace_id, request.span_id), {"process": margo.process.name}
        )
        enqueued = state.get("enqueued")
        if enqueued is not None:
            self._add(
                Span(
                    name=request.rpc_name,
                    category="queue",
                    trace_id=request.trace_id,
                    span_id=child_span_id(request.span_id, QUEUE_SUFFIX),
                    parent_span_id=request.span_id,
                    process=state["process"],
                    start=enqueued,
                    end=time,
                    attributes={"pool": state.get("pool", "")},
                )
            )
        state["handler_start"] = time

    def on_ult_complete(
        self, time: float, margo: Any, request: Any, duration: float, queued_for: float
    ) -> None:
        state = self._server_open.pop((request.trace_id, request.span_id), None)
        if state is None or "handler_start" not in state:
            return
        self._add(
            Span(
                name=request.rpc_name,
                category="handler",
                trace_id=request.trace_id,
                span_id=child_span_id(request.span_id, HANDLER_SUFFIX),
                parent_span_id=request.span_id,
                process=state["process"],
                start=state["handler_start"],
                end=time,
                attributes={"src": request.src_address},
            )
        )

    def on_respond(self, time: float, margo: Any, request: Any, response: Any) -> None:
        self._add(
            Span(
                name=request.rpc_name,
                category="respond",
                trace_id=request.trace_id,
                span_id=child_span_id(request.span_id, RESPOND_SUFFIX),
                parent_span_id=child_span_id(request.span_id, HANDLER_SUFFIX),
                process=margo.process.name,
                start=time,
                end=time,
                attributes={"status": response.status},
            )
        )

    # ------------------------------------------------------------------
    # either-side hooks
    # ------------------------------------------------------------------
    def on_bulk_transfer(
        self, time: float, margo: Any, remote: str, size: int, op: str, duration: float
    ) -> None:
        # A transfer inside a handler joins that request's trace and so
        # its sampling decision; one outside any handler roots its own.
        context = current_span_context()
        self._manual_seq += 1
        span_id = f"bulk:{margo.process.name}:{self._manual_seq}"
        trace_id = context.trace_id if context else span_id
        if trace_crc_of(trace_id) >= self._sample_cutoff:
            return
        self._add(
            Span(
                name=f"bulk_{op}",
                category="bulk",
                trace_id=trace_id,
                span_id=span_id,
                parent_span_id=context.span_id if context else "",
                process=margo.process.name,
                start=time - duration,
                end=time,
                attributes={"remote": remote, "size": size, "op": op},
            )
        )

    # ------------------------------------------------------------------
    # manual instrumentation (Pufferscale rebalances, migrations, ...)
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        category: str,
        process: str,
        start: float,
        end: float,
        attributes: Optional[dict[str, Any]] = None,
        context: Optional[SpanContext] = None,
    ) -> Span:
        """Record an explicitly-timed span.

        When ``context`` is None the current ULT's RPC context is used if
        there is one; otherwise the span roots a trace of its own.
        """
        if context is None:
            context = current_span_context()
        self._manual_seq += 1
        span_id = f"op:{process}:{self._manual_seq}"
        span = Span(
            name=name,
            category=category,
            trace_id=context.trace_id if context else span_id,
            span_id=span_id,
            parent_span_id=context.span_id if context else "",
            process=process,
            start=start,
            end=end,
            attributes=dict(attributes or {}),
        )
        self._add(span)
        return span

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def trace_ids(self) -> list[str]:
        return sorted({s.trace_id for s in self.spans})

    def to_json(self) -> dict[str, Any]:
        spans = sorted(self.spans, key=lambda s: (s.trace_id, s.start, s.span_id))
        return {
            "spans": [s.to_json() for s in spans],
            "dropped_spans": self.dropped_spans,
        }
