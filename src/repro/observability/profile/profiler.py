"""ContinuousProfiler: sampling + RPC latency decomposition for one
Margo instance.

Two data paths feed one :class:`~.store.ProfileStore`:

* **Sampling** -- a kernel timer aligned to window boundaries
  (``k * profile_window`` simulated seconds, via ``kernel.schedule_at``)
  samples every pool (queue depth, push/pop deltas, ULT scheduling
  latency) and every xstream (busy vs idle time, slices, completed
  ULTs), then closes the window into the bounded ring.  Pools report
  scheduling latency through a one-``None``-check hook
  (``pool._profiler``), mirroring the race layer's zero-cost-when-off
  discipline; with profiling disabled nothing here exists at all.

* **Decomposition** -- the profiler doubles as a monitor (same hook
  contract as :class:`~repro.observability.tracer.Tracer`): every
  forwarded RPC is broken into *client queue -> network ->
  server queue -> handler -> respond* phases.  The halves of a phase
  observed on different processes meet through timestamp stamps on the
  in-flight request/response objects (one simulated clock, so cross-
  process subtraction is exact).  The window rollup is the one place a
  phase latency is recorded.

Two more planes ride it, with no hook of their own.  With ``xray`` on,
a sampled request carries an edge list and, once both endpoints have
stamped it, leaves a path record in the kernel's
:class:`~repro.observability.xray.XrayPlane`.  Each closed window goes
to the process's SLO engine, then to the xray plane.

Determinism: all timestamps are simulated; windows, rings, and JSON
reductions are seed-pure, so ``$__profile__`` documents are byte-
identical across identical runs (tested, including under
``REPRO_SANITIZE=race`` record mode).
"""

from __future__ import annotations

from typing import Any, Optional

from ...mercury.hg import STATUS_OK
from ..xray.critical_path import path_record
from ..xray.plane import XrayPlane
from .store import PHASES, ProfileStore

__all__ = ["ContinuousProfiler", "PHASES"]

#: The endpoint profilers close cross-process phases exactly through the
#: ``_profile_*`` stamp slots of the in-flight request and response.
#: Sampling decision stamp: 0 = not sampled (skip all decomposition),
#: N >= 1 = sampled with weight N.  Whichever endpoint profiler sees the
#: request first decides, so both halves agree and cross-process phases
#: stay complete; the weight travels with the request so a peer with a
#: different ``profile_sample_every`` still counts it correctly.  Public
#: because the Margo runtime reads it to pick the per-request hook table
#: (``MargoInstance.forward`` / ``_dispatch_request``).
SAMPLE_STAMP = "_profile_sample_weight"

#: Closed windows the profile store keeps.
HISTORY = 64


def _provider_key(rpc_name: str, provider_id: int) -> str:
    """``"<component>:<provider_id>"`` -- RPC names follow the
    ``<component_type>_<operation>`` convention, so the text before the
    first underscore identifies the component type."""
    return f"{rpc_name.split('_', 1)[0]}:{provider_id}"


class ContinuousProfiler:
    """Continuous profiling for one :class:`MargoInstance`.

    Created by the Margo runtime when ``observability.profiling`` is on;
    attach it to the instance's monitor list for the decomposition hooks
    and call :meth:`start` to begin window sampling.
    """

    #: The runtime calls this monitor's request-scoped hooks only for
    #: requests stamped ``SAMPLE_STAMP != 0``, and charges nothing for a
    #: sampled-out request when every attached monitor declares this.
    respects_profile_sampling = True

    def __init__(
        self,
        margo: Any,
        window: float = 1.0,
        sample_every: int = 1,
        xray: bool = False,
    ) -> None:
        self.margo = margo
        self.kernel = margo.kernel
        self.store = ProfileStore(window=window, history=HISTORY)
        self.store.open_window(self.store.window_index(self.kernel.now))
        #: Adaptive observer sampling (ISSUE 6 / ROADMAP item 3):
        #: decompose every Nth RPC only.  The decision counter is a
        #: plain modulo sequence -- deterministic, no RNG draw.
        self.sample_every = max(1, int(sample_every))
        self._sample_seq = 0
        #: Sched-latency duty cycle: pools stamp push times only while
        #: this is True.  With ``sample_every == 1`` it is always True;
        #: otherwise :meth:`_tick` opens a burst of ``window /
        #: sample_every`` simulated seconds at each window boundary
        #: (same 1/N budget as RPC decomposition, deterministic because
        #: burst edges are kernel-scheduled at fixed simulated times).
        #: A flag instead of a per-push modulo keeps ``Pool.push`` --
        #: the hottest call site in the system -- at two attribute
        #: loads when profiling is on but the push is sampled out.
        self._sched_on = self.sample_every == 1
        #: The kernel's shared xray plane when ``xray`` is on (the first
        #: such profiler creates it): sampled requests carry an edge
        #: list and leave a path record, each behind this None-check.
        self.xray_plane: Optional[XrayPlane] = None
        if xray:
            plane = getattr(self.kernel, "xray_plane", None)
            if plane is None:
                plane = self.kernel.xray_plane = XrayPlane(self.kernel)
            self.xray_plane = plane
        self._timer: Optional[Any] = None
        self._running = False
        # Last cumulative counters per pool/xstream, for window deltas.
        self._pool_marks: dict[str, tuple[int, int]] = {}
        self._xstream_marks: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Hook every pool and begin boundary ticking."""
        if self._running:
            return
        self._running = True
        for pool in self.margo.pools.values():
            pool._profiler = self
        if self.sample_every > 1:
            self._begin_sched_burst()
        self._schedule_next_tick()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for pool in self.margo.pools.values():
            if pool._profiler is self:
                pool._profiler = None
                # Sampled-out pushes never touch the stamp (see
                # Pool.push), so the no-stale-stamp invariant relies on
                # every stamped ULT being popped under a live profiler;
                # detaching mid-queue would break it without this sweep.
                for ult in pool._queue:
                    ult.profile_enqueued_at = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _begin_sched_burst(self) -> None:
        self._sched_on = True
        self.kernel.schedule(
            self.store.window / self.sample_every, self._end_sched_burst
        )

    def _end_sched_burst(self) -> None:
        if self.sample_every > 1:
            self._sched_on = False

    def _schedule_next_tick(self) -> None:
        boundary = (self.store.current.index + 1) * self.store.window
        self._timer = self.kernel.schedule_at(boundary, self._tick, boundary)

    def _tick(self, boundary: float) -> None:
        if not self._running or self.margo.finalized:
            self._running = False
            return
        doc = self.store.close_current(
            self._sample_pools(), self._sample_xstreams()
        )
        if self.margo.slo_engine is not None:
            self.margo.slo_engine.observe_window(doc)
        if self.xray_plane is not None:
            self.xray_plane.close_window(doc["index"], doc["start"], doc["end"])
        if self.sample_every > 1:
            self._begin_sched_burst()
        self._schedule_next_tick()

    # ------------------------------------------------------------------
    # sampling (window boundaries)
    # ------------------------------------------------------------------
    def _sample_pools(self) -> dict[str, dict[str, float]]:
        samples: dict[str, dict[str, float]] = {}
        for name in sorted(self.margo.pools):
            pool = self.margo.pools[name]
            # New pools (runtime reconfiguration) get hooked lazily.
            if pool._profiler is None and self._running:
                pool._profiler = self
            last_pushed, last_popped = self._pool_marks.get(name, (0, 0))
            samples[name] = {
                "depth": float(pool.size),
                "pushed": float(pool.total_pushed - last_pushed),
                "popped": float(pool.total_popped - last_popped),
            }
            self._pool_marks[name] = (pool.total_pushed, pool.total_popped)
        return samples

    def _sample_xstreams(self) -> dict[str, dict[str, float]]:
        window = self.store.window
        samples: dict[str, dict[str, float]] = {}
        for name in sorted(self.margo.xstreams):
            xstream = self.margo.xstreams[name]
            sample = xstream.sample()
            mark = self._xstream_marks.get(name, {})
            busy = sample["busy_time"] - mark.get("busy_time", 0.0)
            utilization = min(1.0, busy / window) if window > 0 else 0.0
            samples[name] = {
                "busy": busy,
                "idle": max(0.0, window - busy),
                "utilization": utilization,
                "slices": sample["slices_run"] - mark.get("slices_run", 0.0),
                "ults_finished": sample["ults_finished"]
                - mark.get("ults_finished", 0.0),
            }
            self._xstream_marks[name] = sample
        return samples

    # ------------------------------------------------------------------
    # pool hooks (ULT scheduling latency; one None-check when disabled)
    # ------------------------------------------------------------------
    # The push-side decision (stamp ``ult.profile_enqueued_at`` while a
    # sched burst is open, leave it untouched otherwise) lives inline in
    # ``Pool.push``: it runs for every ULT in the system, so even a
    # single helper call per push was measurably hot.  Push/pop always
    # agree on a given ULT because the stamp itself carries the
    # decision; ``_sched_on`` only gates who gets stamped.

    def _note_pool_pop(self, pool: Any, ult: Any) -> None:
        enqueued = ult.profile_enqueued_at
        if enqueued is None:
            return  # sampled out, or pushed before profiling started
        latency = self.kernel.now - enqueued
        ult.profile_enqueued_at = None
        self.store.current.observe_phase(f"pool/{pool.name}", "sched", latency)
        if self.xray_plane is not None:
            # Causal sched edge for a sampled request: the edge list's
            # existence (stamped at forward time) is the gate.
            context = ult.rpc_context
            if context is not None:
                edges = getattr(context, "_xray_edges", None)
                if edges is not None:
                    edges.append(("sched", pool.name, latency))

    # ------------------------------------------------------------------
    # monitor hooks (RPC latency decomposition)
    # ------------------------------------------------------------------
    def _phase(self, request: Any, phase: str, value: float) -> None:
        self.store.current.observe_phase(
            f"{request.rpc_name}/{request.provider_id}", phase, value
        )

    def _sample_weight(self, request: Any) -> int:
        """The request's sampling weight: 0 to skip decomposition, N >=
        1 to record it standing for N requests.  First profiler to see
        the request decides and stamps; the other endpoint reuses the
        stamp.  The Margo RPC paths decide before the first lifecycle
        hook and call the hooks below for stamped-in requests only."""
        weight = getattr(request, SAMPLE_STAMP, None)
        if weight is None:
            if self.sample_every == 1:
                weight = 1
            else:
                self._sample_seq += 1
                weight = (
                    self.sample_every
                    if self._sample_seq % self.sample_every == 1
                    else 0
                )
            request._profile_sample_weight = weight
        return weight

    # client side ------------------------------------------------------
    def on_forward_start(self, time: float, margo: Any, request: Any) -> None:
        request._profile_fwd_start = time
        if self.xray_plane is not None:
            request._xray_edges = []

    def on_forward_sent(self, time: float, margo: Any, request: Any) -> None:
        started = getattr(request, "_profile_fwd_start", None)
        if started is not None:
            self._phase(request, "client_queue", time - started)
        request._profile_sent_at = time

    def on_response_received(
        self, time: float, margo: Any, request: Any, response: Any, elapsed: float
    ) -> None:
        responded = getattr(response, "_profile_responded_at", None)
        if responded is not None:
            self._phase(request, "respond", time - responded)
        self._phase(request, "total", elapsed)
        if self.xray_plane is not None:
            self._record_path(time, request)

    # server side ------------------------------------------------------
    def on_request_received(self, time: float, margo: Any, request: Any) -> None:
        sent = getattr(request, "_profile_sent_at", None)
        if sent is not None:
            self._phase(request, "network", time - sent)
        request._profile_received_at = time

    def on_ult_start(
        self, time: float, margo: Any, request: Any, queued_for: float
    ) -> None:
        self._phase(request, "server_queue", queued_for)
        self.store.current.note_request(
            _provider_key(request.rpc_name, request.provider_id),
            request.payload_size,
            weight=request._profile_sample_weight,
        )
        request._profile_ult_start_at = time

    def on_ult_complete(
        self, time: float, margo: Any, request: Any, duration: float, queued_for: float
    ) -> None:
        self._phase(request, "handler", duration)
        request._profile_ult_end_at = time

    def on_respond(self, time: float, margo: Any, request: Any, response: Any) -> None:
        self.store.current.note_response(
            _provider_key(request.rpc_name, request.provider_id),
            response.payload_size,
            error=response.status != STATUS_OK,
            weight=request._profile_sample_weight,
        )
        response._profile_responded_at = time

    # xray path assembly (client side, all stamps present) ------------
    def _record_path(self, now: float, request: Any) -> None:
        stamps = (
            getattr(request, "_profile_fwd_start", None),
            getattr(request, "_profile_sent_at", None),
            getattr(request, "_profile_received_at", None),
            getattr(request, "_profile_ult_start_at", None),
            getattr(request, "_profile_ult_end_at", None),
        )
        if None in stamps:
            return  # peer not profiled: no cross-process stamps
        weight = getattr(request, SAMPLE_STAMP, 1)
        self.xray_plane.add_path(
            path_record(request, self.margo.process.name, weight, stamps, now)
        )

    # ------------------------------------------------------------------
    # queries (served by the Bedrock introspection RPCs)
    # ------------------------------------------------------------------
    def profile(self, last: Optional[int] = None) -> dict[str, Any]:
        """The closed-window rollups as one deterministic document."""
        doc = self.store.to_json(last)
        doc["process"] = self.margo.process.name
        return doc

    def utilization(self) -> dict[str, Any]:
        """The latest closed window's utilization + provider rates (the
        reconfiguration controller's per-process input)."""
        latest = self.store.latest()
        return {
            "process": self.margo.process.name,
            "time": self.kernel.now,
            "window_index": latest["index"] if latest else None,
            "window": self.store.window,
            "providers": dict(latest["providers"]) if latest else {},
            "pools": dict(latest["pools"]) if latest else {},
            "xstreams": dict(latest["xstreams"]) if latest else {},
        }
