"""The Margo runtime: shared threading + networking for all components.

One :class:`MargoInstance` lives in each simulated process.  It owns the
Argobots-style pools and execution streams (built from a Listing-2 JSON
configuration), runs the network progress loop in the ``progress_pool``
(paper Fig. 2) as a run-to-completion item that dispatches each message
from the progress context, as Mercury's trigger does, hands incoming
RPCs to handler ULTs in per-registration pools, and exposes:

* a client path (:meth:`forward`) that serializes, sends, and blocks the
  calling ULT until the response arrives (or a timeout fires);
* a bulk path (:meth:`bulk_transfer`) modelling one-sided RDMA;
* **online reconfiguration** (paper section 5): ``add_pool``,
  ``remove_pool``, ``add_xstream``, ``remove_xstream``, with the validity
  checks the paper describes ("not allowing adding multiple pools with
  the same name or removing a pool that is in use by an ES");
* monitoring hooks fired at every step of the RPC lifecycle (section 4).
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Iterable, Optional

from ..analysis.race import hooks as _race
from ..mercury import (
    BULK_OP_PULL,
    BULK_OP_PUSH,
    BULK_SETUP_COST,
    NULL_PROVIDER,
    NULL_RPC,
    RPCRequest,
    RPCResponse,
    STATUS_ERROR,
    STATUS_NO_RPC,
    STATUS_OK,
    estimate_size,
    rpc_id_of,
)
from ..mercury.hg import NO_TRACE
from ..observability.profile import SAMPLE_STAMP, ContinuousProfiler
from ..observability.span import HANDLER_SUFFIX, child_span_id
from ..observability.tracer import Tracer
from ..sim.kernel import SimKernel
from ..sim.network import Network, Process
from . import ult as _ult
from .config import MargoConfig, PoolSpec, XStreamSpec
from .errors import (
    ConfigError,
    DuplicateNameError,
    FinalizedError,
    MargoError,
    NoSuchPoolError,
    NoSuchRpcError,
    NoSuchXStreamError,
    PoolInUseError,
    RpcError,
    RpcFailedError,
    RpcTimeoutError,
)
from .pool import Pool
from .ult import TIMED_OUT, ULT, UltEvent, UltSleep
from .xstream import XStream

__all__ = ["MargoInstance", "RequestContext", "Registration"]

_UNSET = object()


@dataclass(slots=True, init=False)
class RequestContext:
    """What a handler sees: the request plus accessors for the runtime.

    A handler answers by returning (or raising): the runtime sends the
    one reply when the handler ULT ends."""

    margo: "MargoInstance"
    request: RPCRequest

    def __init__(self, margo: "MargoInstance", request: RPCRequest) -> None:
        self.margo = margo
        self.request = request

    @property
    def args(self) -> Any:
        return self.request.args

    @property
    def source(self) -> str:
        return self.request.src_address


@dataclass(init=False)
class Registration:
    """One registered (rpc name, provider id) handler."""

    name: str
    rpc_id: int
    provider_id: int
    handler: Callable[[RequestContext], Any]
    pool: Pool

    def __init__(
        self,
        name: str,
        rpc_id: int,
        provider_id: int,
        handler: Callable[[RequestContext], Any],
        pool: Pool,
    ) -> None:
        self.name = name
        self.rpc_id = rpc_id
        self.provider_id = provider_id
        self.handler = handler
        self.pool = pool


class _Progress:
    """The network progress loop, a run-to-completion pool item.

    :meth:`deliver` (installed as the process's ``deliver``, which routes
    post) queues a message and pushes the item unless it is ``queued``
    already.  :meth:`step` dispatches the message popped before its
    charge, then charges ``dispatch_cost`` for the next one while any is
    left (drain before giving up the stream), else clears ``queued``.
    """

    __slots__ = ("margo", "name", "pool", "state", "profile_enqueued_at", "queued", "_message")
    rpc_context = None

    def __init__(self, margo: Any, name: str) -> None:
        self.margo = margo
        self.name = name
        self.pool: Optional[Pool] = None
        self.state = self.profile_enqueued_at = self._message = None
        self.queued = True  # pushed once by MargoInstance._build

    def deliver(self, payload: Any) -> None:
        margo = self.margo
        if margo._finalized:
            return
        margo._incoming.append(payload)
        if not self.queued:
            self.queued = True
            self.pool.push(self)

    def step(self) -> Optional[float]:
        margo = self.margo
        message = self._message
        if message is not None:
            self._message = None
            kind = type(message)
            if kind is RPCRequest:
                margo._dispatch_request(message)
            elif kind is RPCResponse:
                margo._dispatch_response(message)
            else:
                raise MargoError(f"unexpected message on the wire: {message!r}")
        incoming = margo._incoming
        if incoming:
            self._message = incoming.popleft()
            return margo.config.dispatch_cost
        self.queued = False
        return None


class MargoInstance:
    """The per-process runtime shared by all Mochi components."""

    def __init__(
        self,
        process: Process,
        network: Network,
        config: str | dict[str, Any] | MargoConfig | None = None,
        monitors: Iterable[Any] = (),
        default_rpc_timeout: Optional[float] = None,
    ) -> None:
        self.process = process
        self.network = network
        self.kernel: SimKernel = network.kernel
        if isinstance(config, MargoConfig):
            self.config = config
        else:
            self.config = MargoConfig.from_json(config)
        self.default_rpc_timeout = default_rpc_timeout
        self._finalized = False
        # ``monitors`` is an immutable tuple: ``add_monitor`` and
        # ``remove_monitor`` are the only way to change it, and each
        # rebuilds ``_tables``, the one thing the RPC fast path reads.
        self._set_monitors(tuple(monitors))

        self.pools: dict[str, Pool] = {}
        self.xstreams: dict[str, XStream] = {}
        self._pool_claims: dict[str, set[str]] = {}

        self._registry: dict[tuple[int, int], Registration] = {}
        # Race-hook label cache: dispatch/resolve run per RPC, and
        # formatting their report labels fresh each time is measurable.
        self._race_labels: dict[Any, str] = {}
        self._seq = 0
        # A root call's trace_crc is CRC-32 of "<origin>:<seq>", prefix once.
        self._origin_crc = zlib.crc32(f"{process.name}:".encode("utf-8"))
        #: seq -> the ULT waiting for that reply; the reply and the
        #: timeout each pop it, so whichever comes first wakes the caller.
        self._pending: dict[int, ULT] = {}
        self._incoming: deque[Any] = deque()

        # Live runtime counters, plain ints updated with ``+=`` (the
        # monitoring sampler reads them, section 4: "periodically tracks
        # the number of in-flight RPCs and the sizes of user-level
        # thread pools").  ``exports`` names the numbers ``$__metrics__``
        # reads at query time; components on this instance add theirs.
        obs = self.config.observability
        self.rpcs_sent = self.rpcs_handled = self.monitor_errors = 0
        self.inflight_outgoing = self.inflight_incoming = 0
        self.exports: dict[str, tuple[Any, str]] = {}
        for name in ("rpcs_sent", "rpcs_handled", "inflight_outgoing",
                     "inflight_incoming", "monitor_errors"):
            self.export(f"margo_{name}", self, name)
        self.tracer: Optional[Tracer] = None
        if obs.tracing:
            self.tracer = Tracer(
                max_spans=obs.max_spans, sample_rate=obs.trace_sample_rate
            )
            self.add_monitor(self.tracer)

        self._build()
        # Continuous profiler (after _build: it hooks the live pools).
        # As a monitor it fires on the same hooks as the tracer and is
        # charged the same modeled monitoring cost per event; off, it
        # does not exist and the fast paths above stay monitor-free.
        # xray records through it, and it feeds each closed window to
        # the SLO engine (declarative objectives, evaluated off the RPC
        # path).
        self.profiler: Optional[ContinuousProfiler] = None
        self.slo_engine: Optional[Any] = None
        if obs.profiling:
            self.profiler = ContinuousProfiler(
                self,
                window=obs.profile_window,
                sample_every=obs.profile_sample_every,
                xray=obs.xray,
            )
            self.add_monitor(self.profiler)
            self.profiler.start()
            if obs.slos:
                from ..observability.health.slo import SLOEngine

                self.slo_engine = SLOEngine(self, list(obs.slos))
        # Routes post the progress loop's deliver with no Process.deliver
        # hop: it drops messages once this instance is finalized, and a
        # kill finalizes it through on_killed.
        process.on_message = process.deliver = self._progress.deliver
        process.on_killed.append(self.shutdown)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for spec in self.config.pools:
            self.pools[spec.name] = Pool(spec.name, spec.kind, spec.access)
        for spec in self.config.xstreams:
            xstream = XStream(
                self.kernel,
                spec.name,
                [self.pools[p] for p in spec.pools],
                scheduler=spec.scheduler,
            )
            self.xstreams[spec.name] = xstream
            xstream.start()
        self._progress = _Progress(self, f"progress:{self.process.name}")
        self.claim_pool(self.config.progress_pool, "__margo_progress__").push(self._progress)

    @property
    def address(self) -> str:
        return self.process.address

    @property
    def finalized(self) -> bool:
        return self._finalized

    def export(self, name: str, owner: Any, attr: str) -> None:
        """Publish ``owner.<attr>`` as ``name`` in ``$__metrics__``; a
        labelled series carries its label in the name
        (``raft_terms_seen{group=g1}``)."""
        self.exports[name] = (owner, attr)

    def metrics(self) -> Optional[dict[str, Any]]:
        """Every exported number, read now, sorted by name; ``None``
        when the observability spec turns ``metrics`` off."""
        if not self.config.observability.metrics:
            return None
        return {n: getattr(owner, attr) for n, (owner, attr) in sorted(self.exports.items())}

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def add_monitor(self, monitor: Any) -> None:
        """Attach a monitoring object (see :mod:`repro.monitoring`)."""
        self._set_monitors(self.monitors + (monitor,))

    def remove_monitor(self, monitor: Any) -> None:
        kept = list(self.monitors)
        kept.remove(monitor)
        self._set_monitors(tuple(kept))

    def _set_monitors(self, monitors: tuple[Any, ...]) -> None:
        """Attach ``monitors`` and rebuild ``_tables``: ``None`` with no
        monitor, else four hook tables indexed ``2 * profile_kept +
        trace_kept``, from which forward / _dispatch_request pick one
        per request.  A table maps each hook name to ``(charge, fns)``:
        ``charge`` counts every attached monitor with that hook (what an
        observed request pays, added to an adjacent CPU charge),
        ``fns`` are the hooks, minus ``Monitor``'s base no-ops, of the
        monitors that see that outcome (called inline by the hook site, a
        raise counted in ``margo_monitor_errors``): the profiler only
        profile-kept requests, the tracer only trace-kept ones, any other
        monitor all; the last table, every monitor's, also serves the
        hooks of no request (bulk transfer, finalize).  With every monitor
        riding the profile stamp the profile-dropped entries are ``None``."""
        self.monitors = monitors
        if not monitors:
            self._tables = None
            return
        # Here, not at module level: repro.monitoring imports this module,
        # and a process with no monitor never loads it.
        from ..monitoring.monitor import HOOK_NAMES, Monitor

        def table(profile_kept: bool, trace_kept: bool) -> dict[str, tuple]:
            seen = [
                m for m in monitors
                if (profile_kept or not getattr(m, "respects_profile_sampling", False))
                and (trace_kept or not isinstance(m, Tracer))
            ]
            return {
                name: (
                    sum(getattr(m, name, None) is not None for m in monitors),
                    tuple(
                        fn for fn in (getattr(m, name, None) for m in seen)
                        if fn is not None
                        and getattr(fn, "__func__", None) is not getattr(Monitor, name)
                    ),
                )
                for name in HOOK_NAMES
            }

        skip = all(getattr(m, "respects_profile_sampling", False) for m in monitors)
        self._tables = tuple(
            None if skip and not profile_kept else table(profile_kept, trace_kept)
            for profile_kept in (False, True)
            for trace_kept in (False, True)
        )

    # ------------------------------------------------------------------
    # ULT utilities
    # ------------------------------------------------------------------
    def spawn_ult(self, gen: Generator, pool: str | Pool | None = None, name: str = "") -> ULT:
        """Create a ULT in ``pool`` (default: the rpc pool) and make it ready."""
        if self._finalized:
            raise FinalizedError(f"margo instance on {self.process.name} is finalized")
        target = self._resolve_pool(pool) if pool is not None else self.pools[self.config.rpc_pool]
        ult = ULT(gen, name=name)
        ult.done_event = UltEvent(self.kernel, name=f"done:{ult.name}")
        target.push(ult)
        return ult

    def _note_write(self, table: dict, title: str, key: Any, where: str) -> None:
        """Tell the runtime checker about a write to one of this instance's tables."""
        _race.track(table, f"{self.process.name}.{title}")
        _race.note_write(table, key, f"margo:{self.process.name}.{where}")

    def _resolve_pool(self, pool: str | Pool) -> Pool:
        if isinstance(pool, Pool):
            return pool
        if _race.ENABLED:
            label = self._race_labels.get(pool)
            if label is None:
                label = self._race_labels[pool] = (
                    f"margo:{self.process.name}.resolve_pool:{pool}"
                )
            _race.note_read(self.pools, pool, label)
        try:
            return self.pools[pool]
        except KeyError as err:
            raise NoSuchPoolError(f"no pool named {pool!r} on {self.process.name}") from err

    # ------------------------------------------------------------------
    # RPC registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Callable[[RequestContext], Any],
        provider_id: int = NULL_PROVIDER,
        pool: str | Pool | None = None,
    ) -> int:
        """Register ``handler`` for RPC ``name`` at ``provider_id``.

        Returns the RPC id.  Handlers receive a :class:`RequestContext`
        and may be plain functions or generators (which may issue nested
        RPCs via ``yield from``).
        """
        if self._finalized:
            raise FinalizedError("cannot register on a finalized instance")
        rpc_id = rpc_id_of(name)
        key = (rpc_id, provider_id)
        if key in self._registry:
            raise DuplicateNameError(
                f"RPC {name!r} already registered for provider {provider_id}"
            )
        target = self._resolve_pool(pool) if pool is not None else self.pools[self.config.rpc_pool]
        self._registry[key] = Registration(name, rpc_id, provider_id, handler, target)
        if _race.ENABLED:
            self._note_write(self._registry, "rpc_registry", key, f"register:{name}/{provider_id}")
        return rpc_id

    def deregister(self, name: str, provider_id: int = NULL_PROVIDER) -> None:
        key = (rpc_id_of(name), provider_id)
        if key not in self._registry:
            raise NoSuchRpcError(f"RPC {name!r} not registered for provider {provider_id}")
        del self._registry[key]
        if _race.ENABLED:
            where = f"deregister:{name}/{provider_id}"
            self._note_write(self._registry, "rpc_registry", key, where)

    def registered_rpcs(self) -> list[tuple[str, int]]:
        """(name, provider_id) pairs currently registered."""
        return sorted((r.name, r.provider_id) for r in self._registry.values())

    # ------------------------------------------------------------------
    # client path
    # ------------------------------------------------------------------
    def forward(
        self,
        address: str,
        rpc_name: str,
        args: Any = None,
        provider_id: int = NULL_PROVIDER,
        timeout: Any = _UNSET,
    ) -> Generator:
        """Send an RPC and block the calling ULT until the response.

        ``yield from margo.forward(...)`` returns the handler's return
        value, or raises :class:`RpcTimeoutError` /
        :class:`RpcFailedError` / :class:`NoSuchRpcError`.
        """
        if self._finalized:
            raise FinalizedError("forward on finalized margo instance")
        if timeout is _UNSET:
            timeout = self.default_rpc_timeout
        caller = _ult._CURRENT
        parent = caller.rpc_context if caller is not None else None
        payload_size = estimate_size(args)
        self._seq += 1
        seq = self._seq
        # Trace-context propagation (repro.observability): every call
        # has a deterministic span id (RPCRequest formats it when an
        # observer asks); a call issued from inside a handler joins its
        # parent's trace as a child of the handler span, so nested RPCs
        # form one causal tree and share its trace_crc (``NO_TRACE``: the
        # first tracer's decision computes it).  Positional: keywords cost more.
        process = self.process
        if parent is None:
            request = RPCRequest(
                seq, rpc_id_of(rpc_name), rpc_name, provider_id, args, payload_size,
                process.address, address, NULL_RPC, NULL_PROVIDER, process.name, "", "",
                NO_TRACE if self.tracer is None else zlib.crc32(b"%d" % seq, self._origin_crc),
            )
        else:
            trace_id = parent.trace_id
            request = RPCRequest(
                seq, rpc_id_of(rpc_name), rpc_name, provider_id, args, payload_size,
                process.address, address, parent.rpc_id, parent.provider_id, process.name,
                trace_id, child_span_id(parent.span_id, HANDLER_SUFFIX) if trace_id else "",
                parent.trace_crc if trace_id else NO_TRACE,
            )
        started = self.kernel.now
        # Observability fast path: one decision per request picks the
        # hook table (``observed``) every site below fires from -- None
        # with no monitors attached, or when every attached monitor
        # rides the profile stamp and this request was sampled out.
        observed = tables = self._tables
        if tables is not None:
            kept = 2
            prof = self.profiler
            if prof is not None:
                # Stamp the sampling decision before the first hook.  The
                # decision is ContinuousProfiler._sample_weight inlined (a
                # helper call per forward was measurably hot) on the
                # request built above, which nothing has stamped yet.
                every = prof.sample_every
                if every == 1:
                    weight = 1
                else:
                    prof._sample_seq += 1
                    weight = every if prof._sample_seq % every == 1 else 0
                request._profile_sample_weight = weight  # SAMPLE_STAMP
                if weight == 0:
                    kept = 0
            tracer = self.tracer
            if tracer is None or request.trace_crc < tracer._sample_cutoff or (
                request.trace_crc == NO_TRACE and tracer.keeps(request)
            ):
                kept += 1
            elif request.trace_crc != NO_TRACE:
                tracer.sampled_out += 1
            observed = tables[kept]
        if observed is not None:
            charge, fns = observed["on_forward_start"]
            for fn in fns:
                try:
                    fn(time=started, margo=self, request=request)
                except Exception:
                    self.monitor_errors += 1
            # The on_forward_sent firing below is pre-charged here: one
            # charge covers both hooks (identical modeled cost) instead
            # of a second kernel event on every monitored send.
            charge += observed["on_forward_sent"][0]
            yield request.codec_cost + charge * self.config.monitoring_cost_per_event
        else:
            yield request.codec_cost

        self._pending[seq] = caller
        self.inflight_outgoing += 1
        self.rpcs_sent += 1
        known = self.network.send(self.process, address, request, request.wire_size)
        if observed is not None:
            for fn in observed["on_forward_sent"][1]:
                try:
                    fn(time=self.kernel.now, margo=self, request=request)
                except Exception:
                    self.monitor_errors += 1
        if not known and timeout is None:
            # The destination does not exist and no timeout would ever
            # fire: fail fast instead of hanging the simulation.
            self._pending.pop(seq, None)
            self.inflight_outgoing -= 1
            raise RpcError(f"unknown destination address {address!r}")
        if timeout is not None:
            self.kernel.post(timeout, self._reply_timeout, seq)
        try:
            # The request is the wait: the stream blocks the caller, and
            # the reply (or the timeout) readies it with its value.
            value = yield request
        except Exception:  # thrown in at the wait: no late wake, not in flight
            self._pending.pop(seq, None)
            self.inflight_outgoing -= 1
            raise
        self.inflight_outgoing -= 1
        if value is TIMED_OUT:
            raise RpcTimeoutError(
                f"RPC {rpc_name!r} to {address} (provider {provider_id}) "
                f"timed out after {timeout}s"
            )
        response: RPCResponse = value
        if observed is not None:
            charge, fns = observed["on_response_received"]
            for fn in fns:
                try:
                    fn(time=self.kernel.now, margo=self, request=request, response=response,
                       elapsed=self.kernel.now - started)
                except Exception:
                    self.monitor_errors += 1
            yield response.codec_cost + charge * self.config.monitoring_cost_per_event
        else:
            yield response.codec_cost
        if response.status == STATUS_OK:
            return response.value
        if response.status == STATUS_NO_RPC:
            raise NoSuchRpcError(
                f"no handler for RPC {rpc_name!r} provider {provider_id} at {address}"
            )
        raise RpcFailedError(response.error_message or "remote handler failed")

    # ------------------------------------------------------------------
    # bulk (RDMA) path
    # ------------------------------------------------------------------
    def bulk_transfer(
        self, remote_address: str, size: int, op: str = BULK_OP_PULL
    ) -> Generator:
        """One-sided bulk transfer of ``size`` bytes to/from ``remote_address``.

        Models RDMA: the remote CPU (and its progress loop) is not
        involved; the calling ULT blocks for the wire time only.
        """
        if op not in (BULK_OP_PULL, BULK_OP_PUSH):
            raise ValueError(f"unknown bulk op {op!r}")
        if size < 0:
            raise ValueError(f"negative bulk size {size}")
        network = self.network
        route = self.process.routes.get(remote_address) or network.route(
            self.process, remote_address
        )
        if route is None:
            raise RpcError(f"bulk transfer to unknown address {remote_address!r}")
        remote, _, _, latency, bandwidth, _, _ = route
        if not remote.alive:
            raise RpcError(f"bulk transfer peer {remote_address} is dead")
        if network._partitions and network.is_partitioned(self.process.node, remote.node):
            raise RpcTimeoutError(f"bulk transfer to {remote_address} unreachable (partition)")
        duration = latency + (size / bandwidth if size else 0.0)
        started = self.kernel.now
        if self._tables is not None:
            # Pre-charged like the RPC path: the hook fires after the
            # transfer, its cost rides the setup charge.  A transfer
            # belongs to no request, so every monitor's hook fires (the
            # tracer samples it by its trace id).
            pre = self._tables[-1]["on_bulk_transfer"][0]
            yield BULK_SETUP_COST + pre * self.config.monitoring_cost_per_event
        else:
            yield BULK_SETUP_COST
        yield UltSleep(duration)
        self.network.bytes_sent += size
        if self._tables is not None:
            for fn in self._tables[-1]["on_bulk_transfer"][1]:
                try:
                    fn(time=self.kernel.now, margo=self, remote=remote_address, size=size,
                       op=op, duration=self.kernel.now - started)
                except Exception:
                    self.monitor_errors += 1
        return duration

    # ------------------------------------------------------------------
    # dispatch (the progress item's callbacks, paper Fig. 2)
    # ------------------------------------------------------------------
    def _dispatch_request(self, request: RPCRequest) -> None:
        # Same per-request table pick as forward(); a request from an
        # unprofiled client arrives unstamped, so the server-side
        # profiler decides here, before the first hook.
        observed = tables = self._tables
        if tables is not None:
            kept = 2
            prof = self.profiler
            if prof is not None:
                weight = getattr(request, SAMPLE_STAMP, None)
                if weight is None:
                    weight = prof._sample_weight(request)
                if weight == 0:
                    kept = 0
            tracer = self.tracer
            if tracer is None or request.trace_crc < tracer._sample_cutoff or (
                request.trace_crc == NO_TRACE and tracer.keeps(request)
            ):
                kept += 1
            elif request.trace_crc != NO_TRACE:
                tracer.sampled_out += 1
            observed = tables[kept]
        if observed is not None:
            for fn in observed["on_request_received"][1]:
                try:
                    fn(time=self.kernel.now, margo=self, request=request)
                except Exception:
                    self.monitor_errors += 1
        key = (request.rpc_id, request.provider_id)
        if _race.ENABLED:
            label = self._race_labels.get(key)
            if label is None:
                label = self._race_labels[key] = (
                    f"margo:{self.process.name}.dispatch:"
                    f"{request.rpc_name}/{request.provider_id}"
                )
            _race.note_read(self._registry, key, label)
        registration = self._registry.get(key)
        if registration is None:
            response = RPCResponse(
                request.seq, STATUS_NO_RPC, None, 0, self.process.address,
                f"no handler for {request.rpc_name!r}/{request.provider_id}",
            )
            self.network.send(self.process, request.src_address, response, response.wire_size)
            return
        enqueued_at = self.kernel.now
        # Positional (a keyword costs more); named rpc:<name>:<seq> on first use.
        body = self._handler_body(registration, request, enqueued_at, observed)
        ult = ULT(body, "", None, request)
        registration.pool.push(ult)
        if observed is not None:
            for fn in observed["on_ult_enqueued"][1]:
                try:
                    fn(time=enqueued_at, margo=self, request=request, pool=registration.pool)
                except Exception:
                    self.monitor_errors += 1

    def _handler_body(
        self,
        registration: Registration,
        request: RPCRequest,
        enqueued_at: float,
        observed: Optional[dict],
    ) -> Generator:
        # ``observed`` is the hook table picked at dispatch; it covers
        # the whole handler ULT.
        self.inflight_incoming += 1
        queued_for = self.kernel.now - enqueued_at
        ult_started = self.kernel.now
        if observed is not None:
            charge, fns = observed["on_ult_start"]
            for fn in fns:
                try:
                    fn(time=ult_started, margo=self, request=request, queued_for=queued_for)
                except Exception:
                    self.monitor_errors += 1
            yield request.codec_cost + charge * self.config.monitoring_cost_per_event
        else:
            yield request.codec_cost
        # The reply is built, so sized and costed, before its encode charge.
        try:
            result = registration.handler(RequestContext(self, request))
            if type(result) is GeneratorType or isinstance(result, Generator):
                result = yield from result
            response = RPCResponse(
                request.seq, STATUS_OK, result, estimate_size(result), self.process.address
            )
        except Exception as err:  # noqa: BLE001 - handler error -> error response
            # Any handler failure -- including a *nested* RPC that failed
            # or timed out, or a value that cannot be sized -- becomes an
            # error response; the caller must never be left waiting.
            response = RPCResponse(
                request.seq, STATUS_ERROR, None, 0, self.process.address,
                f"{type(err).__name__}: {err}",
            )
        if observed is not None:
            # Pre-charge the on_ult_complete firing: same modeled cost,
            # one fewer kernel event per handled RPC.
            pre = observed["on_ult_complete"][0]
            yield response.codec_cost + pre * self.config.monitoring_cost_per_event
        else:
            yield response.codec_cost
        # The ULT duration covers the whole handler ULT: input
        # deserialization, the handler body, output serialization, and
        # the monitoring charge (the phases Listing 1's
        # "ult"/"duration" aggregates).
        duration = self.kernel.now - ult_started
        if observed is not None:
            for fn in observed["on_ult_complete"][1]:
                try:
                    fn(time=self.kernel.now, margo=self, request=request, duration=duration,
                       queued_for=queued_for)
                except Exception:
                    self.monitor_errors += 1
        self.inflight_incoming -= 1
        self.rpcs_handled += 1
        self.network.send(self.process, request.src_address, response, response.wire_size)
        if observed is not None:
            for fn in observed["on_respond"][1]:
                try:
                    fn(time=self.kernel.now, margo=self, request=request, response=response)
                except Exception:
                    self.monitor_errors += 1

    def _dispatch_response(self, response: RPCResponse) -> None:
        caller = self._pending.pop(response.seq, None)
        if caller is not None:  # else a late response after timeout: drop
            caller.ready(response)

    def _reply_timeout(self, seq: int) -> None:
        """A forward's timeout: wake the caller unless its reply won."""
        caller = self._pending.pop(seq, None)
        if caller is not None:
            caller.ready(TIMED_OUT)

    # ------------------------------------------------------------------
    # online reconfiguration (paper section 5, Observation 2)
    # ------------------------------------------------------------------
    def find_pool(self, name: str) -> Pool:
        """``margo_find_pool_by_name`` equivalent."""
        return self._resolve_pool(name)

    def add_pool(self, spec: str | dict[str, Any] | PoolSpec) -> Pool:
        """``margo_add_pool_from_json`` equivalent."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        if isinstance(spec, dict):
            spec = PoolSpec.from_json(spec)
        if spec.name in self.pools:
            raise DuplicateNameError(f"pool {spec.name!r} already exists")
        pool = Pool(spec.name, spec.kind, spec.access)
        if self.profiler is not None:
            pool._profiler = self.profiler
        self.pools[spec.name] = pool
        self.config.pools.append(spec)
        if _race.ENABLED:
            self._note_write(self.pools, "pools", spec.name, f"add_pool:{spec.name}")
        return pool

    def remove_pool(self, name: str) -> None:
        """Remove a pool; refuses if the pool is in use (paper: "Margo
        ensures that the changes are always valid")."""
        pool = self._resolve_pool(name)
        if pool.xstreams:
            raise PoolInUseError(
                f"pool {name!r} is used by xstreams "
                f"{[x.name for x in pool.xstreams]}"
            )
        claims = self._pool_claims.get(name)
        if claims:
            raise PoolInUseError(f"pool {name!r} is claimed by {sorted(claims)}")
        if pool.size:
            raise PoolInUseError(f"pool {name!r} still has {pool.size} queued ULTs")
        users = [r.name for r in self._registry.values() if r.pool is pool]
        if users:
            raise PoolInUseError(f"pool {name!r} is the handler pool of RPCs {users}")
        del self.pools[name]
        self.config.pools = [p for p in self.config.pools if p.name != name]
        if _race.ENABLED:
            self._note_write(self.pools, "pools", name, f"remove_pool:{name}")

    def add_xstream(self, spec: str | dict[str, Any] | XStreamSpec) -> XStream:
        if isinstance(spec, str):
            spec = json.loads(spec)
        if isinstance(spec, dict):
            spec = XStreamSpec.from_json(spec)
        if spec.name in self.xstreams:
            raise DuplicateNameError(f"xstream {spec.name!r} already exists")
        pools = [self._resolve_pool(p) for p in spec.pools]
        xstream = XStream(self.kernel, spec.name, pools, scheduler=spec.scheduler)
        self.xstreams[spec.name] = xstream
        self.config.xstreams.append(spec)
        if _race.ENABLED:
            self._note_write(self.xstreams, "xstreams", spec.name, f"add_xstream:{spec.name}")
        xstream.start()
        return xstream

    def remove_xstream(self, name: str) -> None:
        """Remove an xstream; refuses to orphan a pool that has users."""
        xstream = self.xstreams.get(name)
        if xstream is None:
            raise NoSuchXStreamError(f"no xstream named {name!r}")
        for pool in xstream.pools:
            others = [x for x in pool.xstreams if x is not xstream]
            if not others and self._pool_has_users(pool):
                raise PoolInUseError(
                    f"removing xstream {name!r} would orphan pool {pool.name!r} "
                    "which still has users"
                )
        xstream.stop()
        del self.xstreams[name]
        self.config.xstreams = [x for x in self.config.xstreams if x.name != name]
        if _race.ENABLED:
            self._note_write(self.xstreams, "xstreams", name, f"remove_xstream:{name}")

    def _pool_has_users(self, pool: Pool) -> bool:
        if pool.size:
            return True
        if self._pool_claims.get(pool.name):
            return True
        return any(r.pool is pool for r in self._registry.values())

    # Providers (and the progress loop) claim pools so that Margo can
    # refuse to remove a pool out from under them.
    def claim_pool(self, name: str, owner: str) -> Pool:
        pool = self._resolve_pool(name)
        self._pool_claims.setdefault(name, set()).add(owner)
        return pool

    def release_pool(self, name: str, owner: str) -> None:
        claims = self._pool_claims.get(name)
        if claims:
            claims.discard(owner)

    def get_config(self) -> dict[str, Any]:
        """The live configuration as a JSON document (queryable at run
        time, paper section 5)."""
        doc = self.config.to_json()
        # Reflect live xstream->pool mappings (they can drift from the
        # original spec through add_pool/remove_pool on xstreams).
        doc["argobots"]["xstreams"] = [
            x.to_json() for x in self.xstreams.values()
        ]
        doc["argobots"]["pools"] = [p.to_json() for p in self.pools.values()]
        return doc

    def snapshot(self) -> dict[str, Any]:
        """Live state sample used by the periodic monitoring sampler."""
        return {
            "time": self.kernel.now,
            "inflight_outgoing": self.inflight_outgoing,
            "inflight_incoming": self.inflight_incoming,
            "pools": {name: pool.size for name, pool in self.pools.items()},
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Finalize: stop xstreams, drop pending work, emit final stats."""
        if self._finalized:
            return
        self._finalized = True
        if _race.ENABLED:
            _race.check_margo_shutdown(self)
        if self._tables is not None:
            for fn in self._tables[-1]["on_finalize"][1]:
                try:
                    fn(time=self.kernel.now, margo=self)
                except Exception:
                    self.monitor_errors += 1
        if self.profiler is not None:
            self.profiler.stop()
        for xstream in self.xstreams.values():
            xstream.stop()
        self._incoming.clear()
        self._pending.clear()
