"""mochi-race: the one runtime checker, and the gated entry points the
runtime calls.

The kernel, margo, Yokan, Warabi and REMI call the ``note_*`` functions
below behind ``if _race.ENABLED:`` module-attribute gates, so the
disabled cost is one attribute load per call site -- and the hottest
site of all, :meth:`SimKernel.schedule`, is *method-swapped* (see
``_set_race_hooks`` in ``sim/kernel.py``) so the disabled path pays
literally nothing there.

One switch, two modes, every check in both.  ``REPRO_SANITIZE=1``
(``true``, ``yes``; or ``enable(strict=True)``) is strict mode: an
MCH011/MCH012 violation raises :class:`SanitizerError` where it
happens.  ``REPRO_SANITIZE=race`` (or ``enable()``) is record mode.
Either way every finding lands in :data:`findings`, in detection order,
which is deterministic for a deterministic schedule: same seed, same
report.  The checks, under the rule catalog's ids:

* ``MCH011`` -- a ULT parked, slept or finished while holding a
  :class:`~repro.margo.ult.UltMutex`, read off the lock-order graph's
  held table (:mod:`.lockgraph`);
* ``MCH012`` -- a handler ULT died without a reply, or a healthy process
  finalized with a handler still live and unanswered, read off the
  live-ULT table (:attr:`HBState.ult_ctx`);
* ``MCH030``/``MCH031`` -- unordered write/write and read/write pairs on
  tracked shared state (the happens-before engine, :mod:`.hb`);
* ``MCH040`` -- an acquisition-order cycle between mutexes, even when
  the deadlock did not fire this run;
* ``MCH032`` -- an outcome that changes under seeded ready-queue
  perturbations (the schedule explorer, :mod:`.explore`, through the
  :data:`PERTURB` gate in ``XStream._drive``'s pool pop).

P1 cost model (ROADMAP item 3, detector half).  The detector-on price
used to be a full clock snapshot (plus a wrapper call and a wrap
object) on *every* scheduled timer.  Measurement killed the obvious
fix: even a counter-only wrapper around ``SimKernel.post`` costs ~10%
of the event loop, so any per-event interception busts the <=10%
budget by itself.  ``enable(exact=...)`` therefore selects between two
modes that differ in *where* clocks are captured, not just how often:

* **Exact mode** (``exact=True``): ``schedule``/``post`` are
  method-swapped; every timer carries its scheduler's exact clock
  through a :class:`_TimerWrap` (copy-on-write, free-listed).  Full
  timer-edge precision -- the schedule explorer runs here, so MCH032
  divergence traces are complete.
* **Epoch mode** (the default): the kernel is left *pristine* -- the
  event loop pays literally zero -- and timer fires therefore resolve
  to the root context.  Soundness is recovered at the margo layer:
  a publication (push / release) whose context resolves to root during
  a run hands out the **approximation clock R**
  (:func:`repro.analysis.race.hb.approx_snapshot`), a pointwise upper
  bound on every live clock, so receivers only ever gain
  happens-before edges -- races can be *missed* (window bounded by R's
  fold points), never invented; clean stays clean.  ULT-context edges
  publish their cached epoch snapshot (no copy, no increment); a cache
  miss -- the publisher's clock actually moved -- advances the edge
  tick, and every :data:`_EPOCH_PERIOD`-th miss takes an exact publish
  to close the interval.  Two further call-elimination gates keep the
  steady state under the budget: ``UltEvent.set`` publishes nothing
  (:data:`EVENT_EDGES` is False -- woken waiters get the setter's
  clock through the push the set performs, late joiners take R in
  :func:`note_event_join`), and a park or sleep skips the MCH011 hook
  entirely unless some ULT currently holds a mutex (:data:`ANY_HELD`).

Lock edges (release→acquire) and the lock-order graph stay exact and
always-on in both modes -- they are cheap and MCH011/040 depend on
them.  Tracked accesses made *from* timer fires are attributed to root
in epoch mode (invisible to MCH030/031 -- a known, sound
precision loss; exact mode sees them fully).
"""

from __future__ import annotations

import os
import sys
from random import Random
from typing import Any, Optional

from ..findings import Finding, Severity
from ..registry import GROUP_CONCURRENCY, GROUP_SCHEDULING, RuleInfo, register
from . import hb as _hb
from .hb import Ctx, HBState, approx_snapshot
from .lockgraph import LockOrderGraph

__all__ = [
    "ENABLED",
    "PERTURB",
    "TRACE",
    "SanitizerError",
    "findings",
    "enable",
    "disable",
    "reset",
    "track",
    "note_read",
    "note_write",
]

RULE_LOCK_ACROSS_YIELD = "MCH011"
RULE_DROPPED_HANDLE = "MCH012"
RULE_UNORDERED_WRITES = "MCH030"
RULE_UNORDERED_READ_WRITE = "MCH031"
RULE_ORDER_DEPENDENT_OUTCOME = "MCH032"
RULE_LOCK_ORDER_CYCLE = "MCH040"

register(
    RuleInfo(
        id=RULE_LOCK_ACROSS_YIELD,
        name="yield-while-holding-lock",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary="ULT suspended or finished while holding a mutex",
        rationale=(
            "a suspended lock holder serializes every other ULT that "
            "needs the mutex behind an arbitrary sleep or remote peer -- "
            "and deadlocks outright if the wakeup depends on a waiter; "
            "hold locks only across Compute sections"
        ),
    ),
    RuleInfo(
        id=RULE_DROPPED_HANDLE,
        name="handler-never-responds",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary="dispatched RPC handler finished without a response",
        rationale=(
            "every dispatched RPC must end in a response or an error "
            "response -- a handler that drops its handle leaves the caller "
            "waiting until its own timeout (or forever), which is how the "
            "paper's services wedge under reconfiguration"
        ),
    ),
    RuleInfo(
        id=RULE_UNORDERED_WRITES,
        name="unordered-writes",
        group=GROUP_CONCURRENCY,
        severity=Severity.ERROR,
        summary="two writes to the same shared state with no happens-before edge",
        rationale=(
            "whichever write the scheduler happens to run last wins; a new "
            "pool, a perturbed ready queue, or a slower link runs them the "
            "other way and the final state silently changes"
        ),
    ),
    RuleInfo(
        id=RULE_UNORDERED_READ_WRITE,
        name="unordered-read-write",
        group=GROUP_CONCURRENCY,
        severity=Severity.ERROR,
        summary="a read and a write to the same shared state with no happens-before edge",
        rationale=(
            "the read observes either the old or the new value depending "
            "only on scheduling; results become schedule-dependent, the "
            "main enemy of reproducible systems experiments"
        ),
    ),
    RuleInfo(
        id=RULE_ORDER_DEPENDENT_OUTCOME,
        name="order-dependent-outcome",
        group=GROUP_CONCURRENCY,
        severity=Severity.ERROR,
        summary="a scenario's final state changed under a perturbed ready-queue order",
        rationale=(
            "the schedule explorer re-runs the scenario under seeded pool "
            "perturbations; a diverging final-state digest proves the "
            "outcome depends on scheduling accidents, pinned to the first "
            "diverging scheduling event"
        ),
    ),
    RuleInfo(
        id=RULE_LOCK_ORDER_CYCLE,
        name="lock-order-cycle",
        group=GROUP_CONCURRENCY,
        severity=Severity.ERROR,
        summary="mutexes acquired in cyclic order across ULTs",
        rationale=(
            "a cycle in the acquisition-order graph is deadlock potential "
            "even if this run serialized the critical sections; the graph "
            "persists across the session so the cycle is reported without "
            "the deadlock ever firing"
        ),
    ),
)


class SanitizerError(AssertionError):
    """A strict-mode MCH011/MCH012 violation."""

    def __init__(self, finding: Finding) -> None:
        super().__init__(finding.format())
        self.finding = finding


#: Fast-path gate read by every runtime call site.
ENABLED: bool = False

#: Strict mode: MCH011/012 raise :class:`SanitizerError`.
_strict: bool = False

#: ``REPRO_SANITIZE`` value -> strict mode (unset or empty: off).
_MODES = {"1": True, "true": True, "yes": True, "race": False}

#: Seeded ready-queue perturbation source, read by ``XStream._drive``'s pop.
PERTURB: Optional[Random] = None

#: When not None, scheduling events are appended here (explorer runs).
TRACE: Optional[list[str]] = None

#: Epoch mode takes one exact publication every this many edge misses.
_EPOCH_PERIOD = 16

#: Active period: 1 in exact mode, where every edge publishes exactly.
_period: int = _EPOCH_PERIOD

#: True while the instrumented ``schedule``/``post`` are swapped in
#: (exact mode); epoch mode leaves the kernel pristine.
_SWAPPED: bool = False

#: Site gate for ``UltEvent.set`` publications.  True only in exact
#: mode: epoch mode drops set-time publications entirely and recovers
#: the already-set-park edge by joining the approximation clock R at
#: join time (a superset of any set-time snapshot, so FP-free) -- the
#: woken-waiter edge is carried by the ``note_push`` the set performs
#: anyway.  Cuts ~3 hook calls per RPC off the steady state.
EVENT_EDGES: bool = False

#: Site gate for ``note_suspend``: True only while some ULT holds at
#: least one mutex (maintained by ``note_acquire``/``note_release``).
#: MCH011 can only fire for a lock-holding ULT, so a lock-free workload
#: pays one attribute load per park or sleep instead of a hook call.
ANY_HELD: bool = False

#: Deterministic edge counter driving the epoch-mode sampling decision.
_tick = 0

#: Every finding, in detection order (deterministic per seed).
findings: list[Finding] = []

_STATE = HBState()
_LOCKS = LockOrderGraph()
_reported: set[tuple] = set()

#: Lazily-bound ``repro.margo.ult`` module (imported on first hook call
#: because hooks can be enabled, via REPRO_SANITIZE, while margo.ult is
#: still mid-import).  Binding the module and reading ``_CURRENT`` as an
#: attribute is measurably cheaper than calling ``current_ult()`` on
#: every hook.
_ult_mod: Any = None

#: The context of the timer currently firing (built lazily per fire).
_FIRE: Optional[Ctx] = None
_FIRE_WRAP: Optional["_TimerWrap"] = None


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def enable(strict: bool = False, exact: bool = False) -> None:
    """Turn every runtime check on (idempotent).

    ``strict`` raises :class:`SanitizerError` at an MCH011/012
    violation instead of only recording it.  ``exact`` selects the
    timer-edge mode (see the module docstring): the explorer's full
    precision, which swaps the instrumented ``SimKernel.schedule``/
    ``post`` in; the default epoch mode leaves the kernel pristine.
    Re-enabling with a different mode re-swaps accordingly.
    """
    global ENABLED, _strict, _period, _SWAPPED, EVENT_EDGES
    _strict = strict
    _period = 1 if exact else _EPOCH_PERIOD
    if ENABLED and exact == _SWAPPED:
        return
    from ...sim import kernel as _kernel_mod

    _kernel_mod._set_race_hooks(sys.modules[__name__], swap=exact)
    _SWAPPED = EVENT_EDGES = exact
    ENABLED = True


def disable() -> None:
    global ENABLED, _strict, _SWAPPED, EVENT_EDGES
    if ENABLED:
        from ...sim import kernel as _kernel_mod

        _kernel_mod._set_race_hooks(None)
    ENABLED = _strict = _SWAPPED = EVENT_EDGES = False
    reset()


def reset() -> None:
    """Drop all recorded state (between scenarios / explorer runs)."""
    global _STATE, _LOCKS, _FIRE, _FIRE_WRAP, PERTURB, TRACE, _tick, ANY_HELD
    _STATE = HBState()
    _LOCKS = LockOrderGraph()
    ANY_HELD = False
    _reported.clear()
    findings.clear()
    _FIRE = None
    _FIRE_WRAP = None
    PERTURB = None
    TRACE = None
    _tick = 0


def set_perturbation(seed: Optional[int]) -> None:
    """Install (or clear) the seeded ready-queue perturbation source."""
    global PERTURB
    PERTURB = None if seed is None else Random(seed)


def _finding(rule_id: str, path: str, message: str) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=path,
        line=0,
        message=message,
        source="runtime",
    )


def _report(rule_id: str, path: str, message: str) -> None:
    """Record an MCH011/012 violation; strict mode raises it here."""
    finding = _finding(rule_id, path, message)
    findings.append(finding)
    if _strict:
        raise SanitizerError(finding)


def _report_at_finish(ult: Any, rule_id: str, path: str, message: str) -> None:
    """Record a violation found as ``ult`` finishes.

    There is no live generator to throw into, and raising here would
    propagate through ``ULT.finish`` into the xstream's scheduling loop,
    killing the stream (and every other ULT it serves).  Instead, strict
    mode attaches the error to the finished ULT, where ``run_ult`` /
    ``wait_ults`` re-raise it -- unless the ULT already died of a primary
    error (e.g. the suspend-while-holding raise that caused this state).
    """
    finding = _finding(rule_id, path, message)
    findings.append(finding)
    if _strict and ult.error is None:
        ult.error = SanitizerError(finding)


# ----------------------------------------------------------------------
# context resolution
# ----------------------------------------------------------------------
def _fn_label(fn: Any) -> str:
    owner = getattr(fn, "__self__", None)
    name = getattr(owner, "name", "") if owner is not None else ""
    base = getattr(fn, "__qualname__", None) or type(fn).__name__
    return f"{base}:{name}" if name else base


def _fire_ctx() -> Ctx:
    """Materialize the current timer-fire context (lazy, copy-on-write:
    the wrap's snapshot dict is *borrowed*, copied only on mutation)."""
    global _FIRE
    wrap = _FIRE_WRAP
    _FIRE = Ctx(wrap.snap, label=wrap, borrowed=True)
    return _FIRE


def _resolve_ult_mod() -> Any:
    global _ult_mod
    from ...margo import ult as _ult_mod_imported

    _ult_mod = _ult_mod_imported
    return _ult_mod


def _current_ctx() -> Ctx:
    mod = _ult_mod
    if mod is None:
        mod = _resolve_ult_mod()
    ult = mod._CURRENT
    if ult is not None:
        return _STATE.ctx_for_ult(ult)
    if _FIRE is not None:
        return _FIRE
    if _FIRE_WRAP is not None:
        return _fire_ctx()
    return _STATE.root


# ----------------------------------------------------------------------
# timer propagation (installed into SimKernel.schedule/post when enabled)
# ----------------------------------------------------------------------
class _TimerWrap:
    """Carries the scheduler's clock snapshot to the fire context.

    Wraps are recycled through :data:`_WRAP_FREE` (no per-event object
    churn on the schedule->fire fast path): a wrap that fired cleanly
    returns itself to the free list, and nothing retains a wrap past its
    fire -- a materialized fire :class:`Ctx` holds the *snapshot dict*
    (never mutated in place, only replaced on reuse) and report labels
    are resolved to strings eagerly at access-record time.
    """

    __slots__ = ("fn", "arg", "no_arg", "snap", "kernel")

    def __init__(self, fn: Any, arg: Any, no_arg: Any, snap: dict, kernel: Any) -> None:
        self.fn = fn
        self.arg = arg
        self.no_arg = no_arg
        self.snap = snap
        self.kernel = kernel  # a post's, to re-post a returned delay; None for a timer

    def describe(self) -> str:
        """Lazy fire-context label (built only if a report needs it)."""
        return f"timer:{_fn_label(self.fn)}"

    def __call__(self) -> None:
        global _FIRE, _FIRE_WRAP
        if TRACE is not None:
            TRACE.append(f"fire:{_fn_label(self.fn)}")
        prev_ctx, prev_wrap = _FIRE, _FIRE_WRAP
        _FIRE, _FIRE_WRAP = None, self
        try:
            if self.arg is self.no_arg:
                delay = self.fn()
            else:
                delay = self.fn(self.arg)
            if delay is not None and self.kernel is not None:
                self.kernel.post(delay, self.fn, self.arg)
        finally:
            _FIRE, _FIRE_WRAP = prev_ctx, prev_wrap
        # Clean exit only: an exception's traceback pins the frame (and
        # this wrap with it), so recycling there could alias a live wrap.
        free = _WRAP_FREE
        if len(free) < _WRAP_FREE_MAX:
            self.fn = self.arg = self.snap = self.kernel = None
            free.append(self)


#: Recycled wraps (flat-slot discipline: reinitializing four slots beats
#: allocating + GC-tracking an object per scheduled event).
_WRAP_FREE: list = []
_WRAP_FREE_MAX = 512


def make_instrumented(plain: Any) -> Any:
    """Build the exact-mode ``SimKernel.schedule`` or ``post`` around
    the pristine fast path ``plain`` (``_set_race_hooks`` swaps it in
    at the class level, so subclass-free method dispatch still finds it).

    Only installed by ``enable(exact=True)``: every scheduled event
    carries its scheduler's exact publication (snapshot plus
    own-component advance) in a free-listed :class:`_TimerWrap`.  Epoch
    mode never installs this wrapper at all -- even a counter-only
    wrapper here costs ~10% of the event loop.
    """
    from ...sim.kernel import _NO_ARG as no_arg, _plain_post

    def _race_scheduled(kernel: Any, delay: float, fn: Any, arg: Any = no_arg) -> Any:
        snap = _current_ctx().publish()
        owner = kernel if plain is _plain_post else None
        free = _WRAP_FREE
        if free:
            new = free.pop()
            new.fn = fn
            new.arg = arg
            new.snap = snap
            new.kernel = owner
        else:
            new = _TimerWrap(fn, arg, no_arg, snap, owner)
        return plain(kernel, delay, new, no_arg)

    _race_scheduled.__doc__ = plain.__doc__
    return _race_scheduled


def note_run_end() -> None:
    """End of ``SimKernel.run``: order the host after everything that ran."""
    _STATE.barrier_into_root()


# ----------------------------------------------------------------------
# scheduling / synchronization edges
# ----------------------------------------------------------------------
def note_push(pool: Any, ult: Any) -> None:
    """``Pool.push``: the pusher's clock flows into the pushed ULT.

    The hottest hook in the system (every wake is a push), so the body
    is flattened -- context resolution and the edge snapshot are
    inlined -- and the join is identity-memoized: snapshot dicts are
    replaced on invalidation, never mutated, and joins are idempotent,
    so re-joining the same dict the target last joined is provably a
    no-op.  In steady state (R and epoch caches unchanged) a push costs
    a handful of dict lookups and a pointer compare.

    Publication rule (shared with :func:`note_event_set`): in epoch mode
    a context that resolves to root mid-run is a timer fire whose true
    clock the kernel did not propagate, so it publishes the
    approximation clock R -- a pointwise upper bound on every live
    clock, so the receiver only gains edges.  Other publishers hand out
    their cached epoch snapshot, with every ``_period``-th edge taking
    an exact publish to close the interval.  In exact mode ``_period``
    is 1, so every edge publishes exactly, and fires never resolve to
    root.
    """
    global _tick
    mod = _ult_mod
    if mod is None:
        mod = _resolve_ult_mod()
    cur = mod._CURRENT
    if cur is ult:
        # Self re-push (UltYield): no edge, and both endpoint
        # resolutions would land on the same context anyway.
        if TRACE is not None:
            TRACE.append(f"push:{pool.name}:{ult.name}")
        return
    state = _STATE
    if cur is not None:
        entry = state.ult_ctx.get(id(cur))
        ctx = entry[1] if entry is not None else state.ctx_for_ult(cur)
    elif _FIRE_WRAP is None:
        ctx = state.root
    else:
        ctx = _FIRE if _FIRE is not None else _fire_ctx()
    entry = state.ult_ctx.get(id(ult))
    target = entry[1] if entry is not None else None
    if target is not ctx:
        # Memo-first: in the steady state the publisher's cached epoch
        # snapshot is live and the target already joined it, so the
        # whole edge is two attribute loads and a pointer compare.  The
        # tick only advances on a cache miss, i.e. when the publisher's
        # clock actually moved since its last publication -- an exact
        # publish on an unchanged clock would close an empty interval.
        # (Exact mode: ``publish`` invalidates ``_snap`` every time, so
        # every edge is a miss and takes an exact publish -- unchanged.)
        if ctx.tid == "root" and not _SWAPPED:
            snap = _hb._approx_snap
            if snap is None:
                snap = approx_snapshot()
        else:
            snap = ctx._snap
            if snap is None:
                _tick += 1
                if _tick % _period:
                    snap = ctx.publish_epoch()
                else:
                    snap = ctx.publish()
                    # publish() invalidated the cache; pin this snapshot
                    # so identical follow-up edges memo-hit on it.
                    if not _SWAPPED:
                        ctx._snap = snap
        if target is None:
            # First push of a fresh ULT: its initial clock IS the
            # incoming edge, so borrow the snapshot instead of
            # allocating an empty clock and joining into it (Ctx.own
            # copies lazily if the ULT ever mutates it).
            target = Ctx(clock=snap, label=ult, borrowed=True)
            target.last_join = snap
            state.ult_ctx[id(ult)] = (ult, target)
        elif target.last_join is not snap:
            target.join(snap)
            target.last_join = snap
    if TRACE is not None:
        TRACE.append(f"push:{pool.name}:{ult.name}")


def note_finish(ult: Any) -> None:
    """``ULT.finish``, as its last act: drop the finished ULT's entry,
    fold its clock (:meth:`HBState.retire_clock`), and check the ULT
    answered its request (MCH012) and let go of every mutex (MCH011).

    A handler ULT finishes with an error only when one escaped the
    runtime's reply path (``_handler_body`` turns every ``Exception``
    into an error reply), so no reply went out.
    """
    global ANY_HELD
    entry = _STATE.ult_ctx.pop(id(ult), None)
    if entry is not None:
        _STATE.retire_clock(entry[1].clock)
    if ult.error is not None and ult.rpc_context is not None:
        _report_at_finish(
            ult,
            RULE_DROPPED_HANDLE,
            f"ult:{ult.name}",
            f"handler ULT {ult.name!r} for RPC {ult.rpc_context.rpc_name!r} "
            f"died ({type(ult.error).__name__}) without responding; the "
            "caller is left waiting for its timeout",
        )
    if ANY_HELD:
        held = _LOCKS.held_names(ult)
        if held:
            del _LOCKS.held[id(ult)]
            ANY_HELD = bool(_LOCKS.held)
            _report_at_finish(
                ult,
                RULE_LOCK_ACROSS_YIELD,
                f"ult:{ult.name}",
                f"ULT {ult.name!r} finished while still holding mutex(es) "
                f"{held}; every waiter is now deadlocked",
            )


def note_event_set(event: Any) -> None:
    """``UltEvent.set``: publish the setter's clock.

    Epoch-batched: the receiver sees exactly the setter's current clock,
    only the setter's own post-set accesses fold into the same interval
    (a bounded missed-race window, never a false positive).  Lock edges
    (:func:`note_release`) stay exact.  Body flattened like
    :func:`note_push` (several sets per RPC).
    """
    global _tick
    mod = _ult_mod
    if mod is None:
        mod = _resolve_ult_mod()
    cur = mod._CURRENT
    state = _STATE
    if cur is not None:
        entry = state.ult_ctx.get(id(cur))
        ctx = entry[1] if entry is not None else state.ctx_for_ult(cur)
    elif _FIRE_WRAP is None:
        ctx = state.root
    else:
        ctx = _FIRE if _FIRE is not None else _fire_ctx()
    if ctx.tid == "root" and not _SWAPPED:
        snap = _hb._approx_snap
        if snap is None:
            snap = approx_snapshot()
    else:
        _tick += 1
        if _tick % _period:
            snap = ctx._snap
            if snap is None:
                snap = ctx.publish_epoch()
        else:
            snap = ctx.publish()
    state.sync_clock[id(event)] = (event, snap)


def note_event_join(event: Any) -> None:
    """Parking/waiting on an already-set event: join the setter's clock.

    Exact mode joins the set-time snapshot recorded by
    :func:`note_event_set`.  Epoch mode records nothing at set time
    (see :data:`EVENT_EDGES`), so the joiner takes the approximation
    clock R instead: R is a pointwise upper bound on the setter's clock
    at set time, so the join only adds edges -- sound, coarse.
    """
    ctx = _current_ctx()
    if not _SWAPPED:
        snap = _hb._approx_snap
        if snap is None:
            snap = approx_snapshot()
        if ctx.last_join is not snap:
            ctx.join(snap)
            ctx.last_join = snap
        return
    _STATE.join_from(event, ctx)


def note_acquire(ult: Any, mutex: Any) -> None:
    """``UltMutex.acquire``: HB edge from the last releaser + lock order."""
    global ANY_HELD
    ctx = _current_ctx()
    _STATE.join_from(mutex, ctx)
    if ult is None:
        return
    ANY_HELD = True
    cycle = _LOCKS.note_acquire(ult, mutex, where=getattr(ult, "name", "?"))
    if cycle is not None:
        key = (RULE_LOCK_ORDER_CYCLE, tuple(sorted(cycle)))
        if key not in _reported:
            _reported.add(key)
            findings.append(
                _finding(
                    RULE_LOCK_ORDER_CYCLE,
                    "race:lock-order",
                    f"lock-order cycle {' -> '.join(cycle)} "
                    f"(closed by ULT {ult.name!r}); two ULTs taking "
                    "these mutexes concurrently can deadlock",
                )
            )


def note_release(ult: Any, mutex: Any) -> None:
    """``UltMutex.release``: publish the releaser's clock on the lock.

    Exact (no epoch batching) for ULT releasers -- MCH011/040 precision
    rides on lock edges.  A releaser that resolves to root in epoch
    mode is a timer fire; its true clock is unknown, so R stands in
    (superset join: sound, coarse -- same rule as :func:`note_push`).
    """
    global ANY_HELD
    ctx = _current_ctx()
    if ctx.tid == "root" and not _SWAPPED:
        _STATE.publish_snapshot(mutex, approx_snapshot())
    else:
        _STATE.publish_to(mutex, ctx)
    _LOCKS.note_release(ult, mutex)
    ANY_HELD = bool(_LOCKS.held)


def note_suspend(ult: Any, cmd: Any) -> None:
    """``XStream._drive``, on a Park, an UltSleep or an RPC's wait for
    its reply (the ``RPCRequest`` itself) while some ULT holds a mutex:
    MCH011 if that ULT is ``ult``."""
    held = _LOCKS.held_names(ult)
    if not held:
        return
    if hasattr(cmd, "rpc_name"):
        what = f"Park on 'rpc:{cmd.rpc_name}:{cmd.seq}'"
    else:
        event = getattr(cmd, "event", None)
        what = type(cmd).__name__ if event is None else f"Park on {event.name!r}"
    _report(
        RULE_LOCK_ACROSS_YIELD,
        f"ult:{ult.name}",
        f"ULT {ult.name!r} suspended ({what}) while holding mutex(es) "
        f"{held}; release before parking or sleeping",
    )


# ----------------------------------------------------------------------
# replies (MCH012)
# ----------------------------------------------------------------------
def check_margo_shutdown(margo: Any) -> None:
    """``MargoInstance.shutdown``: a *healthy* process must not finalize
    with a dispatched handler still live (MCH012): the reply goes out
    only as the handler ends, so a live handler is unanswered.

    A killed process is exempt: dropping in-flight handles is exactly
    what a crash does.
    """
    if not margo.process.alive:
        return
    pools = list(margo.pools.values())
    stuck = sorted(
        (request.seq, request.rpc_name)
        for ult, _ctx in _STATE.ult_ctx.values()
        if (request := ult.rpc_context) is not None
        and ult.pool in pools
    )
    for seq, name in stuck:
        _report(
            RULE_DROPPED_HANDLE,
            f"margo:{margo.process.name}",
            f"margo instance finalized with handler for RPC {name!r} "
            f"(seq {seq}) still pending; it never responded",
        )


# ----------------------------------------------------------------------
# tracked shared state (the MCH03x checks)
# ----------------------------------------------------------------------
def track(state: Any, name: str = "") -> None:
    """Give ``state`` a display name for race reports (optional: tracked
    objects are auto-named on first access otherwise)."""
    _STATE.track(state, name)


def _report_pair(
    rule_id: str, state_name: str, key: Any, kinds: str, prev_label: str, cur_label: str
) -> None:
    dedup = (rule_id, state_name, repr(key), prev_label, cur_label)
    if dedup in _reported:
        return
    _reported.add(dedup)
    findings.append(
        _finding(
            rule_id,
            f"race:{state_name}",
            f"unordered {kinds} on {state_name}[{key!r}]: "
            f"{prev_label} vs {cur_label}; no synchronization edge "
            "orders them, so the outcome depends on the schedule",
        )
    )


def note_write(state: Any, key: Any, where: str) -> None:
    """A write to ``state[key]`` by the current context.

    Label formatting is deferred to the (rare) report branches; the
    record keeps ``where`` and the accessor :class:`Ctx`, whose label
    ``ensure_tid`` already pinned to a string.
    """
    ctx = _current_ctx()
    tid = ctx.tid
    if tid is None:
        tid = _STATE.ensure_tid(ctx)
    clock = ctx.clock
    var = _STATE.var(state, key)
    wt = var.write_tid
    if wt is not None and wt != tid and clock.get(wt, 0) < var.write_count:
        _report_pair(
            RULE_UNORDERED_WRITES,
            _STATE.track(state),
            key,
            "write/write",
            f"{var.write_where} [{var.write_ctx.label}]",
            f"{where} [{ctx.label}]",
        )
    reads = var.reads
    if reads:
        for rtid, (rcount, rwhere, rctx) in reads.items():
            if rtid != tid and clock.get(rtid, 0) < rcount:
                _report_pair(
                    RULE_UNORDERED_READ_WRITE,
                    _STATE.track(state),
                    key,
                    "read/write",
                    f"{rwhere} [{rctx.label}]",
                    f"{where} [{ctx.label}]",
                )
        reads.clear()
    var.write_tid = tid
    var.write_count = clock[tid]
    var.write_where = where
    var.write_ctx = ctx


def note_read(state: Any, key: Any, where: str) -> None:
    """A read of ``state[key]`` by the current context (labels deferred
    like :func:`note_write`).

    Runs once per dispatch, so the body is flattened like
    :func:`note_push`: context resolution is inlined, and a repeat read
    by the same context at the same clock count skips the re-store (the
    record it would write is the one already there, modulo which of two
    same-count read sites a later report names).
    """
    mod = _ult_mod
    if mod is None:
        mod = _resolve_ult_mod()
    cur = mod._CURRENT
    hbstate = _STATE
    if cur is not None:
        entry = hbstate.ult_ctx.get(id(cur))
        ctx = entry[1] if entry is not None else hbstate.ctx_for_ult(cur)
    elif _FIRE_WRAP is None:
        ctx = hbstate.root
    else:
        ctx = _FIRE if _FIRE is not None else _fire_ctx()
    tid = ctx.tid
    if tid is None:
        tid = hbstate.ensure_tid(ctx)
    clock = ctx.clock
    var = hbstate.var(state, key)
    wt = var.write_tid
    if wt is not None and wt != tid and clock.get(wt, 0) < var.write_count:
        _report_pair(
            RULE_UNORDERED_READ_WRITE,
            hbstate.track(state),
            key,
            "write/read",
            f"{var.write_where} [{var.write_ctx.label}]",
            f"{where} [{ctx.label}]",
        )
    count = clock[tid]
    prev = var.reads.get(tid)
    if prev is None or prev[0] != count:
        var.reads[tid] = (count, where, ctx)


def report_order_dependence(scenario: str, seed: int, divergence: str) -> Finding:
    """Used by the explorer to emit MCH032 for a diverging scenario."""
    finding = _finding(
        RULE_ORDER_DEPENDENT_OUTCOME,
        f"race:{scenario}",
        f"final state of scenario {scenario!r} diverged under "
        f"perturbation seed {seed}; first diverging scheduling event: "
        f"{divergence}",
    )
    findings.append(finding)
    return finding


# The one switch, parsed once: 1/true/yes are strict, race records.
_env = os.environ.get("REPRO_SANITIZE", "").strip().lower()
if _env:
    if _env not in _MODES:
        raise ValueError(
            f"REPRO_SANITIZE={_env!r}: expected 1, true or yes (strict) or "
            "race (record); leave it unset or empty to turn the checker off"
        )
    enable(strict=_MODES[_env])
