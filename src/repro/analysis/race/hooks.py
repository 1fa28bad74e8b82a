"""mochi-race runtime hooks: the gated entry points the runtime calls.

This module is to the race detector what :mod:`repro.analysis.sanitize`
is to the classic sanitizer: the kernel and the margo layer call the
``note_*`` functions below behind ``if _race.ENABLED:`` module-attribute
gates, so the disabled cost is one attribute load per call site -- and
the hottest site of all, :meth:`SimKernel.schedule`, is *method-swapped*
(see ``_set_race_hooks`` in ``sim/kernel.py``) so the disabled path pays
literally nothing there.

Three detectors share the state recorded here:

* the happens-before engine (:mod:`.hb`) flags unordered access pairs on
  tracked shared state -- ``MCH030`` (write/write), ``MCH031``
  (read/write);
* the lock-order graph (:mod:`.lockgraph`) flags acquisition-order
  cycles (``MCH040``) and unbounded wait-while-holding (``MCH041``),
  even when the deadlock did not fire this run;
* the schedule explorer (:mod:`.explore`) re-runs scenarios under seeded
  ready-queue perturbations (the :data:`PERTURB` gate in ``Pool.pop``)
  and reports order-dependent outcomes as ``MCH032``.

Enable via ``REPRO_SANITIZE=race`` (which also turns on the classic
sanitizer in record mode) or programmatically with :func:`enable`.
Findings accumulate in :data:`findings` in detection order, which is
deterministic for a deterministic schedule: same seed, same report.

P1 cost model (ROADMAP item 3, detector half).  The detector-on price
used to be a full clock snapshot (plus a wrapper call and a wrap
object) on *every* scheduled timer.  Measurement killed the obvious
fix: even a counter-only wrapper around ``SimKernel.post`` costs ~10%
of the event loop, so any per-event interception busts the <=10%
budget by itself.  ``race_sample_every`` therefore selects between two
modes that differ in *where* clocks are captured, not just how often:

* **Exact mode** (``race_sample_every=1``): ``schedule``/``post`` are
  method-swapped; every timer carries its scheduler's exact clock
  through a :class:`_TimerWrap` (copy-on-write, free-listed).  Full
  timer-edge precision -- the schedule explorer runs here, so MCH032
  divergence traces are complete.
* **Epoch mode** (``race_sample_every`` > 1, default
  :data:`DEFAULT_SAMPLE_EVERY`): the kernel is left *pristine* -- the
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
  tick, and every ``race_sample_every``-th miss takes an exact publish
  to close the interval.  Two further call-elimination gates keep the
  steady state under the budget: ``UltEvent.set`` publishes nothing
  (:data:`EVENT_EDGES` is False -- woken waiters get the setter's
  clock through the push the set performs, late joiners take R in
  :func:`note_event_join`), and parks skip the MCH041 hook entirely
  unless some ULT currently holds a mutex (:data:`ANY_HELD`).

Lock edges (release→acquire) and the lock-order graph stay exact and
always-on in both modes -- they are cheap and MCH040/041 depend on
them.  Tracked accesses made *from* timer fires are attributed to root
in epoch mode (invisible to MCH030/031 -- a known, sound
precision loss; exact mode sees them fully).
"""

from __future__ import annotations

import os
import sys
from random import Random
from typing import Any, Optional

from ..findings import Finding
from ..registry import GROUP_CONCURRENCY, RuleInfo, Severity, make_finding, register
from . import hb as _hb
from .hb import Ctx, HBState, approx_snapshot
from .lockgraph import LockOrderGraph

__all__ = [
    "ENABLED",
    "PERTURB",
    "TRACE",
    "SAMPLE_EVERY",
    "DEFAULT_SAMPLE_EVERY",
    "findings",
    "enable",
    "disable",
    "reset",
    "track",
    "note_read",
    "note_write",
]

RULE_UNORDERED_WRITES = "MCH030"
RULE_UNORDERED_READ_WRITE = "MCH031"
RULE_ORDER_DEPENDENT_OUTCOME = "MCH032"
RULE_LOCK_ORDER_CYCLE = "MCH040"
RULE_WAIT_WHILE_HOLDING = "MCH041"

register(
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
        runtime_checked=True,
    )
)
register(
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
        runtime_checked=True,
    )
)
register(
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
        runtime_checked=True,
    )
)
register(
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
        runtime_checked=True,
    )
)
register(
    RuleInfo(
        id=RULE_WAIT_WHILE_HOLDING,
        name="wait-while-holding",
        group=GROUP_CONCURRENCY,
        severity=Severity.ERROR,
        summary="ULT parks on an event with no timeout while holding a mutex",
        rationale=(
            "if the signaler ever needs the held mutex the system "
            "deadlocks, and nothing bounds the wait; release first, or "
            "park with a timeout"
        ),
        runtime_checked=True,
    )
)


#: Fast-path gate read by the margo-layer hooks (pool/ult/xstream/runtime).
ENABLED: bool = False

#: Seeded ready-queue perturbation source, read by ``Pool.pop``.
PERTURB: Optional[Random] = None

#: When not None, scheduling events are appended here (explorer runs).
TRACE: Optional[list[str]] = None

#: Default timer-edge sampling period: one exact publication every N
#: scheduled events (``RACE_SAMPLE_EVERY`` overrides; 1 = exact mode).
DEFAULT_SAMPLE_EVERY = 16

#: Active sampling period (set by :func:`enable`).
SAMPLE_EVERY: int = DEFAULT_SAMPLE_EVERY

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

#: Site gate for ``note_park``: True only while some ULT holds at least
#: one mutex (maintained by ``note_acquire``/``note_release``).  MCH041
#: can only fire for a lock-holding parker, so a lock-free workload
#: pays one extra attribute load per park instead of a hook call.
ANY_HELD: bool = False

#: Deterministic edge counter driving the epoch-mode sampling decision.
_tick = 0

#: Race findings in detection order (deterministic per seed).
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
def enable(sample_every: Optional[int] = None) -> None:
    """Turn the race layer on (idempotent).

    ``sample_every`` selects the timer-edge mode (see the module
    docstring): ``1`` is exact mode (the explorer uses it) and swaps
    the instrumented ``SimKernel.schedule``/``post`` in; any larger
    value is epoch mode, which leaves the kernel pristine.  ``None``
    keeps the ``RACE_SAMPLE_EVERY`` environment override or
    :data:`DEFAULT_SAMPLE_EVERY`.  Re-enabling with a different mode
    re-swaps accordingly.
    """
    global ENABLED, SAMPLE_EVERY, _SWAPPED, EVENT_EDGES
    if sample_every is None:
        env = os.environ.get("RACE_SAMPLE_EVERY", "").strip()
        sample_every = int(env) if env else DEFAULT_SAMPLE_EVERY
    if sample_every < 1:
        raise ValueError(f"race_sample_every must be >= 1, got {sample_every}")
    SAMPLE_EVERY = sample_every
    want_swap = sample_every == 1
    if ENABLED and want_swap == _SWAPPED:
        return
    from ...sim import kernel as _kernel_mod

    _kernel_mod._set_race_hooks(sys.modules[__name__], swap=want_swap)
    _SWAPPED = want_swap
    EVENT_EDGES = want_swap
    ENABLED = True


def disable() -> None:
    global ENABLED, _SWAPPED, EVENT_EDGES
    if not ENABLED:
        return
    from ...sim import kernel as _kernel_mod

    _kernel_mod._set_race_hooks(None)
    ENABLED = False
    _SWAPPED = False
    EVENT_EDGES = False
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

    __slots__ = ("fn", "arg", "no_arg", "snap")

    def __init__(self, fn: Any, arg: Any, no_arg: Any, snap: dict) -> None:
        self.fn = fn
        self.arg = arg
        self.no_arg = no_arg
        self.snap = snap

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
                self.fn()
            else:
                self.fn(self.arg)
        finally:
            _FIRE, _FIRE_WRAP = prev_ctx, prev_wrap
        # Clean exit only: an exception's traceback pins the frame (and
        # this wrap with it), so recycling there could alias a live wrap.
        free = _WRAP_FREE
        if len(free) < _WRAP_FREE_MAX:
            self.fn = self.arg = self.snap = None
            free.append(self)


#: Recycled wraps (flat-slot discipline: reinitializing four slots beats
#: allocating + GC-tracking an object per scheduled event).
_WRAP_FREE: list = []
_WRAP_FREE_MAX = 512


def _make_instrumented(plain: Any) -> Any:
    """Build the exact-mode ``SimKernel.schedule``/``post`` around the
    pristine fast path (``_set_race_hooks`` swaps it in at the class
    level, so subclass-free method dispatch still finds it).

    Only installed at ``race_sample_every=1``: every scheduled event
    carries its scheduler's exact publication (snapshot plus
    own-component advance) in a free-listed :class:`_TimerWrap`.  Epoch
    mode never installs this wrapper at all -- even a counter-only
    wrapper here costs ~10% of the event loop.
    """
    from ...sim.kernel import _NO_ARG as no_arg

    def _race_scheduled(kernel: Any, delay: float, fn: Any, arg: Any = no_arg) -> Any:
        snap = _current_ctx().publish()
        free = _WRAP_FREE
        if free:
            new = free.pop()
            new.fn = fn
            new.arg = arg
            new.snap = snap
        else:
            new = _TimerWrap(fn, arg, no_arg, snap)
        return plain(kernel, delay, new, no_arg)

    _race_scheduled.__doc__ = plain.__doc__
    return _race_scheduled


def make_race_schedule(plain: Any) -> Any:
    """Instrumented ``SimKernel.schedule`` (see :func:`_make_instrumented`)."""
    return _make_instrumented(plain)


def make_race_post(plain: Any) -> Any:
    """Instrumented ``SimKernel.post`` (same sampling policy; the two
    share the event counter)."""
    return _make_instrumented(plain)


def note_run_end() -> None:
    """End of ``SimKernel.run``: order the host after everything that ran."""
    _STATE.barrier_into_root()


# ----------------------------------------------------------------------
# scheduling / synchronization edges
# ----------------------------------------------------------------------
def _edge_snapshot(ctx: Ctx) -> dict:
    """Publication snapshot for an always-on margo edge (push / set).

    In epoch mode a context that resolves to root mid-run is a timer
    fire whose true clock the kernel did not propagate (no wraps);
    publish the approximation clock R instead -- a pointwise upper
    bound on every live clock, so the receiver only gains edges.  Other
    publishers hand out their cached epoch snapshot, with every
    ``SAMPLE_EVERY``-th edge taking an exact publish to close the
    interval.  In exact mode ``_tick % 1`` is always 0, so every edge
    publishes exactly, and fires never resolve to root.
    """
    global _tick
    if ctx.tid == "root" and not _SWAPPED:
        return approx_snapshot()
    _tick += 1
    if _tick % SAMPLE_EVERY:
        return ctx.publish_epoch()
    return ctx.publish()


def note_push(pool: Any, ult: Any) -> None:
    """``Pool.push``: the pusher's clock flows into the pushed ULT.

    The hottest hook in the system (every wake is a push), so the body
    is flattened -- context resolution and the edge snapshot are
    inlined (the out-of-line versions live in :func:`_current_ctx` /
    :func:`_edge_snapshot`) -- and the join is identity-memoized:
    snapshot dicts are replaced on invalidation, never mutated, and
    joins are idempotent, so re-joining the same dict the target last
    joined is provably a no-op.  In steady state (R and epoch caches
    unchanged) a push costs a handful of dict lookups and a pointer
    compare.
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
                if _tick % SAMPLE_EVERY:
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
    """``ULT.finish``, as its last act: drop the finished ULT's entry
    and fold its clock (:meth:`HBState.retire_clock`)."""
    entry = _STATE.ult_ctx.pop(id(ult), None)
    if entry is not None:
        _STATE.retire_clock(entry[1].clock)


def note_event_set(event: Any) -> None:
    """``UltEvent.set`` / ``SimEvent.set``: publish the setter's clock.

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
        if _tick % SAMPLE_EVERY:
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
                make_finding(
                    RULE_LOCK_ORDER_CYCLE,
                    path="race:lock-order",
                    line=0,
                    message=(
                        f"lock-order cycle {' -> '.join(cycle)} "
                        f"(closed by ULT {ult.name!r}); two ULTs taking "
                        "these mutexes concurrently can deadlock"
                    ),
                    source="runtime",
                )
            )


def note_release(ult: Any, mutex: Any) -> None:
    """``UltMutex.release``: publish the releaser's clock on the lock.

    Exact (no epoch batching) for ULT releasers -- MCH040/041 precision
    rides on lock edges.  A releaser that resolves to root in epoch
    mode is a timer fire; its true clock is unknown, so R stands in
    (superset join: sound, coarse -- same rule as :func:`_edge_snapshot`).
    """
    global ANY_HELD
    ctx = _current_ctx()
    if ctx.tid == "root" and not _SWAPPED:
        _STATE.publish_snapshot(mutex, approx_snapshot())
    else:
        _STATE.publish_to(mutex, ctx)
    _LOCKS.note_release(ult, mutex)
    if ANY_HELD and not any(e[1] for e in _LOCKS.held.values()):
        ANY_HELD = False


def note_park(ult: Any, cmd: Any) -> None:
    """``XStream._drive`` Park branch: wait-while-holding check."""
    if cmd.timeout is not None:
        return
    entry = _LOCKS.held.get(id(ult))
    if entry is None or not entry[1]:
        # Fast path: no locks held (the overwhelming majority of parks)
        # -- skip the held_names list build.
        return
    held = _LOCKS.held_names(ult)
    if not held:
        return
    event_name = getattr(cmd.event, "name", "") or "<unnamed>"
    if event_name.startswith("mutex:"):
        # Contended UltMutex.acquire parks on an internal gate event;
        # nested-acquisition ordering is the lock-order graph's job
        # (MCH040), not a wait-while-holding finding.
        return
    key = (RULE_WAIT_WHILE_HOLDING, ult.name, event_name, tuple(held))
    if key in _reported:
        return
    _reported.add(key)
    findings.append(
        make_finding(
            RULE_WAIT_WHILE_HOLDING,
            path="race:lock-order",
            line=0,
            message=(
                f"ULT {ult.name!r} parks on event {event_name!r} with no "
                f"timeout while holding mutex(es) {held}; if the signaler "
                "needs those locks this deadlocks, and nothing bounds the wait"
            ),
            source="runtime",
        )
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
        make_finding(
            rule_id,
            path=f"race:{state_name}",
            line=0,
            message=(
                f"unordered {kinds} on {state_name}[{key!r}]: "
                f"{prev_label} vs {cur_label}; no synchronization edge "
                "orders them, so the outcome depends on the schedule"
            ),
            source="runtime",
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
    finding = make_finding(
        RULE_ORDER_DEPENDENT_OUTCOME,
        path=f"race:{scenario}",
        line=0,
        message=(
            f"final state of scenario {scenario!r} diverged under "
            f"perturbation seed {seed}; first diverging scheduling event: "
            f"{divergence}"
        ),
        source="runtime",
    )
    findings.append(finding)
    return finding


# Environment opt-in: REPRO_SANITIZE=race turns the race layer on (the
# classic sanitizer reads the same variable and switches to record mode).
if os.environ.get("REPRO_SANITIZE", "").strip().lower() == "race":
    enable()
