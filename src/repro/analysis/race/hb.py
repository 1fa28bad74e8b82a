"""Vector-clock happens-before machinery for mochi-race.

The kernel is single-threaded, so there are no *data* races in the
hardware sense -- what the detector hunts is *order dependence*: two
accesses to the same shared state whose relative order is not forced by
any synchronization edge, and which the deterministic scheduler merely
happens to serialize one way.  Change the schedule (a new pool, a
perturbed ready queue, a slower network) and the other order runs --
that is exactly the reproducibility hazard the paper's dynamic features
(reconfiguration, migration, elasticity) introduce.

The model is FastTrack-flavored:

* a :class:`Ctx` is one logical thread of causality -- a ULT, a timer
  fire, or the host ("root") driving the simulation between runs;
* clocks are sparse dicts ``tid -> count``.  A context only gets a
  ``tid`` (and therefore an entry in anyone's clock) lazily, on its
  *first tracked access* -- timer fires and ULTs that never touch
  tracked state cost no clock space no matter how many there are;
* every *publication* (scheduling a timer, pushing a ULT, setting an
  event, releasing a mutex) snapshots the publisher's clock and then
  increments the publisher's own component, so the publisher's *later*
  accesses can never appear ordered before the receiver;
* each tracked variable keeps a write epoch ``(tid, count)`` plus a
  read map ``tid -> count``; an access races with a prior epoch
  ``(t, c)`` iff the accessor's clock has ``clock.get(t, 0) < c``.

Two P1 cost disciplines live here (see :mod:`.hooks` for the sampling
policy built on top):

* **Copy-on-write clocks.**  A timer-fire context *borrows* the clock
  dict carried by its wrap instead of copying it; the dict is only
  copied if the fire context itself mutates (first tracked access or a
  join).  Fires that merely propagate -- the overwhelming majority --
  allocate nothing.
* **Epoch snapshots.**  :meth:`Ctx.publish_epoch` returns a cached
  snapshot *without* advancing the publisher's component; the cache
  invalidates on any clock mutation (join, tid assignment, an exact
  publish).  Skipping the increment merges the publisher's accesses
  between two epoch boundaries into one interval, which can only make
  the happens-before relation *stronger* than reality -- so epoch
  publication may miss a race inside the window (bounded by the
  sampling period) but can never report a false one.
* **The approximation clock R** (:func:`approx_snapshot`): a pointwise
  upper bound on every live clock, published in place of a timer-fire
  context's true clock in epoch mode, where the kernel's hot paths are
  left entirely un-instrumented.  Same one-sided error: R only adds
  happens-before edges.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Ctx", "VarState", "HBState", "approx_snapshot"]


# ----------------------------------------------------------------------
# the approximation clock R (epoch mode's timer-edge substitute)
# ----------------------------------------------------------------------
# R maps every tid to the highest count any clock has ever held for it,
# folded at the only two points counts change: tid assignment
# (:meth:`HBState.ensure_tid`) and an exact publish
# (:meth:`Ctx.publish`).  By construction every live context's clock is
# pointwise <= R, so joining R in place of a publisher's true clock can
# only *add* happens-before edges, never remove one: sound (no false
# positives), coarse (each extra edge is a potential missed race, and
# nothing more).
#
# Epoch mode (the default; ``hooks.enable(exact=True)`` is exact mode)
# leaves the kernel's ``schedule``/``post`` un-swapped, so timer fires
# resolve to the root context; publications made from such fires hand
# out R instead of root's own constant clock.  Exact mode never
# consults R.
#
# Module-level rather than per-:class:`HBState` because
# :meth:`Ctx.publish` carries no back-reference to its session; exactly
# one detection session is live at a time (``hooks.reset()`` builds a
# fresh ``HBState``, whose ``__init__`` clears R).

_APPROX: dict[str, int] = {"root": 1}
_approx_snap: Optional[dict[str, int]] = None


def _approx_fold(tid: str, count: int) -> None:
    global _approx_snap
    _APPROX[tid] = count
    _approx_snap = None


def approx_snapshot() -> dict[str, int]:
    """Cached copy of R; receivers only ever join it, never mutate it."""
    global _approx_snap
    snap = _approx_snap
    if snap is None:
        snap = _approx_snap = dict(_APPROX)
    return snap


def _approx_reset() -> None:
    global _approx_snap
    _APPROX.clear()
    _APPROX["root"] = 1
    _approx_snap = None


class Ctx:
    """One logical thread of causality (ULT / timer fire / root)."""

    __slots__ = ("clock", "tid", "_label", "_borrowed", "_snap", "last_join")

    def __init__(
        self,
        clock: Optional[dict[str, int]] = None,
        label: Any = "",
        borrowed: bool = False,
    ) -> None:
        self.clock: dict[str, int] = clock if clock is not None else {}
        self.tid: Optional[str] = None
        #: Either a display string or a lazy provider with ``describe()``
        #: (building timer labels eagerly was measurably hot).
        self._label = label
        #: True while ``clock`` is a dict shared with a publisher's
        #: snapshot; any mutation must copy first (:meth:`own`).
        self._borrowed = borrowed
        #: Cached :meth:`publish_epoch` snapshot; ``None`` when stale.
        self._snap: Optional[dict[str, int]] = None
        #: The last snapshot dict joined via a push edge.  Snapshot
        #: dicts (epoch caches, R copies) are *replaced* on invalidation,
        #: never mutated, and :meth:`join` is idempotent -- so an
        #: identity match proves the re-join would be a no-op, and the
        #: hot push path skips it (see ``hooks.note_push``).
        self.last_join: Optional[dict[str, int]] = None

    @property
    def label(self) -> str:
        label = self._label
        if type(label) is not str:
            describe = getattr(label, "describe", None)
            if describe is not None:
                label = describe()
            else:
                # A bare ULT (ctx_for_ult defers the format: most ULT
                # contexts never appear in a report).
                label = f"ult:{getattr(label, 'name', '?')}"
            self._label = label
        return label

    def own(self) -> None:
        """Ensure ``clock`` is privately owned before mutating it."""
        if self._borrowed:
            self.clock = dict(self.clock)
            self._borrowed = False

    def join(self, other_clock: dict[str, int]) -> None:
        if self._borrowed:
            self.clock = dict(self.clock)
            self._borrowed = False
        clock = self.clock
        changed = False
        for tid, count in other_clock.items():
            if count > clock.get(tid, 0):
                clock[tid] = count
                changed = True
        if changed:
            # Only a join that moved the clock invalidates the epoch
            # snapshot cache: steady-state re-joins (a ULT re-parking on
            # the same event, say) keep the cache -- and with it the
            # identity memos built on snapshot identity -- intact.
            self._snap = None

    def publish(self) -> dict[str, int]:
        """Snapshot the clock for a receiver, then advance own component.

        The root context never advances: the host driving the simulation
        is single-threaded, so *everything* it does is ordered before
        every event of every subsequent ``kernel.run()`` -- a constant
        ``root`` epoch (plus the run-end barrier joining everyone back
        into root) encodes exactly that total order.  Incrementing would
        instead make late pre-run root actions (e.g. registering an RPC
        after scheduling a timer) look concurrent with the run.
        """
        snap = dict(self.clock)
        tid = self.tid
        if tid is not None and tid != "root":
            # A tid implies ensure_tid ran, which owned the clock.
            count = self.clock[tid] + 1
            self.clock[tid] = count
            _approx_fold(tid, count)
            self._snap = None
        return snap

    def publish_epoch(self) -> dict[str, int]:
        """Snapshot without advancing: the epoch-batched publication.

        Receivers observe exactly the current clock (identical to what
        :meth:`publish` would hand out), so no check anywhere gains a
        spurious edge -- only the publisher's own *later* accesses fold
        into the same interval (missed-race window, never a false
        positive).  The snapshot is cached until the clock mutates, and
        a borrowed clock is itself a frozen snapshot, so the steady
        state copies nothing.
        """
        snap = self._snap
        if snap is None:
            if self._borrowed:
                snap = self.clock
            else:
                snap = dict(self.clock)
            self._snap = snap
        return snap


class VarState:
    """Per-(state, key) access history: one write epoch + a read map.

    Access records keep the raw ``where`` string and the accessor
    :class:`Ctx`; report labels are formatted only when a race is
    actually flagged (``ensure_tid`` pins every recorded context's
    label to a string first, so deferral never reads a recycled label
    provider).
    """

    __slots__ = ("write_tid", "write_count", "write_where", "write_ctx", "reads")

    def __init__(self) -> None:
        self.write_tid: Optional[str] = None
        self.write_count = 0
        self.write_where = ""
        self.write_ctx: Optional[Ctx] = None
        #: tid -> (count, where, ctx) of reads since the last write.
        self.reads: dict[str, tuple[int, str, Ctx]] = {}


class HBState:
    """All mutable happens-before state for one detection session."""

    def __init__(self) -> None:
        self.root = Ctx(label="root")
        self.root.tid = "root"
        self.root.clock["root"] = 1
        #: id(ult) -> (ult, Ctx) for every live ULT; the strong ref pins
        #: id() uniqueness until ``hooks.note_finish`` drops the entry.
        self.ult_ctx: dict[int, tuple[Any, Ctx]] = {}
        #: Pointwise max of the final clocks of every retired ULT.
        self.finished_clock: dict[str, int] = {}
        self._last_retired: Optional[dict[str, int]] = None
        #: id(event/mutex) -> (obj, clock snapshot at last publication).
        self.sync_clock: dict[int, tuple[Any, dict[str, int]]] = {}
        #: (id(state), key) -> VarState; state objects pinned separately.
        self.vars: dict[tuple[int, Any], VarState] = {}
        #: id(state) -> (state, display name).
        self.tracked: dict[int, tuple[Any, str]] = {}
        self._tid_counter = 0
        self._state_counter = 0
        _approx_reset()

    # ------------------------------------------------------------------
    def ensure_tid(self, ctx: Ctx) -> str:
        """Assign a deterministic tid on first tracked access."""
        if ctx.tid is None:
            self._tid_counter += 1
            ctx.own()
            ctx.tid = f"c{self._tid_counter}"
            ctx.clock[ctx.tid] = 1
            ctx._snap = None
            _approx_fold(ctx.tid, 1)
            if type(ctx._label) is not str:
                # Pin the label now, while its provider (a timer wrap,
                # which may be recycled after the fire) is still live;
                # access records defer formatting to report time.
                _ = ctx.label
        return ctx.tid

    def ctx_for_ult(self, ult: Any) -> Ctx:
        key = id(ult)
        entry = self.ult_ctx.get(key)
        if entry is None:
            ctx = Ctx(label=ult)
            self.ult_ctx[key] = (ult, ctx)
            return ctx
        return entry[1]

    def retire_clock(self, clock: dict[str, int]) -> None:
        """Fold the final clock of a ULT whose ``ult_ctx`` entry was just
        dropped (``hooks.note_finish``): a finished ULT's clock can no
        longer move, so :attr:`finished_clock` stands in for it in
        :meth:`barrier_into_root` and the table holds live ULTs only.

        Same identity memo as :attr:`Ctx.last_join`: most finished ULTs
        still borrow the snapshot their first push carried, and a
        snapshot is replaced, never mutated (an owned clock never leaves
        its context, which is gone), so re-folding the dict folded last
        is a no-op and is skipped: it takes ~0.8 µs per RPC off the
        ``rpc_race_on`` row of ``benchmarks/bench_overhead.py``
        (normalised µs, 2-vCPU VM)."""
        if clock is self._last_retired:
            return
        self._last_retired = clock
        finished = self.finished_clock
        for tid, count in clock.items():
            if count > finished.get(tid, 0):
                finished[tid] = count

    def publish_to(self, obj: Any, ctx: Ctx) -> None:
        """Record ``ctx``'s publication on a sync object (event/mutex)."""
        self.sync_clock[id(obj)] = (obj, ctx.publish())

    def publish_snapshot(self, obj: Any, snap: dict[str, int]) -> None:
        """Record a pre-computed publication snapshot (e.g. the
        approximation clock R) on a sync object."""
        self.sync_clock[id(obj)] = (obj, snap)

    def join_from(self, obj: Any, ctx: Ctx) -> None:
        entry = self.sync_clock.get(id(obj))
        if entry is not None:
            snap = entry[1]
            # Same identity memo as the push edge (snapshot dicts are
            # replaced, never mutated; joins are idempotent).  The slot
            # is shared across edge kinds -- alternation just means an
            # extra no-op join, never a missed one.
            if ctx.last_join is not snap:
                ctx.join(snap)
                ctx.last_join = snap

    def track(self, state: Any, name: str = "") -> str:
        key = id(state)
        entry = self.tracked.get(key)
        if entry is not None:
            if name and entry[1].startswith("state-"):
                self.tracked[key] = (state, name)
                return name
            return entry[1]
        if not name:
            self._state_counter += 1
            name = f"state-{self._state_counter}:{type(state).__name__}"
        self.tracked[key] = (state, name)
        return name

    def var(self, state: Any, key: Any) -> VarState:
        vkey = (id(state), key)
        entry = self.vars.get(vkey)
        if entry is None:
            entry = self.vars[vkey] = VarState()
        return entry

    def barrier_into_root(self) -> None:
        """Order root after everything that ran (end of ``kernel.run``).

        Root's own component stays constant (see :meth:`Ctx.publish`);
        the join is what makes subsequent root accesses ordered after
        every context of the finished run.
        """
        root = self.root
        root.join(self.finished_clock)
        # Borrowed clocks make this loop mostly duplicates: every ULT
        # whose first push carried the same snapshot (e.g. the cached R
        # copy) shares that dict by identity, and joins are idempotent.
        seen: set[int] = set()
        for _ult, ctx in self.ult_ctx.values():
            clock = ctx.clock
            if id(clock) in seen:
                continue
            seen.add(id(clock))
            root.join(clock)
        for _obj, clock in self.sync_clock.values():
            if id(clock) in seen:
                continue
            seen.add(id(clock))
            root.join(clock)
