"""Deterministic discrete-event simulation kernel.

Everything in :mod:`repro` that needs a notion of time or concurrency runs
on this kernel.  The kernel is an event queue and nothing else: a
callback is posted for a simulated deadline, and :meth:`SimKernel.run`
calls the callbacks in deadline order.  Coroutines live one layer up:
ULTs (``repro.margo.ult``) are generators that simulated execution
streams pull from pools, and a stream's turn is one such callback.

Determinism is a first-class goal: for equal seeds and equal call
sequences, two runs produce bit-identical schedules.  Ties in the event
queue are broken by scheduling order (a monotonically increasing
sequence), never by object identity or hashing.

This module is the hottest code in the repository -- every RPC, ULT
slice, and timer in every component turns into events here -- so the
implementation favors the wall-clock fast path:

* the event structure is **one binary heap** of
  ``(deadline, seq, obj, tag)`` entries.  ``seq`` is unique, so it
  breaks every tie and ``obj`` is never compared; the schedule is
  ``(deadline, seq)`` order by construction.  ``tests/reference_kernel.py``
  is the same heap written slowly, and a differential property test
  holds this one to it.  Almost no event shares its deadline with one
  already queued, which is why this is not a bucketed timer wheel
  (DESIGN.md §9 has the measurement);
* :meth:`SimKernel.post` is the no-handle fast path the ULT machinery
  uses: no :class:`Timer` object and no closure -- one tuple and one
  ``heappush``; callbacks carry an optional argument slot so callers
  post *bound methods* instead of allocating a closure per event;
* the loop tests nothing per event beyond the ``max_events`` guard:
  :meth:`SimKernel.halt`, posted by whoever waits, stops ``run()``
  through an exception (SimPy stops ``run(until=event)`` the same way);
* a posted callback that returns a delay is re-posted, and called at
  once when the heap would pop it next anyway (a stream's charge, say);
* cancelled timers are compacted out once they outnumber half the queue,
  so mass cancellation (e.g. per-RPC timeout timers) cannot hold memory
  hostage.  Heap keys are unique, so event order is bit-identical with
  or without compaction.

See DESIGN.md §9 for the determinism argument.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

__all__ = [
    "SimKernel",
    "Timer",
    "SimulationError",
    "DeadlockError",
]


class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class DeadlockError(SimulationError):
    """Raised when a wait can never finish: the event queue drained first."""


class _Halt(Exception):
    """Raised by :meth:`SimKernel.halt` and caught by :meth:`SimKernel.run`."""


#: Sentinel for "timer fires ``fn()`` with no argument".
_NO_ARG = object()

#: Entry tag: the entry's ``obj`` is a cancellable :class:`Timer`
#: (``schedule``/``schedule_at``), not a bare ``post`` callback.
_IS_TIMER = object()

#: Compaction trigger: cancelled entries must exceed this count *and*
#: half the queue before the heap is rebuilt without them.
_COMPACT_MIN_CANCELLED = 64

#: The mochi-race hooks module, injected by ``_set_race_hooks`` when the
#: race detector enables.  ``None`` keeps every gate below a single
#: module-global load; the hot paths (``schedule``/``post``) are
#: method-swapped instead of gated, so they pay nothing while disabled.
_RACE: Any = None


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    The callback is ``fn()`` when scheduled without an argument and
    ``fn(arg)`` otherwise.  Paths that never cancel use
    :meth:`SimKernel.post` and allocate no handle at all.
    """

    __slots__ = ("deadline", "_fn", "_arg", "_cancelled", "_kernel")

    def __init__(
        self,
        deadline: float,
        fn: Callable[..., None],
        arg: Any = _NO_ARG,
        kernel: Optional["SimKernel"] = None,
    ) -> None:
        self.deadline = deadline
        self._fn = fn
        self._arg = arg
        self._cancelled = False
        self._kernel = kernel

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        # ``_kernel`` is cleared when the timer leaves the queue, so
        # cancelling an already-fired timer does not inflate the
        # cancelled-entry count that drives compaction.
        kernel = self._kernel
        if kernel is not None:
            kernel._note_cancelled()


class SimKernel:
    """The discrete-event scheduler.

    Typical use::

        kernel, fired = SimKernel(), []
        kernel.schedule(1.0, fired.append, "tick")
        kernel.run()
        assert kernel.now == 1.0
    """

    def __init__(self) -> None:
        #: Current simulated time, in seconds; only the event loop moves it.
        self.now = 0.0
        self._seq = 0
        self._running = False
        #: Cancelled timers still sitting in the queue (compaction trigger).
        self._cancelled_count = 0
        #: Min-heap of ``(deadline, seq, obj, tag)``.  ``tag`` is
        #: ``_IS_TIMER`` (obj is a Timer), ``_NO_ARG`` (call ``obj()``)
        #: or the argument (call ``obj(tag)``).
        self._heap: list[tuple] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` -- or ``fn(arg)`` -- after ``delay`` simulated
        seconds, with no cancellation handle.

        This is the fast path the ULT resume machinery uses: it
        allocates no :class:`Timer` and no closure, only the heap entry.
        A float ``d`` the callback returns posts it again ``d`` seconds
        on (:meth:`run`); any other value but None is a TypeError.
        """
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self.now + delay, seq, fn, arg))

    def schedule(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Run ``fn()`` -- or ``fn(arg)`` if ``arg`` is given -- after
        ``delay`` simulated seconds; return a cancellable handle."""
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self._schedule_timer(self.now + delay, fn, arg)

    def schedule_at(self, deadline: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Run ``fn()`` -- or ``fn(arg)`` if ``arg`` is given -- at the
        absolute simulated time ``deadline``; return a cancellable handle.

        Unlike :meth:`schedule`, the firing time does not depend on when
        the caller ran, which is what periodic samplers aligned to fixed
        window boundaries (``k * window``) need for deterministic,
        drift-free rollups.
        """
        if not deadline >= self.now:  # also refuses NaN
            raise ValueError(f"deadline {deadline} is NaN or before now={self.now}")
        return self._schedule_timer(deadline, fn, arg)

    def _schedule_timer(self, deadline: float, fn: Callable[..., None], arg: Any) -> Timer:
        timer = Timer(deadline, fn, arg, self)
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (deadline, seq, timer, _IS_TIMER))
        return timer

    def queued(self) -> int:
        """Entries currently pending (live + not-yet-compacted cancelled);
        tests and monitoring read this, not the heap."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # cancelled-timer bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled_count += 1
        count = self._cancelled_count
        if count >= _COMPACT_MIN_CANCELLED and count * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled timers and re-heapify in place.

        Keys are unique, so the schedule of what remains is the same
        with or without compaction.  In place, because ``run()`` holds
        the list while a callback's ``cancel()`` may land here.
        """
        heap = self._heap
        heap[:] = [e for e in heap if not (e[3] is _IS_TIMER and e[2]._cancelled)]
        heapify(heap)
        self._cancelled_count = 0

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Stop the running :meth:`run` once the current event returns.

        Called from a callback -- ``Cluster.wait_ults`` posts it when
        the last ULT it waits for finishes; events still queued stay
        queued for the next ``run()``.
        """
        raise _Halt

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Process events until the queue drains, ``until`` is reached,
        or a callback calls :meth:`halt`.

        The clock never moves backwards: an ``until`` earlier than
        :attr:`now` fires nothing and leaves the clock where it is.  An
        exception raised by a callback propagates from here.

        A :meth:`post`ed callback that returns a delay ``d`` is posted
        again, and run at once when ``now + d`` is not past ``until`` and
        every queued deadline is later: its ``seq`` is the newest, so the
        heap would pop it next anyway.  A timer's return value is ignored.
        """
        if until is not None and until != until:
            raise ValueError("until must not be NaN")
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        self._running = True
        try:
            if self._run_heap(until, max_events):
                return
            # The queue drained before ``until``: time still advances to
            # it (idle simulated time passes like any other).
            if until is not None and until > self.now:
                self.now = until
        except _Halt:
            pass
        finally:
            self._running = False
            if _RACE is not None:
                _RACE.note_run_end()

    def _run_heap(self, until: Optional[float], max_events: int) -> bool:
        """The event loop; True means ``until`` was reached.

        One entry is popped per event, so an exception or an early stop
        leaves everything not yet fired in the heap for the next run().
        """
        heap = self._heap
        stop = float("inf") if until is None else until
        no_arg = _NO_ARG
        is_timer = _IS_TIMER
        # Only this loop moves the clock while it runs, so a local copy
        # stays exact.
        now = self.now
        processed = 0
        while heap:
            entry = heappop(heap)
            deadline, _, obj, tag = entry
            if tag is is_timer and obj._cancelled:
                # Dropped without advancing the clock: a deadline with
                # no live timer never becomes ``now``.
                self._cancelled_count -= 1
                continue
            if deadline > stop:
                heappush(heap, entry)
                if stop > now:
                    self.now = stop
                return True
            if deadline != now:
                if deadline < now:
                    raise SimulationError("event queue went backwards in time")
                self.now = now = deadline
            if tag is is_timer:
                # The timer has left the queue: a late cancel() must not
                # count toward the compaction trigger.
                obj._kernel = None
                arg = obj._arg
                if arg is no_arg:
                    obj._fn()
                else:
                    obj._fn(arg)
                delay = None
            elif tag is no_arg:
                delay = obj()
            else:
                delay = obj(tag)
            while True:
                processed += 1
                if delay is not None:
                    # A returned delay re-posts the entry with the newest seq:
                    # it pops next exactly when every queued deadline is later.
                    if delay.__class__ is not float and not isinstance(delay, float):
                        raise TypeError(f"a posted callback returned {delay!r}, not a delay")
                    if not delay >= 0:  # also refuses NaN
                        raise ValueError(f"delay must be >= 0, got {delay}")
                    seq = self._seq + 1
                    self._seq = seq
                    deadline = now + delay
                    if deadline > stop or processed >= max_events or (
                        heap and heap[0][0] <= deadline
                    ):
                        heappush(heap, (deadline, seq, obj, tag))
                        delay = None
                if processed > max_events:
                    # Checked per event: a zero-delay self-rescheduling
                    # callback keeps the same deadline forever.
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway loop"
                    )
                if delay is None:
                    break
                self.now = now = deadline
                delay = obj() if tag is no_arg else obj(tag)
        return False


#: The pristine fast-path ``schedule``/``post``, restored when the race
#: layer disables.  Swapping the *methods* keeps the disabled path
#: identical to an uninstrumented kernel -- not even a gate check on the
#: hottest calls.
_plain_schedule = SimKernel.schedule
_plain_post = SimKernel.post


def _set_race_hooks(mod: Any, swap: bool = True) -> None:
    """Install (or, with ``None``, remove) the mochi-race hooks.

    Called by :func:`repro.analysis.race.hooks.enable` / ``disable`` --
    the kernel never imports the race layer itself.  ``swap`` selects
    the detector's timer-edge mode: exact mode (``enable(exact=True)``)
    swaps instrumented ``schedule``/``post`` in so every timer carries
    its scheduler's clock, while epoch mode (``swap=False``) leaves the
    pristine methods in place -- the detector prices the event loop at
    zero and recovers timer-edge soundness at the margo layer via the
    approximation clock (see ``race/hb.py``).  ``_RACE`` is set either
    way so the run-end barrier still fires.
    """
    global _RACE
    _RACE = mod
    if mod is None or not swap:
        SimKernel.schedule = _plain_schedule
        SimKernel.post = _plain_post
        return
    SimKernel.schedule = mod.make_instrumented(_plain_schedule)
    SimKernel.post = mod.make_instrumented(_plain_post)
