"""Deterministic discrete-event simulation kernel.

Everything in :mod:`repro` that needs a notion of time or concurrency runs
on this kernel.  The kernel maintains a priority structure of timestamped
events and a set of *tasks* -- cooperative coroutines implemented as
Python generators.  A task advances by yielding :class:`Sleep` or
:class:`WaitEvent` commands; the kernel resumes it when the requested
condition is met.

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
* :meth:`SimKernel.post` is the no-handle fast path used by the task
  resume machinery: no :class:`Timer` object and no closure -- one
  tuple and one ``heappush``;
* timers carry a callable plus an optional argument slot, so the task
  resume paths schedule *bound methods* instead of allocating a closure
  per event;
* ``run(until_tasks=...)`` detects completion through a shrinking set of
  watched tasks (O(1) per event) instead of scanning every target after
  every event;
* cancelled timers are compacted out once they outnumber half the queue,
  so mass cancellation (e.g. per-RPC timeout timers) cannot hold memory
  hostage.  Heap keys are unique, so event order is bit-identical with
  or without compaction.

See DESIGN.md §9 for the determinism argument.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "SimKernel",
    "Task",
    "Timer",
    "Sleep",
    "WaitEvent",
    "SimEvent",
    "SimulationError",
    "DeadlockError",
]


class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class DeadlockError(SimulationError):
    """Raised when ``run()`` is asked to finish work that can never finish."""


@dataclass(frozen=True)
class Sleep:
    """Command: suspend the yielding task for ``duration`` simulated seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative sleep duration: {self.duration}")


@dataclass(frozen=True)
class WaitEvent:
    """Command: suspend the yielding task until ``event`` is set.

    The task is resumed with the event's payload.  If ``timeout`` is not
    ``None`` and the event is not set within that many simulated seconds,
    the task is resumed with :data:`TIMED_OUT` instead.  Both resumption
    paths -- wake and timeout -- deliver on a *fresh* event-loop turn, so
    the relative order of same-timestamp callbacks never depends on which
    path fired.
    """

    event: "SimEvent"
    timeout: Optional[float] = None


class _TimedOut:
    """Sentinel resumption value for a timed-out :class:`WaitEvent`."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "TIMED_OUT"


TIMED_OUT = _TimedOut()

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


class SimEvent:
    """A one-shot, level-triggered event usable from kernel tasks.

    ``set(payload)`` wakes every current and future waiter with
    ``payload``.  Events may be reused after :meth:`clear`, which is how
    mailbox-style "work available" signals are built.
    """

    __slots__ = ("kernel", "name", "_set", "_payload", "_waiters")

    def __init__(self, kernel: "SimKernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._set = False
        self._payload: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def is_set(self) -> bool:
        return self._set

    @property
    def payload(self) -> Any:
        return self._payload

    def set(self, payload: Any = None) -> None:
        """Set the event and wake all waiters (idempotent while set).

        No race-layer publication here: a ``SimEvent``'s waiters are
        plain callbacks on sim-layer tasks, never race contexts --
        ULT-visible happens-before flows through ``UltEvent.set`` and
        the pool-push edge, so publishing from every xstream wakeup
        signal would be pure detector overhead with no consumer.
        """
        if self._set:
            return
        self._set = True
        self._payload = payload
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake(payload)

    def clear(self) -> None:
        """Reset the event so it can be waited on (and set) again."""
        self._set = False
        self._payload = None

    def _add_waiter(self, wake: Callable[[Any], None]) -> None:
        self._waiters.append(wake)

    def _remove_waiter(self, wake: Callable[[Any], None]) -> None:
        try:
            self._waiters.remove(wake)
        except ValueError:
            pass


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    The callback is ``fn()`` when scheduled without an argument and
    ``fn(arg)`` otherwise -- the argument slot is what lets the task
    machinery schedule bound methods instead of per-event closures.
    Internal resume paths that never cancel use :meth:`SimKernel.post`
    and allocate no handle at all.
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


TaskGen = Generator[Any, Any, Any]


class _EventWaiter:
    """Per-``WaitEvent`` state: replaces the closure pair the wait path
    used to allocate with one slotted object holding two bound methods."""

    __slots__ = ("task", "event", "timer", "resumed")

    def __init__(self, task: "Task", event: "SimEvent") -> None:
        self.task = task
        self.event = event
        self.timer: Optional[Timer] = None
        self.resumed = False

    def wake(self, payload: Any) -> None:
        if self.resumed:
            return
        self.resumed = True
        if self.timer is not None:
            self.timer.cancel()
        task = self.task
        task.kernel.post(0.0, task._resume, payload)

    def on_timeout(self) -> None:
        if self.resumed:
            return
        self.resumed = True
        self.event._remove_waiter(self.wake)
        # Resume on a fresh event-loop turn, symmetric with wake(): the
        # task must never advance from inside the timer that timed it out.
        task = self.task
        task.kernel.post(0.0, task._resume, TIMED_OUT)


class Task:
    """A kernel coroutine.

    Wraps a generator that yields :class:`Sleep` / :class:`WaitEvent`
    commands.  On normal return the task's :attr:`done_event` is set with
    the generator's return value; on an unhandled exception the error is
    recorded in :attr:`error` and re-raised by the kernel unless the task
    was marked ``daemon``.
    """

    __slots__ = (
        "kernel",
        "gen",
        "name",
        "daemon",
        "done_event",
        "error",
        "result",
        "_finished",
        "_resume",
    )

    def __init__(self, kernel: "SimKernel", gen: TaskGen, name: str, daemon: bool) -> None:
        self.kernel = kernel
        self.gen = gen
        self.name = name
        self.daemon = daemon
        self.done_event = SimEvent(kernel, name=f"done:{name}")
        self.error: Optional[BaseException] = None
        self.result: Any = None
        self._finished = False
        # Bound once: the resume paths below would otherwise allocate a
        # fresh bound-method object per event just to pass ``self._step``.
        self._resume = self._step

    @property
    def finished(self) -> bool:
        return self._finished

    # mochi-lint: hotpath
    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Advance the generator one command and act on what it yields."""
        kernel = self.kernel
        try:
            if exc is not None:
                cmd = self.gen.throw(exc)
            else:
                cmd = self.gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - task failure path
            self.error = err
            self._finish(result=None)
            # Daemon failures are normally tolerated (service loops dying
            # at shutdown), but assertion failures -- including the
            # runtime checker's SanitizerError -- must always surface.
            if not self.daemon or isinstance(err, AssertionError):
                kernel._task_failures.append(self)
            return
        if type(cmd) is Sleep:
            kernel.post(cmd.duration, self._resume)
        elif type(cmd) is WaitEvent:
            self._wait(cmd)
        else:
            self._dispatch_slow(cmd)

    def _dispatch_slow(self, cmd: Any) -> None:
        # Subclasses of Sleep/WaitEvent still work; anything else errors.
        if isinstance(cmd, Sleep):
            self.kernel.post(cmd.duration, self._resume)
        elif isinstance(cmd, WaitEvent):
            self._wait(cmd)
        else:
            self._step(
                exc=SimulationError(
                    f"task {self.name!r} yielded unsupported command {cmd!r}; "
                    "kernel tasks may only yield Sleep or WaitEvent"
                )
            )

    def _wait(self, cmd: WaitEvent) -> None:
        event = cmd.event
        if event.is_set:
            if _RACE is not None:
                _RACE.note_event_join(event)
            # Resume on a fresh event-loop turn to keep scheduling fair
            # and re-entrancy-free.
            self.kernel.post(0.0, self._resume, event.payload)
            return
        waiter = _EventWaiter(self, event)
        event._add_waiter(waiter.wake)
        if cmd.timeout is not None:
            waiter.timer = self.kernel.schedule(cmd.timeout, waiter.on_timeout)

    def _finish(self, result: Any) -> None:
        self._finished = True
        self.result = result
        kernel = self.kernel
        kernel._live_tasks.discard(self)
        watch = kernel._watch
        if watch is not None:
            watch.discard(self)
        self.done_event.set(result)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else "running"
        return f"<Task {self.name!r} {state}>"


class SimKernel:
    """The discrete-event scheduler.

    Typical use::

        kernel = SimKernel()
        task = kernel.spawn(my_generator(), name="driver")
        kernel.run()
        assert task.finished
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._live_tasks: set[Task] = set()
        self._task_failures: list[Task] = []
        self._running = False
        #: Cancelled timers still sitting in the queue (compaction trigger).
        self._cancelled_count = 0
        #: Unfinished tasks the current ``run(until_tasks=...)`` watches;
        #: tasks remove themselves on finish, making completion detection
        #: O(1) per event instead of a scan over all targets.
        self._watch: Optional[set[Task]] = None
        #: Min-heap of ``(deadline, seq, obj, tag)``.  ``tag`` is
        #: ``_IS_TIMER`` (obj is a Timer), ``_NO_ARG`` (call ``obj()``)
        #: or the argument (call ``obj(tag)``).
        self._heap: list[tuple] = []

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # mochi-lint: hotpath
    def post(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` -- or ``fn(arg)`` -- after ``delay`` simulated
        seconds, with no cancellation handle.

        This is the fast path the task/ULT resume machinery uses: it
        allocates no :class:`Timer` and no closure, only the heap entry.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self._now + delay, seq, fn, arg))

    # mochi-lint: hotpath
    def schedule(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Run ``fn()`` -- or ``fn(arg)`` if ``arg`` is given -- after
        ``delay`` simulated seconds; return a cancellable handle."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self._schedule_timer(self._now + delay, fn, arg)

    def schedule_at(self, deadline: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Run ``fn()`` -- or ``fn(arg)`` if ``arg`` is given -- at the
        absolute simulated time ``deadline``; return a cancellable handle.

        Unlike :meth:`schedule`, the firing time does not depend on when
        the caller ran, which is what periodic samplers aligned to fixed
        window boundaries (``k * window``) need for deterministic,
        drift-free rollups.
        """
        if deadline < self._now:
            raise ValueError(
                f"deadline {deadline} is in the past (now={self._now})"
            )
        return self._schedule_timer(deadline, fn, arg)

    def _schedule_timer(self, deadline: float, fn: Callable[..., None], arg: Any) -> Timer:
        timer = Timer(deadline, fn, arg, self)
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (deadline, seq, timer, _IS_TIMER))
        return timer

    def event(self, name: str = "") -> SimEvent:
        """Create a :class:`SimEvent` bound to this kernel."""
        return SimEvent(self, name=name)

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
    # tasks
    # ------------------------------------------------------------------
    def spawn(self, gen: TaskGen, name: str = "task", daemon: bool = False) -> Task:
        """Start a new task from generator ``gen``.

        Non-daemon tasks that die with an exception make ``run()`` raise.
        Daemon tasks (infinite service loops) are allowed to be still
        running when the simulation ends.
        """
        if type(gen) is not GeneratorType and not isinstance(gen, Generator):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        task = Task(self, gen, name=name, daemon=daemon)
        self._live_tasks.add(task)
        # First step happens on the event loop, not synchronously, so that
        # spawn order does not leak into execution order mid-timestep.
        self.post(0.0, task._resume)
        return task

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        until_tasks: Optional[Iterable[Task]] = None,
        max_events: int = 50_000_000,
    ) -> None:
        """Process events until the queue drains, ``until`` is reached, or
        every task in ``until_tasks`` has finished.

        The clock never moves backwards: an ``until`` earlier than
        :attr:`now` fires nothing and leaves the clock where it is.

        Raises pending non-daemon task failures (the first one, with any
        others attached as ``__notes__``), and :class:`DeadlockError`
        when ``until_tasks`` can no longer make progress.
        """
        targets = list(until_tasks) if until_tasks is not None else None
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        self._running = True
        watch: Optional[set[Task]] = None
        if targets is not None:
            watch = {t for t in targets if not t._finished}
            self._watch = watch
        failures = self._task_failures
        try:
            if failures:
                self._raise_task_failures()
            if watch is not None and not watch:
                return
            if self._run_heap(until, watch, max_events, failures):
                return
            if failures:
                self._raise_task_failures()
            if watch:
                pending = [t.name for t in targets if not t._finished]
                raise DeadlockError(
                    f"event queue drained but tasks still pending: {pending}"
                )
            # The queue drained before ``until``: time still advances to
            # it (idle simulated time passes like any other).
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._watch = None
            if _RACE is not None:
                _RACE.note_run_end()

    def _run_heap(
        self,
        until: Optional[float],
        watch: Optional[set[Task]],
        max_events: int,
        failures: list[Task],
    ) -> bool:
        """The event loop; True means an early stop (``until`` reached
        or every watched task finished).

        One entry is popped per event, so an exception or an early stop
        leaves everything not yet fired in the heap for the next run().
        """
        heap = self._heap
        stop = float("inf") if until is None else until
        no_arg = _NO_ARG
        is_timer = _IS_TIMER
        # Only this loop moves the clock while it runs, so a local copy
        # stays exact.
        now = self._now
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
                    self._now = stop
                return True
            if deadline != now:
                if deadline < now:
                    raise SimulationError("event queue went backwards in time")
                self._now = now = deadline
            if tag is is_timer:
                # The timer has left the queue: a late cancel() must not
                # count toward the compaction trigger.
                obj._kernel = None
                arg = obj._arg
                if arg is no_arg:
                    obj._fn()
                else:
                    obj._fn(arg)
            elif tag is no_arg:
                obj()
            else:
                obj(tag)
            processed += 1
            if processed > max_events:
                # Checked per event: a zero-delay self-rescheduling
                # callback keeps the same deadline forever.
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a runaway loop"
                )
            if failures:
                self._raise_task_failures()
            if watch is not None and not watch:
                return True
        return False

    def _raise_task_failures(self) -> None:
        """Raise the oldest pending task failure.

        Any *other* failures pending at the same moment are not silently
        dropped: each is attached to the raised exception as a
        ``__notes__`` line and the failed tasks ride along in a
        ``pending_task_failures`` attribute for programmatic access.
        """
        failures = self._task_failures
        if not failures:
            return
        first = failures.pop(0)
        error = first.error
        assert error is not None
        if failures:
            rest, failures[:] = list(failures), []
            for task in rest:
                error.add_note(
                    f"[SimKernel] additional pending task failure in "
                    f"{task.name!r}: {type(task.error).__name__}: {task.error}"
                )
            error.pending_task_failures = rest  # type: ignore[attr-defined]
        raise error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimKernel t={self._now:.9f} queued={self.queued()}>"


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
