"""User-level threads (ULTs) and their synchronization primitives.

Mirrors the Argobots model described in the paper (section 3.2): ULTs are
cooperative units of work that live in pools and are executed by
execution streams.  A ULT is a Python generator that yields *ULT
commands*:

* a float -- a :class:`Compute` or a bare one -- occupies the executing
  stream for that many simulated seconds (models actual CPU work; other
  ULTs on that stream wait);
* :class:`UltYield` -- cooperative yield back to the pool tail;
* :class:`UltSleep` -- release the stream and become ready again later;
* :class:`Park` -- block on a :class:`UltEvent` (with optional timeout);
* an ``RPCRequest`` -- Margo's ``forward`` waiting for that request's
  reply, which readies the ULT directly (as does its timeout).

Handlers and clients compose via plain ``yield from``.  ``Compute`` is a
float subclass; the other commands are slotted by hand and compare by
value.  A pool may also hold a *run-to-completion item* instead of a
ULT: see ``XStream._drive``.
"""

from __future__ import annotations

import enum
from collections.abc import Generator
from types import GeneratorType
from typing import Any, Callable, Optional

from ..analysis.race import hooks as _race
from ..sim.kernel import SimKernel

__all__ = [
    "Compute",
    "UltYield",
    "UltSleep",
    "Park",
    "ULT",
    "UltEvent",
    "UltMutex",
    "UltState",
    "TIMED_OUT",
]


class _Command:
    """Value semantics over ``__slots__`` for the ULT commands."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, self._fields()))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"


class Compute(float):
    """Occupy the executing stream for ``duration`` simulated seconds: a
    float whose value is the duration, so a stream charges it exactly as
    it charges a bare float."""

    __slots__ = ()

    def __new__(cls, duration: float) -> "Compute":
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        return float.__new__(cls, duration)

    @property
    def duration(self) -> float:
        return float(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(duration={float(self)!r})"


class UltYield(_Command):
    """Cooperatively yield: requeue at the tail of the ULT's pool."""

    __slots__ = ()


class UltSleep(_Command):
    """Block for ``duration`` simulated seconds without occupying a stream."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative sleep duration: {duration}")
        self.duration = duration


class Park(_Command):
    """Block until ``event`` is set (resumed with the payload), or until
    ``timeout`` simulated seconds pass (resumed with :data:`TIMED_OUT`)."""

    __slots__ = ("event", "timeout")

    def __init__(self, event: "UltEvent", timeout: Optional[float] = None) -> None:
        self.event = event
        self.timeout = timeout


class UltState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


# The members again as module constants, for the scheduling hot path: a
# load of one is a specialised global load, where ``UltState.READY`` is
# an unspecialised lookup on the enum class (~10x slower on CPython 3.11).
READY = UltState.READY
RUNNING = UltState.RUNNING
BLOCKED = UltState.BLOCKED
DONE = UltState.DONE


UltGen = Generator[Any, Any, Any]


class _TimedOut:
    """Resumption value of a :class:`Park` whose timeout fired first."""


TIMED_OUT = _TimedOut()


class _UltIds:
    """The process-wide ULT id sequence, ``last`` being the id handed out
    most recently.  It lives on an instance, not on :class:`ULT`: a store
    to a class attribute resets CPython's type version tag, which would
    throw away every specialised attribute access on ULT instances once
    per ULT (so once per RPC).  A slot rather than an ``itertools.count``:
    the schedule explorer rewinds it, and a store costs no call."""

    __slots__ = ("last",)

    def __init__(self) -> None:
        self.last = 0


#: Rewind ``ULT_IDS.last`` to replay a run with the same ``ult-N`` names.
ULT_IDS = _UltIds()


class ULT:
    """A schedulable user-level thread.

    Completion is observable via :attr:`done_event`; an unhandled
    exception is recorded in :attr:`error` (the Margo RPC layer converts
    handler errors into error responses before they reach this point).
    """

    __slots__ = (
        "gen",
        "_name",
        "pool",
        "state",
        "done_event",
        "on_finish",
        "result",
        "error",
        "rpc_context",
        "profile_enqueued_at",
        "_resume_value",
        "_resume_exc",
        "_park_token",
    )

    def __init__(
        self, gen: UltGen, name: str = "", pool: Any = None, rpc_context: Any = None
    ) -> None:
        if type(gen) is not GeneratorType and not isinstance(gen, Generator):
            raise TypeError(f"ULT body must be a generator, got {type(gen).__name__}")
        ids = ULT_IDS
        ids.last += 1
        self.gen = gen
        # A handler ULT (rpc_context given) is named on first use.
        self._name = name or (f"ult-{ids.last}" if rpc_context is None else "")
        self.pool = pool
        self.state = READY
        self.done_event: Optional[UltEvent] = None
        self.on_finish: list[Callable[["ULT"], None]] = []
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Context of the RPC this ULT is currently servicing, if any; used
        # by the monitoring layer to attribute nested RPCs to a parent.
        self.rpc_context: Any = rpc_context
        # Simulated time of the last pool push, stamped by the continuous
        # profiler (slots forbid ad-hoc attributes, hence a real slot).
        self.profile_enqueued_at: Optional[float] = None
        self._resume_value: Any = None
        self._resume_exc: Optional[BaseException] = None
        self._park_token = 0

    @property
    def name(self) -> str:
        if not self._name:
            request = self.rpc_context
            self._name = f"rpc:{request.rpc_name}:{request.seq}"
        return self._name

    def ready(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Make the ULT runnable again with the given resumption value."""
        if self.state is DONE:
            return
        self._resume_value = value
        self._resume_exc = exc
        self._park_token += 1  # invalidate any outstanding park wakeups
        if self.pool is None:
            raise RuntimeError(f"ULT {self.name} has no pool to return to")
        self.pool.push(self)

    def _timed_ready(self, token: int) -> None:
        """Timer target for ``UltSleep``: wake if the sleep is still current
        (scheduled as a bound method -- no closure per sleep)."""
        if self._park_token == token and self.state is BLOCKED:
            self.ready()

    def finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.state = DONE
        self.result = result
        self.error = error
        if self.done_event is not None:
            self.done_event.set(error if error is not None else result)
        for callback in self.on_finish:
            callback(self)
        if _race.ENABLED:
            _race.note_finish(self)


class UltEvent:
    """An event ULTs can :class:`Park` on.

    ``set(payload)`` readies every parked ULT.  Like Argobots eventuals,
    an event stays set until :meth:`clear`; parking on a set event
    resumes on the next scheduling turn.
    """

    __slots__ = ("kernel", "name", "_set", "_payload", "_parked")

    def __init__(self, kernel: SimKernel, name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._set = False
        self._payload: Any = None
        self._parked: list[tuple[ULT, int]] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, payload: Any = None) -> None:
        if self._set:
            return
        self._set = True
        self._payload = payload
        if _race.EVENT_EDGES:
            # Exact mode only: epoch mode needs no set-time publication
            # (woken waiters get the setter's clock through the push
            # this set performs; late joiners take the approximation
            # clock R in note_event_join).
            _race.note_event_set(self)
        parked, self._parked = self._parked, []
        for ult, token in parked:
            if ult._park_token == token and ult.state is BLOCKED:
                ult.ready(payload)

    def clear(self) -> None:
        self._set = False
        self._payload = None

    def _park(self, ult: ULT, timeout: Optional[float]) -> None:
        """Called by the executing stream to park ``ult`` here."""
        if self._set:
            if _race.ENABLED:
                _race.note_event_join(self)
            # Resume on a fresh turn for fairness (matches kernel events).
            self.kernel.post(0.0, ult.ready, self._payload)
            return
        ult.state = BLOCKED
        token = ult._park_token
        self._parked.append((ult, token))
        if timeout is not None:
            # No handle kept: the park token makes a stale fire a no-op,
            # so the no-Timer post() path is safe here.
            self.kernel.post(timeout, _ParkTimeout(self, ult, token))

    def wait(self, timeout: Optional[float] = None) -> UltGen:
        """``yield from event.wait()`` from ULT code."""
        if getattr(self.kernel, "xray_plane", None) is not None:
            # mochi-xray: a park inside a sampled handler is a causal
            # edge on that request's critical path.  The edge list's
            # existence is the gate (only sampled requests carry one),
            # so unsampled parks pay two attribute reads at most.
            ult = current_ult()
            context = ult.rpc_context if ult is not None else None
            edges = (
                getattr(context, "_xray_edges", None)
                if context is not None
                else None
            )
            if edges is not None:
                parked_at = self.kernel.now
                value = yield Park(self, timeout)
                edges.append(("park", self.name, self.kernel.now - parked_at))
                return value
        value = yield Park(self, timeout)
        return value


class _ParkTimeout:
    """Slotted timeout callback for :meth:`UltEvent._park` (no closure
    per timed park)."""

    __slots__ = ("event", "ult", "token")

    def __init__(self, event: UltEvent, ult: ULT, token: int) -> None:
        self.event = event
        self.ult = ult
        self.token = token

    def __call__(self) -> None:
        ult = self.ult
        if ult._park_token == self.token and ult.state is BLOCKED:
            try:
                self.event._parked.remove((ult, self.token))
            except ValueError:
                pass
            ult.ready(TIMED_OUT)


class UltMutex:
    """A FIFO mutex for ULTs (used by Bedrock's reconfiguration paths)."""

    def __init__(self, kernel: SimKernel, name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._locked = False
        self._waiters: list[UltEvent] = []

    def acquire(self) -> UltGen:
        """``yield from mutex.acquire()``."""
        if self._locked:
            # Contended path only (the uncontended fast path is one
            # boolean check, unchanged): when the waiter services a
            # sampled request, record the full wait -- including the
            # requeue after the gate fires -- as a mochi-xray lock edge.
            waiter = current_ult()
            context = waiter.rpc_context if waiter is not None else None
            edges = (
                getattr(context, "_xray_edges", None)
                if context is not None
                else None
            )
            waited_from = self.kernel.now if edges is not None else None
            while self._locked:
                gate = UltEvent(self.kernel, name=f"mutex:{self.name}")
                self._waiters.append(gate)
                yield Park(gate, None)
            if waited_from is not None:
                edges.append(("lock", self.name, self.kernel.now - waited_from))
        self._locked = True
        if _race.ENABLED:
            _race.note_acquire(current_ult(), self)
        return None

    def release(self) -> None:
        if not self._locked:
            raise RuntimeError(f"mutex {self.name!r} released while unlocked")
        self._locked = False
        if _race.ENABLED:
            _race.note_release(current_ult(), self)
        if self._waiters:
            self._waiters.pop(0).set()


# ----------------------------------------------------------------------
# Current-ULT tracking.  The kernel is single-threaded and cooperative,
# so a single module-level slot (stored by the executing XStream around
# each generator step) suffices.  It lets the RPC layer attribute nested
# RPCs to the handler ULT that issued them (paper Listing 1:
# parent_rpc_id / parent_provider_id).
# ----------------------------------------------------------------------
_CURRENT: Optional[ULT] = None


def current_ult() -> Optional[ULT]:
    """The ULT currently executing user code, or None outside ULT context."""
    return _CURRENT
