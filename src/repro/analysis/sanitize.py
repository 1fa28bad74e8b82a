"""Runtime sanitizer: dynamic enforcement of the invariants the AST
cannot prove (``REPRO_SANITIZE=1``).

The static pass (:mod:`repro.analysis.rules`) sees only syntax; whether
a ULT *actually* suspends while holding a mutex, or an RPC handler ULT
*actually* dies without sending its response, depends on runtime data
flow.  This module is the dynamic half of the same contract, and it
reports under the same rule ids:

* ``MCH011`` -- a ULT gave up its execution stream (Park / UltSleep)
  while holding a :class:`~repro.margo.ult.UltMutex`, or finished with
  the mutex still held;
* ``MCH012`` -- a dispatched RPC handler ULT finished without a response
  ever hitting the wire, or a healthy process finalized with handler
  ULTs still pending;
* ``MCH070`` -- respond exactly once: a handler called
  ``context.respond()`` twice, or raised / returned a value after its
  explicit reply had already hit the wire (the caller never sees
  either).  This is the runtime half of the static mochi-flow rule,
  the same static/runtime split MCH011 and MCH012 already have.

The hooks in ``ult.py`` / ``xstream.py`` / ``runtime.py`` are guarded by
the module attribute :data:`ENABLED`, so the disabled cost is one
attribute load per blocking yield.  Enable via the environment
(``REPRO_SANITIZE=1`` before the first import) or programmatically with
:func:`enable`; ``strict`` mode raises :class:`SanitizerError` at the
violation point, record mode accumulates :data:`violations` for
inspection (and for the diagnostics report).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..margo.ult import ULT, UltMutex

__all__ = [
    "SanitizerError",
    "enable",
    "disable",
    "reset",
    "enabled",
    "violations",
    "ENABLED",
]

RULE_LOCK_ACROSS_YIELD = "MCH011"
RULE_DROPPED_HANDLE = "MCH012"
RULE_RESPOND = "MCH070"


class SanitizerError(AssertionError):
    """A determinism / cooperative-scheduling invariant was violated."""

    def __init__(self, finding: Finding) -> None:
        super().__init__(finding.format())
        self.finding = finding


#: Fast-path gate read by the margo runtime hooks.  ``REPRO_SANITIZE=race``
#: also counts: the race layer (:mod:`repro.analysis.race.hooks`) reads
#: the same variable and enables itself, while the classic sanitizer runs
#: in record (non-strict) mode so race findings are not preempted by a
#: raising MCH011/MCH012.
_env = os.environ.get("REPRO_SANITIZE", "").strip().lower()
ENABLED: bool = _env in ("1", "true", "yes", "race")

_strict: bool = _env != "race"

#: Violations recorded in non-strict mode (and, in strict mode, the one
#: violation that raised).
violations: list[Finding] = []

#: id(ult) -> list of held mutexes (insertion order).
_held: dict[int, list["UltMutex"]] = {}

#: (id(margo), seq) -> rpc name, for dispatched-but-unresponded handlers.
_pending_handles: dict[tuple[int, int], str] = {}

#: (id(margo), seq) handles answered via an explicit ``respond()`` call.
_responded_handles: set[tuple[int, int]] = set()


def enable(strict: bool = True) -> None:
    """Turn the sanitizer on (``strict``: raise at the violation point)."""
    global ENABLED, _strict
    ENABLED = True
    _strict = strict


def disable() -> None:
    global ENABLED
    ENABLED = False
    reset()


def enabled() -> bool:
    return ENABLED


def reset() -> None:
    """Drop all recorded state (between tests / simulation runs)."""
    violations.clear()
    _held.clear()
    _pending_handles.clear()
    _responded_handles.clear()


def _make_finding(rule_id: str, message: str, context: str = "") -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=context or "<runtime>",
        line=0,
        message=message,
        source="runtime",
    )


def _report(rule_id: str, message: str, context: str = "") -> None:
    finding = _make_finding(rule_id, message, context)
    violations.append(finding)
    if _strict:
        raise SanitizerError(finding)


def _report_at_finish(ult: Any, rule_id: str, message: str, context: str) -> None:
    """Report a violation detected in a ULT's ``on_finish`` hook.

    There is no live generator to throw into, and raising here would
    propagate through ``ULT.finish`` into the xstream's scheduling loop,
    killing the stream (and every other ULT it serves).  Instead, strict
    mode attaches the error to the finished ULT, where ``run_ult`` /
    ``wait_ults`` re-raise it -- unless the ULT already died of a primary
    error (e.g. the suspend-while-holding raise that caused this state).
    """
    finding = _make_finding(rule_id, message, context)
    violations.append(finding)
    if _strict and getattr(ult, "error", None) is None:
        ult.error = SanitizerError(finding)


# ----------------------------------------------------------------------
# MCH011: lock held across a yield
# ----------------------------------------------------------------------
def note_acquire(ult: Any, mutex: "UltMutex") -> None:
    """Called by ``UltMutex.acquire`` once the lock is taken."""
    if ult is None:
        return
    key = id(ult)
    held = _held.get(key)
    if held is None:
        held = _held[key] = []
        ult.on_finish.append(_ult_finished_holding)
    held.append(mutex)


def note_release(ult: Any, mutex: "UltMutex") -> None:
    """Called by ``UltMutex.release``; tolerates cross-ULT releases."""
    if ult is not None:
        held = _held.get(id(ult))
        if held is not None and mutex in held:
            held.remove(mutex)
            return
    # Released from outside the owning ULT (or non-ULT context): find it.
    for held in _held.values():
        if mutex in held:
            held.remove(mutex)
            return


def check_blocking_yield(ult: "ULT", cmd: Any) -> None:
    """Called by ``XStream._drive`` when ``ult`` gives up the stream."""
    held = _held.get(id(ult))
    if held:
        names = [m.name or "<unnamed>" for m in held]
        _report(
            RULE_LOCK_ACROSS_YIELD,
            f"ULT {ult.name!r} suspended ({type(cmd).__name__}) while "
            f"holding mutex(es) {names}; release before parking or sleeping",
            context=f"ult:{ult.name}",
        )


def _ult_finished_holding(ult: "ULT") -> None:
    held = _held.pop(id(ult), None)
    if held:
        names = [m.name or "<unnamed>" for m in held]
        _report_at_finish(
            ult,
            RULE_LOCK_ACROSS_YIELD,
            f"ULT {ult.name!r} finished while still holding mutex(es) "
            f"{names}; every waiter is now deadlocked",
            context=f"ult:{ult.name}",
        )


# ----------------------------------------------------------------------
# MCH070: respond exactly once (runtime half of the mochi-flow rule)
# ----------------------------------------------------------------------
def note_explicit_respond(margo: Any, request: Any, already: bool) -> None:
    """Called by ``RequestContext.respond`` at its send point.

    ``already`` is the context's own responded flag; the handle set
    catches the same double-reply when a handler builds two contexts
    for one request.
    """
    key = (id(margo), request.seq)
    if already or key in _responded_handles:
        _report(
            RULE_RESPOND,
            f"handler for RPC {request.rpc_name!r} (seq {request.seq}) "
            "called respond() twice; each request must be answered "
            "exactly once",
            context=f"margo:{margo.process.name}",
        )
        return
    _responded_handles.add(key)


def note_post_respond(
    margo: Any, request: Any, ok: bool, value: Any, error_message: Any
) -> None:
    """Called by ``_handler_body`` when a handler that already replied
    via ``respond()`` went on to raise or return a value -- neither can
    reach the caller, so silence here would hide real failures."""
    key = (id(margo), request.seq)
    _responded_handles.discard(key)
    if not ok:
        _report(
            RULE_RESPOND,
            f"handler for RPC {request.rpc_name!r} (seq {request.seq}) "
            f"raised after respond() ({error_message}); the caller "
            "already got a success reply and never sees this error",
            context=f"margo:{margo.process.name}",
        )
    elif value is not None:
        _report(
            RULE_RESPOND,
            f"handler for RPC {request.rpc_name!r} (seq {request.seq}) "
            "returned a value after respond(); the value is silently "
            "dropped -- pass it to respond() instead",
            context=f"margo:{margo.process.name}",
        )


# ----------------------------------------------------------------------
# MCH012: handler dropped its handle
# ----------------------------------------------------------------------
def note_handler_dispatched(margo: Any, request: Any, ult: "ULT") -> None:
    """Called by ``MargoInstance._dispatch_request`` after the push."""
    key = (id(margo), request.seq)
    _pending_handles[key] = request.rpc_name
    ult.on_finish.append(_HandlerFinished(margo, request.seq))


def note_handler_responded(margo: Any, seq: int) -> None:
    """Called by ``MargoInstance._handler_body`` once the response is sent."""
    _pending_handles.pop((id(margo), seq), None)


class _HandlerFinished:
    """on_finish probe: the handler ULT ended -- did it ever respond?"""

    __slots__ = ("margo", "seq")

    def __init__(self, margo: Any, seq: int) -> None:
        self.margo = margo
        self.seq = seq

    def __call__(self, ult: "ULT") -> None:
        _responded_handles.discard((id(self.margo), self.seq))
        name = _pending_handles.pop((id(self.margo), self.seq), None)
        if name is not None:
            _report_at_finish(
                ult,
                RULE_DROPPED_HANDLE,
                f"handler ULT {ult.name!r} for RPC {name!r} finished without "
                "responding; the caller is left waiting for its timeout",
                context=f"margo:{self.margo.process.name}",
            )


def check_margo_shutdown(margo: Any) -> None:
    """Called by ``MargoInstance.shutdown``.

    A *healthy* process must not finalize with dispatched handlers still
    pending.  Processes that were killed (fault injection) are exempt:
    dropping in-flight handles is exactly what a crash does.
    """
    mid = id(margo)
    for key in [k for k in _responded_handles if k[0] == mid]:
        _responded_handles.discard(key)
    if not margo.process.alive:
        for key in [k for k in _pending_handles if k[0] == mid]:
            del _pending_handles[key]
        return
    stuck = sorted(
        (seq, name) for (owner, seq), name in _pending_handles.items() if owner == mid
    )
    for seq, name in stuck:
        del _pending_handles[(mid, seq)]
        _report(
            RULE_DROPPED_HANDLE,
            f"margo instance finalized with handler for RPC {name!r} "
            f"(seq {seq}) still pending; it never responded",
            context=f"margo:{margo.process.name}",
        )
