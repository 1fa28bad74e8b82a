"""Regression tests for the hot-path kernel optimizations (P0).

These pin the *semantics* that the perf work must not change:

* WaitEvent timeout and wake both resume the task on a fresh
  event-loop turn (symmetric scheduling, deterministic ordering);
* ``SimKernel.run`` reports every pending task failure, not just the
  first;
* cancelled-timer compaction is invisible: bit-identical event
  order with and without it, and mass cancellation does not grow the
  queue without bound.
"""

import pytest

from repro.sim import SimKernel, SimulationError, Sleep, Task, WaitEvent
from repro.sim import kernel as kernel_mod


@pytest.fixture(params=["wheel"])
def kernel(request):
    """A fresh kernel (one id, so these tests keep the names they had
    beside their retired heap-backend twins)."""
    return SimKernel()


# ----------------------------------------------------------------------
# WaitEvent timeout/wake symmetry (satellite a)
# ----------------------------------------------------------------------
def test_wait_event_timeout_resumes_on_fresh_turn(kernel):
    """A timed-out waiter resumes *after* other callbacks at the same
    deadline, exactly like an event wake would -- not synchronously
    inside the timeout timer's fire."""
    evt = kernel.event()
    order = []

    def waiter():
        yield WaitEvent(evt, timeout=1.0)
        order.append("resumed")

    kernel.spawn(waiter())
    kernel.run(until=0.0)  # let the wait register its timeout timer
    # This timer lands at the same deadline but with a *later* seq than
    # the timeout timer.  If the timeout resumed synchronously the task
    # would run first; the symmetric fix defers it to a fresh turn.
    kernel.schedule(1.0, lambda: order.append("tick"))
    kernel.run()
    assert order == ["tick", "resumed"]


def test_wait_event_wake_resumes_on_fresh_turn(kernel):
    """Mirror of the timeout case: an event wake also defers."""
    evt = kernel.event()
    order = []

    def waiter():
        value = yield WaitEvent(evt, timeout=10.0)
        order.append(("resumed", value))

    kernel.spawn(waiter())
    kernel.run(until=0.0)

    def setter():
        evt.set("go")
        order.append(("set",))

    kernel.schedule(1.0, setter)
    kernel.schedule(1.0, lambda: order.append(("tick",)))
    kernel.run()
    assert order == [("set",), ("tick",), ("resumed", "go")]


def test_wait_event_timeout_removes_waiter(kernel):
    """After a timeout the waiter is deregistered: a later set() must
    not step the task a second time."""
    evt = kernel.event()
    resumes = []

    def waiter():
        value = yield WaitEvent(evt, timeout=1.0)
        resumes.append(value)
        yield Sleep(5.0)

    kernel.spawn(waiter(), daemon=True)
    kernel.schedule(2.0, lambda: evt.set("late"))
    kernel.run()
    assert resumes == [kernel_mod.TIMED_OUT]
    assert evt._waiters == []


# ----------------------------------------------------------------------
# All pending task failures are reported (satellite b)
# ----------------------------------------------------------------------
def test_run_reports_all_pending_task_failures(kernel):

    def boom(msg):
        raise ValueError(msg)
        yield  # pragma: no cover - makes this a generator

    t1 = Task(kernel, boom("first"), "t1", False)
    t2 = Task(kernel, boom("second"), "t2", False)
    # Step both outside run() so two failures are pending at once.
    t1._step()
    t2._step()
    with pytest.raises(ValueError, match="first") as info:
        kernel.run()
    error = info.value
    assert any("second" in note for note in error.__notes__)
    assert [t.name for t in error.pending_task_failures] == ["t2"]
    # The queue was drained: a later run does not re-raise stale errors.
    kernel.run()


def test_single_task_failure_has_no_notes(kernel):

    def bad():
        yield Sleep(1.0)
        raise ValueError("boom")

    kernel.spawn(bad())
    with pytest.raises(ValueError, match="boom") as info:
        kernel.run()
    assert not getattr(info.value, "pending_task_failures", None)


# ----------------------------------------------------------------------
# Timer cancellation + compaction (satellite c)
# ----------------------------------------------------------------------
def _golden_workload(kernel):
    """A seeded mix of sleeps, waits, timers and mass cancellation."""
    log = []
    evt = kernel.event()

    def sleeper(i):
        for n in range(3):
            yield Sleep(0.5 * (i + 1))
            log.append((kernel.now, f"s{i}.{n}"))

    def waiter():
        value = yield WaitEvent(evt, timeout=2.0)
        log.append((kernel.now, f"wait:{value!r}"))

    def canceller():
        timers = [
            kernel.schedule(5.0 + j, lambda: log.append((kernel.now, "never")))
            for j in range(200)
        ]
        yield Sleep(0.25)
        for timer in timers:
            timer.cancel()
        log.append((kernel.now, "cancelled"))

    for i in range(3):
        kernel.spawn(sleeper(i), name=f"s{i}")
    kernel.spawn(waiter(), name="w")
    kernel.spawn(canceller(), name="c")
    kernel.schedule(1.0, lambda: log.append((kernel.now, "tick1")))
    kernel.schedule(1.0, lambda: evt.set("go"))
    kernel.run()
    return kernel, log


GOLDEN_TRACE = [
    (0.25, "cancelled"),
    (0.5, "s0.0"),
    (1.0, "tick1"),
    (1.0, "s1.0"),
    (1.0, "s0.1"),
    (1.0, "wait:'go'"),
    (1.5, "s2.0"),
    (1.5, "s0.2"),
    (2.0, "s1.1"),
    (3.0, "s2.1"),
    (3.0, "s1.2"),
    (4.5, "s2.2"),
]


def test_golden_trace_event_order_pinned(kernel):
    _, log = _golden_workload(kernel)
    assert log == GOLDEN_TRACE


def test_golden_trace_identical_with_and_without_compaction(monkeypatch, kernel):
    """Compaction must be bit-invisible: the same workload produces the
    same event order whether the cancelled-timer sweep runs or not."""
    monkeypatch.setattr(kernel_mod, "_COMPACT_MIN_CANCELLED", 1)
    kernel_on, log_compacting = _golden_workload(kernel)
    monkeypatch.setattr(kernel_mod, "_COMPACT_MIN_CANCELLED", 10**9)
    kernel_off, log_plain = _golden_workload(SimKernel())
    assert log_compacting == log_plain == GOLDEN_TRACE
    # The low threshold really did trigger sweeps, the high one didn't.
    assert kernel_on._seq == kernel_off._seq


def test_mass_cancelled_timers_do_not_grow_queue_unboundedly(kernel):
    n = 10_000
    timers = [kernel.schedule(100.0 + i, lambda: None) for i in range(n)]
    assert kernel.queued() == n
    for timer in timers:
        timer.cancel()
    # Compaction sweeps as cancellations accumulate; only a residue
    # below the sweep threshold may remain.
    assert kernel.queued() < 2 * kernel_mod._COMPACT_MIN_CANCELLED
    kernel.run()
    assert kernel.now == 0.0  # nothing ever fired


def test_max_events_catches_same_timestamp_runaway(kernel):
    """A zero-delay self-rescheduling callback pins the batch loop to
    one deadline forever; the ``max_events`` guard must fire from
    *inside* that loop (regression: the check once ran only after the
    batch drained, so this workload hung instead of raising)."""

    def reschedule():
        kernel.schedule(0.0, reschedule)

    kernel.schedule(0.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        kernel.run(max_events=1_000)


def test_cancel_after_fire_does_not_count_toward_compaction(kernel):
    """Cancelling an already-fired timer is a no-op for the compaction
    trigger: the entry has left the queue, so counting it would only
    cause needless sweeps."""
    timers = [kernel.schedule(0.1, lambda: None) for _ in range(10)]
    kernel.run()
    for timer in timers:
        timer.cancel()
        assert timer.cancelled
    assert kernel._cancelled_count == 0


def test_compaction_preserves_live_timers(kernel):
    fired = []
    live = [kernel.schedule(1.0 + i * 0.001, lambda i=i: fired.append(i)) for i in range(50)]
    dead = [kernel.schedule(50.0, lambda: fired.append("dead")) for _ in range(500)]
    for timer in dead:
        timer.cancel()
    assert kernel.queued() < 550  # a sweep happened
    kernel.run()
    assert fired == list(range(50))
    assert live[0].deadline == 1.0
