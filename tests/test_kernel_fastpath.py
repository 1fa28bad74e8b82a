"""Regression tests for the hot-path kernel optimizations (P0).

These pin the *semantics* that the perf work must not change:
cancelled-timer compaction is invisible (bit-identical event order with
and without it, and mass cancellation does not grow the queue without
bound), and the ``max_events`` guard fires inside a same-timestamp loop.
"""

import pytest

from repro.sim import SimKernel, SimulationError
from repro.sim import kernel as kernel_mod


@pytest.fixture
def kernel():
    """A fresh kernel."""
    return SimKernel()


# ----------------------------------------------------------------------
# Timer cancellation + compaction (satellite c)
# ----------------------------------------------------------------------
def _golden_workload(kernel):
    """A seeded mix of self-posting sleepers, a wait with a timeout,
    timers and mass cancellation, all started by a post at time 0."""
    log = []

    def sleeper(i):
        def step(n):
            if n:
                log.append((kernel.now, f"s{i}.{n - 1}"))
            if n < 3:
                kernel.post(0.5 * (i + 1), step, n + 1)

        return step

    def resume(value):
        log.append((kernel.now, f"wait:{value!r}"))

    def wait():
        timeout.append(kernel.schedule(2.0, time_out))

    def time_out():  # resumes on a fresh turn, like the wake below
        kernel.post(0.0, resume, "timed out")

    def wake():
        timeout[0].cancel()
        kernel.post(0.0, resume, "go")

    def canceller():
        timers = [
            kernel.schedule(5.0 + j, lambda: log.append((kernel.now, "never")))
            for j in range(200)
        ]
        kernel.post(0.25, cancel_all, timers)

    def cancel_all(timers):
        for timer in timers:
            timer.cancel()
        log.append((kernel.now, "cancelled"))

    timeout = []
    for i in range(3):
        kernel.post(0.0, sleeper(i), 0)
    kernel.post(0.0, wait)
    kernel.post(0.0, canceller)
    kernel.schedule(1.0, lambda: log.append((kernel.now, "tick1")))
    kernel.schedule(1.0, wake)
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
