"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    TIMED_OUT,
    DeadlockError,
    SimKernel,
    SimulationError,
    Sleep,
    WaitEvent,
)


def test_time_starts_at_zero():
    assert SimKernel().now == 0.0


def test_schedule_orders_by_deadline():
    kernel = SimKernel()
    order = []
    kernel.schedule(2.0, lambda: order.append("b"))
    kernel.schedule(1.0, lambda: order.append("a"))
    kernel.schedule(3.0, lambda: order.append("c"))
    kernel.run()
    assert order == ["a", "b", "c"]
    assert kernel.now == 3.0


def test_schedule_ties_break_fifo():
    kernel = SimKernel()
    order = []
    for i in range(10):
        kernel.schedule(1.0, lambda i=i: order.append(i))
    kernel.run()
    assert order == list(range(10))


def test_timer_cancel():
    kernel = SimKernel()
    fired = []
    timer = kernel.schedule(1.0, lambda: fired.append(1))
    timer.cancel()
    kernel.run()
    assert fired == []


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        SimKernel().schedule(-1.0, lambda: None)


def test_task_sleep_advances_time():
    kernel = SimKernel()

    def main():
        yield Sleep(1.5)
        yield Sleep(2.5)
        return kernel.now

    task = kernel.spawn(main())
    kernel.run()
    assert task.finished
    assert task.result == pytest.approx(4.0)


def test_task_wait_event_gets_payload():
    kernel = SimKernel()
    evt = kernel.event("data")

    def producer():
        yield Sleep(1.0)
        evt.set("hello")

    def consumer():
        value = yield WaitEvent(evt)
        return value

    kernel.spawn(producer())
    task = kernel.spawn(consumer())
    kernel.run()
    assert task.result == "hello"


def test_wait_on_already_set_event_resumes_immediately():
    kernel = SimKernel()
    evt = kernel.event()
    evt.set(42)

    def consumer():
        value = yield WaitEvent(evt)
        return value

    task = kernel.spawn(consumer())
    kernel.run()
    assert task.result == 42
    assert kernel.now == 0.0


def test_wait_event_timeout():
    kernel = SimKernel()
    evt = kernel.event()

    def consumer():
        value = yield WaitEvent(evt, timeout=2.0)
        return value

    task = kernel.spawn(consumer())
    kernel.run()
    assert task.result is TIMED_OUT
    assert kernel.now == pytest.approx(2.0)


def test_wait_event_timeout_not_fired_when_event_set_first():
    kernel = SimKernel()
    evt = kernel.event()
    kernel.schedule(0.5, lambda: evt.set("ok"))

    def consumer():
        value = yield WaitEvent(evt, timeout=2.0)
        return value

    task = kernel.spawn(consumer())
    kernel.run()
    assert task.result == "ok"


def test_event_set_wakes_all_waiters():
    kernel = SimKernel()
    evt = kernel.event()
    results = []

    def consumer(i):
        value = yield WaitEvent(evt)
        results.append((i, value))

    for i in range(3):
        kernel.spawn(consumer(i))
    kernel.schedule(1.0, lambda: evt.set("x"))
    kernel.run()
    assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]


def test_event_clear_and_reuse():
    kernel = SimKernel()
    evt = kernel.event()
    seen = []

    def consumer():
        value = yield WaitEvent(evt)
        seen.append(value)
        evt.clear()
        value = yield WaitEvent(evt)
        seen.append(value)

    kernel.spawn(consumer())
    kernel.schedule(1.0, lambda: evt.set("first"))
    kernel.schedule(2.0, lambda: evt.set("second"))
    kernel.run()
    assert seen == ["first", "second"]


def test_task_failure_propagates_from_run():
    kernel = SimKernel()

    def bad():
        yield Sleep(1.0)
        raise ValueError("boom")

    kernel.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        kernel.run()


def test_daemon_task_failure_is_swallowed():
    kernel = SimKernel()

    def bad():
        yield Sleep(1.0)
        raise ValueError("boom")

    kernel.spawn(bad(), daemon=True)
    kernel.run()  # does not raise


def test_run_until_time():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, lambda: fired.append(1))
    kernel.schedule(10.0, lambda: fired.append(2))
    kernel.run(until=5.0)
    assert fired == [1]
    assert kernel.now == 5.0
    kernel.run()
    assert fired == [1, 2]


def test_run_until_tasks():
    kernel = SimKernel()

    def short():
        yield Sleep(1.0)
        return "done"

    def forever():
        while True:
            yield Sleep(1.0)

    kernel.spawn(forever(), daemon=True)
    task = kernel.spawn(short())
    kernel.run(until_tasks=[task], max_events=10_000)
    assert task.result == "done"


def test_deadlock_detection():
    kernel = SimKernel()
    evt = kernel.event()

    def stuck():
        yield WaitEvent(evt)

    task = kernel.spawn(stuck())
    with pytest.raises(DeadlockError):
        kernel.run(until_tasks=[task])


def test_unsupported_yield_raises_into_task():
    kernel = SimKernel()

    def bad():
        yield "nonsense"

    kernel.spawn(bad())
    with pytest.raises(SimulationError, match="unsupported command"):
        kernel.run()


def test_spawn_requires_generator():
    with pytest.raises(TypeError):
        SimKernel().spawn(lambda: None)  # type: ignore[arg-type]


def test_spawn_accepts_a_generator_by_protocol():
    from collections.abc import Generator

    class Once(Generator):
        woke = False

        def send(self, value):
            if self.woke:
                raise StopIteration("done")
            self.woke = True
            return Sleep(2.0)

        def throw(self, typ=None, val=None, tb=None):
            raise typ

    kernel = SimKernel()
    task = kernel.spawn(Once())
    kernel.run()
    assert task.result == "done" and kernel.now == 2.0


def test_nested_yield_from():
    kernel = SimKernel()

    def inner():
        yield Sleep(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    task = kernel.spawn(outer())
    kernel.run()
    assert task.result == 20
    assert kernel.now == pytest.approx(2.0)
