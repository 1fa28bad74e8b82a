"""Unit tests for the discrete-event kernel and for driving ULTs on it."""

import pytest

from repro import Cluster
from repro.margo import Park, UltEvent, UltSleep
from repro.sim import DeadlockError, SimKernel


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


@pytest.mark.parametrize("method", ["post", "schedule"])
def test_nan_delay_rejected(method):
    kernel = SimKernel()
    with pytest.raises(ValueError, match="nan"):
        getattr(kernel, method)(float("nan"), lambda: None)
    assert kernel.queued() == 0


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


def test_halt_stops_after_the_current_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, lambda: (fired.append(1), kernel.halt()))
    kernel.schedule(1.0, lambda: fired.append(2))
    kernel.run()
    assert fired == [1] and kernel.now == 1.0 and kernel.queued() == 1
    kernel.run()
    assert fired == [1, 2]


# ----------------------------------------------------------------------
# driving ULTs: Cluster.run_ult / wait_ults
# ----------------------------------------------------------------------
def _rig():
    cluster = Cluster(seed=1)
    return cluster, cluster.add_margo("p", node="n0")


def _parks_on(event):
    yield Park(event, None)


def test_run_until_tasks():
    """``wait_ults`` returns when its ULTs finish, although perpetual
    background timers keep the queue from draining."""
    cluster, margo = _rig()

    def tick():
        if cluster.now < 1000.0:
            cluster.kernel.schedule(1.0, tick)

    cluster.kernel.schedule(1.0, tick)

    def short():
        yield UltSleep(2.5)
        return "done"

    assert cluster.wait_ults([cluster.spawn(margo, short())]) == ["done"]
    assert cluster.now == 2.5


def test_nested_yield_from():
    cluster, margo = _rig()

    def inner():
        yield UltSleep(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert cluster.run_ult(margo, outer()) == 20
    assert cluster.now == pytest.approx(2.0)


def test_deadlock_detection():
    """A ULT parked on an event nobody sets: the queue drains first, and
    both drivers name the ULT they were waiting for."""
    cluster, margo = _rig()
    never = UltEvent(cluster.kernel, name="never")
    with pytest.raises(DeadlockError, match=r"pending: \['ult-\d+'\]"):
        cluster.run_ult(margo, _parks_on(never))
    with pytest.raises(DeadlockError, match="'stuck'"):
        cluster.wait_ults([cluster.spawn(margo, _parks_on(never), name="stuck")])


def test_abandoned_wait_does_not_halt_a_later_run():
    cluster, margo = _rig()
    event = UltEvent(cluster.kernel, name="late")
    stuck = cluster.spawn(margo, _parks_on(event), name="stuck")
    with pytest.raises(DeadlockError):
        cluster.wait_ults([stuck])
    fired = []
    cluster.kernel.schedule(1.0, event.set)
    cluster.kernel.schedule(5.0, fired.append, "after")
    start = cluster.now
    cluster.run(until=start + 10.0)
    assert stuck.state.value == "done"
    assert fired == ["after"] and cluster.now == start + 10.0


def test_task_failure_propagates_from_run():
    """``wait_ults`` re-raises the first failed ULT's error, in list order."""
    cluster, margo = _rig()

    def fails(delay, message):
        yield UltSleep(delay)
        raise ValueError(message)

    ults = [cluster.spawn(margo, fails(2.0, "first")), cluster.spawn(margo, fails(1.0, "second"))]
    with pytest.raises(ValueError, match="first"):
        cluster.wait_ults(ults)
    with pytest.raises(ValueError, match="boom"):
        cluster.run_ult(margo, fails(1.0, "boom"))


def test_wait_ults_on_finished_ults_does_not_run_the_kernel():
    cluster, margo = _rig()

    def quick():
        yield UltSleep(1.0)
        return 7

    ult = cluster.spawn(margo, quick())
    cluster.wait_ults([ult])
    cluster.kernel.schedule(1.0, lambda: pytest.fail("the kernel ran"))
    seq, now = cluster.kernel._seq, cluster.now
    assert cluster.wait_ults([ult, ult]) == [7, 7]
    assert (cluster.kernel._seq, cluster.now) == (seq, now)
