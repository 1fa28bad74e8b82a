"""Unit tests for ULTs, pools, and execution streams."""

import pytest

from repro.margo.errors import ConfigError
from repro.margo.pool import Pool
from repro.margo.ult import (
    Compute,
    Park,
    ULT,
    UltEvent,
    UltMutex,
    UltSleep,
    UltState,
    UltYield,
    TIMED_OUT,
)
from repro.margo.xstream import XStream
from repro.sim import SimKernel


def make_rig(n_pools=1, n_xstreams=1):
    kernel = SimKernel()
    pools = [Pool(f"pool{i}") for i in range(n_pools)]
    xstreams = []
    for i in range(n_xstreams):
        xs = XStream(kernel, f"es{i}", list(pools))
        xs.start()
        xstreams.append(xs)
    return kernel, pools, xstreams


def run_ults(kernel, pool, *gens):
    ults = [ULT(g, name=f"u{i}") for i, g in enumerate(gens)]
    for ult in ults:
        pool.push(ult)
    kernel.run()
    for ult in ults:
        if ult.error:
            raise ult.error
    return [u.result for u in ults]


def test_pool_validation():
    with pytest.raises(ConfigError):
        Pool("")
    with pytest.raises(ConfigError):
        Pool("p", kind="bogus")
    with pytest.raises(ConfigError):
        Pool("p", access="bogus")
    with pytest.raises(ConfigError):
        Pool.from_json({"name": "p", "extra": 1})
    pool = Pool.from_json({"name": "p", "type": "fifo", "access": "mpmc"})
    assert pool.to_json() == {"name": "p", "type": "fifo", "access": "mpmc"}


def test_commands_compare_by_value():
    """The four commands are slotted by hand (several per RPC) and still
    compare, hash and print by value."""
    assert Compute(1e-6) == Compute(1e-6) and hash(Compute(1e-6)) == hash(Compute(1e-6))
    assert Compute(1e-6) != Compute(2e-6) and Compute(1e-6) != UltSleep(1e-6)
    assert UltSleep(1e-6) == UltSleep(1e-6) and UltYield() == UltYield()
    assert hash(UltSleep(1e-6)) == hash(UltSleep(1e-6)) and hash(UltYield()) == hash(UltYield())
    event = UltEvent(SimKernel(), "e")
    assert Park(event) == Park(event, None) != Park(event, 1.0)
    assert repr(Compute(0.5)) == "Compute(duration=0.5)"
    assert repr(UltSleep(0.5)) == "UltSleep(duration=0.5)" and repr(UltYield()) == "UltYield()"
    for command in (Compute, UltSleep):
        with pytest.raises(ValueError):
            command(-1.0)


def test_event_named_after_a_request_formats_the_name_on_first_use():
    class Request:
        rpc_name, seq = "echo", 7

    kernel = SimKernel()
    assert UltEvent(kernel).name == "" and UltEvent(kernel, "gate").name == "gate"
    event = UltEvent(kernel, Request)
    assert event._name is Request
    assert event.name == "rpc:echo:7" and event._name == "rpc:echo:7"


def test_ult_requires_generator():
    with pytest.raises(TypeError):
        ULT(lambda: None)  # type: ignore[arg-type]


def test_ult_compute_advances_time_and_busies_stream():
    kernel, (pool,), (xs,) = make_rig()

    def work():
        yield Compute(1.0)
        return kernel.now

    (result,) = run_ults(kernel, pool, work())
    assert result >= 1.0
    assert xs.busy_time == pytest.approx(1.0)


def test_two_ults_one_stream_serialize_compute():
    kernel, (pool,), _ = make_rig(n_xstreams=1)
    finish_times = []

    def work(i):
        yield Compute(1.0)
        finish_times.append((i, kernel.now))

    run_ults(kernel, pool, work(0), work(1))
    # Single stream: second ULT cannot start computing until first yields.
    assert finish_times[1][1] >= 2.0


def test_two_ults_two_streams_run_in_parallel():
    kernel, (pool,), _ = make_rig(n_xstreams=2)
    finish_times = []

    def work(i):
        yield Compute(1.0)
        finish_times.append((i, kernel.now))

    run_ults(kernel, pool, work(0), work(1))
    assert max(t for _, t in finish_times) < 1.5  # ran concurrently


def test_ult_yield_interleaves():
    kernel, (pool,), _ = make_rig(n_xstreams=1)
    trace = []

    def work(tag):
        for _ in range(3):
            trace.append(tag)
            yield UltYield()

    run_ults(kernel, pool, work("a"), work("b"))
    assert trace == ["a", "b", "a", "b", "a", "b"]


def test_ult_sleep_releases_stream():
    kernel, (pool,), (xs,) = make_rig()
    trace = []

    def sleeper():
        yield UltSleep(10.0)
        trace.append(("sleeper", kernel.now))

    def worker():
        yield Compute(1.0)
        trace.append(("worker", kernel.now))

    run_ults(kernel, pool, sleeper(), worker())
    # worker completed during sleeper's sleep -> sleep released the stream
    assert trace[0][0] == "worker"
    assert trace[0][1] < 2.0


def test_park_and_set_event():
    kernel, (pool,), _ = make_rig()
    evt = UltEvent(kernel)

    def waiter():
        value = yield Park(evt, None)
        return value

    def setter():
        yield Compute(1.0)
        evt.set("payload")

    results = run_ults(kernel, pool, waiter(), setter())
    assert results[0] == "payload"


def test_park_timeout():
    kernel, (pool,), _ = make_rig()
    evt = UltEvent(kernel)

    def waiter():
        value = yield Park(evt, 2.0)
        return value

    (result, ) = run_ults(kernel, pool, waiter())
    assert result is TIMED_OUT


def test_park_on_set_event_resumes():
    kernel, (pool,), _ = make_rig()
    evt = UltEvent(kernel)
    evt.set(7)

    def waiter():
        value = yield Park(evt, None)
        return value

    (result,) = run_ults(kernel, pool, waiter())
    assert result == 7


def test_stale_timeout_does_not_disturb_later_parks():
    kernel, (pool,), _ = make_rig()
    evt1 = UltEvent(kernel)
    evt2 = UltEvent(kernel)
    kernel.schedule(0.5, lambda: evt1.set("first"))
    kernel.schedule(5.0, lambda: evt2.set("second"))

    def waiter():
        a = yield Park(evt1, 10.0)  # resolves at 0.5; timeout at 10 must not misfire
        b = yield Park(evt2, None)  # parked when the stale timer fires
        return (a, b)

    (result,) = run_ults(kernel, pool, waiter())
    assert result == ("first", "second")


def test_ult_error_recorded():
    kernel, (pool,), _ = make_rig()

    def bad():
        yield Compute(0.1)
        raise RuntimeError("nope")

    ult = ULT(bad())
    pool.push(ult)
    kernel.run()
    assert ult.state == UltState.DONE
    assert isinstance(ult.error, RuntimeError)


def test_unsupported_ult_command_becomes_error():
    kernel, (pool,), _ = make_rig()

    def bad():
        yield "garbage"

    ult = ULT(bad())
    pool.push(ult)
    kernel.run()
    assert isinstance(ult.error, TypeError)


def test_on_finish_callbacks_fire():
    kernel, (pool,), _ = make_rig()
    seen = []

    def work():
        yield Compute(0.1)
        return 5

    ult = ULT(work())
    ult.on_finish.append(lambda u: seen.append(u.result))
    pool.push(ult)
    kernel.run()
    assert seen == [5]


def test_mutex_mutual_exclusion_and_fifo():
    kernel, (pool,), _ = make_rig(n_xstreams=2)
    mutex = UltMutex(kernel)
    trace = []

    def critical(tag):
        yield from mutex.acquire()
        trace.append(f"{tag}-in")
        yield Compute(1.0)
        trace.append(f"{tag}-out")
        mutex.release()

    run_ults(kernel, pool, critical("a"), critical("b"), critical("c"))
    # No interleaving inside the critical section.
    for i in range(0, len(trace), 2):
        assert trace[i].split("-")[0] == trace[i + 1].split("-")[0]


def test_mutex_release_unlocked_raises():
    kernel = SimKernel()
    with pytest.raises(RuntimeError):
        UltMutex(kernel).release()


def test_xstream_priority_order_of_pools():
    kernel = SimKernel()
    high = Pool("high")
    low = Pool("low")
    xs = XStream(kernel, "es", [high, low])
    xs.start()
    trace = []

    def work(tag):
        trace.append(tag)
        yield Compute(0.1)

    low.push(ULT(work("low1")))
    low.push(ULT(work("low2")))
    high.push(ULT(work("high1")))
    kernel.run()
    # "basic" scheduler drains higher-priority pools first at each pick.
    assert trace[0] == "low1" or trace[0] == "high1"
    assert "high1" in trace[:2]


def test_xstream_requires_pool():
    kernel = SimKernel()
    with pytest.raises(ConfigError):
        XStream(kernel, "es", [])


def test_xstream_cannot_remove_last_pool():
    kernel = SimKernel()
    pool = Pool("p")
    xs = XStream(kernel, "es", [pool])
    with pytest.raises(ConfigError):
        xs.remove_pool(pool)


def test_xstream_stop_detaches_pools():
    kernel = SimKernel()
    pool = Pool("p")
    xs = XStream(kernel, "es", [pool])
    xs.start()
    xs.stop()
    assert pool.xstreams == ()
    kernel.run()


def test_pool_counters():
    kernel, (pool,), _ = make_rig()

    def work():
        yield Compute(0.1)

    run_ults(kernel, pool, work(), work())
    assert pool.total_pushed == 2
    assert pool.total_popped == 2
    assert pool.size == 0


# ----------------------------------------------------------------------
# xstream lifecycle: the stream is one kernel callback, woken by a flag
# ----------------------------------------------------------------------
def iter_compute():
    yield Compute(0.1)


def test_xstream_start_twice_raises():
    _, _, (xs,) = make_rig()
    with pytest.raises(RuntimeError, match="already started"):
        xs.start()


def test_push_posts_one_event_and_only_to_an_idle_stream():
    kernel, (pool,), (xs,) = make_rig()

    def work():
        yield Compute(1.0)

    # Started but not yet run: its first turn is already queued.
    posted = kernel._seq
    pool.push(ULT(work()))
    assert kernel._seq == posted
    kernel.run(until=0.5)  # mid-Compute: the stream is busy
    posted = kernel._seq
    pool.push(ULT(work()))
    xs.notify()
    assert kernel._seq == posted
    kernel.run()  # both ULTs done, every pool empty: idle
    assert xs.slices_run == 2
    posted = kernel._seq
    pool.push(ULT(work()))
    assert kernel._seq == posted + 1
    pool.push(ULT(work()))  # the wake is queued, a second one would be a duplicate
    xs.notify()
    assert kernel._seq == posted + 1
    kernel.run()
    assert xs.slices_run == 4


def test_stop_while_idle_exits_on_the_next_turn():
    kernel, (pool,), (xs,) = make_rig()
    kernel.run()
    posted = kernel._seq
    xs.stop()
    assert kernel._seq == posted + 1  # woken once, to see the flag
    kernel.run()
    assert kernel.queued() == 0
    xs.add_pool(pool)  # a stopped stream is not revived by a notify
    pool.push(ULT(iter_compute()))
    assert kernel._seq == posted + 1
    kernel.run()
    assert xs.slices_run == 0 and pool.size == 1


def test_two_idle_watchers_of_one_pool_wake_in_watcher_order():
    kernel, (pool,), (es0, es1) = make_rig(n_xstreams=2)
    kernel.run()
    posted = kernel._seq
    pool.push(ULT(iter_compute()))
    assert kernel._seq == posted + 2  # both were idle, both are woken
    kernel.run()
    assert (es0.slices_run, es1.slices_run) == (1, 0)
    # es1 found the pool empty and went idle again; it still gets work.
    pool.push(ULT(iter_compute()))
    pool.push(ULT(iter_compute()))
    kernel.run()
    assert (es0.slices_run, es1.slices_run) == (2, 1)


def test_profiler_stamp_and_race_hook_see_every_push(monkeypatch):
    from repro.analysis.race import hooks

    kernel, (pool,), _ = make_rig()

    class StampingProfiler:
        _sched_on = True

        def __init__(self):
            self.kernel = kernel
            self.waits = []

        def _note_pool_pop(self, pool, ult):
            self.waits.append(kernel.now - ult.profile_enqueued_at)
            ult.profile_enqueued_at = None

    profiler = pool._profiler = StampingProfiler()
    noted = []
    monkeypatch.setattr(hooks, "ENABLED", True)
    monkeypatch.setattr(hooks, "note_push", lambda pool, ult: noted.append(ult.name))
    gate = UltEvent(kernel)

    def waiter():
        yield Park(gate, None)
        yield UltYield()

    def setter():
        yield Compute(0.25)
        gate.set()
        yield Compute(0.5)

    run_ults(kernel, pool, waiter(), setter())
    # u0: push, wake by the event, re-push on yield; u1: push.
    assert noted == ["u0", "u1", "u0", "u0"]
    assert len(profiler.waits) == pool.total_pushed == 4
    # u0 was woken while u1 held the stream for another 0.5 s.
    assert profiler.waits[2] == pytest.approx(0.5, rel=1e-6)


# ----------------------------------------------------------------------
# failures: a ULT body's error is the ULT's; the machinery's is everyone's
# ----------------------------------------------------------------------
def test_exception_in_scheduling_machinery_leaves_kernel_run():
    """An on_finish callback, a park or a push that raises used to unwind
    into the xstream's daemon task and vanish, with the stream dead and
    the service hung.  It now propagates, and the stream outlives it."""
    kernel, (pool,), (xs,) = make_rig()

    class BrokenEvent(UltEvent):
        def _park(self, ult, timeout):
            raise RuntimeError("park blew up")

    def parks_badly():
        yield Park(BrokenEvent(kernel), None)

    def finishes():
        yield Compute(0.1)
        return "done"

    first = ULT(finishes(), name="first")
    first.on_finish.append(lambda ult: 1 / 0)
    second = ULT(parks_badly(), name="second")
    third = ULT(finishes(), name="third")
    for ult in (first, second, third):
        pool.push(ult)
    with pytest.raises(ZeroDivisionError):
        kernel.run()
    assert first.state == UltState.DONE and first.result == "done"
    with pytest.raises(RuntimeError, match="park blew up"):
        kernel.run()
    kernel.run()
    assert third.result == "done" and xs.ults_finished == 2


def test_exception_in_ult_body_stays_with_the_ult():
    kernel, (pool,), (xs,) = make_rig()

    def bad():
        yield Compute(0.1)
        raise KeyError("body")

    def good():
        yield Compute(0.1)
        return 1

    bad_ult, good_ult = ULT(bad()), ULT(good())
    pool.push(bad_ult)
    pool.push(good_ult)
    kernel.run()  # does not raise
    assert isinstance(bad_ult.error, KeyError) and good_ult.result == 1
    assert xs.ults_finished == 2


def test_generator_like_bodies_and_command_subclasses_are_accepted():
    from collections.abc import Generator

    class Countdown(Generator):
        """A generator by protocol, not by type."""

        def __init__(self):
            self.left = 2

        def send(self, value):
            if not self.left:
                raise StopIteration("liftoff")
            self.left -= 1
            return TimedCompute(0.5)

        def throw(self, typ=None, val=None, tb=None):
            raise typ

    class TimedCompute(Compute):
        pass

    kernel, (pool,), (xs,) = make_rig()
    ult = ULT(Countdown())
    pool.push(ult)
    kernel.run()
    assert ult.result == "liftoff"
    assert xs.busy_time == 1.0 and kernel.now > 1.0
