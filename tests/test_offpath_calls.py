"""Off-path cost as exact Python call counts.

A plane that is off, or on and idle, promises an attribute test per
site and no call.  Each arm of ``benchmarks/bench_overhead.py`` (the
gate runner, so both price the same arms) runs once to warm up, then
at sizes N and 2N under a ``sys.setprofile`` counter of Python and C
calls, with the garbage collector quiesced; the slope
``calls(2N) - calls(N)`` cancels set-up and must equal the base arm's
exactly.  Counts are deterministic, so unlike a wall
ratio this verdict is the same on every host.
"""

import functools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))
import bench_overhead  # noqa: E402
from _harness import once  # noqa: E402


def _rpcs(k):
    return {"n_rpcs": 1000 * k}


def _tasks(k):
    return {"n_tasks": 40 * k, "n_steps": 10}


def _calls(arm, size) -> int:
    count = 0

    def counter(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    def counted():
        sys.setprofile(counter)
        try:
            arm(size)
        finally:
            sys.setprofile(None)

    # With the collector quiesced, no finalizer or weakref callback that
    # earlier tests left behind runs inside the count.
    once(counted)
    return count


@functools.lru_cache(maxsize=None)
def _slope(name, size_of=_rpcs) -> int:
    arm = bench_overhead.ARMS[name]
    arm(size_of(1))
    return _calls(arm, size_of(2)) - _calls(arm, size_of(1))


def test_bare_rpc_call_slope_is_pinned():
    # 95 calls per RPC (63 Python, 32 C): a new per-message call fails
    # here, not in a wall-clock gate.  A stream's charge re-arms inside
    # the kernel loop, with no post, heappush or heappop (it was 134); an
    # int payload is sized by its type, with no getattr or dict.get (113);
    # charges are bare floats, the reply readies its caller with no event
    # or Park, and the clock is an attribute, not a property (109).
    assert _slope("rpc_off") == 95_000


@pytest.mark.parametrize("arm", ["rpc_race_cycled", "rpc_explicit_off", "rpc_health_on"])
def test_off_arm_adds_no_call_per_rpc(arm):
    assert _slope(arm) == _slope("rpc_off")


def test_kernel_event_call_slope_is_pinned():
    # 40 more callbacks of 11 events each: a post and a heappush to
    # queue, a heappop and the call to fire (44), plus 100 more timers
    # (schedule, _schedule_timer, Timer, heappush, heappop, tick: 600).
    assert _slope("kernel", _tasks) == 2_360


def test_race_checker_on_adds_no_call_per_kernel_event():
    assert _slope("kernel_race_on", _tasks) == _slope("kernel", _tasks)


def test_unsampled_xray_adds_only_per_window_work():
    # 88 calls per 1 000 RPCs: the attribution and what-if analysis of
    # each closed profile window (two per 1 000 RPCs), none per request.
    assert _slope("rpc_xray_unsampled") - _slope("rpc_profiled_unsampled") == 88


@pytest.mark.parametrize(
    "arm,calls",
    [
        ("rpc_profiled_unsampled", 96_229),
        ("rpc_profiled_sampled", 97_887),
        ("rpc_profiled_full", 187_251),
    ],
)
def test_profiled_call_slope_is_pinned(arm, calls):
    # A profiler without xray reads no edge list and builds no path.
    assert _slope(arm) == calls


def test_fully_sampled_xray_call_slope_is_pinned():
    # Per request on top of the profiler: the sched edge, one path record
    # and its add to the plane -- xray has no monitor hook of its own.
    assert _slope("rpc_xray_full") - _slope("rpc_profiled_full") == 24_251
