"""Differential property: the callback xstream against the generator one.

Random ULT programs -- ``Compute``/``UltYield``/``UltSleep``/``Park``
with and without a timeout, events set and cleared from other ULTs, a
failing ULT, a bogus command, a ``stop()`` and a ``remove_pool`` issued
mid-slice, and messages arriving for a network progress entity that
shares a pool with them -- run on 1-3 xstreams over shared and private
pools, once on ``repro.margo.xstream`` with Margo's run-to-completion
progress item and once on ``tests/reference_scheduler.py`` with the
progress loop as a generator ULT.  Both must produce the same
``(now, ult, step)`` log, the same number of kernel events and the same
counters: the rewrite is only allowed to be cheaper on the host.

Durations come from a handful of values so that deadlines collide; ties
are where a reordered ``kernel.post`` would show.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.race import hooks
from repro.margo.errors import ConfigError
from repro.margo.pool import Pool
from repro.margo.runtime import _Progress
from repro.margo.ult import TIMED_OUT, ULT, Compute, Park, UltEvent, UltSleep, UltYield
from repro.margo.xstream import XStream
from repro.mercury import STATUS_OK, RPCRequest, RPCResponse
from repro.sim import SimKernel

from .reference_scheduler import ReferencePool, ReferenceProgress, ReferenceXStream

N_EVENTS = 3
durations = st.sampled_from([0.0, 20e-9, 0.5e-6, 1e-6, 1e-6 - 20e-9, 3e-6])
events = st.integers(0, N_EVENTS - 1)
small = st.integers(0, 2)
steps = st.one_of(
    st.tuples(st.just("compute"), durations),
    st.tuples(st.just("yield")),
    st.tuples(st.just("sleep"), durations),
    st.tuples(st.just("park"), events, st.none() | durations),
    st.tuples(st.just("set"), events),
    st.tuples(st.just("clear"), events),
    st.tuples(st.just("stop"), small),
    st.tuples(st.just("remove_pool"), small, small),
    st.tuples(st.just("raise")),
    st.tuples(st.just("bogus")),
    # a message delivered to the progress entity after a delay
    st.tuples(st.just("message"), st.sampled_from(["request", "response"]), durations),
)
# "stop"/"remove_pool"/"raise"/"bogus" are one alternative in eleven
# each, so most programs keep their streams long enough to interleave.
scenarios = st.fixed_dictionaries(
    {
        "n_pools": st.integers(1, 3),
        # per xstream: the ordered pools it serves (indices wrap)
        "xstreams": st.lists(
            st.lists(small, min_size=1, max_size=3, unique=True), min_size=1, max_size=3
        ),
        "progress_pool": small,
        # per ULT: (pool index, start delay, program)
        "ults": st.lists(
            st.tuples(small, durations, st.lists(steps, max_size=8)), min_size=1, max_size=6
        ),
    }
)


class StandInMargo:
    """What the progress entity reads of a ``MargoInstance``: the incoming
    queue, the finalized flag, the dispatch cost and the two dispatch
    callbacks, which log and, for a response, wake the program ULTs
    parked on one of the events."""

    def __init__(self, kernel, ult_events, log):
        self.kernel = kernel
        self._incoming = deque()
        self._finalized = False
        self.config = SimpleNamespace(dispatch_cost=0.5e-6)
        self._ult_events = ult_events
        self._log = log

    def _dispatch_request(self, request):
        self._log.append((self.kernel.now, "progress", "request", request.seq))

    def _dispatch_response(self, response):
        self._log.append((self.kernel.now, "progress", "response", response.seq))
        self._ult_events[response.seq % N_EVENTS].set(f"reply {response.seq}")


def message(kind, seq):
    if kind == "request":
        return RPCRequest(seq, 0, "m", 0, None, 0, "src")
    return RPCResponse(seq, STATUS_OK, None, 0, "src")


def body(index, program, kernel, pools, xstreams, ult_events, log, progress):
    for step_no, step in enumerate(program):
        log.append((kernel.now, index, step_no))
        op = step[0]
        if op == "compute":
            yield Compute(step[1])
        elif op == "yield":
            yield UltYield()
        elif op == "sleep":
            yield UltSleep(step[1])
        elif op == "park":
            value = yield Park(ult_events[step[1]], step[2])
            log.append((kernel.now, index, "timed out" if value is TIMED_OUT else value))
        elif op == "set":
            ult_events[step[1]].set(index)
        elif op == "clear":
            ult_events[step[1]].clear()
        elif op == "stop":
            xstreams[step[1] % len(xstreams)].stop()
        elif op == "remove_pool":
            try:
                xstreams[step[1] % len(xstreams)].remove_pool(pools[step[2] % len(pools)])
            except ConfigError:
                log.append((kernel.now, index, "refused"))
        elif op == "raise":
            raise RuntimeError(f"ult {index} fails at step {step_no}")
        elif op == "message":
            # Delivered from a timer, like the network does.
            kernel.post(step[2], progress.deliver, message(step[1], 100 * index + step_no))
        else:
            yield 42
    return index


def run_scenario(scenario, pool_cls, xstream_cls, progress_cls):
    kernel = SimKernel()
    pools = [pool_cls(f"p{i}") for i in range(scenario["n_pools"])]
    xstreams = []
    for i, served in enumerate(scenario["xstreams"]):
        mine = list(dict.fromkeys(pools[j % len(pools)] for j in served))
        xstreams.append(xstream_cls(kernel, f"es{i}", mine))
    ult_events = [UltEvent(kernel, name=f"e{i}") for i in range(N_EVENTS)]
    log = []
    progress = progress_cls(StandInMargo(kernel, ult_events, log), "progress")
    ults = []
    for index, (pool_index, delay, program) in enumerate(scenario["ults"]):
        gen = body(index, program, kernel, pools, xstreams, ult_events, log, progress)
        ult = ULT(gen, name=f"u{index}")
        ults.append(ult)
        # Pushed from a timer, so wakes hit idle, busy and not-yet-started streams.
        kernel.post(delay, pools[pool_index % len(pools)].push, ult)
    for xstream in xstreams:
        xstream.start()
    # Pushed once, right after the streams start, as MargoInstance._build does.
    pools[scenario["progress_pool"] % len(pools)].push(getattr(progress, "ult", progress))
    kernel.run()
    return {
        "log": log,
        "now": kernel.now,
        "seq": kernel._seq,
        "xstreams": [(x.slices_run, x.busy_time, x.ults_finished) for x in xstreams],
        "pools": [(p.total_pushed, p.total_popped, p.size) for p in pools],
        "ults": [(u.state, u.result, type(u.error)) for u in ults],
    }


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios)
def test_callback_xstream_matches_generator_xstream(scenario):
    expected = run_scenario(scenario, ReferencePool, ReferenceXStream, ReferenceProgress)
    assert run_scenario(scenario, Pool, XStream, _Progress) == expected


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios)
def test_exact_race_mode_keeps_the_schedule(scenario):
    """In exact mode every callback runs inside the race layer's timer
    wrap, which re-posts a returned charge through the instrumented
    ``post``: same log, same events, same counters as with race off."""
    expected = run_scenario(scenario, Pool, XStream, _Progress)
    # Under REPRO_SANITIZE the checker is already on: put its mode back.
    before = (hooks.ENABLED, hooks._strict, hooks._SWAPPED)
    hooks.disable()
    hooks.enable(exact=True)
    try:
        assert run_scenario(scenario, Pool, XStream, _Progress) == expected
    finally:
        hooks.disable()
        if before[0]:
            hooks.enable(strict=before[1], exact=before[2])


def test_the_property_notices_a_reordered_post():
    """The oracle has teeth: wake two idle watchers of one pool in the
    wrong order and the one-ULT program below already diverges; so does
    a progress item that gives up the stream after each message instead
    of draining the queue first."""

    class ReversedWake(Pool):
        def _rebuild_route(self):
            super()._rebuild_route()
            self._wakeN = self._wakeN[::-1]

    scenario = {
        "n_pools": 1,
        "xstreams": [[0], [0]],
        "progress_pool": 0,
        "ults": [(0, 1e-6, [("compute", 1e-6)])],
    }
    expected = run_scenario(scenario, ReferencePool, ReferenceXStream, ReferenceProgress)
    assert run_scenario(scenario, Pool, XStream, _Progress) == expected
    mutant = run_scenario(scenario, ReversedWake, XStream, _Progress)
    assert mutant["seq"] == expected["seq"] and mutant["log"] == expected["log"]
    assert mutant["xstreams"] != expected["xstreams"]

    class OneMessagePerTurn(_Progress):
        __slots__ = ()

        def step(self):
            dispatched = self._message is not None
            charge = super().step()
            if dispatched and charge is not None:
                # Put the next message back and requeue at the pool tail.
                self.margo._incoming.appendleft(self._message)
                self._message = None
                self.pool.push(self)
                return None
            return charge

    burst = [("message", "request", 0.0), ("message", "response", 0.0), ("compute", 1e-6)]
    scenario = {
        "n_pools": 1,
        "xstreams": [[0]],
        "progress_pool": 0,
        "ults": [(0, 1e-6, burst), (0, 1e-6, [("compute", 1e-6)])],
    }
    expected = run_scenario(scenario, ReferencePool, ReferenceXStream, ReferenceProgress)
    assert run_scenario(scenario, Pool, XStream, _Progress) == expected
    assert run_scenario(scenario, Pool, XStream, OneMessagePerTurn) != expected
