"""Differential and edge-case tests for the kernel's event heap.

``SimKernel`` must be *observationally identical* to a plain binary heap
over ``(deadline, seq)``.  ``tests/reference_kernel.py`` is that heap
written slowly; the differential tests below run the same timer program
on both and compare the ``(now, tag)`` fire sequences, and the edge
cases after them pin far deadlines, same-deadline ties, mass
cancellation, the clock across ``run(until=...)`` slices and the re-arm
of a ``post``ed callback that returns a delay.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import SimKernel, SimulationError
from repro.sim import kernel as kernel_mod

from .reference_kernel import ReferenceKernel

SPAN = 1e-3  # the programs' time unit


# ----------------------------------------------------------------------
# the kernel against the reference heap
# ----------------------------------------------------------------------
class Boom(Exception):
    """Raised by a program's own callbacks, mid-batch."""


def run_program(kernel, phases):
    """Interpret a timer program; return its fire log and final clock.

    A program is a list of phases ``(ops, until)``: issue ``ops``, then
    ``run()`` (``until`` None) or ``run(until=now + until)``; a negative
    ``until`` asks for a slice that ends in the past.  An op is
    ``("post" | "schedule", delay, children)``, ``("at", deadline,
    children)``, ``("rearm", delay, children)`` (a post that returns
    ``delay`` on its first two fires, so it fires three times),
    ``("cancel", k)`` (the k-th handle so far), ``("cancel_storm",)``
    (enough cancels to force a compaction) or ``("raise",)``;
    ``children`` are the ops a timer issues each time it fires.  Timers
    return 0.0, which the kernel must ignore.
    """
    log, handles, tags = [], [], itertools.count()

    def issue(ops):
        for op in ops:
            kind = op[0]
            if kind == "raise":
                raise Boom
            if kind == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            elif kind == "cancel_storm":
                doomed = [
                    kernel.schedule(SPAN * 0.7 * (i % 5), fire, (next(tags), ()))
                    for i in range(2 * kernel_mod._COMPACT_MIN_CANCELLED)
                ]
                for timer in doomed:
                    timer.cancel()
            elif kind == "post":
                kernel.post(op[1], fire, (next(tags), op[2]))
            elif kind == "rearm":
                kernel.post(op[1], rearm, [next(tags), op[2], op[1], 2])
            elif kind == "schedule":
                handles.append(kernel.schedule(op[1], fire_timer, (next(tags), op[2])))
            else:
                deadline = max(op[1], kernel.now)
                handles.append(kernel.schedule_at(deadline, fire_timer, (next(tags), op[2])))

    def fire(node):
        log.append((kernel.now, node[0]))
        issue(node[1])

    def fire_timer(node):
        fire(node)
        return 0.0

    def rearm(state):
        log.append((kernel.now, state[0], state[3]))
        issue(state[1])
        if state[3]:
            state[3] -= 1
            return state[2]
        return None

    def run(until=None):
        # A Boom leaves the rest of its batch queued: run again until
        # the slice completes.
        while True:
            try:
                return kernel.run(until=until)
            except Boom:
                log.append((kernel.now, "boom"))

    for ops, until in phases:
        try:
            issue(ops)
        except Boom:
            log.append((kernel.now, "boom"))
        run(None if until is None else kernel.now + until)
    run()
    return log, kernel.now


def assert_matches_reference(phases):
    expected = run_program(ReferenceKernel(), phases)
    assert run_program(SimKernel(), phases) == expected
    return expected[0]


# Few distinct values, so deadlines collide: zero delay, inside the
# span, on its edge, past it, far past it.
delays = st.sampled_from([0.0, 0.0, 1e-6, 0.25 * SPAN, 0.5 * SPAN, SPAN, 2.5 * SPAN, 40 * SPAN])
deadlines = st.sampled_from([0.5 * SPAN, SPAN, 2.5 * SPAN, 2.5 * SPAN, 7 * SPAN, 300 * SPAN])
slices = st.none() | st.sampled_from([-SPAN, -1e-6, 0.0, 0.3 * SPAN, SPAN, 3 * SPAN, 50 * SPAN])


def op_lists(children):
    timer = st.tuples(
        st.sampled_from(["post", "schedule", "rearm"]), delays, children
    ) | st.tuples(st.just("at"), deadlines, children)
    other = st.one_of(
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.just(("cancel_storm",)),
        st.just(("raise",)),
    )
    return st.lists(st.one_of(timer, timer, timer, other), max_size=6)


programs = st.lists(
    st.tuples(st.recursive(st.just(()), op_lists, max_leaves=15), slices),
    min_size=1,
    max_size=4,
)

#: Three far entries on one deadline fire in scheduling order.
FAR_TIES = [([("at", 7 * SPAN, ())] * 3, None)]
#: Three timers on one deadline: the first posts a zero-delay child,
#: the second raises, and the third -- still queued after the
#: exception -- must fire before the child.
TAIL_BEFORE_LATER_CHILD = [
    (
        [
            ("schedule", 1e-6, [("post", 0.0, ())]),
            ("schedule", 1e-6, [("raise",)]),
            ("schedule", 1e-6, ()),
        ],
        None,
    )
]

#: A slice that ends in the past while an event is pending; the next
#: post shows where the clock was left.
UNTIL_IN_THE_PAST = [
    ([("post", 10 * SPAN, ())], 5 * SPAN),
    ([], -2 * SPAN),
    ([("post", 0.0, ())], None),
]

#: A re-arming post whose every fire queues a zero-delay child: the
#: child, queued on the re-arm deadline first, fires first.
REARM_BEHIND_CHILD = [([("rearm", 0.0, [("post", 0.0, ())])], None)]


@settings(max_examples=200, deadline=None)
@given(phases=programs)
@example(phases=FAR_TIES)
@example(phases=TAIL_BEFORE_LATER_CHILD)
@example(phases=UNTIL_IN_THE_PAST)
@example(phases=REARM_BEHIND_CHILD)
def test_kernel_matches_reference_heap(phases):
    assert_matches_reference(phases)


def _storm(seed):
    """A seeded storm of near, far, same-deadline and cancelled timers,
    plus a chain of five long sleeps: sizes the property does not reach."""
    rng = random.Random(seed)
    ops, doomed, handles = [], [], 0
    for _ in range(400):
        kind = rng.randrange(4)
        if kind == 0:
            delay = rng.uniform(0, SPAN * 0.9)
        elif kind == 1:
            delay = SPAN * rng.uniform(2, 50)
        elif kind == 2:
            delay = SPAN * 0.5  # same deadline: FIFO by seq
        else:
            delay = SPAN * rng.uniform(0, 40)
            doomed.append(handles)
        ops.append(("schedule", delay, ()))
        handles += 1
    ops += [("cancel", k) for k in doomed]
    sleeps = ()
    for _ in range(5):
        sleeps = [("post", SPAN * 7, sleeps)]
    return [(ops + sleeps, None)]


def test_seeded_storm_matches_reference():
    """The seeded storm fires identically on the kernel and the reference."""
    assert len(assert_matches_reference(_storm(1234))) > 250


@pytest.mark.parametrize("seed", [7, 99, 2024])
def test_seeded_storm_matches_reference_other_seeds(seed):
    assert_matches_reference(_storm(seed))


# ----------------------------------------------------------------------
# far deadlines, mass cancel, the clock across run(until=...) slices
# ----------------------------------------------------------------------
def test_far_future_timers_fire_in_deadline_order():
    """Deadlines far in the future, scheduled out of order, fire in
    exact deadline order."""
    kernel = SimKernel()
    fired = []
    deadlines = [SPAN * m for m in (40, 3, 11, 27, 5)]
    for deadline in deadlines:
        kernel.schedule_at(deadline, fired.append, deadline)
    kernel.run()
    assert fired == sorted(deadlines)
    assert kernel.queued() == 0


def test_same_far_deadline_keeps_schedule_order():
    """Twenty far entries on one deadline fire in scheduling order."""
    kernel = SimKernel()
    fired = []
    for i in range(20):
        kernel.schedule_at(SPAN * 10, fired.append, i)
    kernel.run()
    assert fired == list(range(20))


def test_geometrically_spread_deadlines_fire_on_time():
    """Deadlines spread geometrically far apart (1x to 10 000x) fire in
    order, each at its own deadline."""
    kernel = SimKernel()
    fired = []
    for m in (1, 10, 100, 1000, 10_000):
        kernel.schedule_at(SPAN * m, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [SPAN * m for m in (1, 10, 100, 1000, 10_000)]


def test_mass_cancel_of_far_timers_compacts():
    """5 000 cancelled far timers are swept by compaction as the
    cancellations accumulate."""
    kernel = SimKernel()
    timers = [kernel.schedule(SPAN * 100 + i * SPAN, lambda: None) for i in range(5_000)]
    assert kernel.queued() == 5_000
    for timer in timers:
        timer.cancel()
    assert kernel.queued() < 2 * kernel_mod._COMPACT_MIN_CANCELLED
    kernel.run()
    assert kernel.now == 0.0  # nothing ever fired


def test_until_in_the_past_never_rewinds_the_clock():
    """``run(until=t)`` with ``t < now`` fires nothing and leaves the
    clock alone, whether or not events are pending."""
    kernel = SimKernel()
    fired = []
    kernel.post(10e-6, lambda: fired.append(kernel.now))
    kernel.run(until=5e-6)
    assert kernel.now == 5e-6
    kernel.run(until=3e-6)
    assert kernel.now == 5e-6
    assert fired == []
    kernel.run()
    assert fired == [10e-6]
    kernel.run(until=1e-6)  # and with an empty queue
    assert kernel.now == 10e-6


# ----------------------------------------------------------------------
# zero-delay runaway
# ----------------------------------------------------------------------
def test_zero_delay_post_runaway_raises():
    """``post`` (the no-handle fast path) hits the max_events guard from
    inside a single-deadline batch drain, exactly like ``schedule``."""
    kernel = SimKernel()

    def reschedule():
        kernel.post(0.0, reschedule)

    kernel.post(0.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        kernel.run(max_events=1_000)


# ----------------------------------------------------------------------
# a posted callback that returns a delay
# ----------------------------------------------------------------------
def _slices(kernel, log, delays):
    """A posted callback that logs each fire and returns the next of
    ``delays`` (None when they run out)."""
    pending = list(delays)

    def slice_(name):
        log.append((kernel.now, name))
        return pending.pop(0) if pending else None

    return slice_


def test_a_queued_entry_on_the_rearm_deadline_fires_first():
    """The re-post is the newest seq, so an entry queued earlier on the
    same deadline fires before it, on both kernels."""
    logs = []
    for kernel in (SimKernel(), ReferenceKernel()):
        log = []
        kernel.post(0.0, _slices(kernel, log, [SPAN]), "slice")
        kernel.post(SPAN, log.append, (SPAN, "queued"))
        kernel.run()
        logs.append(log)
    assert logs[0] == logs[1] == [(0.0, "slice"), (SPAN, "queued"), (SPAN, "slice")]


@pytest.mark.parametrize("below", [False, True])
def test_run_until_on_and_just_below_the_rearm_deadline(below):
    """``until`` equal to the re-arm deadline runs the re-armed callback;
    a bound one ulp below leaves it queued with the clock on the bound."""
    until = math.nextafter(SPAN, 0.0) if below else SPAN
    kernel, reference, logs = SimKernel(), ReferenceKernel(), []
    for k in (kernel, reference):
        log = []
        k.post(0.0, _slices(k, log, [SPAN]), "slice")
        k.run(until=until)
        logs.append((log, k.now))
    assert logs[0] == logs[1]
    assert logs[0] == ([(0.0, "slice")] if below else [(0.0, "slice"), (SPAN, "slice")], until)
    assert kernel.queued() == (1 if below else 0)


def test_zero_delay_rearm_runaway_raises():
    """Every inline re-run counts toward ``max_events``."""
    kernel = SimKernel()
    fired = []

    def spin():
        fired.append(kernel.now)
        return 0.0

    kernel.post(0.0, spin)
    with pytest.raises(SimulationError, match="max_events"):
        kernel.run(max_events=1_000)
    assert len(fired) == 1_001
    assert kernel.queued() == 1  # the last re-post, as a post would leave it


def test_exception_from_an_inline_rerun_leaves_the_reference_queue():
    """A re-run that raises has consumed its entry: the queue, the clock
    and the rest of the run are the reference's."""
    outcomes = []
    for kernel in (SimKernel(), ReferenceKernel()):
        log, runs = [], [0]

        def slice_():
            runs[0] += 1
            log.append((kernel.now, runs[0]))
            if runs[0] == 3:
                raise Boom
            return 1e-6 if runs[0] < 5 else None

        kernel.post(0.0, slice_)
        kernel.post(5e-6, log.append, (5e-6, "later"))
        kernel.post(SPAN, slice_)
        with pytest.raises(Boom):
            kernel.run()
        state = (kernel.now, len(kernel._heap), list(log))
        kernel.run()
        outcomes.append((state, log, kernel.now))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (2e-6, 2, [(0.0, 1), (1e-6, 2), (2e-6, 3)])


def test_a_timer_return_value_is_ignored():
    kernel = SimKernel()
    fired = []
    kernel.schedule(SPAN, lambda: fired.append(kernel.now) or SPAN)
    kernel.schedule_at(2 * SPAN, lambda: fired.append(kernel.now) or 0.0)
    kernel.run()
    assert fired == [SPAN, 2 * SPAN]
    assert kernel.queued() == 0


@pytest.mark.parametrize("returned", ["1e-6", 1, True])
def test_a_posted_callback_returning_a_non_float_raises(returned):
    kernel = SimKernel()
    kernel.post(0.0, lambda: returned)
    with pytest.raises(TypeError):
        kernel.run()


@pytest.mark.parametrize("returned", [-1e-6, float("nan")])
def test_a_posted_callback_returning_a_bad_delay_raises(returned):
    kernel = SimKernel()
    kernel.post(0.0, lambda: returned)
    with pytest.raises(ValueError):
        kernel.run()


# ----------------------------------------------------------------------
# NaN is never a time
# ----------------------------------------------------------------------
def test_schedule_at_refuses_a_nan_deadline():
    kernel = SimKernel()
    with pytest.raises(ValueError):
        kernel.schedule_at(float("nan"), lambda: None)
    assert kernel.queued() == 0


def test_run_refuses_a_nan_bound():
    kernel = SimKernel()
    fired = []
    kernel.post(SPAN, fired.append, "late")
    with pytest.raises(ValueError):
        kernel.run(until=float("nan"))
    assert fired == [] and kernel.now == 0.0 and kernel.queued() == 1


# ----------------------------------------------------------------------
# back-to-back batches and late cancels
# ----------------------------------------------------------------------
def test_back_to_back_same_deadline_batches_keep_order():
    """Two same-deadline batches, the second posted after the first
    drained, each fire in posting order."""
    kernel = SimKernel()
    fired = []
    for i in range(10):
        kernel.post(0.0001, fired.append, f"a{i}")
    kernel.run()
    assert kernel.queued() == 0
    for i in range(10):
        kernel.post(0.0002, fired.append, f"b{i}")
    kernel.run()
    assert fired == [f"a{i}" for i in range(10)] + [f"b{i}" for i in range(10)]


def test_cancel_after_fire_leaves_later_timers_intact():
    """Cancelling a timer that already fired must not disturb timers
    queued since on the same relative delay."""
    kernel = SimKernel()
    fired = []
    old = [kernel.schedule(0.0001, fired.append, f"old{i}") for i in range(5)]
    kernel.run()
    new = [kernel.schedule(0.0001, fired.append, f"new{i}") for i in range(5)]
    for timer in old:
        timer.cancel()  # fired already: a no-op
    kernel.run()
    assert fired == [f"old{i}" for i in range(5)] + [f"new{i}" for i in range(5)]
    assert kernel._cancelled_count == 0
