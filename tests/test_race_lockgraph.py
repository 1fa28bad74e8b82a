"""mochi-race lock-order graph: MCH040 without a deadlock firing, and
MCH011 read off its held table."""

import pytest

from repro import Cluster
from repro.analysis.race import hooks
from repro.analysis.race.lockgraph import LockOrderGraph
from repro.margo.ult import UltEvent, UltMutex, UltSleep


@pytest.fixture()
def race():
    hooks.disable()
    hooks.reset()
    hooks.enable()
    yield hooks
    hooks.disable()
    hooks.reset()


def make_rig():
    cluster = Cluster(seed=13)
    margo = cluster.add_margo("m", node="n0")
    return cluster, margo


def rule_ids(race):
    return [f.rule_id for f in race.findings]


# ----------------------------------------------------------------------
# the graph itself
# ----------------------------------------------------------------------
class _FakeLock:
    def __init__(self, name):
        self.name = name


class _FakeUlt:
    def __init__(self, name):
        self.name = name


def test_graph_reports_two_lock_cycle_once():
    graph = LockOrderGraph()
    a, b = _FakeLock("A"), _FakeLock("B")
    u1, u2 = _FakeUlt("u1"), _FakeUlt("u2")
    assert graph.note_acquire(u1, a, "u1") is None
    assert graph.note_acquire(u1, b, "u1") is None  # edge A -> B
    graph.note_release(u1, b)
    graph.note_release(u1, a)
    assert graph.note_acquire(u2, b, "u2") is None
    cycle = graph.note_acquire(u2, a, "u2")  # edge B -> A closes the cycle
    assert cycle is not None
    assert cycle[0] == cycle[-1]  # rendered as a closed walk
    assert set(cycle) == {"A", "B"}
    # The same cycle is never reported twice.
    graph.note_release(u2, a)
    graph.note_release(u2, b)
    assert graph.note_acquire(u2, b, "u2") is None
    assert graph.note_acquire(u2, a, "u2") is None


def test_graph_consistent_order_is_clean():
    graph = LockOrderGraph()
    a, b = _FakeLock("A"), _FakeLock("B")
    for i in range(3):
        ult = _FakeUlt(f"u{i}")
        assert graph.note_acquire(ult, a, ult.name) is None
        assert graph.note_acquire(ult, b, ult.name) is None
        graph.note_release(ult, b)
        graph.note_release(ult, a)


def test_graph_three_lock_cycle():
    graph = LockOrderGraph()
    locks = {n: _FakeLock(n) for n in "ABC"}
    for holder, then in (("A", "B"), ("B", "C")):
        ult = _FakeUlt(f"u-{holder}{then}")
        graph.note_acquire(ult, locks[holder], ult.name)
        assert graph.note_acquire(ult, locks[then], ult.name) is None
        graph.note_release(ult, locks[then])
        graph.note_release(ult, locks[holder])
    closer = _FakeUlt("closer")
    graph.note_acquire(closer, locks["C"], "closer")
    cycle = graph.note_acquire(closer, locks["A"], "closer")
    assert cycle is not None and set(cycle) == {"A", "B", "C"}


# ----------------------------------------------------------------------
# MCH040 end to end: the deadlock never fires, the cycle is still found
# ----------------------------------------------------------------------
def test_lock_order_cycle_reported_without_deadlock(race):
    cluster, margo = make_rig()
    a = UltMutex(cluster.kernel, name="A")
    b = UltMutex(cluster.kernel, name="B")

    def forward():
        yield from a.acquire()
        yield from b.acquire()
        b.release()
        a.release()

    def backward():
        # Runs strictly after forward() (explicit delay): no deadlock
        # ever fires, but the acquisition order B -> A closes the cycle.
        yield UltSleep(0.5)
        yield from b.acquire()
        yield from a.acquire()
        a.release()
        b.release()

    ults = [
        cluster.spawn(margo, forward(), name="fwd"),
        cluster.spawn(margo, backward(), name="bwd"),
    ]
    cluster.wait_ults(ults)  # completes: the deadlock did NOT fire
    assert rule_ids(race) == ["MCH040"]
    message = race.findings[0].message
    assert "A -> B" in message or "B -> A" in message
    assert race.findings[0].path == "race:lock-order"


def test_consistent_lock_order_clean(race):
    cluster, margo = make_rig()
    a = UltMutex(cluster.kernel, name="A")
    b = UltMutex(cluster.kernel, name="B")

    def worker(tag):
        yield UltSleep(0.01 * tag)
        yield from a.acquire()
        yield from b.acquire()
        b.release()
        a.release()

    ults = [cluster.spawn(margo, worker(i), name=f"w{i}") for i in range(3)]
    cluster.wait_ults(ults)
    assert race.findings == []


# ----------------------------------------------------------------------
# MCH011: parking while holding, bounded or not
# ----------------------------------------------------------------------
def test_wait_while_holding_flagged(race):
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="guard")
    event = UltEvent(cluster.kernel, name="signal")

    def waiter():
        yield from mutex.acquire()
        yield from event.wait()  # mochi-lint: disable=MCH011 -- wait-while-holding under test
        mutex.release()

    def signaler():
        yield UltSleep(0.2)
        event.set()

    ults = [
        cluster.spawn(margo, waiter(), name="waiter"),
        cluster.spawn(margo, signaler(), name="signaler"),
    ]
    cluster.wait_ults(ults)
    (finding,) = race.findings
    assert finding.rule_id == "MCH011"
    assert "guard" in finding.message and "'signal'" in finding.message


def test_rpc_while_holding_names_the_reply_event(race):
    """A reply event's ``rpc:<name>:<seq>`` text is built on first use,
    which in an unobserved run is the MCH011 report quoting it."""
    cluster, margo = make_rig()
    margo.register("echo", lambda ctx: ctx.args)
    mutex = UltMutex(cluster.kernel, name="guard")

    def caller():
        yield from margo.forward(margo.address, "echo", 1)  # not holding: no report
        yield from mutex.acquire()
        yield from margo.forward(margo.address, "echo", 2)  # mochi-lint: disable=MCH011 -- RPC-while-holding under test
        mutex.release()

    cluster.run_ult(margo, caller())
    (finding,) = race.findings
    assert finding.rule_id == "MCH011"
    assert "'rpc:echo:2'" in finding.message and "guard" in finding.message


def test_wait_with_timeout_flagged(race):
    # A timeout bounds the wait, not the time the mutex is held.
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="guard")
    event = UltEvent(cluster.kernel, name="signal")

    def waiter():
        yield from mutex.acquire()
        yield from event.wait(timeout=0.5)  # mochi-lint: disable=MCH011 -- bounded-wait fixture
        mutex.release()

    def signaler():
        yield UltSleep(0.2)
        event.set()

    ults = [
        cluster.spawn(margo, waiter(), name="waiter"),
        cluster.spawn(margo, signaler(), name="signaler"),
    ]
    cluster.wait_ults(ults)
    (finding,) = race.findings
    assert finding.rule_id == "MCH011" and "'signal'" in finding.message


def test_contended_acquire_flagged_while_holding(race):
    # Nested contended acquire parks on the mutex's internal gate event
    # while holding A: a suspension like any other.  The order A -> B
    # alone closes no cycle.
    cluster, margo = make_rig()
    a = UltMutex(cluster.kernel, name="A")
    b = UltMutex(cluster.kernel, name="B")

    def holder():
        yield from b.acquire()
        yield UltSleep(0.2)  # mochi-lint: disable=MCH011 -- contention fixture
        b.release()

    def nester():
        yield UltSleep(0.05)
        yield from a.acquire()
        yield from b.acquire()  # contended: parks while holding A
        b.release()
        a.release()

    ults = [
        cluster.spawn(margo, holder(), name="holder"),
        cluster.spawn(margo, nester(), name="nester"),
    ]
    cluster.wait_ults(ults)
    assert rule_ids(race) == ["MCH011", "MCH011"]  # the holder's sleep, the nester's park
    assert "'mutex:B'" in race.findings[1].message and "['A']" in race.findings[1].message
