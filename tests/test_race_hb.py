"""mochi-race happens-before engine: MCH030/MCH031 on live ULTs."""

import pytest

from repro import Cluster
from repro.analysis.race import hooks
from repro.analysis.race.hb import Ctx, HBState
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
# the Ctx / HBState primitives
# ----------------------------------------------------------------------
def test_publish_snapshots_then_advances():
    state = HBState()
    ctx = Ctx(label="a")
    state.ensure_tid(ctx)
    snap = ctx.publish()
    assert snap[ctx.tid] == 1
    assert ctx.clock[ctx.tid] == 2  # later accesses are after the snapshot


def test_root_epoch_is_constant():
    # The host driver is single-threaded; its component never advances,
    # which is what orders all pre-run root writes before the whole run.
    state = HBState()
    snap = state.root.publish()
    assert snap == {"root": 1}
    assert state.root.clock["root"] == 1


def test_tids_assigned_lazily():
    state = HBState()
    ctx = Ctx(label="idle")
    assert ctx.tid is None  # no tracked access yet: costs no clock space
    assert state.ensure_tid(ctx) == "c1"
    assert state.ensure_tid(ctx) == "c1"  # idempotent


def test_barrier_orders_root_after_run():
    state = HBState()
    ctx = Ctx(label="worker")
    state.ensure_tid(ctx)
    ctx.clock[ctx.tid] = 7
    state.ult_ctx[id(object())] = (object(), ctx)
    state.barrier_into_root()
    assert state.root.clock[ctx.tid] == 7


# ----------------------------------------------------------------------
# MCH030: unordered writes
# ----------------------------------------------------------------------
def test_unordered_writes_flagged(race):
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")

    def writer(tag):
        yield UltSleep(0.01)
        race.note_write(shared, "k", f"writer-{tag}")
        shared["k"] = tag

    ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(2)]
    cluster.wait_ults(ults)
    assert rule_ids(race) == ["MCH030"]
    finding = race.findings[0]
    assert finding.path == "race:shared-dict"
    assert finding.source == "runtime"
    assert "writer-0" in finding.message and "writer-1" in finding.message


def test_mutex_ordered_writes_clean(race):
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")
    mutex = UltMutex(cluster.kernel, name="guard")

    def writer(tag):
        yield UltSleep(0.01)
        yield from mutex.acquire()
        race.note_write(shared, "k", f"writer-{tag}")
        shared["k"] = tag
        mutex.release()

    ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(2)]
    cluster.wait_ults(ults)
    assert race.findings == []


def test_timer_release_publishes_the_approximate_clock(race):
    # Epoch mode leaves the kernel unswapped, so a mutex released from a
    # timer callback resolves to root and publishes R on the lock.  R
    # covers the first holder's write, so the next holder's is ordered.
    # The first holder ending with the lock still held is reported.
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")
    mutex = UltMutex(cluster.kernel, name="guard")

    def first():
        yield from mutex.acquire()
        race.note_write(shared, "k", "first")
        shared["k"] = 1
        cluster.kernel.schedule(0.01, mutex.release)

    published = []

    def second():
        yield UltSleep(0.005)
        yield from mutex.acquire()
        first_write = race._STATE.var(shared, "k")
        snap = race._STATE.sync_clock[id(mutex)][1]
        published.append(snap.get(first_write.write_tid, 0) >= first_write.write_count)
        race.note_write(shared, "k", "second")
        shared["k"] = 2
        mutex.release()

    ults = [
        cluster.spawn(margo, first(), name="first"),
        cluster.spawn(margo, second(), name="second"),
    ]
    cluster.wait_ults(ults)
    assert shared["k"] == 2
    assert published == [True]
    assert rule_ids(race) == ["MCH011"]


def test_timer_fire_reports_name_the_timer():
    # Exact mode wraps every timer; a report that involves a fire names
    # the callback, not an anonymous ULT.
    hooks.disable()
    hooks.reset()
    hooks.enable(exact=True)
    try:
        cluster, margo = make_rig()
        shared = {}
        hooks.track(shared, "shared-dict")

        def tick():
            hooks.note_write(shared, "k", "tick")

        def writer():
            yield UltSleep(0.005)
            hooks.note_write(shared, "k", "writer")

        cluster.kernel.schedule(0.01, tick)
        cluster.wait_ults([cluster.spawn(margo, writer(), name="w")])
        cluster.kernel.run()
        [finding] = hooks.findings
        assert "tick [timer:" in finding.message
        assert "writer [ult:w]" in finding.message
    finally:
        hooks.disable()
        hooks.reset()


def test_event_edge_orders_writes(race):
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")
    event = UltEvent(cluster.kernel, name="done")

    def first():
        race.note_write(shared, "k", "first")
        shared["k"] = 1
        event.set()
        yield UltSleep(0.0)

    def second():
        yield from event.wait()
        race.note_write(shared, "k", "second")
        shared["k"] = 2

    ults = [
        cluster.spawn(margo, second(), name="second"),
        cluster.spawn(margo, first(), name="first"),
    ]
    cluster.wait_ults(ults)
    assert race.findings == []


def test_disjoint_keys_clean(race):
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")

    def writer(tag):
        yield UltSleep(0.01)
        race.note_write(shared, f"k{tag}", f"writer-{tag}")
        shared[f"k{tag}"] = tag

    ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(2)]
    cluster.wait_ults(ults)
    assert race.findings == []


# ----------------------------------------------------------------------
# MCH031: unordered read/write
# ----------------------------------------------------------------------
def test_unordered_read_write_flagged(race):
    cluster, margo = make_rig()
    shared = {"k": 0}
    race.track(shared, "shared-dict")

    def writer():
        yield UltSleep(0.01)
        race.note_write(shared, "k", "writer")
        shared["k"] = 1

    def reader():
        yield UltSleep(0.01)
        race.note_read(shared, "k", "reader")
        return shared["k"]

    ults = [
        cluster.spawn(margo, reader(), name="r"),
        cluster.spawn(margo, writer(), name="w"),
    ]
    cluster.wait_ults(ults)
    assert "MCH031" in rule_ids(race)


def test_root_then_ult_is_ordered(race):
    # A host-side (root) write before the run happens-before everything
    # the run's ULTs do -- the constant root epoch encodes exactly that.
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")
    race.note_write(shared, "k", "host-setup")
    shared["k"] = 0

    def reader():
        yield UltSleep(0.01)
        race.note_read(shared, "k", "reader")
        return shared["k"]

    cluster.run_ult(margo, reader())
    assert race.findings == []


def test_run_end_barrier_orders_root_read(race):
    # After kernel.run returns, the host reads the final state: ordered.
    cluster, margo = make_rig()
    shared = {}
    race.track(shared, "shared-dict")

    def writer():
        yield UltSleep(0.01)
        race.note_write(shared, "k", "writer")
        shared["k"] = 1

    cluster.run_ult(margo, writer())
    race.note_read(shared, "k", "host-check")
    assert race.findings == []


def test_finished_ults_leave_the_context_table(race):
    # Every ULT ever pushed used to keep its (ult, Ctx) entry for the
    # whole session.  A finished ULT's clock is folded into one clock the
    # run-end barrier joins, so the table holds only what is still live:
    # here the two progress items, whatever many echoes ran.
    cluster = Cluster(seed=13)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)

    def driver():
        for i in range(300):
            yield from client.forward(server.address, "echo", i)

    cluster.run_ult(client, driver())
    assert len(race._STATE.ult_ctx) <= 2 + 1
    assert race.findings == []


def test_same_seed_reports_identically(race):
    def run_once():
        hooks.disable()
        hooks.reset()
        hooks.enable()
        cluster, margo = make_rig()
        shared = {}
        hooks.track(shared, "shared-dict")

        def writer(tag):
            yield UltSleep(0.01)
            hooks.note_write(shared, "k", f"writer-{tag}")

        ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(2)]
        cluster.wait_ults(ults)
        return [f.to_json() for f in hooks.findings]

    from repro.margo.ult import ULT_IDS

    start = ULT_IDS.last
    first = run_once()
    ULT_IDS.last = start  # mochi-lint: disable=MCH060 -- rewinds the ULT id counter so the two same-seed runs compare byte-identical
    second = run_once()
    assert first == second and first  # byte-identical report, same seed
