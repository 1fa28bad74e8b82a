"""Fault injection x the runtime checker: crash exemptions and seeded
race fixtures.

Two contracts meet here:

* the MCH012 check exempts *killed* processes -- dropping in-flight
  handlers is exactly what a crash does, only a healthy finalize with
  pending handlers is a bug;
* the race layer must stay deterministic under fault schedules: a seeded
  racy fixture yields the same MCH03x report every run, and a clean
  fixture is never flagged.
"""

import pytest

from repro import Cluster
from repro.analysis.race import hooks
from repro.analysis.race.hooks import SanitizerError
from repro.margo import RpcError
from repro.margo.ult import UltEvent, UltSleep
from repro.storage import LocalStore


@pytest.fixture()
def strict():
    hooks.disable()
    hooks.enable(strict=True)
    yield hooks
    hooks.disable()


@pytest.fixture()
def race():
    hooks.disable()
    hooks.reset()
    hooks.enable()
    yield hooks
    hooks.disable()
    hooks.reset()


# ----------------------------------------------------------------------
# FaultInjector mechanics
# ----------------------------------------------------------------------
def test_kill_process_is_transient_and_idempotent():
    cluster = Cluster(seed=40)
    margo = cluster.add_margo("victim", node="n0")
    store = LocalStore(cluster.node("n0"))
    store.write("survives", b"data")
    cluster.faults.kill_process(margo.process)
    cluster.faults.kill_process(margo.process)  # second kill: no-op
    assert not margo.process.alive
    assert cluster.node("n0").alive
    assert store.read("survives") == b"data"  # node-local data survives
    kills = [r for r in cluster.faults.history if r.kind == "process"]
    assert [r.target for r in kills] == ["victim"]


def test_kill_node_is_permanent():
    cluster = Cluster(seed=41)
    margo = cluster.add_margo("victim", node="n0")
    store = LocalStore(cluster.node("n0"))
    store.write("doomed", b"data")
    cluster.faults.kill_node(cluster.node("n0"))
    assert not cluster.node("n0").alive
    assert not margo.process.alive  # processes die with the node
    with pytest.raises(Exception):
        store.read("doomed")  # local data is wiped
    kinds = [r.kind for r in cluster.faults.history]
    assert kinds == ["node", "process"]


def test_scheduled_kill_fires_at_simulated_time():
    cluster = Cluster(seed=42)
    margo = cluster.add_margo("victim", node="n0")
    cluster.faults.kill_process_at(0.75, margo.process)
    cluster.run(until=1.0)
    assert not margo.process.alive
    assert cluster.faults.history[0].time == pytest.approx(0.75)


def test_message_loss_probability_validated():
    cluster = Cluster(seed=43)
    with pytest.raises(ValueError):
        cluster.faults.set_message_loss(1.5)
    cluster.faults.set_message_loss(0.25)
    assert cluster.network.loss_probability == 0.25


# ----------------------------------------------------------------------
# MCH012 killed-process exemption, end to end
# ----------------------------------------------------------------------
def _slow_server(cluster):
    server = cluster.add_margo("server", node="n0")

    def slow(ctx):
        yield UltSleep(1.0)
        return ctx.args

    server.register("slow", slow)
    return server


def test_killed_process_exempt_from_pending_handler_check(strict):
    # The server dies mid-handling (fault injection); its margo shuts
    # down via on_killed with the handler still pending.  A crash
    # dropping in-flight handles is expected -- no MCH012.
    cluster = Cluster(seed=44)
    server = _slow_server(cluster)
    client = cluster.add_margo("client", node="n1")
    cluster.faults.kill_process_at(0.2, server.process)

    def driver():
        yield from client.forward(server.address, "slow", 1, timeout=0.5)

    with pytest.raises(RpcError):
        cluster.run_ult(client, driver())
    assert server.finalized  # on_killed ran margo.shutdown()
    assert strict.findings == []


def test_healthy_finalize_with_pending_handler_still_flagged(strict):
    # Same pending-handler state, but the process is alive: MCH012.
    cluster = Cluster(seed=45)
    server = cluster.add_margo("server", node="n0")
    gate = UltEvent(cluster.kernel, name="never")

    def stuck(ctx):
        yield from gate.wait(timeout=30.0)
        return ctx.args

    server.register("stuck", stuck)
    client = cluster.add_margo("client", node="n1")

    def driver():
        yield from client.forward(server.address, "stuck", 1, timeout=0.3)

    with pytest.raises(RpcError):
        cluster.run_ult(client, driver())
    with pytest.raises(SanitizerError, match="MCH012"):
        server.shutdown()
    assert strict.findings[0].rule_id == "MCH012"


# ----------------------------------------------------------------------
# seeded race fixtures: deterministic MCH03x, clean stays clean
# ----------------------------------------------------------------------
def _racy_run():
    cluster = Cluster(seed=46)
    margo = cluster.add_margo("m", node="n0")
    shared = {}
    hooks.track(shared, "fixture-state")

    def writer(tag):
        yield UltSleep(0.01)
        hooks.note_write(shared, "cell", f"writer-{tag}")
        shared["cell"] = tag

    ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(2)]
    cluster.wait_ults(ults)
    return [f.to_json() for f in hooks.findings]


def test_seeded_racy_fixture_deterministic_mch03x(race):
    from repro.margo.ult import ULT_IDS

    start = ULT_IDS.last
    first = _racy_run()
    hooks.disable()
    hooks.reset()
    hooks.enable()
    ULT_IDS.last = start  # mochi-lint: disable=MCH060 -- rewinds the ULT id counter so the two same-seed runs compare byte-identical
    second = _racy_run()
    assert first == second  # same seed -> byte-identical report
    assert [f["rule_id"] for f in first] == ["MCH030"]
    assert first[0]["path"] == "race:fixture-state"


def test_clean_fixture_not_flagged_even_under_faults(race):
    # Event-ordered accesses stay clean even when a bystander process is
    # killed mid-run: fault injection must not fabricate race findings.
    cluster = Cluster(seed=47)
    margo = cluster.add_margo("m", node="n0")
    bystander = cluster.add_margo("bystander", node="n1")
    cluster.faults.kill_process_at(0.005, bystander.process)
    shared = {}
    hooks.track(shared, "fixture-state")
    event = UltEvent(cluster.kernel, name="handoff")

    def first():
        yield UltSleep(0.01)
        hooks.note_write(shared, "cell", "first")
        shared["cell"] = 1
        event.set()

    def second():
        yield from event.wait()
        hooks.note_read(shared, "cell", "second")
        return shared["cell"]

    ults = [
        cluster.spawn(margo, second(), name="s"),
        cluster.spawn(margo, first(), name="f"),
    ]
    assert cluster.wait_ults(ults) == [1, None]
    assert hooks.findings == []
