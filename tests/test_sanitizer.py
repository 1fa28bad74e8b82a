"""Runtime checker, strict and record mode: the dynamic half of
MCH011/MCH012/MCH070."""

import pytest

from repro import Cluster
from repro.analysis.race import hooks
from repro.analysis.race.hooks import SanitizerError
from repro.margo import RpcTimeoutError
from repro.margo.ult import UltEvent, UltMutex, UltSleep


@pytest.fixture()
def strict():
    hooks.disable()
    hooks.enable(strict=True)
    yield hooks
    hooks.disable()


@pytest.fixture()
def recording():
    hooks.disable()
    hooks.enable()
    yield hooks
    hooks.disable()


def make_rig():
    cluster = Cluster(seed=13)
    margo = cluster.add_margo("m", node="n0")
    return cluster, margo


def respond_rig():
    cluster = Cluster(seed=31)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    return cluster, server, client


def call(cluster, client, server, name, args=None, **kwargs):
    def driver():
        return (yield from client.forward(server.address, name, args, **kwargs))

    return cluster.run_ult(client, driver())


# ----------------------------------------------------------------------
# MCH011: lock held across a suspend
# ----------------------------------------------------------------------
def test_sleep_while_holding_mutex_raises(strict):
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")

    def bad():
        yield from mutex.acquire()
        yield UltSleep(0.1)  # mochi-lint: disable=MCH011 -- the violation under test
        mutex.release()

    with pytest.raises(SanitizerError, match="MCH011"):
        cluster.run_ult(margo, bad())
    assert strict.findings[0].rule_id == "MCH011"
    assert strict.findings[0].source == "runtime"


def test_finishing_while_holding_mutex_raises(strict):
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")

    def leaky():
        yield from mutex.acquire()
        return "done"  # mochi-lint: disable=MCH071 -- never releases on purpose: the runtime sanitizer must catch it

    with pytest.raises(SanitizerError, match="MCH011"):
        cluster.run_ult(margo, leaky())


def test_release_before_suspend_is_clean(strict):
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")

    def good():
        yield from mutex.acquire()
        mutex.release()
        yield UltSleep(0.1)
        return "ok"

    assert cluster.run_ult(margo, good()) == "ok"
    assert strict.findings == []


def test_contended_mutex_stays_clean(strict):
    # acquire() parks *waiters*; parking while waiting (not holding) must
    # not trip the sanitizer, and the FIFO handoff must stay legal.
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")
    order = []

    def worker(tag):
        yield from mutex.acquire()
        order.append(tag)
        mutex.release()
        return tag

    ults = [cluster.spawn(margo, worker(i), name=f"w{i}") for i in range(3)]
    cluster.wait_ults(ults)
    assert order == [0, 1, 2]
    assert strict.findings == []


def test_strict_violation_fails_only_the_offending_ult(strict):
    # The SanitizerError must land on the guilty ULT; the xstream (and
    # therefore the whole margo instance) keeps scheduling afterwards.
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")

    def bad():
        yield from mutex.acquire()
        yield UltSleep(0.1)  # mochi-lint: disable=MCH011 -- the violation under test
        mutex.release()

    with pytest.raises(SanitizerError):
        cluster.run_ult(margo, bad())
    strict.reset()

    def good():
        yield UltSleep(0.1)
        return "still scheduling"

    assert cluster.run_ult(margo, good()) == "still scheduling"
    assert strict.findings == []


def test_recording_mode_collects_without_raising(recording):
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")

    def bad():
        yield from mutex.acquire()
        yield UltSleep(0.1)  # mochi-lint: disable=MCH011 -- the violation under test
        mutex.release()
        return "finished"

    assert cluster.run_ult(margo, bad()) == "finished"
    assert [v.rule_id for v in recording.findings] == ["MCH011"]


def test_disabled_sanitizer_is_a_no_op():
    hooks.disable()
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")

    def bad():
        yield from mutex.acquire()
        yield UltSleep(0.1)  # mochi-lint: disable=MCH011 -- the violation under test
        mutex.release()
        return "finished"

    assert cluster.run_ult(margo, bad()) == "finished"
    assert hooks.findings == []


# ----------------------------------------------------------------------
# MCH012: dropped RPC handles
# ----------------------------------------------------------------------
class _Abort(BaseException):
    """Escapes the runtime's reply path, which no ``Exception`` can."""


def test_handler_finishing_without_response_fails_the_ult(strict):
    # Recorded as the handler ULT dies; the ULT keeps the error it died
    # of, and the caller is left to its timeout.
    cluster, server, client = respond_rig()

    def abort(ctx):
        raise _Abort("gone")

    server.register("abort", abort)
    with pytest.raises(RpcTimeoutError):
        call(cluster, client, server, "abort", timeout=0.5)
    (finding,) = strict.findings
    assert finding.rule_id == "MCH012" and "_Abort" in finding.message


def test_responded_handler_is_clean(strict):
    # Answered through respond() and still running at a healthy
    # shutdown: not a dropped handle.
    cluster, server, client = respond_rig()

    def handler(ctx):
        yield from ctx.respond("ack")
        yield UltSleep(1.0)

    server.register("ack", handler)
    assert call(cluster, client, server, "ack") == "ack"
    server.shutdown()
    assert strict.findings == []


def pending_rig():
    # A handler parked on an event that never fires: dispatched, live and
    # unanswered once the caller has timed out.
    cluster, server, client = respond_rig()
    gate = UltEvent(cluster.kernel, name="never")

    def stuck(ctx):
        yield from gate.wait(timeout=30.0)
        return ctx.args

    server.register("slow", stuck)
    with pytest.raises(RpcTimeoutError):
        call(cluster, client, server, "slow", 3, timeout=0.3)
    return cluster, server


def test_shutdown_with_pending_handler_raises(strict):
    cluster, server = pending_rig()
    with pytest.raises(SanitizerError, match="MCH012"):
        hooks.check_margo_shutdown(server)
    (finding,) = strict.findings
    assert "'slow'" in finding.message


def test_killed_process_may_drop_handles(strict):
    # Fault injection kills processes mid-RPC; dropping their in-flight
    # handles is crash semantics, not a bug.
    cluster, server = pending_rig()
    cluster.faults.kill_process(server.process)
    hooks.check_margo_shutdown(server)
    assert strict.findings == []


def test_rpc_roundtrip_is_clean_end_to_end(strict):
    from repro.margo import Compute

    cluster = Cluster(seed=13)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")

    def handler(ctx):
        yield Compute(1e-6)
        return ctx.args * 2

    server.register("double", handler)

    def driver():
        reply = yield from client.forward(server.address, "double", 21)
        return reply

    assert cluster.run_ult(client, driver()) == 42
    server.shutdown()
    client.shutdown()
    assert strict.findings == []


def test_suite_scenarios_under_sanitizer(strict):
    # A representative workload (boot + KV traffic + clean shutdown)
    # must produce zero violations -- the sanitizer gates the repo's own
    # behavior, not just synthetic fixtures.
    from repro.bedrock import boot_process
    from repro.yokan import YokanClient

    cluster = Cluster(seed=29)
    margo, _bedrock = boot_process(
        cluster, "svc", "n0",
        {
            "libraries": {"yokan": "libyokan.so"},
            "providers": [{"name": "db", "type": "yokan", "provider_id": 1}],
        },
    )
    app = cluster.add_margo("app", node="na")
    db = YokanClient(app).make_handle(margo.address, 1)

    def driver():
        yield from db.put(b"k", b"v")
        value = yield from db.get(b"k")
        return value

    assert cluster.run_ult(app, driver()) == b"v"
    assert strict.findings == []


# ----------------------------------------------------------------------
# MCH070: respond exactly once (runtime half of the mochi-flow rule)
# ----------------------------------------------------------------------
def test_early_respond_then_post_reply_work_is_clean(strict):
    from repro.margo import Compute

    cluster, server, client = respond_rig()
    post = []

    def handler(ctx):
        yield from ctx.respond(ctx.args * 2)
        yield Compute(5e-3)  # post-reply work, perfectly legal
        post.append(cluster.now)

    server.register("dbl", handler)
    assert call(cluster, client, server, "dbl", 21) == 42
    cluster.run()  # drain the handler's post-reply tail
    assert post and strict.findings == []


def test_double_respond_reported(recording):
    cluster, server, client = respond_rig()

    def handler(ctx):
        yield from ctx.respond("first")
        yield from ctx.respond("second")

    server.register("dup", handler)
    # The caller gets the *first* reply; the duplicate is dropped.
    assert call(cluster, client, server, "dup") == "first"
    cluster.run()
    assert any(
        v.rule_id == "MCH070" and "respond() twice" in v.message
        for v in recording.findings
    )


def test_raise_after_respond_reported(recording):
    cluster, server, client = respond_rig()

    def handler(ctx):
        yield from ctx.respond("ok")
        raise RuntimeError("late failure")

    server.register("late", handler)
    # The caller sees success: the error fired after the reply went out.
    assert call(cluster, client, server, "late") == "ok"
    cluster.run()
    assert any(
        v.rule_id == "MCH070" and "raised after respond()" in v.message
        for v in recording.findings
    )


def test_value_after_respond_reported(recording):
    cluster, server, client = respond_rig()

    def handler(ctx):
        yield from ctx.respond("ok")
        return "dropped"

    server.register("extra", handler)
    assert call(cluster, client, server, "extra") == "ok"
    cluster.run()
    assert any(
        v.rule_id == "MCH070" and "returned a value after respond()" in v.message
        for v in recording.findings
    )


def test_implicit_respond_path_stays_clean(strict):
    cluster, server, client = respond_rig()
    server.register("echo", lambda ctx: ctx.args)
    assert call(cluster, client, server, "echo", 7) == 7
    cluster.run()
    assert strict.findings == []
