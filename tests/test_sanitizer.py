"""Runtime checker, strict and record mode: MCH011/MCH012, and the
running proofs that retired the static rules MCH015, MCH050-MCH052
and MCH070-MCH074."""

from types import SimpleNamespace

import pytest

from repro import Cluster
from repro.analysis.race import hooks
from repro.analysis.race.hooks import SanitizerError
from repro.bedrock import BedrockClient, boot_process
from repro.core.component import Client, Provider, ResourceHandle
from repro.margo import Compute, NoSuchRpcError, RpcFailedError, RpcTimeoutError
from repro.margo.ult import Park, UltEvent, UltMutex, UltSleep
from repro.observability import Tracer
from repro.yokan import YokanClient


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
        return "done"

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


def test_a_strict_violation_at_an_rpc_wait_leaves_no_late_wake(strict):
    # The caller never blocks on that RPC: its reply, still on the way,
    # must not wake the caller's next wait, nor count as in flight.
    cluster, margo = make_rig()
    margo.register("echo", lambda ctx: ctx.args)
    mutex = UltMutex(cluster.kernel, name="state")
    slept = []

    def caller():
        yield from mutex.acquire()
        with pytest.raises(SanitizerError):
            yield from margo.forward(margo.address, "echo", 1)  # mochi-lint: disable=MCH011 -- the violation under test
        mutex.release()
        slept.append(cluster.now)
        yield UltSleep(1.0)
        slept.append(cluster.now)

    cluster.run_ult(margo, caller())
    assert slept[1] == slept[0] + 1.0 and not margo._pending and margo.inflight_outgoing == 0


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


def test_implicit_respond_path_stays_clean(strict):
    cluster, server, client = respond_rig()
    server.register("echo", lambda ctx: ctx.args)
    assert call(cluster, client, server, "echo", 7) == 7
    cluster.run()
    assert strict.findings == []


# ----------------------------------------------------------------------
# Retired static rules, checked by running.  Each fixture of the former
# static rules MCH015 and MCH070-MCH074 runs here as a ULT or an RPC
# handler under the strict checker: every positive is caught by a check
# that runs, every negative runs clean.
# ----------------------------------------------------------------------
def _cases(*rows):
    return [pytest.param(*row, id=row[0].__name__) for row in rows]


def _load(args):
    raise RuntimeError("backend down")


def _on_stall(ctx, gate):
    try:
        return _load(ctx.args)
    except RuntimeError:
        pass
    yield Park(gate)


def _on_delegate_stall(ctx, gate):
    yield from _wait_for_signal(gate)
    return "late"


def _wait_for_signal(gate):
    yield Park(gate)


def on_fetch(ctx, gate):
    value = yield Park(gate)
    return value


def on_poll(ctx, gate):
    while True:
        yield UltSleep(0.1)


def _on_ok_implicit(ctx, gate):
    yield Compute(1e-6)
    return ctx.args


def on_fetch_bounded(ctx, gate):
    value = yield Park(gate, 5.0)
    while True:
        if value is not None:
            return value
        value = yield Park(gate, timeout=1.0)


def progress_loop(gate):
    value = yield Park(gate)  # not a handler: waiting forever is legal
    return value


@pytest.mark.parametrize(
    "handler, rule, fragment",
    _cases(
        (_on_stall, "MCH012", "still pending"),
        (_on_delegate_stall, "MCH012", "still pending"),
        (on_fetch, "MCH012", "still pending"),
        (on_poll, "MCH012", "still pending"),
        (_on_ok_implicit, None, None),
        (on_fetch_bounded, None, None),
    ),
)
def test_mch012_unanswered_handler_by_running(strict, handler, rule, fragment):
    # The gate is never set: a handler that parks on it without a reply
    # or a timeout is still unanswered when the process shuts down.  A
    # daemon ULT parked on it beside every handler is never reported.
    cluster, server, client = respond_rig()
    gate = UltEvent(cluster.kernel, name="never")
    cluster.spawn(server, progress_loop(gate))
    server.register("rpc", lambda ctx: handler(ctx, gate))
    try:
        call(cluster, client, server, "rpc", 1, timeout=0.5)
    except RpcTimeoutError:
        pass
    cluster.run(until=cluster.now + 10.0)
    try:
        server.shutdown()
    except SanitizerError:
        pass
    if rule is None:
        assert strict.findings == []
    else:
        first = strict.findings[0]
        assert first.rule_id == rule and fragment in first.message, first.message


def update_bad(state, mu):
    yield from mu.acquire()
    if state.dirty:
        return None
    mu.release()
    return state.value


def guard_bad(state, mu):
    yield from mu.acquire()
    if state.closed:
        raise RuntimeError("closed while locked")
    mu.release()
    return state.value


def update_ok(state, mu):
    yield from mu.acquire()
    try:
        if state.dirty:
            return None
        return state.value
    finally:
        mu.release()


def straight_ok(state, mu):
    yield from mu.acquire()
    value = state.value
    mu.release()
    return value


@pytest.mark.parametrize(
    "body, leaks",
    _cases((update_bad, True), (guard_bad, True), (update_ok, False), (straight_ok, False)),
)
def test_mch071_release_on_every_exit_by_running(strict, body, leaks):
    cluster, margo = make_rig()
    mutex = UltMutex(cluster.kernel, name="state")
    state = SimpleNamespace(dirty=True, closed=True, value=7)
    if not leaks:
        cluster.run_ult(margo, body(state, mutex))
        assert strict.findings == []
        return
    with pytest.raises((SanitizerError, RuntimeError)):
        cluster.run_ult(margo, body(state, mutex))
    (finding,) = strict.findings
    assert finding.rule_id == "MCH011"
    assert "finished while still holding" in finding.message


class _Validation(RuntimeError):
    pass


def _validate(spec):
    raise _Validation(spec["name"])


def grow_bad(bedrock, spec):
    yield from bedrock.add_xstream(spec)
    _validate(spec)


def grow_guarded(bedrock, spec):
    yield from bedrock.add_xstream(spec)
    try:
        _validate(spec)
    except _Validation:
        yield from bedrock.remove_xstream(spec["name"])
        raise


@pytest.mark.parametrize("body, kept", _cases((grow_bad, True), (grow_guarded, False)))
def test_mch072_added_xstream_is_owned_by_running(strict, body, kept):
    # The leak MCH072 looked for cannot happen: add_xstream hands the
    # xstream to the margo instance before it returns, so a raise right
    # after it leaves an xstream the live config lists and
    # remove_xstream reclaims.  (The fixture's other negative handed the
    # xstream to an owner before validating; margo is that owner.)
    cluster = Cluster(seed=41)
    margo, _bedrock = boot_process(cluster, "server", "n0", {})
    app = cluster.add_margo("client", node="nc")
    handle = BedrockClient(app).make_service_handle(margo.address)
    spec = {"name": "ES-grow", "scheduler": {"type": "basic", "pools": ["__primary__"]}}

    def listed():
        xstreams = cluster.run_ult(
            app, handle.query("return $__config__.margo.argobots.xstreams;")
        )
        return spec["name"] in [x["name"] for x in xstreams]

    with pytest.raises(_Validation):
        cluster.run_ult(app, body(handle, spec))
    assert listed() is kept
    if kept:
        cluster.run_ult(app, handle.remove_xstream(spec["name"]))
        assert not listed()
    assert strict.findings == []


def _audit(db):
    return (yield from db.count())


def handoff_bad(bedrock, db, dest):
    yield from bedrock.migrate_provider("db", dest, remi_provider_id=0)
    yield from db.put("k", "v")


def retire_bad(bedrock, db, dest):
    yield from bedrock.stop_provider("db")  # Provider.destroy()
    yield from db.put("k", "v")


def retire_arg_bad(bedrock, db, dest):
    yield from bedrock.stop_provider("db")
    return (yield from _audit(db))


def retire_rebound_ok(bedrock, db, dest):
    yield from bedrock.stop_provider("db")
    yield from bedrock.start_provider("db", "yokan", provider_id=1)
    yield from db.put("k", "v")


def handoff_ok(bedrock, db, dest):
    yield from bedrock.migrate_provider("db", dest, remi_provider_id=0)
    config = yield from bedrock.get_config()
    return config["providers"]


@pytest.mark.parametrize(
    "body, gone",
    _cases(
        (handoff_bad, True), (retire_bad, True), (retire_arg_bad, True),
        (retire_rebound_ok, False), (handoff_ok, False),
    ),
)
def test_mch073_use_after_release_by_running(strict, body, gone):
    # A destroyed or migrated provider's RPCs are deregistered, so any
    # later use of it -- direct or through a helper -- is a forward the
    # runtime answers with NoSuchRpcError.
    cluster = Cluster(seed=43)
    src, _ = boot_process(
        cluster, "src", "ns",
        {
            "libraries": {"yokan": "libyokan.so"},
            "providers": [
                {"name": "db", "type": "yokan", "provider_id": 1,
                 "config": {"database": {"type": "persistent"}}},
            ],
        },
    )
    dst, _ = boot_process(
        cluster, "dst", "nd",
        {
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [{"name": "remi0", "type": "remi", "provider_id": 0}],
        },
    )
    app = cluster.add_margo("client", node="nc")
    bedrock = BedrockClient(app).make_service_handle(src.address)
    db = YokanClient(app).make_handle(src.address, 1)
    run = body(bedrock, db, dst.address)
    if gone:
        with pytest.raises(NoSuchRpcError):
            cluster.run_ult(app, run)
    else:
        cluster.run_ult(app, run)
    assert strict.findings == []


def migrate_bad(tracer, margo, name):
    span = tracer.start_span(name, "migration", margo.process.name, margo.kernel.now)
    yield from margo.forward(name, "migrate", {})
    span.end(margo.kernel.now)


def test_mch074_manual_span_api_is_gone_by_running(strict):
    # MCH074 guarded Tracer.start_span, which had no caller; the API is
    # deleted, so the leaking pattern cannot be written any more.
    cluster, margo = make_rig()
    with pytest.raises(AttributeError, match="start_span"):
        cluster.run_ult(margo, migrate_bad(Tracer(), margo, "db"))
    assert strict.findings == []


# ----------------------------------------------------------------------
# MCH050-MCH052 (RPC contracts): one broken end of each, by running
# ----------------------------------------------------------------------
class KvProvider(Provider):
    component_type = "kv"

    def __init__(self, margo, stat=False):
        super().__init__(margo, "kv", provider_id=1)
        self.register_rpc("get", self._on_get)
        self.register_rpc("scan", self._on_scan)
        self.register_rpc("ping", lambda ctx: "pong")  # a plain function
        if stat:
            self.register_rpc("stat", self._on_stat)  # no such method

    def _on_get(self, ctx):
        yield Compute(1e-6)  # ends without a return

    def _on_scan(self, prefix, limit, extra):  # called as (ctx)
        return [prefix, limit, extra]


class KvHandle(ResourceHandle):
    def call(self, op):
        return (yield from self._forward(op, {}))


class KvClient(Client):
    component_type = "kv"
    handle_cls = KvHandle


def test_mch051_missing_handler_by_running(strict):
    _, server, _ = respond_rig()
    with pytest.raises(AttributeError, match="_on_stat"):
        KvProvider(server, stat=True)
    assert strict.findings == []


@pytest.mark.parametrize(
    "op, raises, reply",
    [
        ("lookup", NoSuchRpcError, None),  # MCH050; raw forward: test_no_such_rpc
        ("scan", RpcFailedError, "TypeError"),  # MCH051
        ("ping", None, "pong"),  # MCH051's "not a generator" is supported
        ("get", None, None),  # MCH052: the caller binds None
    ],
    ids=["orphan", "arity", "plain", "no-return"],
)
def test_mch05x_rpc_contract_by_running(strict, op, raises, reply):
    cluster, server, client = respond_rig()
    KvProvider(server)
    handle = KvClient(client).make_handle(server.address, 1)
    if raises is None:
        assert cluster.run_ult(client, handle.call(op)) == reply
    else:
        with pytest.raises(raises) as failed:
            cluster.run_ult(client, handle.call(op))
        assert reply is None or reply in str(failed.value)
    assert strict.findings == []


class Store:
    def __init__(self, kernel):
        self._lock = UltMutex(kernel, name="store")
        self._pending = []
        self._count = 0

    def locked_bad(self):
        yield from self._lock.acquire()
        yield from self._refresh()
        self._lock.release()

    def locked_ok(self):
        yield from self._lock.acquire()
        self._count = 1
        self._lock.release()
        yield from self._refresh()

    def locked_pure(self):
        yield from self._lock.acquire()
        yield from self._drain()
        self._lock.release()

    def _refresh(self):
        yield UltSleep(0.1)

    def _drain(self):
        for item in list(self._pending):
            yield item


@pytest.mark.parametrize(
    "method, caught",
    _cases((Store.locked_bad, True), (Store.locked_ok, False), (Store.locked_pure, False)),
)
def test_mch015_lock_across_callee_suspend_by_running(strict, method, caught):
    # MCH011 checks every suspension while a mutex is held, whichever
    # frame of the ULT's generator stack issued it.
    cluster, margo = make_rig()
    store = Store(cluster.kernel)
    if not caught:
        cluster.run_ult(margo, method(store))
        assert strict.findings == []
        return
    with pytest.raises(SanitizerError):
        cluster.run_ult(margo, method(store))
    first = strict.findings[0]
    assert first.rule_id == "MCH011" and "suspended (UltSleep)" in first.message
