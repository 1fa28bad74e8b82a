"""The every-observer echo rig, and the running checks of the hook and
hot-path contracts on it (paper section 4: Margo's monitoring
callbacks run inline on every RPC)."""

import dis
import sys
from collections import Counter

from conftest import _refuse

from repro import Cluster
from repro.margo import Compute, MargoInstance, Pool, XStream
from repro.mercury import NULL_PROVIDER
from repro.monitoring import HOOK_NAMES, Monitor, StatisticsMonitor
from repro.sim import Network, SimKernel

#: Tracing at rate 1 under ``max_spans``, metrics, the profiler with
#: xray on every request and a short window, an SLO that always burns.
OBSERVERS = {
    "tracing": True, "max_spans": 64, "metrics": True,
    "profiling": True, "profile_window": 1e-4, "xray": True,
    "slos": [{"name": "echo-p99", "objective": "latency_p99",
              "target": f"echo/{NULL_PROVIDER}", "threshold": 1e-9}],
}


def _echo(ctx):
    yield Compute(1e-6)
    return ctx.args


class Rig:
    """An echo server and client, each with :data:`OBSERVERS`, the
    health plane, a Listing-1 StatisticsMonitor and ``monitors``."""

    def __init__(self, *monitors):
        self.cluster = cluster = Cluster(seed=7)
        self.server = cluster.add_margo("server", node="n0", config={"observability": OBSERVERS})
        self.client = cluster.add_margo("client", node="n1", config={"observability": OBSERVERS})
        cluster.enable_health()
        for margo in (self.server, self.client):
            for monitor in (StatisticsMonitor(),) + monitors:
                margo.add_monitor(monitor)
        self.server.register("echo", _echo)

    def echo(self, rpcs):
        def driver():
            for i in range(rpcs):
                yield from self.client.forward(self.server.address, "echo", i)

        self.cluster.run_ult(self.client, driver())


class Poisoned(Exception):
    pass


def _touch(self, *args):
    Poison.touches += 1
    raise Poisoned


class Poison:
    """Raises :class:`Poisoned` on attribute or item access, call, comparison, arithmetic."""

    touches = 0  # swallowed or not
    __hash__ = object.__hash__
    __getattribute__ = __setattr__ = __getitem__ = __setitem__ = __call__ = _touch
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = __float__ = _touch
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __truediv__ = __neg__ = _touch


def hooks_of(monitor):
    """The ``HOOK_NAMES`` methods ``monitor`` defines, less :class:`Monitor`'s no-ops."""
    hooks = (getattr(type(monitor), name, None) for name in HOOK_NAMES)
    return [fn for fn in hooks if fn is not None and fn is not getattr(Monitor, fn.__name__)]


def swallowing_hooks(monitor):
    """The hooks of ``monitor`` that touched a poison and returned, each
    called by keyword as the runtime calls it, on ``monitor`` and then
    with ``self`` poisoned too (raising anything lets the failure out)."""
    swallowed = []
    for fn in hooks_of(monitor):
        params = fn.__code__.co_varnames[1:fn.__code__.co_argcount]
        for this in (monitor, Poison()):
            touched = Poison.touches
            try:
                fn(this, **dict.fromkeys(params, Poison()))
            except Exception:
                continue
            if Poison.touches > touched:
                swallowed.append(fn.__qualname__)
                break
    return swallowed


def refuse_forward_from_hooks(monkeypatch):
    """Make ``MargoInstance.forward`` refuse a hook caller: the root conftest
    fails the test, even when the runtime swallowed the refusal."""
    def from_hook(frame, args, kwargs):
        return frame.f_code.co_name in HOOK_NAMES and f"from hook {frame.f_code.co_qualname}"

    monkeypatch.setattr(MargoInstance, "forward", _refuse(
        "MargoInstance.forward", MargoInstance.forward, from_hook,
        "issues an RPC from a monitoring hook, inside the path it observes"))


#: What runs once per simulated event or more.
HOT_PATH = (SimKernel.post, SimKernel.schedule, Pool.push, XStream._drive, Network.send)

#: Opcodes that build a function (a lambda, a def, a 3.11 comprehension) or a dict.
ALLOCATING = frozenset({"MAKE_FUNCTION", "BUILD_MAP", "BUILD_CONST_KEY_MAP", "MAP_ADD"})


def allocations(run, functions=HOT_PATH):
    """Run ``run()`` with opcode events on in ``functions`` only; return
    how often each was entered and ran each :data:`ALLOCATING` opcode,
    by qualified name.  The trace function set before is restored."""
    watched = {
        fn.__code__: {i.offset: i.opname for i in dis.get_instructions(fn) if i.opname in ALLOCATING}
        for fn in functions
    }
    entered, executed = Counter(), Counter()

    def opcodes(frame, event, arg):
        opname = watched[frame.f_code].get(frame.f_lasti) if event == "opcode" else None
        if opname is not None:
            executed[frame.f_code.co_qualname, opname] += 1
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code in watched:
            frame.f_trace_opcodes = True
            entered[frame.f_code.co_qualname] += 1
            return opcodes

    previous = sys.gettrace()
    sys._getframe().f_trace_opcodes = True  # 3.12 instruments opcodes only once a frame asked
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return entered, executed
