"""mochi-lint rules on snippets: one positive + one negative fixture per
rule, each linted as a one-file project.  The snippets of a retired rule
run instead, under the running check that replaced it."""

import os
import random
import sys
import textwrap
import uuid

from conftest import REFUSED, RefusedCallError

from repro import Cluster
from repro.analysis.engine import lint_source
from repro.margo.ult import UltSleep

from .observer_rig import Rig, allocations, refuse_forward_from_hooks, swallowing_hooks


def lint(code, **kwargs):
    return lint_source(textwrap.dedent(code), path="fixture.py", **kwargs)


def snippet(code, name, **namespace):
    exec(textwrap.dedent(code), namespace)
    return namespace[name]


def run_in_ult(code):
    """Run the snippet's ``worker()`` as a ULT: the blocking calls the
    root conftest refused on the way."""
    worker = snippet(code, "worker", UltSleep=UltSleep)
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("m", node="n0")
    try:
        cluster.run_ult(margo, worker())
    except RefusedCallError:
        pass
    return _take_refused()


def _take_refused():
    refused = [call.split("(")[0] for call in REFUSED]
    REFUSED.clear()
    return refused


def ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# MCH001 wall-clock-access
# ----------------------------------------------------------------------
def test_mch001_flags_wall_clock_calls():
    findings = lint(
        """
        import time, datetime
        def stamp():
            a = time.time()
            b = time.perf_counter()
            c = datetime.datetime.now()
            return a, b, c
        """
    )
    assert ids(findings) == ["MCH001", "MCH001", "MCH001"]
    assert findings[0].line == 4
    assert "time.time" in findings[0].message


def test_mch001_clean_on_simulated_time():
    findings = lint(
        """
        def stamp(kernel):
            now = kernel.now
            yield UltSleep(0.5)
            return now
        """
    )
    assert findings == []


# ----------------------------------------------------------------------
# MCH002 unseeded-randomness, retired: the root conftest refuses the draw
# when code under src/repro makes it, under any alias
# ----------------------------------------------------------------------
REPRO_FILE = os.path.abspath(os.path.join(__file__, "..", "..", "src", "repro", "fixture.py"))


def run_as_repro(code):
    """Run ``code`` as a module of ``src/repro``: the calls refused."""
    try:
        exec(compile(textwrap.dedent(code), REPRO_FILE, "exec"), {})
    except RefusedCallError:
        pass
    return _take_refused()


def test_mch002_flags_global_random_and_entropy():
    head = "import os, random, random as _r, secrets, uuid\nfrom random import shuffle\n"
    for draw, refused in (
        ("random.choice([1, 2])", "random.choice"),
        ("_r.random()", "random.random"),
        ("shuffle([1, 2])", "random.shuffle"),
        ("random.Random()", "random.Random"),
        ("random.SystemRandom()", "random.Random"),
        ("random.seed()", "random.seed"),
        ("uuid.uuid4()", "uuid.uuid4"),
        ("secrets.token_bytes(8)", "secrets.token_bytes"),
        ("os.urandom(4)", "os.urandom"),
    ):
        assert run_as_repro(head + draw) == [refused], draw


def test_mch002_clean_on_seeded_sources():
    assert run_as_repro(
        """
        import random
        from repro.sim.random import RandomSource
        seeded = random.Random(42).choice([1, 2])
        stream = RandomSource(7).stream("pick").random()
        """
    ) == []
    # The tests and their tools draw freely.
    random.random(), uuid.uuid4(), os.urandom(4)
    assert REFUSED == []


# ----------------------------------------------------------------------
# MCH005, MCH006 and MCH013, retired for observer_rig.py's running
# checks: a hook lets a poisoned argument raise and issues no forward;
# the traced hot path builds no function or dict
# ----------------------------------------------------------------------
AUDITOR = snippet(
    """
    class Auditor:
        errors = 0

        def on_request_received(self, time, margo, request):
            raise RuntimeError("boom")

        def on_ult_start(self, time, margo, request, queued_for):
            try:
                request.rpc_name
            except Exception:
                self.errors += 1  # counted, and still swallowed

        def on_respond(self, time, margo, request, response):
            margo.forward(request.src_address, "audit", None)
    """,
    "Auditor",
)


def test_mch005_flags_hooks_that_swallow_a_poisoned_argument():
    assert swallowing_hooks(AUDITOR()) == ["Auditor.on_ult_start"]


def test_mch013_flags_raising_and_forwarding_hooks(monkeypatch):
    # The refusal goes by the caller's name, whatever its class.
    refuse_forward_from_hooks(monkeypatch)
    rig = Rig(AUDITOR())
    rig.echo(1)
    assert (rig.client.monitor_errors, rig.server.monitor_errors) == (0, 2)  # the raise and the refusal
    assert _take_refused() == ["MargoInstance.forward"]


def test_mch006_flags_allocations_in_marked_function():
    # Not counted: the body of the closure it builds, or its callee's.
    post = snippet(
        """
        def post(fn):
            wake = lambda: fn()

            def closure():
                return {"inner": 1}

            return {"fn": fn, "at": 0}, {k: k for k in "ab"}, wake, closure(), cold_config()

        def cold_config():
            return {"pools": []}
        """,
        "post",
    )
    entered, executed = allocations(lambda: post(print), [post])
    # 3.11 builds a comprehension as a function, 3.12 inlines its dict.
    own = {"MAKE_FUNCTION": 3} if sys.version_info < (3, 12) else {"MAKE_FUNCTION": 2, "BUILD_MAP": 1, "MAP_ADD": 2}
    assert entered == {"post": 1}
    assert executed == {("post", op): n for op, n in dict(own, BUILD_CONST_KEY_MAP=1).items()}


# ----------------------------------------------------------------------
# MCH014 (was MCH010) blocking-call-reachable-from-ult, retired: the root
# conftest refuses the call while a ULT runs, at any depth, any alias
# ----------------------------------------------------------------------
def test_mch010_flags_blocking_call_in_ult_body():
    refused = run_in_ult(
        """
        import subprocess
        def worker():
            yield UltSleep(1.0)
            subprocess.run(["true"])
        """
    )
    assert refused == ["subprocess.run"]


def test_mch010_ignores_plain_functions():
    # Not a ULT: blocking here is ordinary host-side code.
    namespace = {}
    exec("import subprocess\ndef build():\n    return subprocess.run(['true'])\n", namespace)
    assert namespace["build"]().returncode == 0
    assert REFUSED == []


def test_mch010_ignores_nested_non_ult_helpers():
    # The ULT only returns the blocking helper; it never calls it.
    refused = run_in_ult(
        """
        import subprocess
        def worker():
            def helper():
                return subprocess.run(["true"])
            yield UltSleep(1.0)
            return helper
        """
    )
    assert refused == []


def test_mch010_flags_call_to_blocking_helper():
    # One hop down, under an alias.
    refused = run_in_ult(
        """
        import time as _t
        def pause():
            _t.sleep(0.001)
        def worker():
            yield UltSleep(1.0)
            pause()
        """
    )
    assert refused == ["time.sleep"]


def test_mch010_flags_self_call_to_blocking_helper():
    refused = run_in_ult(
        """
        import socket
        class Peer:
            def _connect(self):
                return socket.create_connection(("localhost", 9), timeout=0.01)
            def handler(self):
                yield UltSleep(0.1)
                self._connect()
        def worker():
            yield from Peer().handler()
        """
    )
    assert refused == ["socket.create_connection"]


def test_mch010_ignores_call_to_clean_helper():
    refused = run_in_ult(
        """
        def shape():
            return sorted([3, 1, 2])
        def worker():
            yield UltSleep(1.0)
            return shape()
        """
    )
    assert refused == []


def test_mch010_blocking_ult_helper_not_double_flagged():
    # One blocking call, one refusal, however many ULT frames delegate.
    refused = run_in_ult(
        """
        import time
        def inner():
            yield UltSleep(1.0)
            time.sleep(0.001)
        def worker():
            yield UltSleep(1.0)
            yield from inner()
        """
    )
    assert refused == ["time.sleep"]


# ----------------------------------------------------------------------
# MCH090 parse-error
# ----------------------------------------------------------------------
def test_mch090_on_syntax_error():
    findings = lint("def broken(:\n    pass\n")
    assert ids(findings) == ["MCH090"]
    assert findings[0].severity == "error"


# ----------------------------------------------------------------------
# Suppressions (incl. MCH091)
# ----------------------------------------------------------------------
def test_line_suppression_with_justification():
    findings = lint(
        """
        import time
        def stamp():
            return time.time()  # mochi-lint: disable=MCH001 -- host-side harness code
        """
    )
    assert findings == []


def test_line_suppression_only_covers_its_rule_and_line():
    findings = lint(
        """
        import time
        def stamp():
            a = time.time()  # mochi-lint: disable=MCH060 -- wrong id on purpose
            b = time.time()
            return a, b
        """
    )
    assert ids(findings) == ["MCH001", "MCH001"]


def test_file_suppression_covers_whole_file():
    findings = lint(
        """
        # mochi-lint: disable-file=MCH001 -- benchmark measuring real time
        import time
        def stamp():
            return time.time(), time.perf_counter()
        """
    )
    assert findings == []


# Assembled at runtime so this *test file* itself lints clean: a literal
# bare suppression here would (correctly) be flagged when CI lints tests/.
BARE_SUPPRESSION = "# mochi-lint: " + "disable=MCH001"
META_SUPPRESSION = "# mochi-lint: " + "disable-file=MCH091 -- trying to turn the gate off"
STALE_SUPPRESSION = "# mochi-lint: " + "disable=MCH001,MCH012,MCH014,MCH999 -- stale"


def test_bare_suppression_is_mch091():
    findings = lint(
        f"""
        import time
        def stamp():
            return time.time()  {BARE_SUPPRESSION}
        """
    )
    # The bare comment still suppresses nothing and is itself flagged.
    assert ids(findings) == ["MCH001", "MCH091"]


def test_suppression_of_an_id_no_static_check_reports_is_mch091():
    # A retired rule, a typo and a runtime-only id silence nothing.
    findings = lint(
        f"""
        import time
        def stamp():
            return time.time()  {STALE_SUPPRESSION}
        """
    )
    assert ids(findings) == ["MCH001", "MCH091"]
    assert "['MCH012', 'MCH014', 'MCH999']" in findings[1].message


def test_meta_rules_cannot_be_suppressed():
    findings = lint(
        f"""
        {META_SUPPRESSION}
        import time
        def stamp():
            return time.time()  {BARE_SUPPRESSION}
        """
    )
    assert "MCH091" in ids(findings)
