"""mochi-lint rules on snippets: one positive + one negative fixture per
rule, each linted as a one-file project.  The snippets of a retired rule
run instead, under the root conftest guard that replaced it."""

import os
import random
import textwrap
import uuid

from conftest import REFUSED, RefusedCallError

from repro import Cluster
from repro.analysis.engine import lint_source
from repro.margo.ult import UltSleep


def lint(code, **kwargs):
    return lint_source(textwrap.dedent(code), path="fixture.py", **kwargs)


def run_in_ult(code):
    """Run the snippet's ``worker()`` as a ULT: the blocking calls the
    root conftest refused on the way."""
    namespace = {"UltSleep": UltSleep}
    exec(textwrap.dedent(code), namespace)
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("m", node="n0")
    try:
        cluster.run_ult(margo, namespace["worker"]())
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
# MCH005 unobserved-failure-swallow
# ----------------------------------------------------------------------
def test_mch005_flags_swallowing_hooks_and_introspection():
    findings = lint(
        """
        class AuditMonitor:
            def on_forward_start(self, time, margo, request):
                try:
                    self.samples.append(request)
                except Exception:
                    pass

        class Server:
            def on_respond(self, ctx):
                try:
                    return self.plane.health_doc()
                except KeyError:
                    return {}

            def _on_query(self, ctx):
                try:
                    return self.run(ctx.args["script"])
                except Exception:
                    return None
        """,
        select=["MCH005"],
    )
    assert ids(findings) == ["MCH005", "MCH005", "MCH005"]
    assert "on_forward_start" in findings[0].message
    assert "error counter" in findings[0].message


def test_mch005_clean_on_counted_reraised_or_non_observers():
    findings = lint(
        """
        class AuditMonitor:
            def on_forward_start(self, time, margo, request):
                try:
                    self.samples.append(request)
                except Exception:
                    self.errors.inc()

            def on_respond(self, time, margo, request, response):
                try:
                    self.note(response)
                except ValueError:
                    raise

            def on_ult_start(self, time, margo, request):
                try:
                    self.observe(request)
                except Exception:
                    self.recorder.record("fault", "observer-error")

        class Server:
            def _on_put(self, ctx):
                # plain RPC handler, not an observer: out of scope
                try:
                    return self.do(ctx.args)
                except Exception:
                    return None
        """,
        select=["MCH005"],
    )
    assert findings == []


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
# MCH013 monitor-hook-misbehavior
# ----------------------------------------------------------------------
def test_mch013_flags_raising_and_forwarding_hooks():
    findings = lint(
        """
        class AuditMonitor:
            def on_forward(self, **kw):
                raise RuntimeError("boom")

            def on_respond(self, margo, addr, **kw):
                margo.forward(addr, "audit", kw)
        """,
        select=["MCH013"],
    )
    assert ids(findings) == ["MCH013", "MCH013"]


def test_mch013_clean_on_recording_hooks():
    findings = lint(
        """
        class StatsMonitor:
            def __init__(self):
                self.calls = 0

            def on_forward(self, **kw):
                self.calls += 1
        """,
        select=["MCH013"],
    )
    assert findings == []


def test_mch013_holds_any_class_that_defines_a_hook():
    # ContinuousProfiler is no *Monitor or *Tracer, but it defines hooks.
    from repro.observability.profile import profiler

    with open(profiler.__file__, encoding="utf-8") as handle:
        source = handle.read()
    stamp = "        request._profile_fwd_start = time\n"
    planted = source.replace(stamp, stamp + "        yield\n", 1)
    assert lint_source(source, path="profiler.py", select=["MCH013"]) == []
    findings = lint_source(planted, path="profiler.py", select=["MCH013"])
    assert ids(findings) == ["MCH013"]
    assert "ContinuousProfiler.on_forward_start yields" in findings[0].message


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
            a = time.time()  # mochi-lint: disable=MCH006 -- wrong id on purpose
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


# ----------------------------------------------------------------------
# MCH006 hotpath-allocation
# ----------------------------------------------------------------------
def test_mch006_flags_allocations_in_marked_function():
    findings = lint(
        """
        class Kernel:
            # mochi-lint: hotpath
            def post(self, delay, fn):
                entry = {"fn": fn, "deadline": delay}
                wake = lambda: fn()

                def closure():
                    return fn()

                index = {k: v for k, v in entry.items()}
                return entry, wake, closure, index
        """
    )
    assert ids(findings) == ["MCH006"] * 4
    assert "hot-path" in findings[0].message
    assert "'post'" in findings[0].message


def test_mch006_marker_on_def_line_also_counts():
    findings = lint(
        """
        def push(pool, ult):  # mochi-lint: hotpath
            pool.wakes = {"ult": ult}
        """
    )
    assert ids(findings) == ["MCH006"]


def test_mch006_clean_without_marker():
    findings = lint(
        """
        def cold_config():
            return {"pools": [], "xstreams": []}
        """
    )
    assert findings == []


def test_mch006_clean_on_flat_marked_function():
    findings = lint(
        """
        # mochi-lint: hotpath
        def post(self, delay, fn, arg):
            deadline = self._now + delay
            bucket = self._buckets.get(deadline)
            if bucket is None:
                bucket = []
                self._buckets[deadline] = bucket
            bucket.append(fn)
            bucket.append(arg)
        """
    )
    assert findings == []


def test_mch006_ignores_nested_function_internals():
    # The nested def itself is the allocation; its *body* belongs to the
    # closure, not the hot path, so inner dicts are not double-flagged.
    findings = lint(
        """
        # mochi-lint: hotpath
        def step(self):
            def helper():
                return {"inner": 1}
            return helper
        """
    )
    assert ids(findings) == ["MCH006"]
