"""mochi-lint rules on snippets: one positive + one negative fixture per
rule, each linted as a one-file project."""

import textwrap

from repro.analysis.engine import lint_source


def lint(code, **kwargs):
    return lint_source(textwrap.dedent(code), path="fixture.py", **kwargs)


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
# MCH002 unseeded-randomness
# ----------------------------------------------------------------------
def test_mch002_flags_global_random_and_entropy():
    findings = lint(
        """
        import random, uuid, secrets
        def pick(items):
            x = random.choice(items)
            r = random.Random()
            t = uuid.uuid4()
            s = secrets.token_bytes(8)
            random.seed()
            return x, r, t, s
        """
    )
    assert ids(findings) == ["MCH002"] * 5


def test_mch002_clean_on_seeded_sources():
    findings = lint(
        """
        import random
        def pick(rng, items):
            seeded = random.Random(42)
            return rng.choice(items), seeded.random()
        """
    )
    assert findings == []


# ----------------------------------------------------------------------
# MCH004 unbounded-monitoring-state
# ----------------------------------------------------------------------
def test_mch004_flags_unbounded_module_growth():
    findings = lint(
        """
        EVENTS = []
        STATS = {}

        class AuditMonitor:
            def on_forward(self, **kw):
                EVENTS.append(kw)

            def on_respond(self, **kw):
                STATS[kw["rpc"]] = kw
        """,
        select=["MCH004"],
    )
    assert ids(findings) == ["MCH004", "MCH004"]
    assert "EVENTS" in findings[0].message
    assert "deque(maxlen=...)" in findings[0].message
    assert "STATS" in findings[1].message


def test_mch004_flags_unbounded_deque_and_setdefault():
    findings = lint(
        """
        from collections import deque, defaultdict
        TRACE = deque()
        INDEX = defaultdict(list)

        def on_ult_start(**kw):
            TRACE.append(kw)
            INDEX.setdefault(kw["rpc"], []).append(kw)
        """,
        select=["MCH004"],
    )
    assert ids(findings) == ["MCH004", "MCH004"]
    assert "TRACE" in findings[0].message
    assert "INDEX" in findings[1].message


def test_mch004_clean_on_ring_buffer_and_non_hooks():
    findings = lint(
        """
        from collections import deque
        RECENT = deque(maxlen=64)

        class StatsMonitor:
            def __init__(self):
                self.counts = {}

            def on_forward(self, **kw):
                RECENT.append(kw)
                self.counts["forward"] = self.counts.get("forward", 0) + 1

        def rebuild(events):
            table = {}
            for e in events:
                table[e] = 1
            return table
        """,
        select=["MCH004"],
    )
    assert findings == []


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
# MCH014 blocking-call-reachable-from-ult (depth 0 and one hop)
# ----------------------------------------------------------------------
def test_mch010_flags_blocking_call_in_ult_body():
    findings = lint(
        """
        import subprocess
        def worker():
            yield UltSleep(1.0)
            subprocess.run(["ls"])
        """,
        select=["MCH014"],
    )
    assert ids(findings) == ["MCH014"]
    assert "subprocess.run" in findings[0].message


def test_mch010_ignores_plain_functions():
    # Not a ULT generator: blocking here is ordinary host-side code.
    findings = lint(
        """
        import subprocess
        def build():
            return subprocess.run(["make"])
        """,
        select=["MCH014"],
    )
    assert findings == []


def test_mch010_ignores_nested_non_ult_helpers():
    # The blocking call lives in a nested plain function, not the ULT,
    # and the ULT never *calls* it -- it only returns the reference.
    findings = lint(
        """
        import subprocess
        def worker():
            def helper():
                return subprocess.run(["ls"])
            yield UltSleep(1.0)
            return helper
        """,
        select=["MCH014"],
    )
    assert findings == []


def test_mch010_flags_call_to_blocking_helper():
    # One hop down the call graph: the ULT calls a plain helper that blocks.
    findings = lint(
        """
        import time
        def pause():
            time.sleep(0.5)
        def worker():
            yield UltSleep(1.0)
            pause()
        """,
        select=["MCH014"],
    )
    assert ids(findings) == ["MCH014"]
    assert "pause" in findings[0].message
    assert "time.sleep" in findings[0].message
    assert findings[0].line == 7


def test_mch010_flags_self_call_to_blocking_helper():
    findings = lint(
        """
        import socket
        class Peer:
            def _connect(self):
                return socket.create_connection(("host", 80))
            def handler(self):
                yield UltSleep(0.1)
                self._connect()
        """,
        select=["MCH014"],
    )
    assert ids(findings) == ["MCH014"]
    assert "_connect" in findings[0].message
    assert "socket.create_connection" in findings[0].message


def test_mch010_ignores_call_to_clean_helper():
    # The helper does host-side work but nothing blocking.
    findings = lint(
        """
        def shape(data):
            return sorted(data)
        def worker(data):
            yield UltSleep(1.0)
            return shape(data)
        """,
        select=["MCH014"],
    )
    assert findings == []


def test_mch010_blocking_ult_helper_not_double_flagged():
    # A helper that is itself a ULT generator is flagged directly at its
    # own blocking call; delegating to it is not a second finding.
    findings = lint(
        """
        import time
        def inner():
            yield UltSleep(1.0)
            time.sleep(0.5)
        def outer():
            yield UltSleep(1.0)
            yield from inner()
        """,
        select=["MCH014"],
    )
    assert ids(findings) == ["MCH014"]
    assert findings[0].line == 5


# ----------------------------------------------------------------------
# MCH011 yield-while-holding-lock
# ----------------------------------------------------------------------
def test_mch011_flags_suspend_between_acquire_and_release():
    findings = lint(
        """
        def critical(mutex):
            yield from mutex.acquire()
            yield UltSleep(0.1)
            mutex.release()
        """,
        select=["MCH011"],
    )
    assert ids(findings) == ["MCH011"]
    assert "UltSleep" in findings[0].message


def test_mch011_flags_forward_while_holding():
    findings = lint(
        """
        def critical(mutex, margo, addr):
            yield from mutex.acquire()
            reply = yield from margo.forward(addr, "rpc", None)
            mutex.release()
            return reply
        """,
        select=["MCH011"],
    )
    assert ids(findings) == ["MCH011"]


def test_mch011_clean_when_released_before_suspend():
    findings = lint(
        """
        def critical(mutex):
            yield from mutex.acquire()
            yield Compute(1e-6)
            mutex.release()
            yield UltSleep(0.1)
        """,
        select=["MCH011"],
    )
    assert findings == []


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
            a = time.time()  # mochi-lint: disable=MCH002 -- wrong id on purpose
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
