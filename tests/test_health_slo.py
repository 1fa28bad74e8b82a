"""mochi-health SLO engine: spec validation, burn-rate math, alerting."""

import pytest

from repro.observability import ObservabilitySpec, SLOEngine, SLOSpec
from repro.observability.health import slo as slo_module


# ----------------------------------------------------------------------
# SLOSpec validation + round-trip
# ----------------------------------------------------------------------
def test_slo_spec_validation():
    with pytest.raises(ValueError, match="unknown objective"):
        SLOSpec("x", "latency_p50", "put/1", 0.1)
    with pytest.raises(ValueError, match="non-empty 'name'"):
        SLOSpec("", "latency_p99", "put/1", 0.1)
    with pytest.raises(ValueError, match="non-empty 'target'"):
        SLOSpec("x", "latency_p99", "", 0.1)
    with pytest.raises(ValueError, match="latency threshold"):
        SLOSpec("x", "latency_p99", "put/1", 0.0)
    with pytest.raises(ValueError, match="availability threshold"):
        SLOSpec("x", "availability", "yokan:1", 1.0)
    with pytest.raises(ValueError, match="error_rate threshold"):
        SLOSpec("x", "error_rate", "yokan:1", 0.0)
    with pytest.raises(ValueError, match="window must be >= 1"):
        SLOSpec("x", "latency_p99", "put/1", 0.1, window=0)
    with pytest.raises(ValueError, match="short_windows"):
        SLOSpec("x", "latency_p99", "put/1", 0.1, window=4, short_windows=5)
    with pytest.raises(ValueError, match="budget"):
        SLOSpec("x", "latency_p99", "put/1", 0.1, budget=0.0)
    with pytest.raises(ValueError, match="fast_burn >= slow_burn"):
        SLOSpec("x", "latency_p99", "put/1", 0.1, fast_burn=1.0, slow_burn=2.0)


def test_slo_spec_from_json_validation():
    with pytest.raises(ValueError, match="must be an object"):
        SLOSpec.from_json(["nope"])
    with pytest.raises(ValueError, match="unknown keys"):
        SLOSpec.from_json({"name": "x", "objective": "latency_p99",
                           "target": "put/1", "threshold": 0.1, "bogus": 1})
    with pytest.raises(ValueError, match="needs 'threshold'"):
        SLOSpec.from_json({"name": "x", "objective": "latency_p99",
                           "target": "put/1"})


def test_slo_spec_roundtrip_and_offdefault_keys():
    spec = SLOSpec("kv-p99", "latency_p99", "yokan_put/1", 0.002,
                   window=24, slow_burn=0.5)
    doc = spec.to_json()
    assert doc["window"] == 24 and doc["slow_burn"] == 0.5
    assert "budget" not in doc  # default values stay implicit
    assert SLOSpec.from_json(doc) == spec
    minimal = SLOSpec("a", "error_rate", "yokan:*", 0.01)
    assert set(minimal.to_json()) == {"name", "objective", "target", "threshold"}


def test_slo_target_matching():
    exact = SLOSpec("a", "latency_p99", "yokan_put/1", 0.1)
    assert exact.matches("yokan_put/1")
    assert not exact.matches("yokan_put/2")
    prefix = SLOSpec("b", "availability", "yokan:*", 0.99)
    assert prefix.matches("yokan:1") and prefix.matches("yokan:250")
    assert not prefix.matches("ssg:1")


# ----------------------------------------------------------------------
# window_burn math
# ----------------------------------------------------------------------
def _window(rpc=None, providers=None):
    return {"rpc": rpc or {}, "providers": providers or {}}


def test_latency_burn_bad_good_and_no_traffic():
    spec = SLOSpec("p99", "latency_p99", "put/*", 0.001, budget=0.1)
    bad = _window(rpc={"put/1": {"total": {"count": 5, "p99": 0.002}}})
    good = _window(rpc={"put/1": {"total": {"count": 5, "p99": 0.0005}}})
    idle = _window(rpc={"get/1": {"total": {"count": 5, "p99": 9.0}}})
    assert spec.window_burn(bad) == pytest.approx(10.0)  # 1 / budget
    assert spec.window_burn(good) == 0.0
    assert spec.window_burn(idle) is None  # no matching traffic
    # Worst matching series decides.
    mixed = _window(rpc={
        "put/1": {"total": {"count": 5, "p99": 0.0005}},
        "put/2": {"total": {"count": 5, "p99": 0.01}},
    })
    assert spec.window_burn(mixed) == pytest.approx(10.0)


def test_error_rate_and_availability_burn():
    err = SLOSpec("err", "error_rate", "yokan:*", 0.01)
    avail = SLOSpec("avail", "availability", "yokan:*", 0.99)
    window = _window(providers={
        "yokan:1": {"requests": 80, "errors": 2},
        "yokan:2": {"requests": 20, "errors": 0},
        "ssg:250": {"requests": 100, "errors": 100},  # not matched
    })
    # 2 errors / 100 requests = 2% rate; thresholds are 1%.
    assert err.window_burn(window) == pytest.approx(2.0)
    assert avail.window_burn(window) == pytest.approx(2.0)
    assert err.window_burn(_window()) is None


# ----------------------------------------------------------------------
# the engine (stubbed margo: pure arithmetic, no simulation needed)
# ----------------------------------------------------------------------
class _StubKernel:
    def __init__(self):
        self.now = 0.0


class _StubMargo:
    def __init__(self):
        self.kernel = _StubKernel()
        self.process = type("P", (), {"name": "p0"})()


def _engine(*specs):
    return SLOEngine(_StubMargo(), list(specs))


def test_engine_breach_on_sustained_bad_latency():
    engine = _engine(SLOSpec("p99", "latency_p99", "put/1", 0.001,
                             window=4, short_windows=2))
    bad = _window(rpc={"put/1": {"total": {"count": 1, "p99": 0.01}}})
    engine.observe_window(bad)
    assert [a["to"] for a in engine.alerts] == ["breach"]
    status = engine.status()["slos"][0]
    assert status["state"] == "breach"
    assert status["budget_remaining"] < 0
    assert engine.worst_state() == "breach"


def test_engine_pages_on_error_spike_then_recovers():
    engine = _engine(SLOSpec("err", "error_rate", "yokan:1", 0.01,
                             window=12, short_windows=2))
    spike = _window(providers={"yokan:1": {"requests": 100, "errors": 8}})
    clean = _window(providers={"yokan:1": {"requests": 100, "errors": 0}})
    engine.observe_window(spike)  # burn 8: short/mid >= 6, long 8 -> but
    # only one window so mean 8 >= 1 -> breach dominates
    assert engine.alerts[-1]["to"] == "breach"
    for _ in range(11):
        engine.observe_window(clean)
    # Budget refills as clean windows dilute the mean.
    assert engine.alerts[-1]["to"] == "ok"
    transitions = [(a["from"], a["to"]) for a in engine.alerts]
    assert transitions[0] == ("ok", "breach")
    assert transitions[-1][1] == "ok"


def test_engine_page_without_breach():
    """A sustained spike inside a long budget window pages before the
    budget is exhausted.  (The mid-window guard means paging requires
    fast_burn < window/mid: the burn must be reachable without already
    implying breach.)"""
    engine = _engine(SLOSpec("err", "error_rate", "yokan:1", 0.01,
                             window=40, short_windows=2,
                             fast_burn=3.0, slow_burn=0.5))
    clean = _window(providers={"yokan:1": {"requests": 1000, "errors": 0}})
    spike = _window(providers={"yokan:1": {"requests": 1000, "errors": 35}})
    for _ in range(30):
        engine.observe_window(clean)
    for _ in range(10):
        engine.observe_window(spike)  # burn 3.5 over short and mid windows
    status = engine.status()["slos"][0]
    assert status["state"] == "page"
    assert status["burn_long"] < 1.0  # budget not exhausted: page, not breach


def test_engine_warn_on_slow_burn():
    engine = _engine(SLOSpec("err", "error_rate", "yokan:1", 0.01,
                             window=10, slow_burn=0.5, fast_burn=6.0))
    slow = _window(providers={"yokan:1": {"requests": 1000, "errors": 6}})
    for _ in range(10):
        engine.observe_window(slow)  # burn 0.6 per window
    status = engine.status()["slos"][0]
    assert status["state"] == "warn"
    assert status["burn_long"] == pytest.approx(0.6)


def test_engine_ignores_no_traffic_windows_and_bounds_alerts(monkeypatch):
    monkeypatch.setattr(slo_module, "MAX_ALERTS", 3)
    engine = _engine(
        SLOSpec("p99", "latency_p99", "put/1", 0.001, window=2,
                short_windows=1),
    )
    engine.observe_window(_window())  # nothing matching
    assert engine.status()["slos"][0]["windows_seen"] == 0
    bad = _window(rpc={"put/1": {"total": {"count": 1, "p99": 1.0}}})
    good = _window(rpc={"put/1": {"total": {"count": 1, "p99": 1e-6}}})
    for _ in range(5):
        engine.observe_window(bad)
        engine.observe_window(good)
        engine.observe_window(good)
    assert len(engine.alerts) == 3  # ring bounded


def test_engine_on_alert_callbacks_fire():
    engine = _engine(SLOSpec("p99", "latency_p99", "put/1", 0.001))
    seen = []
    engine.on_alert.append(seen.append)
    engine.observe_window(
        _window(rpc={"put/1": {"total": {"count": 1, "p99": 1.0}}})
    )
    assert len(seen) == 1 and seen[0]["slo"] == "p99"


# ----------------------------------------------------------------------
# ObservabilitySpec integration
# ----------------------------------------------------------------------
def test_observability_spec_slos_require_profiling():
    with pytest.raises(ValueError, match="profiler windows"):
        ObservabilitySpec.from_json({
            "slos": [{"name": "a", "objective": "latency_p99",
                      "target": "put/1", "threshold": 0.1}],
        })


def test_observability_spec_slos_roundtrip_and_duplicates():
    doc = {
        "profiling": True,
        "slos": [
            {"name": "a", "objective": "latency_p99",
             "target": "put/1", "threshold": 0.1},
            {"name": "b", "objective": "error_rate",
             "target": "yokan:*", "threshold": 0.01},
        ],
    }
    spec = ObservabilitySpec.from_json(doc)
    assert len(spec.slos) == 2
    assert ObservabilitySpec.from_json(spec.to_json()) == spec
    doc["slos"].append(dict(doc["slos"][0]))
    with pytest.raises(ValueError, match="duplicate SLO name"):
        ObservabilitySpec.from_json(doc)
