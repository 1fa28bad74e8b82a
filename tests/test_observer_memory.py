"""What runs on every RPC keeps its contract on a long-lived service
(paper section 4), checked by running the every-observer echo rig of
``observer_rig.py``: observer state stays bounded, a monitoring hook
lets a failure out and issues no RPC, and the hot path builds no
function or dict per simulated event."""

import gc
import tracemalloc

from repro.observability.health import incidents, recorder, slo
from repro.observability.profile import profiler
from repro.observability.xray import plane

from .observer_rig import HOT_PATH, Rig, allocations, hooks_of, refuse_forward_from_hooks, swallowing_hooks

ROUND = 1000
#: Growth a bounded stack shows between rounds (allocator noise and
#: windows caught mid-fill); one kept request costs hundreds of bytes.
BYTES_PER_RPC = 8


def test_every_observer_stops_growing_once_its_rings_fill(monkeypatch):
    # Rings of one entry fill in warm-up; two equal rounds must then leave live bytes flat.
    for module, ring in ((profiler, "HISTORY"), (plane, "MAX_PATHS"), (recorder, "CAPACITY"),
                         (recorder, "MAX_DUMPS"), (incidents, "MAX_INCIDENTS"), (slo, "MAX_ALERTS")):
        monkeypatch.setattr(module, ring, 1)
    rig = Rig()

    def live_bytes_after_a_round():
        rig.echo(ROUND)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    live_bytes_after_a_round()  # warm-up: every ring fills
    tracemalloc.start()
    try:
        # The first traced round replaces what warm-up left in the rings.
        before = live_bytes_after_a_round()
        growth = live_bytes_after_a_round() - before
    finally:
        tracemalloc.stop()
    assert growth < BYTES_PER_RPC * ROUND, f"{growth / ROUND:.0f} B per RPC"
    # Every plane really ran and its rings are full.
    assert rig.client.tracer.dropped_spans > 0 and rig.server.tracer.dropped_spans > 0
    assert len(rig.server.profiler.store.windows) == 1
    assert len(rig.cluster.xray_plane().recent) == 1
    assert rig.client.slo_engine.alerts and rig.cluster.health.incidents.incidents


def test_every_hook_lets_a_poisoned_argument_raise():
    rig = Rig()
    rig.echo(10)
    monitors = rig.client.monitors + rig.server.monitors
    assert {type(m).__name__ for m in monitors} == {"StatisticsMonitor", "Tracer", "ContinuousProfiler"}
    assert sum(len(hooks_of(m)) for m in monitors) == 2 * (8 + 9 + 7)
    assert [name for m in monitors for name in swallowing_hooks(m)] == []


def test_no_hook_issues_an_rpc(monkeypatch):
    refuse_forward_from_hooks(monkeypatch)  # a refusal fails the test at teardown
    rig = Rig()
    rig.echo(100)
    assert rig.client.monitor_errors == rig.server.monitor_errors == 0


def test_the_hot_path_builds_no_function_or_dict():
    rig = Rig()
    rig.echo(10)  # warm-up: first-call setup is not per event
    entered, executed = allocations(lambda: rig.echo(100))
    assert set(entered) == {fn.__qualname__ for fn in HOT_PATH}
    assert executed == {}
