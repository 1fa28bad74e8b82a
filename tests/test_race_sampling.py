"""Epoch-sampled race detection (P1, ROADMAP item 3 detector half).

``enable(exact=...)`` selects between two detector modes:

* exact mode (``exact=True``): ``SimKernel.schedule``/``post`` are
  method-swapped so every timer carries its scheduler's clock -- full
  precision, used by the schedule explorer;
* epoch mode (the default): the kernel stays pristine and publications
  are epoch-batched, one exact publication every 16 edge misses; races
  can be missed inside a batching window, but never invented.

These tests pin the mode mechanics (what gets swapped when) and the
headline soundness claims: the deterministic seeded MCH030 fixture is
still caught in epoch mode, and clean workloads stay clean in both
modes.  A ``period`` parameter of 1 is exact mode.
"""

import pytest

from repro import Cluster
from repro.analysis.race import hooks
from repro.margo.ult import UltEvent, UltSleep
from repro.sim import kernel as kernel_mod
from repro.sim.kernel import SimKernel


@pytest.fixture()
def race():
    hooks.disable()
    hooks.reset()
    yield hooks
    hooks.disable()
    hooks.reset()


# ----------------------------------------------------------------------
# mode mechanics
# ----------------------------------------------------------------------
def test_default_mode_is_epoch_and_leaves_kernel_pristine(race):
    plain_schedule = SimKernel.schedule
    plain_post = SimKernel.post
    race.enable()
    # Epoch mode: the event loop pays literally zero -- no method swap.
    assert SimKernel.schedule is plain_schedule
    assert SimKernel.post is plain_post
    assert not race._SWAPPED
    assert not race.EVENT_EDGES


def test_exact_mode_swaps_kernel_methods(race):
    plain_schedule = SimKernel.schedule
    race.enable(exact=True)
    assert race._SWAPPED
    assert race.EVENT_EDGES
    assert SimKernel.schedule is not plain_schedule
    race.disable()
    assert SimKernel.schedule is plain_schedule  # restored


@pytest.mark.parametrize("period", [1, None])  # exact mode swaps, epoch must not
def test_disable_restores_everything(race, period):
    """The off path is the pristine path: a cycled detector leaves the
    kernel's own ``schedule``/``post`` in place and every flag down."""
    race.enable(strict=True, exact=period == 1)
    race.disable()
    race.reset()
    assert SimKernel.schedule is kernel_mod._plain_schedule
    assert SimKernel.post is kernel_mod._plain_post
    for flag in ("ENABLED", "EVENT_EDGES", "ANY_HELD", "_SWAPPED", "_strict"):
        assert not getattr(race, flag), flag
    assert kernel_mod._RACE is None


def test_reenable_switches_modes(race):
    plain_schedule = SimKernel.schedule
    race.enable()  # epoch
    race.enable(exact=True)  # re-enable into exact: must re-swap
    assert SimKernel.schedule is not plain_schedule
    race.enable()  # and back
    assert SimKernel.schedule is plain_schedule


# ----------------------------------------------------------------------
# detection at the default sampling period
# ----------------------------------------------------------------------
def _seeded_mch030_fixture():
    """The deterministic seeded fixture: two ULTs write one tracked cell
    with no ordering edge (same shape as the sanitizer suite's)."""
    cluster = Cluster(seed=29)
    margo = cluster.add_margo("m", node="n0")
    shared = {}
    hooks.track(shared, "sampled-state")

    def writer(tag):
        yield UltSleep(0.01)
        hooks.note_write(shared, "cell", f"writer-{tag}")
        shared["cell"] = tag

    ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(2)]
    cluster.wait_ults(ults)
    return [(f.rule_id, f.path) for f in hooks.findings]


def test_sampled_mode_catches_seeded_mch030(race):
    race.enable()  # default epoch mode
    assert _seeded_mch030_fixture() == [("MCH030", "race:sampled-state")]


def test_exact_mode_agrees_on_seeded_mch030(race):
    race.enable(exact=True)
    assert _seeded_mch030_fixture() == [("MCH030", "race:sampled-state")]


@pytest.mark.parametrize("period", [16])
def test_fixture_caught_across_sampling_periods(race, period):
    race.enable()
    assert race._period == period
    assert _seeded_mch030_fixture() == [("MCH030", "race:sampled-state")]


# ----------------------------------------------------------------------
# clean stays clean (no false positives from the approximation clock)
# ----------------------------------------------------------------------
def _event_ordered_fixture():
    cluster = Cluster(seed=31)
    margo = cluster.add_margo("m", node="n0")
    shared = {}
    hooks.track(shared, "ordered-state")
    event = UltEvent(cluster.kernel, name="handoff")

    def first():
        hooks.note_write(shared, "k", "first")
        shared["k"] = 1
        event.set()
        yield UltSleep(0.0)

    def second():
        yield from event.wait()
        hooks.note_write(shared, "k", "second")
        shared["k"] = 2

    ults = [
        cluster.spawn(margo, second(), name="second"),
        cluster.spawn(margo, first(), name="first"),
    ]
    cluster.wait_ults(ults)
    return list(hooks.findings)


@pytest.mark.parametrize("period", [1, 16])
def test_event_ordered_writes_clean_in_both_modes(race, period):
    race.enable(exact=period == 1)
    assert _event_ordered_fixture() == []


def test_clean_rpc_workload_stays_clean_in_epoch_mode(race):
    race.enable()
    cluster = Cluster(seed=7)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")

    def handler(ctx):
        yield UltSleep(1e-6)
        return ctx.args

    server.register("echo", handler)

    def driver():
        for i in range(50):
            yield from client.forward(server.address, "echo", i)

    cluster.run_ult(client, driver())
    assert hooks.findings == []
