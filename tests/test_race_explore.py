"""mochi-race schedule explorer: MCH032 order-dependence detection."""

import json

from repro import Cluster
from repro.analysis.race import hooks
from repro.analysis.race.explore import explore, state_digest
from repro.margo.ult import UltMutex, UltSleep


def racy_scenario():
    """Last writer wins on one cell: the classic order-dependent outcome."""
    cluster = Cluster(seed=5)
    margo = cluster.add_margo("m", node="n0")
    cell = {}

    def writer(tag):
        yield UltSleep(0.01)
        hooks.note_write(cell, "winner", f"writer-{tag}")
        cell["winner"] = tag

    ults = [cluster.spawn(margo, writer(i), name=f"w{i}") for i in range(3)]
    cluster.wait_ults(ults)
    return dict(cell)


def clean_scenario():
    """Mutex-ordered counter: every schedule reaches the same total."""
    cluster = Cluster(seed=5)
    margo = cluster.add_margo("m", node="n0")
    mutex = UltMutex(cluster.kernel, name="guard")
    cell = {"total": 0}

    def adder(amount):
        yield UltSleep(0.01)
        yield from mutex.acquire()
        hooks.note_write(cell, "total", f"adder-{amount}")
        cell["total"] += amount
        mutex.release()

    ults = [cluster.spawn(margo, adder(i), name=f"a{i}") for i in range(1, 4)]
    cluster.wait_ults(ults)
    return dict(cell)


def test_state_digest_canonical():
    assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
    assert state_digest({"a": 1}) != state_digest({"a": 2})


def test_explorer_pins_order_dependence():
    report = explore(racy_scenario, "racy", seeds=(1, 2, 3, 4))
    # The HB engine alone sees the unordered writes...
    assert any(f.rule_id == "MCH030" for f in report.findings)
    # ...and the explorer proves the order matters: some perturbed seed
    # must make a different writer win (3 writers, 4 seeds).
    assert report.diverging
    mch032 = [f for f in report.findings if f.rule_id == "MCH032"]
    assert mch032
    assert "first diverging scheduling event" in mch032[0].message
    assert all(f.path == "race:racy" for f in mch032)
    assert not report.clean


def test_explorer_clean_scenario_has_identical_digests():
    report = explore(clean_scenario, "clean", seeds=tuple(range(1, 9)))
    assert report.clean
    assert len(report.runs) == 8
    assert {run.digest for run in report.runs} == {report.baseline.digest}


def test_explorer_runs_name_their_ults_identically():
    """Every run starts from the same ULT id, so unnamed ULTs get the
    same ``ult-N`` names in the baseline and in each perturbed run."""
    names = []

    def scenario():
        cluster = Cluster(seed=5)
        margo = cluster.add_margo("m", node="n0")

        def sleeper():
            yield UltSleep(0.01)

        ults = [cluster.spawn(margo, sleeper()) for _ in range(3)]
        cluster.wait_ults(ults)
        names.append([ult.name for ult in ults])
        return {"names": names[-1]}

    report = explore(scenario, "unnamed", seeds=(1, 2))
    assert len(names) == 3 and names[0] == names[1] == names[2]
    assert all(name.startswith("ult-") for name in names[0])
    assert report.clean


def test_same_seed_byte_identical_report():
    first = explore(racy_scenario, "racy", seeds=(1, 2, 3))
    second = explore(racy_scenario, "racy", seeds=(1, 2, 3))

    def serialize(report):
        return json.dumps(
            {
                "baseline": [report.baseline.digest, report.baseline.trace],
                "runs": [[r.seed, r.digest, r.trace] for r in report.runs],
                "findings": [f.to_json() for f in report.findings],
            },
            sort_keys=True,
        ).encode()

    assert serialize(first) == serialize(second)


def test_explorer_restores_hook_state():
    hooks.disable()
    hooks.reset()
    explore(clean_scenario, "clean", seeds=(1,))
    assert not hooks.ENABLED
    assert hooks.PERTURB is None and hooks.TRACE is None

    hooks.enable()
    try:
        explore(clean_scenario, "clean", seeds=(1,))
        assert hooks.ENABLED
    finally:
        hooks.disable()
        hooks.reset()
