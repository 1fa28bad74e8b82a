"""mochi-race over the example services: the CI acceptance gate.

The paper's dynamic features (reconfiguration, migration, elasticity)
are only trustworthy if the services they move stay schedule-invariant.
These tests assert exactly that: every example-service scenario is
race-clean under the happens-before engine AND produces identical
final-state digests across >= 8 perturbed ready-queue schedules.
"""

import pytest

from repro.analysis.race import hooks
from repro.analysis.race.explore import explore
from repro.scenarios import (
    SCENARIOS,
    raft_scenario,
    remi_scenario,
    run_race_suite,
    warabi_scenario,
    yokan_scenario,
)

RACE = SCENARIOS["race"]


@pytest.fixture(autouse=True)
def clean_hooks():
    hooks.disable()
    hooks.reset()
    yield
    hooks.disable()
    hooks.reset()


def test_scenarios_produce_facts_without_detection():
    # Scenarios are ordinary workloads; they run with the detector off.
    assert set(yokan_scenario()) == {f"t{i}:{j}" for i in range(2) for j in (0, 1, 2)}
    assert len(warabi_scenario()) == 3
    assert set(remi_scenario()) == {f"data/{i:04d}" for i in range(4)}
    facts = raft_scenario()
    assert facts["num_leaders"] == 1
    assert facts["terms_converged"] and facts["all_running"]


@pytest.mark.parametrize("name,scenario", RACE.items(), ids=list(RACE))
def test_service_race_clean_across_eight_seeds(name, scenario):
    report = explore(scenario, name, seeds=tuple(range(1, 9)))
    assert len(report.runs) == 8
    digests = {run.digest for run in report.runs}
    assert digests == {report.baseline.digest}, (
        f"{name}: final state diverged under perturbation"
    )
    assert report.clean, [f.format() for f in report.findings]


def test_run_race_suite_emits_summary_lines():
    lines = []
    findings, reports = run_race_suite(seeds=2, emit=lines.append)
    assert findings == []
    assert len(reports) == len(RACE)
    assert len(lines) == len(RACE)
    for name, line in zip(RACE, lines):
        assert name in line and "0 diverging" in line
