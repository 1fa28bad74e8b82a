"""Acceptance: the whole-program rules over src/repro itself.

No project-scope rule fires on the tree, and the run is deterministic
and fast.  These tests read the session's one lint run.
"""

import time

from repro.analysis.engine import run_lint

from .lint_util import LINT_ROOTS

_PROJECT_IDS = {"MCH060", "MCH061"}


def test_src_repro_passes_contract_rules(repo_lint):
    project = [f for f in repo_lint.findings if f.rule_id in _PROJECT_IDS]
    assert project == [], "\n".join(f.format() for f in project)


def test_interproc_is_deterministic_and_fast(repo_lint):
    start = time.perf_counter()  # mochi-lint: disable=MCH001 -- measuring real analysis wall-time, not simulated time
    second = run_lint(LINT_ROOTS)
    elapsed = time.perf_counter() - start  # mochi-lint: disable=MCH001 -- measuring real analysis wall-time, not simulated time
    assert [f.to_json() for f in second.findings] == [
        f.to_json() for f in repo_lint.findings
    ]

    def counters(stats):
        return {k: v for k, v in stats.items() if not k.startswith("seconds_")}

    assert counters(second.stats) == counters(repo_lint.stats)
    assert elapsed < 30.0
