"""Acceptance: the whole-program rules over src/repro itself.

These tests pin the acceptance criteria: the RPC contract pass finds
every register_rpc/_forward pair in yokan/warabi/hepnos/remi with zero
false orphans, no project-scope rule fires on the tree, and the run is
deterministic and fast.  They read the session's one lint run.
"""

import os
import time

from repro.analysis.engine import run_lint
from repro.analysis.interproc.callgraph import build_project
from repro.analysis.interproc.contracts import build_contracts

from .lint_util import LINT_ROOTS, REPO, parse_paths

_PROJECT_IDS = {
    "MCH014", "MCH050", "MCH051", "MCH052", "MCH060", "MCH061",
}


def test_src_repro_passes_contract_rules(repo_lint):
    project = [f for f in repo_lint.findings if f.rule_id in _PROJECT_IDS]
    assert project == [], "\n".join(f.format() for f in project)
    # The contract pass actually ran over both ends.
    assert repo_lint.stats["rpc_registrations"] > 50
    assert repo_lint.stats["rpc_forwards"] > 50


def test_every_core_component_pair_is_collected():
    index = build_project(parse_paths(os.path.join(REPO, "src", "repro")))
    contracts = build_contracts(index)
    registered = {
        component: contracts.registered_ops(component)
        for component in ("yokan", "warabi", "remi")
    }
    assert registered["yokan"] >= {
        "put", "get", "erase", "exists", "count", "list_keys",
        "put_multi", "get_multi", "multi_put", "multi_get", "flush",
        "fetch_image", "erase_matching",
    }
    assert registered["warabi"] >= {
        "create", "write", "read", "size", "erase", "list",
    }
    assert registered["remi"] >= {"recv_file", "recv_chunk", "finalize"}

    # Zero false orphans: every statically-named forward against these
    # components matches a registration.  (hepnos has no RPC surface of
    # its own -- it rides the yokan client, covered above.)
    for component, ops in registered.items():
        assert contracts.forwarded_ops(component) <= ops
    assert not any(
        "repro/hepnos/" in f.path for f in contracts.forwards
    )


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
