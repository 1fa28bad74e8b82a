"""Acceptance: the repository's own sources are clean under the flow
protocol rules, and the rules are wired end to end (registry group,
stats, determinism)."""

import json
import os
import subprocess
import sys

import repro.analysis.engine  # noqa: F401 - importing the engine registers the full catalog
from repro.analysis.registry import GROUP_FLOW, rule_catalog

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_src_repro_is_flow_clean(repo_lint):
    result = repo_lint
    flow = [f for f in result.findings if f.rule_id.startswith("MCH07")]
    assert flow == [], [f.format() for f in flow]
    # The analysis actually ran: CFGs were built, handlers analyzed.
    assert result.stats["flow_cfgs_built"] > 0
    assert result.stats["flow_handlers_analyzed"] > 0
    assert result.stats["flow_cfg_nodes"] > result.stats["flow_cfgs_built"]
    assert result.stats["flow_exit_paths"] > 0


def test_flow_rules_registered_in_catalog():
    infos = {info.id: info for info in rule_catalog()}
    for rule_id in ("MCH070", "MCH071", "MCH072", "MCH073"):
        assert rule_id in infos
        assert infos[rule_id].group == GROUP_FLOW
    # MCH070 has a runtime half (sanitize.py), same split as MCH011/012.
    assert infos["MCH070"].runtime_checked


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=120,
    )


def test_cli_flow_runs_are_byte_identical():
    # Over the fixture tree (which has real findings) so the comparison
    # is meaningful.
    args = (
        "--format",
        "json",
        "--stats",
        os.path.join("tests", "fixtures", "flow", "lock"),
        os.path.join("tests", "fixtures", "flow", "typestate"),
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 1, first.stdout + first.stderr  # findings exist
    assert first.stdout == second.stdout
    findings = json.loads(first.stdout)
    assert {f["rule_id"] for f in findings} >= {"MCH071", "MCH073"}
    assert "flow_cfgs_built=" in first.stderr


def test_cli_flow_clean_over_warabi():
    proc = run_cli("--format", "json", os.path.join("src", "repro", "warabi"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == []


def test_cli_list_rules_shows_flow_group():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    assert "flow-protocols" in proc.stdout
    for rule_id in ("MCH070", "MCH071", "MCH072", "MCH073"):
        assert rule_id in proc.stdout
