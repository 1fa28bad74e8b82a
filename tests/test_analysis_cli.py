"""``repro lint`` and ``repro race``: exit codes, formats, and the
acceptance criterion that the repository itself lints clean."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.analysis.engine import lint_source, run_lint

from .lint_util import REPO

CLEAN = """
def worker(kernel):
    yield UltSleep(kernel.now + 1.0)
    return kernel.now
"""

DIRTY = """
import time

def worker():
    yield UltSleep(1.0)
    return time.time()
"""


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def test_clean_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "clean.py", CLEAN)
    assert main(["lint", path]) == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_one_with_locations(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", DIRTY)
    assert main(["lint", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:6: MCH001" in out
    assert "1 finding(s)" in out


def test_sarif_format(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", DIRTY)
    assert main(["lint", "--format", "sarif", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "mochi-lint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["MCH001"]
    # Rule categories come straight from the registry's group field.
    assert run["tool"]["driver"]["rules"][0]["properties"]["category"] == "determinism"
    result = run["results"][0]
    assert result["ruleId"] == "MCH001"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]
    assert region["region"]["startLine"] == 6
    # Pseudo-paths (runtime findings) must still be valid artifact URIs.
    from repro.analysis.registry import make_finding
    from repro.analysis.sarif import to_sarif

    race = to_sarif([make_finding("MCH030", "race:db", 0, "msg", source="runtime")])
    location = race["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
    assert ":" not in location["artifactLocation"]["uri"]
    assert location["region"]["startLine"] == 1


def test_sarif_format_clean_is_empty_run(tmp_path, capsys):
    path = write(tmp_path, "clean.py", CLEAN)
    assert main(["lint", "--format", "sarif", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []


def test_race_cli_runs_suite(capsys):
    assert main(["race", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "yokan-kv" in out and "raft-election" in out
    assert "clean (race suite)" in out


def test_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "repro lint:" in capsys.readouterr().err


def test_json_format(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", DIRTY)
    assert main(["lint", "--format", "json", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["rule_id"] == "MCH001"
    assert doc[0]["path"] == path
    assert doc[0]["line"] == 6
    assert doc[0]["source"] == "static"


def test_select_and_ignore(tmp_path):
    path = write(tmp_path, "dirty.py", DIRTY)
    assert main(["lint", "--select", "MCH002", path]) == 0
    assert main(["lint", "--ignore", "MCH001", path]) == 0
    assert main(["lint", "--select", "MCH001", path]) == 1


def test_unknown_rule_id_is_a_usage_error(tmp_path, capsys):
    # A typo'd gate must not be green.
    path = write(tmp_path, "clean.py", CLEAN)
    for flag in ("--select", "--ignore"):
        assert main(["lint", flag, "MCH001,MCH999", path]) == 2
        captured = capsys.readouterr()
        assert "MCH999" in captured.err and "--list-rules" in captured.err
        assert "clean" not in captured.out
    with pytest.raises(ValueError, match="MCH999"):
        run_lint([path], select=["MCH999"])
    with pytest.raises(ValueError, match="MCH999"):
        lint_source(CLEAN, ignore=["MCH999"])
    # Config, sanitizer and race ids are part of the catalog.
    assert main(["lint", "--select", "MCH020,MCH012,MCH030", path]) == 0
    # A race gate that explores nothing must not be green either.
    assert main(["race", "--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_directory_walk_includes_configs(tmp_path, capsys):
    write(tmp_path, "dirty.py", DIRTY)
    (tmp_path / "bad.json").write_text(
        json.dumps({"argobots": {}, "progress_pool": "ghost"})
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "MCH001" in out
    assert "MCH020" in out
    assert "2 finding(s)" in out
    # A malformed value is a finding, not a crash of the linter (exit 2).
    (tmp_path / "bad.json").write_text(
        json.dumps({"libraries": {"yokan": "libyokan.so"},
                    "providers": [{"name": "db", "type": "yokan", "provider_id": "x"}]})
    )
    assert main(["lint", str(tmp_path / "bad.json")]) == 1
    assert "MCH020" in capsys.readouterr().out


def test_list_rules_covers_catalog(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "MCH001", "MCH002", "MCH004",
        "MCH011", "MCH012", "MCH013", "MCH014",
        "MCH020",
        "MCH030", "MCH031", "MCH032", "MCH040",
        "MCH060", "MCH061",
        "MCH090", "MCH091",
    ):
        assert rule_id in out
    for gone in (
        "MCH003", "MCH010", "MCH015", "MCH021", "MCH022", "MCH023", "MCH041",
        "MCH050", "MCH051", "MCH052", "MCH053",
        "MCH070", "MCH071", "MCH072", "MCH073", "MCH074",
    ):
        assert gone not in out
    # MCH004 carries its own category block between the determinism and
    # scheduling runs of the id space.
    assert "[observability]" in out
    # The runtime-checked rules advertise their dynamic half: MCH011,
    # MCH012, and the four mochi-race concurrency rules.
    assert out.count("also runtime-checked") == 6


def test_module_entry_point_matches_cli():
    from repro import __main__  # noqa: F401 - importable

    from repro.cli import main as cli_main

    assert cli_main is main


def test_repository_lints_clean(repo_lint):
    """The acceptance criterion: zero unsuppressed findings, under every
    rule, over the gate's roots."""
    assert repo_lint.findings == [], "\n".join(
        f.format() for f in repo_lint.findings
    )


def test_runtime_import_does_not_load_the_lint_engine():
    """`import repro` pays for the runtime checker only; the
    REPRO_SANITIZE switch turns the whole checker on, strict or
    recording, and refuses a value it does not know."""
    probe = (
        "import sys, repro.cluster\n"
        "from repro.analysis.race import hooks\n"
        "loaded = [m for m in ('analysis.engine', 'analysis.rules', 'cli',\n"
        "                      'scenarios', 'analysis.interproc')\n"
        "          if 'repro.' + m in sys.modules]\n"
        "print(loaded, hooks.ENABLED, hooks._strict)\n"
    )
    for mode, expected in (
        ("", "[] False False"),
        ("1", "[] True True"),
        ("race", "[] True False"),
        ("on", "ValueError: REPRO_SANITIZE='on': expected 1, true or yes (strict) or race"),
    ):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), REPRO_SANITIZE=mode)
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert expected in (proc.stdout if proc.returncode == 0 else proc.stderr)
