"""Partition safety: MCH060 cross-component mutations."""

from repro.analysis.engine import run_lint
from repro.analysis.interproc.partition import component_of

from .lint_util import fixture_path, line_of, lint_fixture


def _mch060():
    return lint_fixture("parta", "partb", select=["MCH060"]).findings


def test_component_of_granularity():
    assert component_of("repro.yokan.provider") == "repro.yokan"
    assert component_of("repro.yokan") == "repro.yokan"
    assert component_of("repro") == "repro"
    assert component_of("parta.writer") == "parta"


def test_cross_component_writes_flagged():
    findings = _mch060()
    writer = fixture_path("parta", "writer.py")
    assert all(f.path == writer for f in findings)
    lines = {f.line for f in findings}
    assert lines == {
        line_of(writer, "state.COUNTER = 99"),
        line_of(writer, 'REGISTRY["key"]'),
        line_of(writer, "ITEMS.append(1)"),
        line_of(writer, "Model.cache = {}"),
    }
    assert any("partb.state:COUNTER" in f.message for f in findings)
    assert any("partb.models.Model:cache" in f.message for f in findings)


def test_select_does_not_change_the_verdict():
    # One rule, one verdict per site: selecting MCH060 reports exactly
    # what a run of every rule reports under MCH060.
    unfiltered = lint_fixture("parta", "partb").findings
    assert [(f.path, f.line) for f in _mch060()] == [
        (f.path, f.line) for f in unfiltered if f.rule_id == "MCH060"
    ]


def test_same_component_writes_are_negative():
    findings = _mch060()
    local = fixture_path("partb", "local.py")
    assert not any(f.path == local for f in findings)


def _lint_writer(tmp_path, tail="", package=True):
    """Lint an ``owner`` package plus a ``writer`` module (a package
    member unless ``package=False``) that writes to the owner's state."""
    for name in ("owner", "writer"):
        (tmp_path / name).mkdir()
        if package or name == "owner":
            (tmp_path / name / "__init__.py").write_text("")
    (tmp_path / "owner" / "state.py").write_text("COUNTER = 0\n")
    (tmp_path / "writer" / "bump.py").write_text(
        "from owner import state\n\n\ndef bump():\n"
        f"    state.COUNTER = 1{tail}\n"
    )
    return run_lint([str(tmp_path)]).findings


# Assembled at runtime so this test file itself lints clean.
_DISABLE = "  # mochi-lint: " + "disable=MCH060"


def test_inline_suppression_exempts_justified_write(tmp_path):
    tail = _DISABLE + " -- epoch counter, replicated at boot"
    assert _lint_writer(tmp_path, tail) == []


def test_unjustified_inline_exemption_is_error(tmp_path):
    # The bare comment exempts nothing and is itself a finding.
    findings = _lint_writer(tmp_path, _DISABLE)
    assert [f.rule_id for f in findings] == ["MCH060", "MCH091"]


def test_loose_script_is_not_a_component(tmp_path):
    # No __init__.py next to the writer: a launcher script, not a
    # partition unit, so its write crosses no partition boundary.
    assert _lint_writer(tmp_path, package=False) == []
