"""Migration coverage: MCH061 positives and negatives."""

from .lint_util import fixture_path, line_of, lint_fixture


def _mch061(*packages):
    return lint_fixture(*packages, select=["MCH061"]).findings


def test_unmigrated_runtime_state_flagged():
    findings = _mch061("migratebad")
    providers = fixture_path("migratebad", "providers.py")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == providers
    assert finding.line == line_of(providers, "self._hits += 1")
    assert "BadProvider" in finding.message
    assert "_hits" in finding.message


def test_state_read_in_migrate_closure_is_covered():
    # GoodProvider._log is only read inside _snapshot_log, a helper the
    # migrate() path calls -- transitive closure must cover it.
    findings = _mch061("migratebad")
    assert not any("GoodProvider" in f.message for f in findings)


def test_base_class_without_bases_is_skipped():
    findings = _mch061("migratebad")
    assert not any("'Base'" in f.message for f in findings)
