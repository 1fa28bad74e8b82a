"""Effect fixpoint: MCH014 deep blocking."""

from .lint_util import fixture_path, line_of, lint_fixture


def _findings(packages, select):
    return lint_fixture(*packages, select=select).findings


# -- MCH014 ------------------------------------------------------------
def test_deep_blocking_found_across_modules():
    findings = _findings(["deepblock"], ["MCH014"])
    service = fixture_path("deepblock", "service.py")
    lines = {f.line for f in findings if f.path == service}
    assert line_of(service, "helpers.level_one()") in lines


def test_deep_blocking_reports_full_chain():
    findings = _findings(["deepblock"], ["MCH014"])
    deep = [f for f in findings if "deep_handler" in f.message]
    assert len(deep) == 1
    message = deep[0].message
    assert "time.sleep()" in message
    assert "helpers.level_one" in message
    assert "helpers.level_three" in message


def test_deep_blocking_through_mutual_recursion():
    findings = _findings(["deepblock"], ["MCH014"])
    spinning = [f for f in findings if "spinning_handler" in f.message]
    assert len(spinning) == 1
    assert spinning[0].line == line_of(
        fixture_path("deepblock", "service.py"), "ping(3)"
    )


def test_clean_chain_is_negative():
    findings = _findings(["deepblock"], ["MCH014"])
    assert not any("clean_handler" in f.message for f in findings)


def test_depth_zero_blocking_reported_in_ult_body():
    findings = _findings(["deepblock"], ["MCH014"])
    service = fixture_path("deepblock", "service.py")
    direct = [f for f in findings if "direct_handler" in f.message]
    assert [(f.path, f.line) for f in direct] == [
        (service, line_of(service, "time.sleep(0.25)"))
    ]
    assert "direct_handler -> time.sleep()" in direct[0].message


def test_select_does_not_change_the_verdict():
    # One rule, one verdict per site: selecting MCH014 reports exactly
    # what a run of every rule reports under MCH014.
    service = fixture_path("deepblock", "service.py")
    selected = _findings(["deepblock"], ["MCH014"])
    unfiltered = [f for f in _findings(["deepblock"], None) if f.rule_id == "MCH014"]
    assert [(f.rule_id, f.path, f.line) for f in selected] == [
        (f.rule_id, f.path, f.line) for f in unfiltered
    ]
    assert (
        sum(f.line == line_of(service, "local_block()") for f in selected) == 1
    )

