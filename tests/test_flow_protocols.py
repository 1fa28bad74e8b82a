"""Flow protocol rules (MCH070-MCH074) over the flow fixtures."""

from .lint_util import fixture_path, line_of, lint_fixture


def flow_findings(*packages, **kwargs):
    result = lint_fixture(*packages, **kwargs)
    return result.findings, result.stats


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


def lines_near(findings, path, func_start, func_end):
    return [f for f in findings if f.path == path and func_start <= f.line <= func_end]


# ----------------------------------------------------------------------
# MCH070: respond exactly once
# ----------------------------------------------------------------------
def test_respond_positives_and_negatives():
    findings, stats = flow_findings("respond")
    path = fixture_path("respond", "handlers.py")
    msgs = {(f.line, f.message) for f in by_rule(findings, "MCH070")}

    double_line = line_of(path, 'yield from ctx.respond("second")')
    assert any(l == double_line and "already" in m for l, m in msgs)

    stall_line = line_of(path, "yield Park(ctx.event)")
    assert any(l == stall_line and "on some path" in m for l, m in msgs)

    undriven_line = line_of(path, 'ctx.respond("lost")')
    assert any(l == undriven_line and "never driven" in m for l, m in msgs)

    value_line = line_of(path, 'return "dropped"')
    assert any(l == value_line and "returns a value" in m for l, m in msgs)

    raise_line = line_of(path, 'raise RuntimeError("late failure")')
    assert any(l == raise_line and "raises after responding" in m for l, m in msgs)

    # Delegation divergence needs the effect layer: the park lives in
    # wait_for_signal, reported at the delegation site.
    delegate_line = line_of(path, "yield from wait_for_signal(ctx)")
    assert any(l == delegate_line and "stalls" in m for l, m in msgs)

    # Negatives: the early-reply-then-park handler and the implicit
    # handler must be clean.
    ok_start = line_of(path, "def _on_ok_early_reply")
    assert not [f for f in by_rule(findings, "MCH070") if f.line >= ok_start]

    assert stats["flow_handlers_analyzed"] >= 7
    assert stats["flow_suspend_points"] >= 1


def test_respond_is_the_only_static_handler_rule():
    """One verdict per site: the early-reply handler's park is clean, the
    broken handler's park is MCH070, and nothing reports statically
    under MCH012 (the sanitizer's runtime id)."""
    findings, _stats = flow_findings("respond")
    path = fixture_path("respond", "handlers.py")
    ok_park = line_of(path, "yield from ctx.respond(ctx.args)") + 1
    assert not [f for f in findings if f.line == ok_park]
    stall_line = line_of(path, "yield Park(ctx.event)")
    assert [f.rule_id for f in findings if f.line == stall_line] == ["MCH070"]
    assert not by_rule(findings, "MCH012")


# ----------------------------------------------------------------------
# MCH071: lock release balance
# ----------------------------------------------------------------------
def test_lock_release_balance():
    findings, _stats = flow_findings("lock")
    path = fixture_path("lock", "locks.py")
    found = by_rule(findings, "MCH071")

    early_return = line_of(path, "return None")
    assert any(f.line == early_return and "holding mu" in f.message for f in found)

    escape = line_of(path, 'raise RuntimeError("closed while locked")')
    assert any(f.line == escape and "self._mu" in f.message for f in found)

    # Negatives: try/finally and straight-line functions stay clean.
    ok_start = line_of(path, "def update_ok")
    assert not [f for f in found if f.line >= ok_start]


# ----------------------------------------------------------------------
# MCH072: resource leak on exception path
# ----------------------------------------------------------------------
def test_resource_exception_path_leaks():
    findings, _stats = flow_findings("resource")
    path = fixture_path("resource", "elastic.py")
    found = by_rule(findings, "MCH072")

    acquire_line = line_of(path, "xs = margo.add_xstream(spec)")
    assert any(
        f.line == acquire_line and "xstream 'xs'" in f.message for f in found
    )
    # Only grow_bad leaks: grow_ok transfers ownership immediately and
    # grow_guarded joins on the exception path before re-raising.
    assert len(found) == 1


# ----------------------------------------------------------------------
# MCH073: use-after-release / use-after-migrate
# ----------------------------------------------------------------------
def test_typestate_use_after_release_and_migrate():
    findings, _stats = flow_findings("typestate")
    path = fixture_path("typestate", "handles.py")
    found = by_rule(findings, "MCH073")

    use_line = line_of(path, 'handle.put("k", "v")')
    assert any(f.line == use_line and "destroy()" in f.message for f in found)

    arg_line = line_of(path, "auditor.record(handle)")
    assert any(f.line == arg_line and "passes" in f.message for f in found)

    migrate_use = line_of(path, 'yield from provider.put("k", "v")')
    assert any(
        f.line == migrate_use and "migrated away" in f.message for f in found
    )

    # Negatives: the rebound handle and the teardown-only epilogue.
    rebound_start = line_of(path, "def retire_rebound_ok")
    rebound_end = line_of(path, "def handoff_bad") - 1
    assert not lines_near(found, path, rebound_start, rebound_end)
    ok_start = line_of(path, "def handoff_ok")
    assert not [f for f in found if f.line >= ok_start]


# ----------------------------------------------------------------------
# MCH074: span leaked on an exception path
# ----------------------------------------------------------------------
def test_span_leak_positive_and_negatives():
    findings, _stats = flow_findings("span")
    path = fixture_path("span", "handlers.py")
    found = by_rule(findings, "MCH074")

    # Exactly one leak: migrate_bad's start line, naming the variable
    # and the escaping statement's line.
    assert len(found) == 1
    leak = found[0]
    assert leak.path == path
    assert leak.line == line_of(path, "span = tracer.start_span")
    assert "'span'" in leak.message
    assert "finally" in leak.message

    # Negatives: try/finally, end-before-risky, and escape-to-callee
    # functions are all clean.
    guarded_start = line_of(path, "def migrate_guarded")
    assert not [f for f in found if f.line >= guarded_start]


def test_span_rule_registered_under_observability():
    from repro.analysis.registry import GROUP_OBSERVABILITY, rule_catalog

    infos = {info.id: info for info in rule_catalog()}
    assert "MCH074" in infos
    assert infos["MCH074"].group == GROUP_OBSERVABILITY


# ----------------------------------------------------------------------
# cross-cutting behavior
# ----------------------------------------------------------------------
def test_select_ignore_filters_apply():
    findings, _stats = flow_findings(
        "respond", "lock", ignore=["MCH070"]
    )
    assert not by_rule(findings, "MCH070")
    assert by_rule(findings, "MCH071")

    findings, _stats = flow_findings(
        "respond", "lock", select=["MCH070"]
    )
    assert by_rule(findings, "MCH070")
    assert not by_rule(findings, "MCH071")


def test_findings_are_sorted_and_tagged():
    findings, _stats = flow_findings(
        "respond", "lock", "resource", "typestate"
    )
    keys = [(f.path, f.line, f.rule_id, f.message) for f in findings]
    assert keys == sorted(keys)
    assert all(f.source == "static" for f in findings)


def test_run_flow_is_deterministic():
    first, _s1 = flow_findings("respond", "lock", "resource", "typestate")
    second, _s2 = flow_findings("respond", "lock", "resource", "typestate")
    assert [f.__dict__ for f in first] == [f.__dict__ for f in second]
