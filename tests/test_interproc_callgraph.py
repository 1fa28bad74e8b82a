"""Call-graph construction: edges, edge kinds, dynamic accounting."""

from repro.analysis.interproc.callgraph import build_project, module_name_for
from repro.analysis.rules import FileContext

from .lint_util import fixture_path, parse_fixture


def _edges(index, qualname):
    return [(e.callee, e.kind) for e in index.functions[qualname].edges]


def test_module_names_follow_package_layout():
    assert (
        module_name_for(fixture_path("deepblock", "service.py"))
        == "deepblock.service"
    )
    assert module_name_for(fixture_path("deepblock", "__init__.py")) == "deepblock"


def test_cross_module_call_edges_resolve():
    index = build_project(parse_fixture("deepblock"))
    assert ("deepblock.helpers.level_one", "call") in _edges(
        index, "deepblock.service.deep_handler"
    )
    assert _edges(index, "deepblock.helpers.level_one") == [
        ("deepblock.helpers.level_two", "call")
    ]


def test_mutual_recursion_links_both_directions():
    index = build_project(parse_fixture("deepblock"))
    assert ("deepblock.service.pong", "call") in _edges(
        index, "deepblock.service.ping"
    )
    assert ("deepblock.service.ping", "call") in _edges(
        index, "deepblock.service.pong"
    )


def test_yield_from_makes_delegate_edges():
    index = build_project(parse_fixture("lockyield"))
    edges = _edges(index, "lockyield.svc.Store.locked_bad")
    assert ("lockyield.svc.Store._refresh", "delegate") in edges


def test_plain_call_to_generator_is_construction_not_edge():
    source = (
        "def gen():\n"
        "    yield 1\n"
        "\n"
        "def caller():\n"
        "    g = gen()\n"
        "    return g\n"
    )
    index = build_project([FileContext.parse("standalone.py", source)])
    assert index.functions["standalone.caller"].edges == []
    assert index.stats.generator_constructions == 1


def test_getattr_calls_are_counted_not_guessed():
    source = (
        "class Provider:\n"
        "    def trigger(self, obj, name):\n"
        "        return getattr(obj, name)()\n"
    )
    index = build_project([FileContext.parse("standalone.py", source)])
    assert index.stats.dynamic_getattr_calls == 1
    assert index.functions["standalone.Provider.trigger"].edges == []


def test_build_is_deterministic():
    parsed = parse_fixture("deepblock", "lockyield")
    first = build_project(parsed)
    second = build_project(parsed)
    assert sorted(first.functions) == sorted(second.functions)
    for qualname in first.functions:
        assert [
            (e.callee, e.line, e.kind) for e in first.functions[qualname].edges
        ] == [
            (e.callee, e.line, e.kind) for e in second.functions[qualname].edges
        ]
