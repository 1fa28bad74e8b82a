"""Call-graph construction: edges, generator construction, dynamic accounting."""

from repro.analysis.interproc.callgraph import build_project, module_name_for
from repro.analysis.rules import FileContext

from .lint_util import fixture_path

HELPERS = (
    "def level_one():\n"
    "    return level_two()\n"
    "\n"
    "def level_two():\n"
    "    return 42\n"
)
SERVICE = (
    "import helpers\n"
    "\n"
    "def handler(ctx):\n"
    "    yield ctx\n"
    "    helpers.level_one()\n"
    "\n"
    "def ping(n):\n"
    "    if n:\n"
    "        pong(n - 1)\n"
    "\n"
    "def pong(n):\n"
    "    ping(n)\n"
    "\n"
    "class Store:\n"
    "    def locked(self, ctx):\n"
    "        yield from self._refresh()\n"
    "\n"
    "    def _refresh(self):\n"
    "        yield ctx\n"
)


def _index():
    return build_project(
        [FileContext.parse("helpers.py", HELPERS), FileContext.parse("service.py", SERVICE)]
    )


def _callees(index, qualname):
    return [e.callee for e in index.functions[qualname].edges]


def test_module_names_follow_package_layout():
    assert module_name_for(fixture_path("parta", "writer.py")) == "parta.writer"
    assert module_name_for(fixture_path("parta", "__init__.py")) == "parta"


def test_cross_module_call_edges_resolve():
    index = _index()
    assert "helpers.level_one" in _callees(index, "service.handler")
    assert _callees(index, "helpers.level_one") == ["helpers.level_two"]


def test_mutual_recursion_links_both_directions():
    index = _index()
    assert _callees(index, "service.ping") == ["service.pong"]
    assert _callees(index, "service.pong") == ["service.ping"]


def test_yield_from_makes_delegate_edges():
    # ``yield from`` delegates to the generator: its body runs in the
    # caller's frame, so the delegation is an edge like a plain call.
    assert _callees(_index(), "service.Store.locked") == ["service.Store._refresh"]


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
    first, second = _index(), _index()
    assert sorted(first.functions) == sorted(second.functions)
    for qualname in first.functions:
        assert [(e.callee, e.line) for e in first.functions[qualname].edges] == [
            (e.callee, e.line) for e in second.functions[qualname].edges
        ]
