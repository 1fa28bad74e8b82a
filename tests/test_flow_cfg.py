"""CFG builder golden-structure tests: the exact node/edge shapes the
protocol rules depend on (branching, loops, try/finally duplication,
suspension annotation, explicit-exit variant)."""

import textwrap

from repro.analysis.flow.cfg import CFG

from .lint_util import func_cfg


def describe(source: str, name: str, **kwargs) -> str:
    return func_cfg(textwrap.dedent(source), name, **kwargs).describe()


def test_branch_shape():
    assert describe(
        """\
        def branch(a):
            if a:
                x = 1
            else:
                x = 2
            return x
        """,
        "branch",
    ) == (
        "0 entry -> 4:next\n"
        "1 return-exit\n"
        "2 raise-exit\n"
        "3 fall-exit\n"
        "4 if@2 -> 5:true, 6:false\n"
        "5 assign@3 -> 7:next\n"
        "6 assign@5 -> 7:next\n"
        "7 return@6 -> 1:return"
    )


def test_loop_shape_with_back_edge():
    assert describe(
        """\
        def loop(items):
            total = 0
            for item in items:
                total += item
            return total
        """,
        "loop",
    ) == (
        "0 entry -> 4:next\n"
        "1 return-exit\n"
        "2 raise-exit\n"
        "3 fall-exit\n"
        "4 assign@2 -> 5:next\n"
        "5 for@3 -> 6:true, 7:false\n"
        "6 augassign@4 -> 5:loop\n"
        "7 return@5 -> 1:return"
    )


TRY_FINALLY = """\
def cleanup(mu):
    yield from mu.acquire()
    try:
        risky()
    finally:
        mu.release()
    return True
"""


def test_try_finally_duplicates_finally_per_path():
    # The normal path gets one copy of the finally body (node 8); the
    # exceptional path gets its own copy behind the finally-exc head
    # (nodes 6-7) whose tail re-routes outward with `exc-cont` -- so a
    # release in the finally cleans the typestate on *both* paths.
    assert describe(TRY_FINALLY, "cleanup") == (
        "0 entry -> 4:next\n"
        "1 return-exit\n"
        "2 raise-exit\n"
        "3 fall-exit\n"
        "4 expr@2 [suspends acquire()] -> 2:exc, 5:next\n"
        "5 expr@4 -> 6:exc, 8:next\n"
        "6 finally-exc -> 7:next\n"
        "7 expr@6 -> 2:exc, 2:exc-cont\n"
        "8 expr@6 -> 2:exc, 9:next\n"
        "9 return@7 -> 1:return"
    )


def test_explicit_exit_variant_drops_implicit_exc_edges():
    # MCH071 runs on this variant: no `exc` edges, no duplicated
    # exceptional finally copy -- only explicit control flow remains.
    assert describe(TRY_FINALLY, "cleanup", implicit_exc=False) == (
        "0 entry -> 4:next\n"
        "1 return-exit\n"
        "2 raise-exit\n"
        "3 fall-exit\n"
        "4 expr@2 [suspends acquire()] -> 5:next\n"
        "5 expr@4 -> 6:next\n"
        "6 expr@6 -> 7:next\n"
        "7 return@7 -> 1:return"
    )


def test_callee_suspension_annotates_delegate_site():
    # A `yield from helper(...)` line reported by the effect layer is
    # marked as a suspension point even though nothing in this function
    # parks directly -- "callee may suspend" splits the block.
    source = """\
    def suspends(ctx):
        setup(ctx)
        yield from helper(ctx)
        return None
    """
    plain = describe(source, "suspends")
    assert "[suspends" not in plain
    annotated = describe(
        source, "suspends", callee_suspends={3: "Park (via helper)"}
    )
    assert "5 expr@3 [suspends Park (via helper)] -> 2:exc, 6:next" in annotated


def test_while_true_has_no_false_edge():
    cfg = func_cfg(
        textwrap.dedent(
            """\
            def spin(q):
                while True:
                    step(q)
            """
        ),
        "spin",
    )
    header = next(n for n in cfg.stmt_nodes() if n.label == "while")
    assert all(kind != "false" for _dst, kind in header.succs)


def test_exit_paths_and_helpers():
    cfg = func_cfg(
        textwrap.dedent(
            """\
            def mixed(a):
                if a:
                    return 1
                raise ValueError(a)
            """
        ),
        "mixed",
    )
    ret_preds = cfg.predecessors(CFG.EXIT_RETURN)
    raise_preds = cfg.predecessors(CFG.EXIT_RAISE)
    assert [kind for _n, kind in ret_preds] == ["return"]
    assert ("raise" in {kind for _n, kind in raise_preds})
    assert cfg.edge_count() == sum(len(n.succs) for n in cfg.nodes.values())
