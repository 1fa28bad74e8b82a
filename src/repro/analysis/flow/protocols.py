"""The MCH07x protocol rules: typestate lattices over the CFG.

Each rule is one finite may-set lattice plus a transfer function, run
through :func:`..flow.dataflow.forward_fixpoint`:

* **MCH070** -- respond-exactly-once.  Atoms are response counts
  ``{0, 1, 2}`` (2 = "two or more").  A respond event with a response
  already sent, a value returned after an explicit respond, a ``raise``
  after responding (the error response is lost), or a divergence point
  (unbounded wait / exit-less loop / delegation into a callee that
  parks unboundedly) reachable with count 0 are all violations.
* **MCH071** -- lock release balance.  Atoms are ``(lock, H|F)``; any
  exit edge (return / escaping raise / fall-through) carrying ``H`` is
  a leak.  Runs on the explicit-exit CFG: implicit may-raise edges are
  not part of this protocol's contract.
* **MCH072** -- pool/xstream exception-path leaks.  A resource assigned
  from ``add_pool``/``add_xstream`` is tracked from the acquisition to
  the first statement that mentions it again (release, registration,
  escape -- any mention transfers ownership); an exception edge leaving
  the function inside that window leaks it.
* **MCH073** -- use-after-release / use-after-migrate.  Atoms are
  ``(handle, rel/mig, line)``; method calls or argument passes on a
  released handle, and non-teardown method calls on a migrated
  provider, are violations.  Rebinding the name clears its state.
* **MCH074** -- span leaked on an exception path.  A span opened with
  ``var = <tracer>.start_span(...)`` is tracked until ``var.end()`` /
  ``var.finish()``, a rebind, or an escape (the variable passed as a
  call argument transfers the obligation to the callee); an exception
  escaping the function inside that window loses the span.

All checks are may-analyses: a finding means some path exhibits the
violation, and messages hedge with "on some path" where the state is
mixed.  Collection happens after the fixpoint in node-id order, so the
output is deterministic.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding, Severity
from ..registry import GROUP_FLOW, GROUP_OBSERVABILITY, RuleInfo
from ..rules import dotted_name, last_attr
from ..rules.scheduling import _unbounded_wait
from .cfg import CFG, EXCEPTIONAL_KINDS, Node, _header_exprs, stmt_scan
from .dataflow import State, edge_state, forward_fixpoint

__all__ = [
    "check_respond",
    "check_lock_paths",
    "check_resource_paths",
    "check_span_paths",
    "check_typestate",
]

#: Acquisition calls MCH072 tracks (elastic pool/xstream lifecycle).
_ACQUIRE_ATTRS = frozenset({"add_pool", "add_xstream"})

#: Receiver methods that end an MCH072 resource's lifetime.
_RELEASE_ATTRS = frozenset({"join", "destroy", "release", "shutdown", "remove", "close"})

#: Free/manager functions that release an MCH072 resource passed as arg.
_RELEASE_FUNCS = frozenset(
    {"remove_pool", "remove_xstream", "release_pool", "destroy_pool"}
)

#: Receiver methods that put a handle in the RELEASED typestate (073).
#: ``release`` itself belongs to MCH071's mutex protocol, not here.
_DESTROY_ATTRS = frozenset({"destroy", "shutdown", "finalize"})

#: Methods still legal on a provider after ``yield from x.migrate(...)``
#: (teardown and identity only -- its data now lives at the target).
_ALLOWED_AFTER_MIGRATE = frozenset(
    {"destroy", "get_config", "local_files", "name", "provider_id"}
)


def _scan_exprs(stmt: ast.AST) -> Iterator[ast.AST]:
    """Sub-expressions a statement's own node evaluates, in source order."""
    nodes = []
    for expr in _header_exprs(stmt):
        nodes.extend(stmt_scan(expr))
    nodes.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
    return iter(nodes)


def _yield_from_calls(stmt: ast.AST) -> set[int]:
    """ids of Call nodes that are the operand of a ``yield from``."""
    return {
        id(node.value)
        for node in _scan_exprs(stmt)
        if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call)
    }


def _receiver(call: ast.Call) -> Optional[str]:
    """Dotted name of a method call's receiver (``a.b`` for ``a.b.c()``)."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def _finding(rule_id: str, path: str, line: int, message: str) -> Finding:
    return Finding(rule_id, Severity.ERROR, path, line, message)


# ---------------------------------------------------------------------------
# MCH070: respond exactly once
# ---------------------------------------------------------------------------


def _respond_events(node: Node) -> int:
    """Number of ``yield from ...respond(...)`` events at this node."""
    if node.stmt is None:
        return 0
    count = 0
    for sub in _scan_exprs(node.stmt):
        if isinstance(sub, ast.YieldFrom) and isinstance(sub.value, ast.Call):
            if last_attr(sub.value.func) == "respond":
                count += 1
    return count


def _divergence(node: Node, callee_parks: dict[int, str]) -> Optional[str]:
    """Why this node can stall forever without responding, if it can."""
    stmt = node.stmt
    if stmt is None:
        return None
    for sub in _scan_exprs(stmt):
        if isinstance(sub, ast.Call):
            why = _unbounded_wait(sub)
            if why is not None:
                return why
    if isinstance(stmt, ast.While):
        test = stmt.test
        if isinstance(test, ast.Constant) and test.value is True:
            exits = any(
                isinstance(inner, (ast.Return, ast.Break, ast.Raise))
                for inner in ast.walk(stmt)
            )
            responds = any(
                isinstance(inner, ast.YieldFrom)
                and isinstance(inner.value, ast.Call)
                and last_attr(inner.value.func) == "respond"
                for inner in ast.walk(stmt)
            )
            if not exits and not responds:
                return "`while True` loop with no return/break/raise"
    return callee_parks.get(node.line)


def _returns_value(stmt: ast.AST) -> bool:
    if not isinstance(stmt, ast.Return) or stmt.value is None:
        return False
    return not (isinstance(stmt.value, ast.Constant) and stmt.value.value is None)


RESPOND_EXACTLY_ONCE = RuleInfo(
    id="MCH070",
    name="respond-exactly-once",
    group=GROUP_FLOW,
    severity=Severity.ERROR,
    summary="RPC handler must respond exactly once on every path",
    rationale=(
        "margo_respond semantics: each dispatched RPC gets exactly one "
        "response.  A double respond silently drops the second reply, a "
        "raise after responding loses the error, and a path that parks "
        "unboundedly or spins in an exit-less loop before responding "
        "wedges the caller; the CFG proves the count on every path"
    ),
    runtime_checked=True,
)


def check_respond(
    path: str,
    func: ast.AST,
    cfg: CFG,
    callee_parks: dict[int, str],
) -> list[Finding]:
    """MCH070 over one handler."""
    name = getattr(func, "name", "<handler>")

    respond_counts = {n.id: _respond_events(n) for n in cfg.stmt_nodes()}

    def transfer(node: Node, state: State) -> State:
        count = respond_counts.get(node.id, 0)
        if not count:
            return state
        return frozenset(min(2, s + count) for s in state)

    in_states = forward_fixpoint(cfg, frozenset({0}), transfer)

    findings: list[Finding] = []
    seen: set[tuple[int, str]] = set()

    def emit(line: int, message: str) -> None:
        if (line, message) not in seen:
            seen.add((line, message))
            findings.append(_finding("MCH070", path, line, message))

    # Undriven respond: a plain ``ctx.respond(...)`` builds the response
    # generator and throws it away -- nothing is ever sent.
    for stmt_node in cfg.stmt_nodes():
        stmt = stmt_node.stmt
        driven = _yield_from_calls(stmt)
        for sub in _scan_exprs(stmt):
            if (
                isinstance(sub, ast.Call)
                and last_attr(sub.func) == "respond"
                and id(sub) not in driven
            ):
                emit(
                    sub.lineno,
                    f"handler {name!r} calls respond() without `yield from`; "
                    "the response generator is never driven and nothing is sent",
                )

    for node in cfg.stmt_nodes():
        state = in_states.get(node.id)
        if state is None:
            continue
        responded = {s for s in state if s >= 1}
        if respond_counts.get(node.id, 0) and responded:
            qualifier = "" if 0 not in state else " on some path"
            emit(
                node.line,
                f"handler {name!r} responds here with a response already "
                f"sent{qualifier}; each RPC must be answered exactly once",
            )
        if _returns_value(node.stmt) and responded:
            emit(
                node.line,
                f"handler {name!r} returns a value after explicitly "
                "responding; the runtime drops it (respond once, or return "
                "the value and let the runtime respond)",
            )
        if isinstance(node.stmt, ast.Raise) and responded:
            emit(
                node.line,
                f"handler {name!r} raises after responding; the error "
                "response is lost because the reply already went out",
            )
        why = _divergence(node, callee_parks)
        if why is not None and 0 in state:
            if len(state) == 1:
                emit(
                    node.line,
                    f"handler {name!r} stalls ({why}) before any response; "
                    "the caller waits forever",
                )
            else:
                emit(
                    node.line,
                    f"handler {name!r} stalls ({why}) with no response sent "
                    "on some path (e.g. an exception path); respond before "
                    "waiting",
                )

    return findings


# ---------------------------------------------------------------------------
# MCH071: mutex release balance on every exit path
# ---------------------------------------------------------------------------


def _lock_node_events(node: Node) -> list[tuple[str, str]]:
    """``(acquire|release, lock-name)`` events at this node, in order."""
    if node.stmt is None:
        return []
    events: list[tuple[str, str]] = []
    driven = _yield_from_calls(node.stmt)
    for sub in _scan_exprs(node.stmt):
        if not isinstance(sub, ast.Call):
            continue
        attr = last_attr(sub.func)
        key = _receiver(sub) or "<lock>"
        if attr == "acquire" and id(sub) in driven:
            events.append(("acquire", key))
        elif attr == "release" and id(sub) not in driven:
            events.append(("release", key))
    return events


LOCK_RELEASED_ON_EXIT = RuleInfo(
    id="MCH071",
    name="lock-release-balance",
    group=GROUP_FLOW,
    severity=Severity.ERROR,
    summary="UltMutex acquired but not released on some exit path",
    rationale=(
        "a mutex that stays held across an early return, an escaping "
        "raise, or the fall-through exit serializes every later waiter "
        "behind a lock nobody will ever release; the runtime sanitizer "
        "only sees the executed path, this rule proves all of them"
    ),
)


def check_lock_paths(path: str, func: ast.AST, cfg: CFG) -> list[Finding]:
    """MCH071 over one function (explicit-exit CFG)."""
    name = getattr(func, "name", "<function>")
    events = {n.id: _lock_node_events(n) for n in cfg.stmt_nodes()}

    def transfer(node: Node, state: State) -> State:
        evs = events.get(node.id)
        if not evs:
            return state
        held = set(state)
        for kind, key in evs:
            held = {a for a in held if a[0] != key}
            held.add((key, "H" if kind == "acquire" else "F"))
        return frozenset(held)

    in_states = forward_fixpoint(cfg, frozenset(), transfer)

    exit_desc = {
        CFG.EXIT_RETURN: "returns",
        CFG.EXIT_RAISE: "lets an exception escape",
        CFG.EXIT_FALL: "falls off the end",
    }
    findings: list[Finding] = []
    seen: set[tuple[int, str]] = set()
    for exit_id, verb in exit_desc.items():
        for pred, kind in cfg.predecessors(exit_id):
            state = edge_state(cfg, in_states, pred, kind, transfer)
            for key, mark in sorted(state):
                if mark != "H":
                    continue
                maybe = (key, "F") in state
                qualifier = " on some path" if maybe else ""
                message = (
                    f"{name!r} {verb} (line {pred.line}) while still holding "
                    f"{key}{qualifier}; release it on every exit path "
                    "(try/finally)"
                )
                if (pred.line, message) not in seen:
                    seen.add((pred.line, message))
                    findings.append(_finding("MCH071", path, pred.line, message))
    return findings


# ---------------------------------------------------------------------------
# MCH072: pool/xstream leaked on an exception path
# ---------------------------------------------------------------------------


def _resource_acquire(stmt: ast.AST) -> Optional[tuple[str, str, int]]:
    """``(var, kind, line)`` for ``var = <margo>.add_pool/add_xstream(...)``."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return None
    value = stmt.value
    if not isinstance(value, ast.Call):
        return None
    attr = last_attr(value.func)
    if attr not in _ACQUIRE_ATTRS:
        return None
    kind = "pool" if attr == "add_pool" else "xstream"
    return target.id, kind, stmt.lineno


def _names_mentioned(stmt: ast.AST, skip: Optional[ast.AST] = None) -> set[str]:
    """Every plain name the statement mentions (``skip``'s subtree aside)."""
    skipped: set[int] = set()
    if skip is not None:
        skipped = {id(node) for node in ast.walk(skip)}
    names: set[str] = set()
    for sub in _scan_exprs(stmt):
        if isinstance(sub, ast.Name) and id(sub) not in skipped:
            names.add(sub.id)
    return names


RESOURCE_RELEASED_ON_EXC = RuleInfo(
    id="MCH072",
    name="resource-leak-on-exception-path",
    group=GROUP_FLOW,
    severity=Severity.ERROR,
    summary="pool/xstream acquired but leaked if an exception escapes",
    rationale=(
        "elastic reconfiguration (the paper's add/remove pool and "
        "xstream dance) only stays balanced if every acquisition either "
        "reaches its owner or is torn down when the path fails; "
        "exception paths are exactly the ones CI-time execution never "
        "covers"
    ),
)


def check_resource_paths(path: str, func: ast.AST, cfg: CFG) -> list[Finding]:
    """MCH072 over one function (full CFG with implicit exception edges).

    A resource is "in the window" from its acquisition until the next
    statement that mentions the variable at all: that mention is the
    release, the registration, or the ownership transfer -- and it ends
    the window even along that statement's own exception edge (ownership
    questions past the first handoff are the owner's business, not this
    rule's).  Only an exception *escaping the function* inside the
    window leaks -- local handlers get the chance to clean up.
    """
    name = getattr(func, "name", "<function>")
    acquires = {}
    for node in cfg.stmt_nodes():
        acq = _resource_acquire(node.stmt)
        if acq is not None:
            acquires[node.id] = acq

    def transfer(node: Node, state: State) -> State:
        if node.stmt is None:
            return state
        acq = acquires.get(node.id)
        target = node.stmt.targets[0] if acq is not None else None
        mentioned = _names_mentioned(node.stmt, skip=target)
        live = {a for a in state if a[0] not in mentioned}
        if acq is not None:
            var, kind, line = acq
            live = {a for a in live if a[0] != var}
            live.add((var, kind, line))
        return frozenset(live)

    def exc_transfer(node: Node, state: State) -> State:
        # Along a statement's own exception edge the *acquire* effect is
        # withheld (the exception means nothing was acquired), but a
        # mention still ends the window.
        if node.stmt is None:
            return state
        acq = acquires.get(node.id)
        target = node.stmt.targets[0] if acq is not None else None
        mentioned = _names_mentioned(node.stmt, skip=target)
        return frozenset(a for a in state if a[0] not in mentioned)

    if not acquires:
        return []
    in_states = forward_fixpoint(cfg, frozenset(), transfer)

    leaks: dict[tuple[str, str, int], int] = {}
    for pred, kind in cfg.predecessors(CFG.EXIT_RAISE):
        state = in_states.get(pred.id, frozenset())
        state = (
            exc_transfer(pred, state)
            if kind in EXCEPTIONAL_KINDS
            else transfer(pred, state)
        )
        for atom in state:
            leaks.setdefault(atom, pred.line)
            leaks[atom] = min(leaks[atom], pred.line)
    findings = []
    for (var, res_kind, line), escape_line in sorted(leaks.items()):
        findings.append(
            _finding(
                "MCH072",
                path,
                line,
                f"{res_kind} {var!r} acquired here is not released if the "
                f"exception path through line {escape_line} is taken; "
                "join/remove it in a finally or except before re-raising",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# MCH074: span leaked on an exception path
# ---------------------------------------------------------------------------

#: Receiver methods that close an MCH074 span's obligation window.
_SPAN_END_ATTRS = frozenset({"end", "finish"})


def _span_acquire(stmt: ast.AST) -> Optional[tuple[str, int]]:
    """``(var, line)`` for ``var = <tracer>.start_span(...)``."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return None
    value = stmt.value
    if not isinstance(value, ast.Call):
        return None
    if last_attr(value.func) != "start_span":
        return None
    return target.id, stmt.lineno


SPAN_ENDED_ON_EXC = RuleInfo(
    id="MCH074",
    name="span-leak-on-exception-path",
    group=GROUP_OBSERVABILITY,
    severity=Severity.ERROR,
    summary="span opened with start_span() but not ended on an exception path",
    rationale=(
        "a manually-timed span that escapes on an exception path never "
        "reaches the tracer's buffer: the operation vanishes from trace "
        "trees and critical paths exactly when it failed -- the case "
        "observability exists for -- and open_span_count climbs forever; "
        "end the span in a finally, or hand it to a callee that will"
    ),
)


def check_span_paths(path: str, func: ast.AST, cfg: CFG) -> list[Finding]:
    """MCH074 over one function (full CFG with implicit exception edges).

    Unlike MCH072's any-mention window, a span's obligation survives
    ordinary uses (reading ``span.start``, logging it): only an
    explicit ``end()``/``finish()`` on the variable, a rebind, or an
    escape (the span passed as a call argument -- the callee owns the
    obligation now) discharges it.  An exception escaping the function
    while the obligation is live loses the span: it never reaches the
    tracer's buffer and ``open_span_count`` never drains.
    """
    name = getattr(func, "name", "<function>")
    acquires: dict[int, tuple[str, int]] = {}
    for node in cfg.stmt_nodes():
        acq = _span_acquire(node.stmt)
        if acq is not None:
            acquires[node.id] = acq
    if not acquires:
        return []

    def _discharged(stmt: ast.AST) -> set[str]:
        """Span vars this statement ends, escapes, or rebinds."""
        done: set[str] = set()
        for sub in _scan_exprs(stmt):
            if not isinstance(sub, ast.Call):
                continue
            if last_attr(sub.func) in _SPAN_END_ATTRS:
                receiver = _receiver(sub)
                if receiver is not None:
                    done.add(receiver)
            for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                if isinstance(arg, ast.Name):
                    done.add(arg.id)
        done.update(_assigned_keys(stmt))
        return done

    def transfer(node: Node, state: State) -> State:
        if node.stmt is None:
            return state
        acq = acquires.get(node.id)
        done = _discharged(node.stmt)
        live = {a for a in state if a[0] not in done}
        if acq is not None:
            var, line = acq
            live = {a for a in live if a[0] != var}
            live.add((var, line))
        return frozenset(live)

    def exc_transfer(node: Node, state: State) -> State:
        # The acquire is withheld on the statement's own exception edge
        # (start_span raising means no span exists), but a discharge
        # still counts.
        if node.stmt is None:
            return state
        done = _discharged(node.stmt)
        return frozenset(a for a in state if a[0] not in done)

    in_states = forward_fixpoint(cfg, frozenset(), transfer)

    leaks: dict[tuple[str, int], int] = {}
    for pred, kind in cfg.predecessors(CFG.EXIT_RAISE):
        state = in_states.get(pred.id, frozenset())
        state = (
            exc_transfer(pred, state)
            if kind in EXCEPTIONAL_KINDS
            else transfer(pred, state)
        )
        for atom in state:
            leaks.setdefault(atom, pred.line)
            leaks[atom] = min(leaks[atom], pred.line)
    findings = []
    for (var, line), escape_line in sorted(leaks.items()):
        findings.append(
            _finding(
                "MCH074",
                path,
                line,
                f"{name!r} starts span {var!r} here but never ends it if "
                f"the exception path through line {escape_line} is taken; "
                "the span is lost and open_span_count never drains -- "
                "end it in a finally",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# MCH073: use-after-release / use-after-migrate
# ---------------------------------------------------------------------------


def _assigned_keys(stmt: ast.AST) -> set[str]:
    """Dotted names (re)bound by this statement (rebinding clears state)."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        ]
    keys = set()
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = list(target.elts)
        else:
            elements = [target]
        for element in elements:
            dotted = dotted_name(element)
            if dotted is not None:
                keys.add(dotted)
    return keys


def _typestate_events(node: Node) -> list[tuple]:
    """Ordered events: ``use``/``arg`` checks, ``kill``/``migrate``
    transitions, and ``clear`` rebinds at this node."""
    stmt = node.stmt
    if stmt is None:
        return []
    events: list[tuple] = []
    driven = _yield_from_calls(stmt)
    for sub in _scan_exprs(stmt):
        if not isinstance(sub, ast.Call):
            continue
        attr = last_attr(sub.func)
        key = _receiver(sub)
        if key is not None:
            # The call is itself a use of its receiver; checked against
            # the state *before* any transition this call performs.
            events.append(("use", key, attr, sub.lineno))
            if attr in _DESTROY_ATTRS:
                events.append(("kill", key, attr, sub.lineno))
            elif attr == "migrate" and id(sub) in driven:
                events.append(("migrate", key, sub.lineno))
        for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
            arg_key = dotted_name(arg)
            if arg_key is not None:
                events.append(("arg", arg_key, sub.lineno))
    for key in sorted(_assigned_keys(stmt)):
        events.append(("clear", key))
    return events


def _clear_key(state: set, key: str) -> set:
    prefix = key + "."
    return {a for a in state if a[0] != key and not a[0].startswith(prefix)}


USE_AFTER_RELEASE = RuleInfo(
    id="MCH073",
    name="use-after-release",
    group=GROUP_FLOW,
    severity=Severity.ERROR,
    summary="handle used after release/destroy, or provider state used after migrate",
    rationale=(
        "a destroyed handle or a provider whose state has migrated away "
        "is a dangling reference: operations on it read state that no "
        "longer lives here, which is how delete-then-migrate bugs "
        "corrupt the destination"
    ),
)


def check_typestate(path: str, func: ast.AST, cfg: CFG) -> list[Finding]:
    """MCH073 over one function (full CFG)."""
    name = getattr(func, "name", "<function>")
    events = {n.id: _typestate_events(n) for n in cfg.stmt_nodes()}

    def replay(node: Node, state: State, emit=None) -> State:
        evs = events.get(node.id)
        if not evs:
            return state
        current = set(state)
        for event in evs:
            kind, key = event[0], event[1]
            if kind in ("use", "arg"):
                for atom in sorted(a for a in current if a[0] == key):
                    if emit is None:
                        continue
                    _key, mark, via, mark_line = atom
                    line = event[-1]
                    if mark == "rel":
                        what = (
                            f"calls {event[2]}() on" if kind == "use" else "passes"
                        )
                        emit(
                            line,
                            f"{name!r} {what} {key!r} after {via}() released "
                            f"it at line {mark_line} (use-after-release on "
                            "some path)",
                        )
                    elif mark == "mig" and kind == "use":
                        if event[2] not in _ALLOWED_AFTER_MIGRATE:
                            emit(
                                line,
                                f"{name!r} calls {event[2]}() on {key!r} "
                                f"after it migrated away at line {mark_line}; "
                                "its state now lives at the migration target",
                            )
            elif kind == "kill":
                current = _clear_key(current, key)
                current.add((key, "rel", event[2], event[3]))
            elif kind == "migrate":
                current = _clear_key(current, key)
                current.add((key, "mig", "migrate", event[2]))
            elif kind == "clear":
                current = _clear_key(current, key)
        return frozenset(current)

    def transfer(node: Node, state: State) -> State:
        return replay(node, state)

    in_states = forward_fixpoint(cfg, frozenset(), transfer)

    findings: list[Finding] = []
    seen: set[tuple[int, str]] = set()

    def emit(line: int, message: str) -> None:
        if (line, message) not in seen:
            seen.add((line, message))
            findings.append(_finding("MCH073", path, line, message))

    for node in cfg.stmt_nodes():
        state = in_states.get(node.id)
        if state is not None:
            replay(node, state, emit=emit)
    return findings
