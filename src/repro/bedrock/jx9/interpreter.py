"""Parser + evaluator for the Jx9 subset.

Executes queries like paper Listing 4 verbatim::

    $result = [];
    foreach ($__config__.providers as $p) {
        array_push($result, $p.name); }
    return $result;

The host (Bedrock) supplies a mapping of ``$``-names (``$__config__``
and the observer planes), read as given; the script returns a JSON
value.  Execution is sandboxed: only the builtins below are callable and
one step budget bounds both runtime and what the script builds.  A
concatenation pays one step per ``BYTES_PER_STEP`` bytes of its result,
and a value stored into a literal, ``array_push`` or an assignment is
stored as a fresh tree, one step per node copied: no stored value
aliases another (or the host's), and none grows faster than its steps.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping, Optional

from .lexer import Jx9SyntaxError, Token, tokenize

__all__ = ["Jx9Error", "Jx9SyntaxError", "jx9_execute"]

#: A concatenation pays one step per this many bytes of its result.
BYTES_PER_STEP = 64
#: Stored values nest at most this deep (replies are walked recursively).
MAX_DEPTH = 64
#: Integers past 64 bits become floats (PHP's overflow rule).
_INT_LIMIT = 2**63


class Jx9Error(RuntimeError):
    """Runtime failure inside a Jx9 script."""


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


# ----------------------------------------------------------------------
# builtins
# ----------------------------------------------------------------------
def _array_push(array: Any, *values: Any) -> int:
    if not isinstance(array, list):
        raise Jx9Error("array_push() expects an array")
    array.extend(values)
    return len(array)


def _array_slice(array: Any, offset: int, length: Optional[int] = None) -> list:
    """PHP's ``array_slice``: a negative offset counts from the end, a
    negative length stops that many elements before it."""
    if not isinstance(array, list):
        raise Jx9Error("array_slice() expects an array")
    if length is None or length < 0:
        return array[offset:length]
    start = offset if offset >= 0 else max(len(array) + offset, 0)
    return array[start : start + length]


def _count(value: Any) -> int:
    if isinstance(value, (list, dict, str)):
        return len(value)
    raise Jx9Error("count() expects an array, object, or string")


BUILTINS: dict[str, Callable[..., Any]] = {
    "array_push": _array_push,
    "array_slice": _array_slice,
    "count": _count,
    "array_keys": lambda obj: sorted(obj.keys()) if isinstance(obj, dict) else list(range(len(obj))),
    "array_values": lambda obj: list(obj.values()) if isinstance(obj, dict) else list(obj),
    "strlen": lambda s: len(s),
    "substr": lambda s, start, length=None: s[start : start + length] if length is not None else s[start:],
    "in_array": lambda needle, haystack: needle in haystack,
    "abs": abs,
    "min": min,
    "max": max,
    "floor": lambda x: float(int(x // 1)),
    "ceil": lambda x: float(-((-x) // 1)),
    "is_array": lambda v: isinstance(v, list),
    "is_object": lambda v: isinstance(v, dict),
    "is_string": lambda v: isinstance(v, str),
}


# ----------------------------------------------------------------------
# parser (recursive descent over the token list)
# ----------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            raise Jx9SyntaxError(
                f"expected {value or kind}, got {token.value!r} at line {token.line}"
            )
        return token

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        if self.at(kind, value):
            self.next()
            return True
        return False

    # ---- statements ---------------------------------------------------
    def parse_program(self) -> list:
        stmts = []
        while not self.at("eof"):
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self):
        if self.at("keyword", "return"):
            self.next()
            value = None if self.at("punct", ";") else self.parse_expr()
            self.accept("punct", ";")
            return ("return", value)
        if self.at("keyword", "foreach"):
            self.next()
            self.expect("punct", "(")
            iterable = self.parse_expr()
            self.expect("keyword", "as")
            first = self.expect("var").value
            second = None
            if self.accept("punct", "=>"):
                second = self.expect("var").value
            self.expect("punct", ")")
            body = self.parse_block_or_stmt()
            return ("foreach", iterable, first, second, body)
        if self.at("keyword", "if"):
            self.next()
            self.expect("punct", "(")
            condition = self.parse_expr()
            self.expect("punct", ")")
            then = self.parse_block_or_stmt()
            otherwise = None
            if self.accept("keyword", "else"):
                otherwise = self.parse_block_or_stmt()
            return ("if", condition, then, otherwise)
        if self.at("keyword", "while"):
            self.next()
            self.expect("punct", "(")
            condition = self.parse_expr()
            self.expect("punct", ")")
            body = self.parse_block_or_stmt()
            return ("while", condition, body)
        if self.at("punct", "{"):
            return ("block", self.parse_block())
        # assignment or bare expression
        expr = self.parse_expr()
        if self.accept("punct", "="):
            value = self.parse_expr()
            self.accept("punct", ";")
            return ("assign", expr, value)
        self.accept("punct", ";")
        return ("expr", expr)

    def parse_block_or_stmt(self):
        if self.at("punct", "{"):
            return self.parse_block()
        return [self.parse_stmt()]

    def parse_block(self) -> list:
        self.expect("punct", "{")
        stmts = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                raise Jx9SyntaxError("unterminated block")
            stmts.append(self.parse_stmt())
        self.expect("punct", "}")
        return stmts

    # ---- expressions --------------------------------------------------
    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.at("punct", "||"):
            self.next()
            left = ("or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_cmp()
        while self.at("punct", "&&"):
            self.next()
            left = ("and", left, self.parse_cmp())
        return left

    def parse_cmp(self):
        left = self.parse_add()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.at("punct", op):
                self.next()
                return ("cmp", op, left, self.parse_add())
        return left

    def parse_add(self):
        left = self.parse_mul()
        while self.at("punct", "+") or self.at("punct", "-"):
            op = self.next().value
            left = ("bin", op, left, self.parse_mul())
        return left

    def parse_mul(self):
        left = self.parse_unary()
        while self.at("punct", "*") or self.at("punct", "/") or self.at("punct", "%"):
            op = self.next().value
            left = ("bin", op, left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.accept("punct", "!"):
            return ("not", self.parse_unary())
        if self.accept("punct", "-"):
            return ("neg", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_primary()
        while True:
            if self.accept("punct", "."):
                name = self.next()
                if name.kind not in ("ident", "keyword"):
                    raise Jx9SyntaxError(f"expected member name at line {name.line}")
                node = ("member", node, name.value)
            elif self.at("punct", "["):
                self.next()
                index = self.parse_expr()
                self.expect("punct", "]")
                node = ("index", node, index)
            else:
                return node

    def parse_primary(self):
        token = self.peek()
        if token.kind == "number":
            self.next()
            text = token.value
            return ("lit", float(text) if "." in text else int(text))
        if token.kind == "string":
            self.next()
            return ("lit", token.value)
        if token.kind == "keyword" and token.value in ("true", "false", "null"):
            self.next()
            return ("lit", {"true": True, "false": False, "null": None}[token.value])
        if token.kind == "var":
            self.next()
            return ("var", token.value)
        if token.kind == "ident":
            self.next()
            self.expect("punct", "(")
            args = []
            if not self.at("punct", ")"):
                args.append(self.parse_expr())
                while self.accept("punct", ","):
                    args.append(self.parse_expr())
            self.expect("punct", ")")
            return ("call", token.value, args)
        if self.accept("punct", "("):
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if self.accept("punct", "["):
            elements = []
            if not self.at("punct", "]"):
                elements.append(self.parse_expr())
                while self.accept("punct", ","):
                    elements.append(self.parse_expr())
            self.expect("punct", "]")
            return ("array", elements)
        if self.accept("punct", "{"):
            pairs = []
            if not self.at("punct", "}"):
                pairs.append(self._parse_pair())
                while self.accept("punct", ","):
                    pairs.append(self._parse_pair())
            self.expect("punct", "}")
            return ("object", pairs)
        raise Jx9SyntaxError(
            f"unexpected token {token.value!r} at line {token.line}"
        )

    def _parse_pair(self):
        key_token = self.next()
        if key_token.kind not in ("string", "ident"):
            raise Jx9SyntaxError(f"expected object key at line {key_token.line}")
        # jx9/PHP uses ':' inside JSON-like objects.
        if not self.accept("punct", ":"):
            self.expect("punct", "=>")
        return (key_token.value, self.parse_expr())


# ----------------------------------------------------------------------
# evaluator
# ----------------------------------------------------------------------
_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.truediv, "%": operator.mod,
}
_NUMBER = (int, float)


class _Evaluator:
    def __init__(self, host: Mapping[str, Any], max_steps: int = 200_000) -> None:
        self.host = host
        self.env: dict[str, Any] = {}
        self.max_steps = max_steps
        self.steps = 0

    def tick(self, steps: int = 1) -> None:
        self.steps += steps
        if self.steps > self.max_steps:
            raise Jx9Error(f"script exceeded {self.max_steps} steps")

    def copy(self, value: Any, depth: int = 0) -> Any:
        """A fresh tree of ``value``, one step per node."""
        self.tick()
        if isinstance(value, (list, dict)):
            if depth >= MAX_DEPTH:
                raise Jx9Error(f"value nests deeper than {MAX_DEPTH}")
            if isinstance(value, list):
                return [self.copy(item, depth + 1) for item in value]
            return {k: self.copy(v, depth + 1) for k, v in value.items()}
        return value

    def store(self, node) -> Any:
        """Evaluate ``node`` into a value that aliases nothing."""
        value = self.eval(node)
        # A literal is built fresh (its elements were stored already).
        return value if node[0] in ("array", "object") else self.copy(value)

    # ---- statements ---------------------------------------------------
    def run(self, stmts: list) -> Any:
        try:
            return self.exec_block(stmts)
        except _Return as signal:
            return signal.value

    def exec_block(self, stmts: list) -> Any:
        last = None
        for stmt in stmts:
            last = self.exec_stmt(stmt)
        return last

    def exec_stmt(self, stmt) -> Any:
        self.tick()
        kind = stmt[0]
        if kind == "expr":
            return self.eval(stmt[1])
        if kind == "assign":
            value = self.store(stmt[2])
            self.assign(stmt[1], value)
            return None
        if kind == "return":
            raise _Return(None if stmt[1] is None else self.eval(stmt[1]))
        if kind == "block":
            return self.exec_block(stmt[1])
        if kind == "if":
            _, condition, then, otherwise = stmt
            if self.truthy(self.eval(condition)):
                return self.exec_block(then)
            if otherwise is not None:
                return self.exec_block(otherwise)
            return None
        if kind == "while":
            _, condition, body = stmt
            while self.truthy(self.eval(condition)):
                self.tick()
                self.exec_block(body)
            return None
        if kind == "foreach":
            _, iterable_node, first, second, body = stmt
            iterable = self.eval(iterable_node)
            if isinstance(iterable, dict):
                items = list(iterable.items())
            elif isinstance(iterable, list):
                items = list(enumerate(iterable))
            else:
                raise Jx9Error("foreach expects an array or object")
            for key, value in items:
                self.tick()
                if second is None:
                    self.env[first] = value
                else:
                    self.env[first] = key
                    self.env[second] = value
                self.exec_block(body)
            return None
        raise Jx9Error(f"unknown statement kind {kind!r}")

    def assign(self, target, value: Any) -> None:
        kind = target[0]
        if kind == "var":
            self.env[target[1]] = value
            return
        if kind == "member":
            container = self.eval(target[1])
            if not isinstance(container, dict):
                raise Jx9Error("member assignment on a non-object")
            container[target[2]] = value
            return
        if kind == "index":
            container = self.eval(target[1])
            index = self.eval(target[2])
            if isinstance(container, list):
                try:
                    container[int(index)] = value
                except (IndexError, TypeError, ValueError) as err:
                    raise Jx9Error(f"bad index {index!r}") from err
            elif isinstance(container, dict):
                container[index] = value
            else:
                raise Jx9Error("index assignment on a non-container")
            return
        raise Jx9Error("invalid assignment target")

    # ---- expressions --------------------------------------------------
    @staticmethod
    def truthy(value: Any) -> bool:
        return bool(value)

    def eval(self, node) -> Any:
        self.tick()
        kind = node[0]
        if kind == "lit":
            return node[1]
        if kind == "var":
            name = node[1]
            if name in self.env:
                return self.env[name]
            try:
                return self.host[name]
            except KeyError:
                raise Jx9Error(f"undefined variable ${name}") from None
        if kind == "array":
            return [self.store(e) for e in node[1]]
        if kind == "object":
            return {k: self.store(v) for k, v in node[1]}
        if kind == "member":
            container = self.eval(node[1])
            if isinstance(container, dict):
                if node[2] not in container:
                    return None  # jx9: missing members are null
                return container[node[2]]
            raise Jx9Error(f"member access '.{node[2]}' on a non-object")
        if kind == "index":
            container = self.eval(node[1])
            index = self.eval(node[2])
            try:
                if isinstance(container, list):
                    return container[int(index)]
                if isinstance(container, dict):
                    return container.get(index)
            except (IndexError, ValueError) as err:
                raise Jx9Error(f"bad index {index!r}") from err
            raise Jx9Error("indexing a non-container")
        if kind == "call":
            name, arg_nodes = node[1], node[2]
            fn = BUILTINS.get(name)
            if fn is None:
                raise Jx9Error(f"call to unknown function {name}()")
            if fn is _array_push:  # the pushed values are stored
                args = [*map(self.eval, arg_nodes[:1]), *map(self.store, arg_nodes[1:])]
            else:
                args = [self.eval(a) for a in arg_nodes]
            try:
                return fn(*args)
            except (TypeError, ValueError, AttributeError) as err:
                raise Jx9Error(f"{name}(): {err}") from err
        if kind == "not":
            return not self.truthy(self.eval(node[1]))
        if kind == "neg":
            value = self.eval(node[1])
            if not isinstance(value, _NUMBER):
                raise Jx9Error("unary '-' takes a number")
            return -value
        if kind == "or":
            left = self.eval(node[1])
            return left if self.truthy(left) else self.eval(node[2])
        if kind == "and":
            left = self.eval(node[1])
            return self.eval(node[2]) if self.truthy(left) else left
        if kind == "cmp":
            op, left, right = node[1], self.eval(node[2]), self.eval(node[3])
            try:
                return _OPERATORS[op](left, right)
            except TypeError as err:
                raise Jx9Error(f"bad comparison {op} between types") from err
        if kind == "bin":
            op, left, right = node[1], self.eval(node[2]), self.eval(node[3])
            if op == "+" and (isinstance(left, str) or isinstance(right, str)):
                return self.concat(left, right)
            if not (isinstance(left, _NUMBER) and isinstance(right, _NUMBER)):
                raise Jx9Error(f"{op!r} takes numbers")
            try:
                result = _OPERATORS[op](left, right)
            except ZeroDivisionError as err:
                raise Jx9Error(f"arithmetic error for {op!r}: {err}") from err
            if isinstance(result, int) and not -_INT_LIMIT <= result < _INT_LIMIT:
                return float(result)
            return result
        raise Jx9Error(f"unknown expression kind {kind!r}")

    def concat(self, left: Any, right: Any) -> str:
        """``left + right`` with a string operand, paid before it is built."""
        if isinstance(left, (list, dict)) or isinstance(right, (list, dict)):
            raise Jx9Error("'+' cannot join an array or object to a string")
        left, right = str(left), str(right)
        self.tick((len(left) + len(right)) // BYTES_PER_STEP)
        return left + right


def jx9_execute(
    source: str, env: Optional[Mapping[str, Any]] = None, max_steps: int = 200_000
) -> Any:
    """Run a Jx9 query; ``env`` supplies ``$``-variables (e.g.
    ``{"__config__": {...}}``), each read from it when the script names
    it (never copied up front).  Assignments never write back to ``env``."""
    try:
        program = _Parser(tokenize(source)).parse_program()
        return _Evaluator(env if env is not None else {}, max_steps=max_steps).run(program)
    except RecursionError:
        raise Jx9Error("script nests too deeply") from None
