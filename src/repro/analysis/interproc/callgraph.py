"""Project index and call graph.

The whole-program layer starts here: every Python file under the lint
roots is parsed once (the engine hands over its file contexts) and
indexed into modules, classes, and functions with stable qualified
names (``module.Class.method`` / ``module.func``).  A linking pass
then resolves every call site it can prove -- bare names, imports,
``self.method`` through the project class hierarchy, ``super()``,
constructors -- into edges: the callee body runs in the caller's frame,
as a plain call or as a generator driven by ``yield from``.

A plain (non-``yield from``) call to a *generator* function only builds
the generator object, so it produces **no** edge -- running it is the
kernel's (or ``parallel``'s) business, not the caller's frame.

Soundness caveats are counted, never silently dropped:
``getattr(obj, name)(...)`` call edges are skipped and tallied in
:class:`CallGraphStats` so ``--stats`` can report exactly how much of
the program the analysis refused to reason about.

Everything is walked and emitted in sorted order; two runs over the same
tree produce byte-identical structures.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..rules import FileContext, FunctionNode, dotted_name, own_body_walk

__all__ = [
    "CallEdge",
    "CallGraphStats",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_project",
    "module_name_for",
]


@dataclass
class CallEdge:
    """One resolved call site inside a function body."""

    callee: str  #: qualified name of the target function
    line: int


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: str
    path: str
    name: str
    node: ast.AST
    #: own-body nodes (nested defs not entered), walked once per run.
    body: list[ast.AST]
    cls: Optional["ClassInfo"] = None
    is_generator: bool = False
    edges: list[CallEdge] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition in the project."""

    qualname: str
    module: str
    path: str
    name: str
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    ctx: FileContext
    #: ``import x.y as z`` -> {"z": "x.y"}
    imports: dict[str, str] = field(default_factory=dict)
    #: ``from x import y as z`` -> {"z": "x.y"}
    import_froms: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: names bound at module level -> first binding line.
    module_globals: dict[str, int] = field(default_factory=dict)


@dataclass
class CallGraphStats:
    """Coverage accounting for the linking pass."""

    files: int = 0
    functions: int = 0
    classes: int = 0
    resolved_edges: int = 0
    #: ``getattr(...)(...)`` invocations: conservatively skipped.
    dynamic_getattr_calls: int = 0
    #: plain calls to project generator functions (not executed here).
    generator_constructions: int = 0


def module_name_for(path: str) -> str:
    """Dotted module name derived from the filesystem package layout.

    Ascends from the file while an ``__init__.py`` marks the directory
    as a package, so ``src/repro/yokan/provider.py`` becomes
    ``repro.yokan.provider`` and a fixture tree rooted at a plain
    directory keeps its own short names.
    """
    path = os.path.normpath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts = [] if stem == "__init__" else [stem]
    while directory and os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.insert(0, pkg)
    return ".".join(parts) if parts else stem


def _package_of(module: str) -> str:
    """The package a module lives in (itself when it is a package)."""
    return module.rsplit(".", 1)[0] if "." in module else ""


class ProjectIndex:
    """All modules of one lint run, with name resolution across them."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: ``id(def node)`` -> its :class:`FunctionInfo`.
        self.by_node: dict[int, FunctionInfo] = {}
        self.stats = CallGraphStats()

    # -- indexing ------------------------------------------------------
    def add_module(self, ctx: FileContext) -> ModuleInfo:
        name = module_name_for(ctx.path)
        mod = ModuleInfo(name=name, ctx=ctx)
        self._scan_imports(mod)
        for node in ctx.tree.body:
            if isinstance(node, FunctionNode):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
            else:
                for target in _binding_targets(node):
                    mod.module_globals.setdefault(target, node.lineno)
        self.modules[name] = mod
        self.stats.files += 1
        return mod

    def _scan_imports(self, mod: ModuleInfo) -> None:
        for node in mod.ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        mod.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_import_base(mod, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mod.import_froms[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    @staticmethod
    def _resolve_import_base(mod: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        # Relative import: ``from ..core import x`` inside repro.yokan.provider
        # resolves against the containing package (repro.yokan), one level up
        # per extra dot.
        package = _package_of(mod.name)
        parts = package.split(".") if package else []
        drop = node.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _add_function(
        self, mod: ModuleInfo, node: ast.AST, cls: Optional[ClassInfo]
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        qualname = f"{cls.qualname}.{name}" if cls else f"{mod.name}.{name}"
        body = list(own_body_walk(node))
        info = FunctionInfo(
            qualname=qualname,
            module=mod.name,
            path=mod.ctx.path,
            name=name,
            node=node,
            body=body,
            cls=cls,
            is_generator=any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in body),
        )
        if cls is not None:
            cls.methods[name] = info
        else:
            mod.functions[name] = info
        self.functions[qualname] = info
        self.by_node[id(node)] = info
        self.stats.functions += 1
        return info

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        cls = ClassInfo(
            qualname=f"{mod.name}.{node.name}",
            module=mod.name,
            path=mod.ctx.path,
            name=node.name,
            node=node,
            base_names=[b for b in (dotted_name(base) for base in node.bases) if b],
        )
        for item in node.body:
            if isinstance(item, FunctionNode):
                self._add_function(mod, item, cls=cls)
        mod.classes[node.name] = cls
        self.classes[cls.qualname] = cls
        self.stats.classes += 1
        return cls

    # -- resolution ----------------------------------------------------
    def resolve_name(self, mod: ModuleInfo, dotted: str):
        """Resolve ``dotted`` as seen from ``mod``.

        Returns a :class:`FunctionInfo`, :class:`ClassInfo`,
        :class:`ModuleInfo`, or ``None`` when the name leaves the
        project (stdlib, third-party, builtins).
        """
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if head in mod.import_froms:
            return self._resolve_absolute(mod.import_froms[head].split(".") + rest)
        if head in mod.imports:
            return self._resolve_absolute(mod.imports[head].split(".") + rest)
        if not rest:
            if head in mod.functions:
                return mod.functions[head]
            if head in mod.classes:
                return mod.classes[head]
            return self.modules.get(head)
        if head in mod.classes:
            return self._resolve_into_class(mod.classes[head], rest)
        return self._resolve_absolute(parts)

    def _resolve_absolute(self, parts: list[str]):
        # Longest module prefix wins, then descend into its namespace.
        for split in range(len(parts), 0, -1):
            mod = self.modules.get(".".join(parts[:split]))
            if mod is None:
                continue
            rest = parts[split:]
            if not rest:
                return mod
            if rest[0] in mod.functions and len(rest) == 1:
                return mod.functions[rest[0]]
            if rest[0] in mod.classes:
                if len(rest) == 1:
                    return mod.classes[rest[0]]
                return self._resolve_into_class(mod.classes[rest[0]], rest[1:])
            # Re-exported name: follow one ``from x import y`` hop.
            if rest[0] in mod.import_froms:
                return self._resolve_absolute(
                    mod.import_froms[rest[0]].split(".") + rest[1:]
                )
            return None
        return None

    def _resolve_into_class(self, cls: ClassInfo, rest: list[str]):
        if len(rest) != 1:
            return None
        method = self.find_method(cls, rest[0])
        if method is not None:
            return method
        return None

    def mro(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """Approximate MRO: depth-first over project-resolvable bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            mod = self.modules.get(current.module)
            if mod is None:
                continue
            bases = []
            for base_name in current.base_names:
                resolved = self.resolve_name(mod, base_name)
                if isinstance(resolved, ClassInfo):
                    bases.append(resolved)
            stack = bases + stack

    def find_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for ancestor in self.mro(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    # -- linking -------------------------------------------------------
    def link(self) -> None:
        """Resolve call edges for every function, in qualname order."""
        for qualname in sorted(self.functions):
            self._link_function(self.functions[qualname])

    def _link_function(self, func: FunctionInfo) -> None:
        mod = self.modules[func.module]
        delegated: set[int] = set()
        for node in func.body:
            if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
                delegated.add(id(node.value))
        edges: list[CallEdge] = []
        for node in func.body:
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call_target(func, mod, node)
            if callee is None:
                continue
            if callee.is_generator and id(node) not in delegated:
                # Builds the generator without running it: no edge.
                self.stats.generator_constructions += 1
                continue
            edges.append(CallEdge(callee=callee.qualname, line=node.lineno))
            self.stats.resolved_edges += 1
        edges.sort(key=lambda e: (e.line, e.callee))
        func.edges = edges

    def _resolve_call_target(
        self, func: FunctionInfo, mod: ModuleInfo, node: ast.Call
    ) -> Optional[FunctionInfo]:
        callee_expr = node.func
        # getattr(obj, name)(...) -- a dynamic edge we refuse to guess.
        if (
            isinstance(callee_expr, ast.Call)
            and isinstance(callee_expr.func, ast.Name)
            and callee_expr.func.id == "getattr"
        ):
            self.stats.dynamic_getattr_calls += 1
            return None
        # super().method(...)
        if (
            isinstance(callee_expr, ast.Attribute)
            and isinstance(callee_expr.value, ast.Call)
            and isinstance(callee_expr.value.func, ast.Name)
            and callee_expr.value.func.id == "super"
            and func.cls is not None
        ):
            for ancestor in list(self.mro(func.cls))[1:]:
                if callee_expr.attr in ancestor.methods:
                    return ancestor.methods[callee_expr.attr]
            return None
        dotted = dotted_name(callee_expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and func.cls is not None:
            return self.find_method(func.cls, parts[1]) if len(parts) == 2 else None
        resolved = self.resolve_name(mod, dotted)
        if isinstance(resolved, FunctionInfo):
            return resolved
        if isinstance(resolved, ClassInfo):
            return self.find_method(resolved, "__init__")
        return None


def _binding_targets(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            yield node.target.id


def build_project(files: list[FileContext]) -> ProjectIndex:
    """Index + link the whole program from its parsed files."""
    index = ProjectIndex()
    for ctx in sorted(files, key=lambda ctx: ctx.path):
        index.add_module(ctx)
    index.link()
    return index
