"""Whole-program model for the ``thrifty-lint`` THRA passes.

The THR rules see one file at a time; the THRA passes need to reason
*across* files — "is this wall-clock read reachable from the replay entry
points?" is a property of the call graph, not of any single module.  This module parses every ``.py`` file under a
package root into:

* :class:`ModuleInfo` — per-module AST, import table, top-level functions,
  classes, and module-level constants whose constructing class is known;
* :class:`ClassInfo` — methods, properties, resolved base classes, and the
  best-effort types of ``self.*`` attributes assigned in ``__init__``;
* :class:`FunctionInfo` — one entry per function *or* method; bodies of
  nested functions and lambdas are attributed to their enclosing function
  (a closure scheduled on the simulator still executes the enclosing
  function's logic);
* :class:`ProgramGraph` — the whole program, with call resolution
  (:meth:`ProgramGraph.resolve_call`) and reachability
  (:meth:`ProgramGraph.reachable`).

Resolution is deliberately *best-effort*: a call that cannot be resolved is
reported as such (``CallResolution.opaque``) so each pass can choose to be
conservative about it rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ...errors import AnalysisError

__all__ = [
    "ModuleInfo",
    "ClassInfo",
    "FunctionInfo",
    "CallResolution",
    "ProgramGraph",
    "build_program",
    "attr_chain",
    "find_package",
    "find_package_root",
]

_SKIP_DIRS = {".git", "__pycache__", ".venv", "build", "dist", ".mypy_cache", ".ruff_cache"}

#: A ``.method()`` call with no typed receiver is linked to every class
#: defining that method — but only when few enough classes do for the link
#: to carry signal.
_FALLBACK_MAX_IMPLS = 3

#: Constructor calls producing builtin containers; attributes assigned from
#: these are typed "builtin" so later ``.get()``/``.items()`` calls on them
#: are not mistaken for internal methods.
_BUILTIN_FACTORIES = frozenset({"dict", "list", "set", "tuple", "frozenset", "bytearray", "str"})


def attr_chain(node: ast.AST) -> tuple[str, ...]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; empty for non-pure chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


@dataclass
class FunctionInfo:
    """One function or method; nested defs belong to their enclosing function."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: Optional[str] = None
    is_property: bool = False
    #: Parameter name -> internal class qualnames its annotation names.
    param_types: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def display(self) -> str:
        """Short human name: ``Class.method`` or ``module.function``."""
        if self.cls is not None:
            return f"{self.cls.rsplit('.', 1)[-1]}.{self.name}"
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


@dataclass
class ClassInfo:
    """One class: methods, properties, bases, and typed ``self.*`` attributes."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    #: Base-class qualnames (internal) or bare names (external/builtin).
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    properties: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> possible internal class qualnames (or ``{"<builtin>"}``).
    attr_types: dict[str, frozenset[str]] = field(default_factory=dict)
    #: ``self.<attr>`` holding a callable -> function qualnames it may be.
    callable_attrs: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    name: str
    path: str
    source: str
    tree: ast.Module
    is_package: bool = False
    #: ``import x.y as z`` -> ``{"z": "x.y"}`` (and ``{"x": "x"}`` for plain imports).
    imports: dict[str, str] = field(default_factory=dict)
    #: ``from m import a as b`` -> ``{"b": ("m", "a")}`` (module resolved absolute).
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level ``NAME = ClassName(...)`` constants -> class qualname.
    const_types: dict[str, str] = field(default_factory=dict)
    #: Module-level dict literals mapping to functions/classes (dispatch
    #: tables like ``GROUPING_ALGORITHMS``) -> resolved (kind, qualname)s.
    dispatch_tables: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    #: Names listed in ``__all__`` with the line each entry sits on.
    exports: list[tuple[str, int]] = field(default_factory=list)

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()


@dataclass(frozen=True)
class CallResolution:
    """Outcome of resolving one ``ast.Call``.

    ``targets`` holds internal function qualnames the call may dispatch to.
    ``external`` is the normalized dotted chain for calls into code outside
    the analyzed package (``("time", "perf_counter")``).  ``opaque`` marks
    calls that may reach internal code the resolver cannot name (callbacks,
    untyped receivers with many candidate implementations) — passes must
    treat those pessimistically.
    """

    targets: tuple[str, ...] = ()
    external: tuple[str, ...] = ()
    opaque: bool = False


class ProgramGraph:
    """Every module of one package, with call resolution over the whole set."""

    def __init__(self, package: str, root: Path) -> None:
        self.package = package
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._properties_by_name: dict[str, list[FunctionInfo]] = {}
        self._subclasses: dict[str, list[str]] = {}
        self._call_cache: dict[str, list[tuple[ast.Call, CallResolution]]] = {}

    # ------------------------------------------------------------------ build

    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        for fn in info.functions.values():
            self.functions[fn.qualname] = fn
        for cls in info.classes.values():
            self.classes[cls.qualname] = cls
            for fn in cls.methods.values():
                self.functions[fn.qualname] = fn
                self._methods_by_name.setdefault(fn.name, []).append(fn)
            for fn in cls.properties.values():
                self.functions[fn.qualname] = fn
                self._properties_by_name.setdefault(fn.name, []).append(fn)

    def finalize(self) -> None:
        """Index subclass edges once every module is loaded."""
        for cls in self.classes.values():
            for base in cls.bases:
                if base in self.classes:
                    self._subclasses.setdefault(base, []).append(cls.qualname)

    # ------------------------------------------------------------- hierarchy

    def mro(self, qualname: str) -> list[ClassInfo]:
        """The class and its internal ancestors, nearest first (best-effort)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            cls = self.classes[current]
            out.append(cls)
            stack.extend(cls.bases)
        return out

    def subclasses(self, qualname: str) -> list[str]:
        """All transitive internal subclasses of ``qualname``."""
        out: list[str] = []
        stack = list(self._subclasses.get(qualname, ()))
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.append(current)
            stack.extend(self._subclasses.get(current, ()))
        return out

    def find_method(self, cls_qualname: str, name: str) -> Optional[FunctionInfo]:
        """Resolve ``name`` through the class's ancestors, nearest first."""
        for cls in self.mro(cls_qualname):
            if name in cls.methods:
                return cls.methods[name]
        return None

    def find_property(self, cls_qualname: str, name: str) -> Optional[FunctionInfo]:
        for cls in self.mro(cls_qualname):
            if name in cls.properties:
                return cls.properties[name]
        return None

    def methods_named(self, name: str) -> list[FunctionInfo]:
        return list(self._methods_by_name.get(name, ()))

    def properties_named(self, name: str) -> list[FunctionInfo]:
        return list(self._properties_by_name.get(name, ()))

    # ------------------------------------------------------------ resolution

    def resolve_scope_name(self, module: ModuleInfo, name: str) -> Optional[tuple[str, str]]:
        """Resolve a bare name in module scope to ``(kind, qualname)``.

        Kinds: ``"function"``, ``"class"``, ``"module"``, ``"const"``.
        Follows one level of re-export through ``from m import name``.
        """
        if name in module.functions:
            return ("function", module.functions[name].qualname)
        if name in module.classes:
            return ("class", module.classes[name].qualname)
        if name in module.const_types:
            return ("const", module.const_types[name])
        if name in module.imports:
            return ("module", module.imports[name])
        if name in module.from_imports:
            source, orig = module.from_imports[name]
            dotted = f"{source}.{orig}"
            if dotted in self.modules:
                return ("module", dotted)
            target = self.modules.get(source)
            if target is not None:
                resolved = self.resolve_scope_name(target, orig)
                if resolved is not None:
                    return resolved
                return None
            return ("external", f"{source}.{orig}")
        return None

    def _normalize_chain(self, module: ModuleInfo, chain: tuple[str, ...]) -> tuple[str, ...]:
        """Rewrite an attribute chain's head through the module's import table."""
        head = chain[0]
        if head in module.imports:
            return tuple(module.imports[head].split(".")) + chain[1:]
        if head in module.from_imports:
            source, orig = module.from_imports[head]
            dotted = f"{source}.{orig}"
            if dotted in self.modules or not source.startswith(self.package):
                return tuple(dotted.split(".")) + chain[1:]
        return chain

    def _receiver_types(self, fn: FunctionInfo, expr: ast.expr) -> frozenset[str]:
        """Internal class qualnames an expression may evaluate to (best-effort)."""
        chain = attr_chain(expr)
        module = self.modules[fn.module]
        if len(chain) == 1:
            name = chain[0]
            if name in fn.param_types:
                return fn.param_types[name]
            resolved = self.resolve_scope_name(module, name)
            if resolved is not None and resolved[0] == "const":
                return frozenset({resolved[1]})
            return frozenset()
        if len(chain) == 2 and chain[0] == "self" and fn.cls is not None:
            for cls in self.mro(fn.cls):
                if chain[1] in cls.attr_types:
                    return cls.attr_types[chain[1]]
            return frozenset()
        if len(chain) == 2:
            resolved = self.resolve_scope_name(module, chain[0])
            if resolved is not None and resolved[0] == "module":
                target = self.modules.get(resolved[1])
                if target is not None and chain[1] in target.const_types:
                    return frozenset({target.const_types[chain[1]]})
        return frozenset()

    def _entry_targets(self, entries: Sequence[tuple[str, str]]) -> list[str]:
        """Call targets for resolved (kind, qualname) dispatch entries."""
        out: list[str] = []
        for kind, qualname in entries:
            if kind == "function":
                if qualname in self.functions and qualname not in out:
                    out.append(qualname)
            elif kind == "class":
                for name in ("__init__", "__post_init__"):
                    found = self.find_method(qualname, name)
                    if found is not None and found.qualname not in out:
                        out.append(found.qualname)
        return out

    def dispatch_entries(self, module: ModuleInfo, name: str) -> tuple[tuple[str, str], ...]:
        """A module-level dispatch table's entries, following from-imports."""
        if name in module.dispatch_tables:
            return module.dispatch_tables[name]
        if name in module.from_imports:
            source, orig = module.from_imports[name]
            target = self.modules.get(source)
            if target is not None and orig in target.dispatch_tables:
                return target.dispatch_tables[orig]
        return ()

    def _method_targets(self, cls_qualname: str, name: str) -> list[str]:
        """A method plus every subclass override of it."""
        out: list[str] = []
        found = self.find_method(cls_qualname, name)
        if found is not None:
            out.append(found.qualname)
        for sub in self.subclasses(cls_qualname):
            override = self.classes[sub].methods.get(name)
            if override is not None and override.qualname not in out:
                out.append(override.qualname)
        return out

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> CallResolution:
        """Resolve one call site inside ``fn`` (see :class:`CallResolution`)."""
        func = call.func
        module = self.modules[fn.module]
        if isinstance(func, ast.Name):
            resolved = self.resolve_scope_name(module, func.id)
            if resolved is None:
                # Builtin (len, sorted, ...) or a local variable / parameter.
                # A parameter that holds a callable is an opaque callback.
                if func.id in fn.param_types or self._is_local_name(fn, func.id):
                    return CallResolution(opaque=True)
                return CallResolution(external=(func.id,))
            kind, qualname = resolved
            if kind == "function":
                return CallResolution(targets=(qualname,))
            if kind == "class":
                init = self.find_method(qualname, "__init__")
                post = self.find_method(qualname, "__post_init__")
                targets = tuple(
                    f.qualname for f in (init, post) if f is not None
                )
                return CallResolution(targets=targets)
            if kind in ("module", "external"):
                return CallResolution(external=tuple(qualname.split(".")))
            return CallResolution(opaque=True)
        if isinstance(func, ast.Attribute):
            # super().__init__(...) and friends.
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and fn.cls is not None
            ):
                cls = self.classes.get(fn.cls)
                if cls is not None:
                    for base in cls.bases:
                        found = self.find_method(base, func.attr)
                        if found is not None:
                            return CallResolution(targets=(found.qualname,))
                return CallResolution(opaque=True)
            chain = attr_chain(func)
            # ClassName.method(...) — classmethods/staticmethods/unbound calls.
            if len(chain) == 2 and chain[0] != "self":
                resolved_head = self.resolve_scope_name(module, chain[0])
                if resolved_head is not None and resolved_head[0] == "class":
                    class_targets = self._method_targets(resolved_head[1], chain[1])
                    if class_targets:
                        return CallResolution(targets=tuple(class_targets))
            if chain:
                normalized = self._normalize_chain(module, chain)
                # Dotted path rooted at a module: internal function or external.
                if len(normalized) >= 2:
                    head_module = ".".join(normalized[:-1])
                    if head_module in self.modules:
                        target = self.modules[head_module]
                        resolved2 = self.resolve_scope_name(target, normalized[-1])
                        if resolved2 is not None and resolved2[0] == "function":
                            return CallResolution(targets=(resolved2[1],))
                    if not normalized[0] == "self" and (
                        normalized[0] not in fn.param_types
                    ):
                        head = normalized[0]
                        rooted_external = (
                            head in module.imports.values()
                            or not head.startswith(self.package.split(".")[0])
                        )
                        if head_module not in self.modules and rooted_external and (
                            not self._receiver_types(fn, func.value)
                        ):
                            # numpy / stdlib / other foreign roots.
                            if chain[0] in module.imports or chain[0] in module.from_imports:
                                return CallResolution(external=normalized)
            # Typed receiver: self attribute, annotated parameter, known const.
            receivers = self._receiver_types(fn, func.value)
            if chain and chain[0] == "self" and len(chain) == 2 and fn.cls is not None:
                targets = self._method_targets(fn.cls, func.attr)
                if targets:
                    return CallResolution(targets=tuple(targets))
                for cls_info in self.mro(fn.cls):
                    if func.attr in cls_info.callable_attrs:
                        return CallResolution(
                            targets=tuple(cls_info.callable_attrs[func.attr])
                        )
                prop = self.find_property(fn.cls, func.attr)
                if prop is not None:
                    return CallResolution(targets=(prop.qualname,), opaque=True)
            if receivers:
                if "<builtin>" in receivers:
                    return CallResolution(external=("<builtin>", func.attr))
                targets2: list[str] = []
                for receiver in receivers:
                    for target_name in self._method_targets(receiver, func.attr):
                        if target_name not in targets2:
                            targets2.append(target_name)
                if targets2:
                    return CallResolution(targets=tuple(targets2))
            # Fallback: link by method name when few classes implement it.
            impls = self.methods_named(func.attr)
            if impls and len(impls) <= _FALLBACK_MAX_IMPLS:
                return CallResolution(targets=tuple(f.qualname for f in impls))
            if impls:
                return CallResolution(opaque=True)
            if chain and chain[0] == "self":
                # An untyped self attribute may hold any callable.
                return CallResolution(opaque=True)
            return CallResolution(external=("<unknown>", func.attr))
        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            # Dispatch-table call: GROUPING_ALGORITHMS[name](problem).
            entries = self.dispatch_entries(module, func.value.id)
            if entries:
                targets = self._entry_targets(entries)
                if targets:
                    return CallResolution(targets=tuple(targets))
        return CallResolution(opaque=True)

    def resolve_property(self, fn: FunctionInfo, node: ast.Attribute) -> list[FunctionInfo]:
        """Property getters a non-call attribute access may invoke."""
        out: list[FunctionInfo] = []
        chain = attr_chain(node)
        receivers: set[str] = set()
        if chain and chain[0] == "self" and len(chain) == 2 and fn.cls is not None:
            receivers.add(fn.cls)
        receivers.update(self._receiver_types(fn, node.value) - {"<builtin>"})
        for receiver in receivers:
            prop = self.find_property(receiver, node.attr)
            if prop is not None and prop not in out:
                out.append(prop)
            for sub in self.subclasses(receiver):
                override = self.classes[sub].properties.get(node.attr)
                if override is not None and override not in out:
                    out.append(override)
        return out

    @staticmethod
    def _is_local_name(fn: FunctionInfo, name: str) -> bool:
        """Whether ``name`` is a parameter or assigned/def-ed inside ``fn``."""
        args = fn.node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if any(param is not None and param.arg == name for param in params):
            return True
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id == name:
                    return True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn.node and node.name == name:
                    return True
        return False

    # ---------------------------------------------------------- reachability

    def calls_of(self, qualname: str) -> list[tuple[ast.Call, CallResolution]]:
        """Every call site in a function (cached), nested defs included."""
        cached = self._call_cache.get(qualname)
        if cached is not None:
            return cached
        fn = self.functions[qualname]
        out: list[tuple[ast.Call, CallResolution]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                out.append((node, self.resolve_call(fn, node)))
        # Decorators dispatch through the decorating function at call time.
        for decorator in fn.node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name):
                resolved = self.resolve_scope_name(self.modules[fn.module], target.id)
                if resolved is not None and resolved[0] == "function":
                    synthetic = ast.Call(func=target, args=[], keywords=[])
                    ast.copy_location(synthetic, fn.node)
                    out.append((synthetic, CallResolution(targets=(resolved[1],))))
        self._call_cache[qualname] = out
        return out

    def reachable(self, roots: Sequence[str]) -> dict[str, tuple[str, ...]]:
        """BFS over the call graph; maps each reached function to its path.

        The path is a tuple of qualnames from a root to the function
        (inclusive), the shortest found — used to explain *why* a finding
        is reachable.
        """
        paths: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.functions and root not in paths:
                paths[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for _node, resolution in self.calls_of(current):
                for target in resolution.targets:
                    if target in self.functions and target not in paths:
                        paths[target] = paths[current] + (target,)
                        queue.append(target)
        return paths

    def functions_with_prefix(self, prefixes: Sequence[str]) -> list[str]:
        """Qualnames of functions whose qualname starts with any prefix."""
        out = [
            qualname
            for qualname in self.functions
            if any(qualname.startswith(prefix) for prefix in prefixes)
        ]
        return sorted(out)


# ---------------------------------------------------------------- the loader


def _annotation_classes(
    expr: Optional[ast.expr], module: ModuleInfo, graph: ProgramGraph
) -> frozenset[str]:
    """Internal class qualnames named by a parameter annotation."""
    if expr is None:
        return frozenset()
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            expr = ast.parse(expr.value, mode="eval").body
        except SyntaxError:
            return frozenset()
    if isinstance(expr, ast.Name):
        resolved = graph.resolve_scope_name(module, expr.id)
        if resolved is not None and resolved[0] == "class":
            return frozenset({resolved[1]})
        return frozenset()
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        return _annotation_classes(expr.left, module, graph) | _annotation_classes(
            expr.right, module, graph
        )
    if isinstance(expr, ast.Subscript):
        base = expr.value
        if isinstance(base, ast.Name) and base.id in ("Optional", "Union"):
            inner = expr.slice
            if isinstance(inner, ast.Tuple):
                out: frozenset[str] = frozenset()
                for element in inner.elts:
                    out = out | _annotation_classes(element, module, graph)
                return out
            return _annotation_classes(inner, module, graph)
    return frozenset()


def _rhs_types(
    expr: ast.expr,
    module: ModuleInfo,
    graph: ProgramGraph,
    param_types: dict[str, frozenset[str]],
) -> frozenset[str]:
    """Classes an ``__init__`` right-hand side may construct or forward."""
    if isinstance(expr, ast.IfExp):
        return _rhs_types(expr.body, module, graph, param_types) | _rhs_types(
            expr.orelse, module, graph, param_types
        )
    if isinstance(expr, ast.BoolOp):
        out: frozenset[str] = frozenset()
        for value in expr.values:
            out = out | _rhs_types(value, module, graph, param_types)
        return out
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.DictComp, ast.ListComp,
                         ast.SetComp, ast.Constant)):
        return frozenset({"<builtin>"})
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in _BUILTIN_FACTORIES:
                return frozenset({"<builtin>"})
            resolved = graph.resolve_scope_name(module, func.id)
            if resolved is not None and resolved[0] == "class":
                return frozenset({resolved[1]})
        return frozenset()
    if isinstance(expr, ast.Name):
        if expr.id in param_types:
            return param_types[expr.id]
        resolved = graph.resolve_scope_name(module, expr.id)
        if resolved is not None and resolved[0] == "const":
            return frozenset({resolved[1]})
        return frozenset()
    if isinstance(expr, ast.Attribute):
        chain = attr_chain(expr)
        if len(chain) == 2:
            resolved = graph.resolve_scope_name(module, chain[0])
            if resolved is not None and resolved[0] == "module":
                target = graph.modules.get(resolved[1])
                if target is not None and chain[1] in target.const_types:
                    return frozenset({target.const_types[chain[1]]})
    return frozenset()


def _callable_rhs(expr: ast.expr, module: ModuleInfo, graph: ProgramGraph) -> frozenset[str]:
    """Function qualnames an ``__init__`` right-hand side may store as a callable."""
    if isinstance(expr, ast.IfExp):
        return _callable_rhs(expr.body, module, graph) | _callable_rhs(
            expr.orelse, module, graph
        )
    if isinstance(expr, ast.BoolOp):
        out: frozenset[str] = frozenset()
        for value in expr.values:
            out = out | _callable_rhs(value, module, graph)
        return out
    if isinstance(expr, ast.Name):
        resolved = graph.resolve_scope_name(module, expr.id)
        if resolved is not None and resolved[0] in ("function", "class"):
            return frozenset(graph._entry_targets([resolved]))
        return frozenset()
    if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
        entries = graph.dispatch_entries(module, expr.value.id)
        if entries:
            return frozenset(graph._entry_targets(entries))
    return frozenset()


def _is_property_def(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
            return True
    return False


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleInfo,
    cls: Optional[ClassInfo],
) -> FunctionInfo:
    scope = cls.qualname if cls is not None else module.name
    return FunctionInfo(
        qualname=f"{scope}.{node.name}",
        name=node.name,
        module=module.name,
        path=module.path,
        node=node,
        cls=cls.qualname if cls is not None else None,
        is_property=_is_property_def(node),
    )


def _resolve_relative(module_name: str, is_package: bool, level: int, target: Optional[str]) -> str:
    """Absolute module named by a ``from ... import`` with ``level`` dots."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname if alias.asname else alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                source = _resolve_relative(info.name, info.is_package, node.level, node.module)
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname if alias.asname else alias.name
                info.from_imports[local] = (source, alias.name)


def _collect_exports(info: ModuleInfo) -> None:
    for node in info.tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            # __all__.append("name") / __all__.extend([...]).
            call = node.value
            chain = attr_chain(call.func)
            if chain[:1] == ("__all__",) and chain[1:] in (("append",), ("extend",)):
                for arg in call.args:
                    for element in ast.walk(arg):
                        if isinstance(element, ast.Constant) and isinstance(element.value, str):
                            info.exports.append((element.value, element.lineno))
            continue
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                for element in ast.walk(value):
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        info.exports.append((element.value, element.lineno))


def _load_module(name: str, path: Path, root: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    info = ModuleInfo(
        name=name,
        path=str(path),
        source=source,
        tree=tree,
        is_package=path.name == "__init__.py",
    )
    _collect_imports(info)
    _collect_exports(info)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _function_info(node, info, None)
            info.functions[node.name] = fn
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{name}.{node.name}", name=node.name, module=name, node=node
            )
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = _function_info(member, info, cls)
                    if fn.is_property:
                        cls.properties[member.name] = fn
                    else:
                        cls.methods[member.name] = fn
            info.classes[node.name] = cls
    return info


def _link_classes(graph: ProgramGraph) -> None:
    """Resolve base classes, constants, annotations, and attribute types."""
    for info in graph.modules.values():
        # Module-level ClassName(...) constants and dispatch-table dicts.
        for node in info.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                resolved = graph.resolve_scope_name(info, value.func.id)
                if resolved is not None and resolved[0] == "class":
                    info.const_types[target.id] = resolved[1]
            elif isinstance(value, ast.Dict):
                entries: list[tuple[str, str]] = []
                for dict_value in value.values:
                    if not isinstance(dict_value, ast.Name):
                        continue
                    resolved = graph.resolve_scope_name(info, dict_value.id)
                    if resolved is not None and resolved[0] in ("function", "class"):
                        entries.append(resolved)
                if entries:
                    info.dispatch_tables[target.id] = tuple(entries)
    for info in graph.modules.values():
        for cls in info.classes.values():
            bases: list[str] = []
            for base in cls.node.bases:
                if isinstance(base, ast.Name):
                    resolved = graph.resolve_scope_name(info, base.id)
                    if resolved is not None and resolved[0] == "class":
                        bases.append(resolved[1])
                    else:
                        bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    chain = attr_chain(base)
                    bases.append(".".join(chain))
            cls.bases = tuple(bases)
    for info in graph.modules.values():
        for fn in _all_functions(info):
            args = fn.node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                types = _annotation_classes(arg.annotation, info, graph)
                if types:
                    fn.param_types[arg.arg] = types
    for info in graph.modules.values():
        for cls in info.classes.values():
            init = cls.methods.get("__init__")
            if init is None:
                continue
            for node in ast.walk(init.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    chain = attr_chain(target)
                    if len(chain) == 2 and chain[0] == "self":
                        types = _rhs_types(node.value, info, graph, init.param_types)
                        if types:
                            merged = cls.attr_types.get(chain[1], frozenset()) | types
                            cls.attr_types[chain[1]] = merged
                        callables = _callable_rhs(node.value, info, graph)
                        if callables:
                            merged_calls = (
                                cls.callable_attrs.get(chain[1], frozenset()) | callables
                            )
                            cls.callable_attrs[chain[1]] = merged_calls


def _all_functions(info: ModuleInfo) -> Iterator[FunctionInfo]:
    yield from info.functions.values()
    for cls in info.classes.values():
        yield from cls.methods.values()
        yield from cls.properties.values()


def find_package(paths: Sequence[str | Path]) -> Optional[Path]:
    """Locate the package directory to analyze from CLI path arguments.

    Accepts either the package directory itself (``src/repro``) or a parent
    holding exactly one package (``src``); ``None`` when no path is either.
    The whole-program passes need the complete package; analyzing a lone
    file would silence every cross-module finding, so only directories are
    accepted.
    """
    for raw in paths:
        path = Path(raw)
        if not path.is_dir():
            continue
        if (path / "__init__.py").exists():
            return path
        candidates = sorted(
            child
            for child in path.iterdir()
            if child.is_dir()
            and child.name not in _SKIP_DIRS
            and (child / "__init__.py").exists()
        )
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            raise AnalysisError(
                f"{path} holds multiple packages ({', '.join(c.name for c in candidates)}); "
                "pass the package directory itself"
            )
    return None


def find_package_root(paths: Sequence[str | Path]) -> Path:
    """:func:`find_package`, with a missing package an error."""
    root = find_package(paths)
    if root is None:
        raise AnalysisError(
            "no package found: pass a package directory (containing __init__.py) "
            "or its direct parent"
        )
    return root


def build_program(package_dir: str | Path) -> ProgramGraph:
    """Parse every module under ``package_dir`` into a :class:`ProgramGraph`."""
    root = Path(package_dir)
    if not (root / "__init__.py").exists():
        raise AnalysisError(f"{root} is not a package (no __init__.py)")
    package = root.name
    graph = ProgramGraph(package, root)
    for path in sorted(root.rglob("*.py")):
        if _SKIP_DIRS.intersection(path.parts):
            continue
        relative = path.relative_to(root)
        parts = [package, *relative.parts[:-1]]
        if path.name != "__init__.py":
            parts.append(path.stem)
        name = ".".join(parts)
        graph.add_module(_load_module(name, path, root))
    _link_classes(graph)
    graph.finalize()
    return graph
