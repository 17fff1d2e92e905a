"""The THR rule set: Thrifty's domain invariants, machine-checked.

Each rule protects an invariant the paper's reproduction relies on but the
Python runtime never verifies — see ``docs/STATIC_ANALYSIS.md`` for the
invariant each rule guards and the paper section it traces back to.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Iterator

from .graph import attr_chain
from .registry import FileContext, Rule, Violation, register

__all__ = [
    "ReplayDeterminismRule",
    "ReproErrorRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "BroadExceptRule",
    "PublicAnnotationRule",
    "NoBarePrintRule",
    "EnumValueComparisonRule",
    "ParallelImportRule",
]

#: Layers whose behaviour is replayed deterministically (THR001 scope).
_REPLAY_LAYERS = ("simulation", "core", "mppdb", "workload")

#: ``module.attr`` call chains that leak ambient nondeterminism.
_FORBIDDEN_CALLS = {
    ("time", "time"): "wall-clock time.time()",
    ("time", "time_ns"): "wall-clock time.time_ns()",
    ("datetime", "now"): "wall-clock datetime.now()",
    ("datetime", "utcnow"): "wall-clock datetime.utcnow()",
    ("date", "today"): "wall-clock date.today()",
    ("random", "seed"): "process-global random.seed()",
    ("np", "random", "seed"): "process-global numpy.random.seed()",
    ("numpy", "random", "seed"): "process-global numpy.random.seed()",
    ("np", "random", "default_rng"): "ad-hoc numpy.random.default_rng()",
    ("numpy", "random", "default_rng"): "ad-hoc numpy.random.default_rng()",
    ("random", "random"): "process-global random.random()",
}

#: Builtin exception classes library code must not raise directly (THR002).
#: ``NotImplementedError`` stays legal: it marks abstract methods, which is a
#: programming-error signal, not a library failure a caller should catch.
_BUILTIN_RAISES = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "AttributeError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OSError",
        "IOError",
        "StopIteration",
        "AssertionError",
    }
)

#: Identifier fragments that mark a quantity as SLA/latency/epoch-valued
#: (THR003); matched case-insensitively against names and attributes.
_FLOAT_DOMAIN = re.compile(
    r"(latenc|sla|percentile|fraction_met|deadline_s|p95|p99)", re.IGNORECASE
)


@register
class ReplayDeterminismRule(Rule):
    """THR001 — replay layers must draw time and randomness from the framework."""

    code = "THR001"
    summary = (
        "no ambient randomness or wall-clock time in simulation/core/mppdb/workload; "
        "use repro.rng streams and the simulation clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_layer(*_REPLAY_LAYERS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.violation(
                            ctx,
                            node,
                            "import of the stdlib `random` module; derive a stream "
                            "from repro.rng.RngFactory instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self.violation(
                        ctx,
                        node,
                        "import from the stdlib `random` module; derive a stream "
                        "from repro.rng.RngFactory instead",
                    )
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                label = _FORBIDDEN_CALLS.get(chain)
                if label is not None:
                    yield self.violation(
                        ctx,
                        node,
                        f"{label} breaks deterministic replay; route randomness "
                        "through repro.rng and time through the simulation clock",
                    )


@register
class ReproErrorRule(Rule):
    """THR002 — library raises must use the :class:`ReproError` hierarchy."""

    code = "THR002"
    summary = "every `raise` in src/repro uses a ReproError subclass"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call):
                chain = attr_chain(exc.func)
                name = chain[-1] if chain else None
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BUILTIN_RAISES:
                yield self.violation(
                    ctx,
                    node,
                    f"raises builtin {name}; library failures must derive from "
                    "repro.errors.ReproError so callers can catch them selectively",
                )


@register
class FloatEqualityRule(Rule):
    """THR003 — no exact ``==``/``!=`` on SLA fractions, latencies, or thresholds."""

    code = "THR003"
    summary = (
        "no float ==/!= on SLA percentages, latencies, or float literals; "
        "use math.isclose or an epsilon helper"
    )

    def _is_float_literal(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # -0.5 parses as UnaryOp(USub, Constant(0.5)).
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._is_float_literal(node.operand)
        return False

    def _is_domain_name(self, node: ast.expr) -> bool:
        chain = attr_chain(node)
        return any(_FLOAT_DOMAIN.search(part) for part in chain)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                if any(self._is_float_literal(o) for o in pair) or all(
                    self._is_domain_name(o) for o in pair
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "exact float comparison; use math.isclose() or "
                        "repro.units.approx_eq() (floating-point SLA/latency "
                        "arithmetic is not exact)",
                    )
                    break


@register
class MutableDefaultRule(Rule):
    """THR004 — no mutable default argument values."""

    code = "THR004"
    summary = "no mutable default arguments (list/dict/set literals or constructors)"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            return len(chain) == 1 and chain[0] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in [*args.defaults, *[d for d in args.kw_defaults if d is not None]]:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and build the object in the body",
                    )


@register
class BroadExceptRule(Rule):
    """THR005 — library code must not swallow ``Exception`` wholesale."""

    code = "THR005"
    summary = "no bare/`except Exception` without re-raise in library code"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            reraises = any(isinstance(inner, ast.Raise) for inner in ast.walk(node))
            if not reraises:
                yield self.violation(
                    ctx,
                    node,
                    "broad except without re-raise swallows programming errors; "
                    "catch a specific ReproError subclass or re-raise",
                )


@register
class PublicAnnotationRule(Rule):
    """THR006 — the optimization core's public surface is fully annotated."""

    code = "THR006"
    summary = "public functions in core/, packing/, simulation/, obs/ have complete type annotations"

    _LAYERS = ("core", "packing", "simulation", "obs", "parallel")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_layer(*self._LAYERS):
            return
        yield from self._check_body(ctx, ctx.tree.body, is_method=False)

    def _check_body(
        self, ctx: FileContext, body: list[ast.stmt], *, is_method: bool
    ) -> Iterator[Violation]:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from self._check_body(ctx, node.body, is_method=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    continue
                yield from self._check_signature(ctx, node, is_method=is_method)

    def _check_signature(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        is_method: bool,
    ) -> Iterator[Violation]:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        if is_method and positional and not self._is_staticmethod(node):
            positional = positional[1:]  # self / cls
        missing = [
            a.arg
            for a in [*positional, *args.kwonlyargs, args.vararg, args.kwarg]
            if a is not None and a.annotation is None
        ]
        if missing:
            yield self.violation(
                ctx,
                node,
                f"public function `{node.name}` is missing parameter annotations: "
                + ", ".join(missing),
            )
        if node.returns is None:
            yield self.violation(
                ctx,
                node,
                f"public function `{node.name}` is missing a return annotation",
            )

    @staticmethod
    def _is_staticmethod(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        return any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )


@register
class NoBarePrintRule(Rule):
    """THR007 — library output flows through ``repro.obs``, not ``print()``.

    A ``print()`` buried in the library is output the observability plane
    cannot see, filter, or export; replays instrumented through a sink
    should produce *no* stdout from ``src/repro`` itself.  The CLI
    (``cli.py``) and module entry points (``__main__.py``) are the
    designated presentation layer and stay exempt.
    """

    code = "THR007"
    summary = "no bare print() in src/repro outside cli.py and __main__ entry points"

    _EXEMPT_BASENAMES = frozenset({"cli.py", "__main__.py"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        basename = PurePosixPath(ctx.path.replace("\\", "/")).name
        if basename in self._EXEMPT_BASENAMES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.violation(
                    ctx,
                    node,
                    "bare print() in library code; emit through a repro.obs "
                    "sink (or return the text to the CLI presentation layer)",
                )


@register
class EnumValueComparisonRule(Rule):
    """THR008 — lifecycle states compare as enums, not via ``.value`` strings.

    ``node.state.value == "failed"`` type-checks, survives renames of the
    *member* while silently breaking on renames of the *string*, and
    defeats both mypy's exhaustiveness analysis and grep-for-member
    refactors.  The fault-tolerance plane grew the instance lifecycle by
    two states (DEGRADED, DOWN); every stringly-typed comparison is a
    latent misroute.  Compare identity instead:
    ``node.state is NodeState.FAILED``.
    """

    code = "THR008"
    summary = 'no enum `.value == "literal"` comparisons in library code; compare members'

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_value_vs_string(left, right) or self._is_value_vs_string(
                    right, left
                ):
                    yield self.violation(
                        ctx,
                        node,
                        'enum `.value` compared against a string literal; compare '
                        "the members themselves (e.g. `state is NodeState.FAILED`)",
                    )
                    break

    @staticmethod
    def _is_value_vs_string(value_side: ast.expr, literal_side: ast.expr) -> bool:
        return (
            isinstance(value_side, ast.Attribute)
            and value_side.attr == "value"
            and isinstance(literal_side, ast.Constant)
            and isinstance(literal_side.value, str)
        )


@register
class ParallelImportRule(Rule):
    """THR009 — process pools live only behind :func:`repro.parallel.map_in_order`.

    A raw ``multiprocessing`` / ``concurrent.futures`` pool elsewhere in
    the library bypasses what ``map_in_order`` guarantees: ``spawn``
    workers (no forked globals or inherited RNG state), results in
    payload order (the same output at any worker count), and a typed
    :class:`~repro.errors.ParallelError` naming the payload that failed.
    Code that needs cores calls ``map_in_order`` instead.
    """

    code = "THR009"
    summary = (
        "no direct multiprocessing/concurrent.futures imports outside "
        "repro.parallel; map work with repro.parallel.map_in_order"
    )

    _FORBIDDEN_ROOTS = frozenset({"multiprocessing", "concurrent"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro() or ctx.in_layer("parallel"):
            return
        for node in ast.walk(ctx.tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                if module.split(".")[0] in self._FORBIDDEN_ROOTS:
                    yield self.violation(
                        ctx,
                        node,
                        f"direct import of `{module}`; process-level parallelism "
                        "goes through repro.parallel.map_in_order so results "
                        "stay in order and failures stay typed",
                    )
                    break
