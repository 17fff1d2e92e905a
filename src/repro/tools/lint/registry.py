"""Check registry and core datatypes for ``thrifty-lint``.

Two kinds of check share one registry, keyed by code:

* a :class:`Rule` (``THR001``…) walks one parsed file in ``check(ctx)``;
* an :class:`AnalysisPass` (``THRA101``…) walks the whole-program graph of
  the package under the linted paths in ``run(graph, config)``.

Both carry a one-line ``summary``, yield :class:`Violation` records, and
register themselves with the :func:`register` decorator, so the runner,
``--list-rules``, the docs, and the test-suite all share a single source of
truth.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Optional, TypeVar, Union

from ...errors import LintError
from .config import AnalyzeConfig
from .graph import ProgramGraph

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "AnalysisPass",
    "Check",
    "register",
    "all_rules",
    "get_rule",
    "rule_codes",
    "select_rules",
    "finding_at",
]


@dataclass(frozen=True)
class Violation:
    """One finding: a check ``code`` fired at ``path:line:col``.

    Whole-program findings also carry a line-free ``fingerprint``
    (``CODE::file::scope::label``) and may carry a ``detail`` line, such as
    the call chain behind a determinism taint.
    """

    code: str
    message: str
    path: str
    line: int
    col: int
    fingerprint: str = ""
    detail: str = ""

    def format_text(self) -> str:
        """Render in the conventional ``path:line:col: CODE message`` shape."""
        base = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        return f"{base}\n    {self.detail}" if self.detail else base

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (``--format json``)."""
        out: dict[str, object] = {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }
        if self.fingerprint:
            out["fingerprint"] = self.fingerprint
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class FileContext:
    """Everything a rule may want to know about the file being checked.

    ``module_parts`` is the dotted path of the file *inside* the ``repro``
    package (``("core", "routing")`` for ``src/repro/core/routing.py``) and
    is empty for files outside the package (benchmarks, examples), so rules
    can scope themselves to the library layers they protect.
    """

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def module_parts(self) -> tuple[str, ...]:
        parts = PurePosixPath(self.path.replace("\\", "/")).parts
        if "repro" not in parts:
            return ()
        tail = parts[parts.index("repro") + 1 :]
        if not tail:
            return ()
        stem = tail[-1]
        if stem.endswith(".py"):
            stem = stem[:-3]
        return tuple(tail[:-1]) + ((stem,) if stem != "__init__" else ())

    def in_repro(self) -> bool:
        """True when the file lives inside the ``repro`` package."""
        return "repro" in PurePosixPath(self.path.replace("\\", "/")).parts

    def in_layer(self, *layers: str) -> bool:
        """True when the file sits under one of the named ``repro`` sub-packages."""
        parts = self.module_parts
        return bool(parts) and parts[0] in layers


class Rule:
    """Base class for per-file rules; subclasses set ``code``/``summary``."""

    code: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            code=self.code,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
        )


class AnalysisPass:
    """Base class for whole-program passes; subclasses set ``code``/``name``/``summary``."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def run(self, graph: ProgramGraph, config: AnalyzeConfig) -> list[Violation]:
        """Return every finding of this pass over ``graph``."""
        raise NotImplementedError


Check = Union[Rule, AnalysisPass]
"""Anything the registry holds: a per-file rule or a whole-program pass."""

_CheckClass = TypeVar("_CheckClass", type[Rule], type[AnalysisPass])

_REGISTRY: dict[str, Union[type[Rule], type[AnalysisPass]]] = {}


def register(cls: _CheckClass) -> _CheckClass:
    """Class decorator adding a rule or pass to the registry (keyed by its code)."""
    if not cls.code:
        raise LintError(f"check {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise LintError(f"duplicate check code {cls.code!r}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[Check]:
    """Fresh instances of every registered rule and pass, sorted by code."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_codes() -> list[str]:
    """Sorted registered codes (THR rules and THRA passes)."""
    return sorted(_REGISTRY)


def get_rule(code: str) -> Check:
    """Instantiate the rule or pass registered under ``code``."""
    try:
        return _REGISTRY[code]()
    except KeyError:
        raise LintError(f"unknown rule code {code!r}") from None


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Check]:
    """Resolve ``--select``/``--ignore`` against the registry."""
    codes = set(select) if select else set(rule_codes())
    unknown = codes - set(rule_codes())
    if unknown:
        raise LintError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    if ignore:
        bad = set(ignore) - set(rule_codes())
        if bad:
            raise LintError(f"unknown rule code(s): {', '.join(sorted(bad))}")
        codes -= set(ignore)
    return [get_rule(code) for code in sorted(codes)]


def _relative_path(path: str, root: Path) -> str:
    """``path`` relative to the analyzed package's parent, POSIX-style.

    ``src/repro/packing/ffd.py`` with root ``src/repro`` becomes
    ``repro/packing/ffd.py`` — stable no matter where the checkout lives
    or whether the CLI was given ``src`` or ``src/repro``.
    """
    resolved = Path(path).resolve()
    try:
        relative = resolved.relative_to(root.resolve().parent)
    except ValueError:
        relative = Path(path)
    return PurePosixPath(relative).as_posix()


def finding_at(
    *,
    code: str,
    message: str,
    path: str,
    root: Path,
    scope: str,
    label: str,
    node: Optional[ast.AST] = None,
    line: int = 1,
    col: int = 1,
    detail: str = "",
) -> Violation:
    """Build a pass finding, anchored at ``node`` when one is given.

    Its fingerprint ``CODE::file::scope::label`` names *what* the finding
    is about without the line number, so ``run_passes`` can deduplicate a
    finding several call chains reach.
    """
    if node is not None:
        line = getattr(node, "lineno", line)
        col = getattr(node, "col_offset", col - 1) + 1
    return Violation(
        code=code,
        message=message,
        path=path,
        line=line,
        col=col,
        fingerprint=f"{code}::{_relative_path(path, root)}::{scope}::{label}",
        detail=detail,
    )
