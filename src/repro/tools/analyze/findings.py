"""Analyzer findings: lint :class:`Violation` plus a stable fingerprint.

The fingerprint identifies *what* the finding is about — pass code, file
(package-relative), containing scope, and a pass-specific detail label —
without the line number, so a finding stays baselined while the file above
it is edited.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath
from dataclasses import dataclass
from typing import Optional

from ..lint.registry import Violation

__all__ = ["Finding", "make_fingerprint", "relative_path"]


@dataclass(frozen=True)
class Finding(Violation):
    """One interprocedural finding, identified by a line-independent fingerprint."""

    fingerprint: str = ""
    #: Optional explanation of *why* (e.g. the call chain for a taint).
    detail: str = ""

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out["fingerprint"] = self.fingerprint
        if self.detail:
            out["detail"] = self.detail
        return out

    def format_text(self) -> str:
        base = super().format_text()
        if self.detail:
            return f"{base}\n    {self.detail}"
        return base


def relative_path(path: str, root: Path) -> str:
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


def make_fingerprint(code: str, rel_path: str, scope: str, label: str) -> str:
    """``CODE::file::scope::label`` — the baseline key for one finding."""
    return f"{code}::{rel_path}::{scope}::{label}"


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
) -> Finding:
    """Build a :class:`Finding`, anchored at ``node`` when one is given."""
    if node is not None:
        line = getattr(node, "lineno", line)
        col = getattr(node, "col_offset", col - 1) + 1
    rel = relative_path(path, root)
    return Finding(
        code=code,
        message=message,
        path=path,
        line=line,
        col=col,
        fingerprint=make_fingerprint(code, rel, scope, label),
        detail=detail,
    )


__all__.append("finding_at")
