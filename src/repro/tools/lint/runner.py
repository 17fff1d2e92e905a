"""File discovery, check execution, and the ``thrifty-lint`` CLI.

Every THR rule runs on each file under the given paths; every THRA pass
runs on the package found under them (``src/`` resolves to ``src/repro``;
see :func:`~repro.tools.lint.graph.find_package`).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Optional, Sequence

from ...errors import AnalysisError, LintError
from . import passes as _passes, rules as _rules  # noqa: F401  (importing registers every check)
from .config import AnalyzeConfig, default_config
from .graph import _SKIP_DIRS, ProgramGraph, build_program, find_package
from .registry import AnalysisPass, Check, FileContext, Rule, Violation, all_rules, select_rules
from .report import write_report
from .suppress import ALL_CODES, filter_suppressed, line_suppressions, noqa_comments

__all__ = [
    "collect_files",
    "check_file",
    "check_paths",
    "run_passes",
    "analyze_package",
    "find_unused_noqa",
    "main",
]

_DEFAULT_API_DOC = "docs/API.md"


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` file list."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.exists():
            if path.suffix != ".py":
                raise LintError(f"not a Python file: {path}")
            found.add(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(found)


def _parse(path: Path) -> FileContext:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    return FileContext(path=str(path), source=source, tree=tree)


def _order(violation: Violation) -> tuple[str, int, int, str, str]:
    return (violation.path, violation.line, violation.col, violation.code, violation.fingerprint)


def check_file(path: Path, rule_set: Sequence[Check] | None = None) -> list[Violation]:
    """Run the THR rules of ``rule_set`` (default: all registered) over one file."""
    ctx = _parse(path)
    violations: list[Violation] = []
    for rule in rule_set if rule_set is not None else all_rules():
        if isinstance(rule, Rule):
            violations.extend(rule.check(ctx))
    violations = filter_suppressed(violations, ctx.source)
    violations.sort(key=_order)
    return violations


def _pass_findings(
    graph: ProgramGraph, config: AnalyzeConfig, passes: Sequence[Check] | None
) -> list[Violation]:
    """Unsuppressed findings of the THRA passes, deduplicated on fingerprint and sorted."""
    raw: list[Violation] = []
    for analysis_pass in passes if passes is not None else all_rules():
        if isinstance(analysis_pass, AnalysisPass):
            raw.extend(analysis_pass.run(graph, config))
    raw.sort(key=_order)
    seen: set[str] = set()
    out: list[Violation] = []
    for finding in raw:
        if finding.fingerprint not in seen:
            seen.add(finding.fingerprint)
            out.append(finding)
    return out


def run_passes(
    graph: ProgramGraph,
    config: AnalyzeConfig,
    passes: Sequence[Check] | None = None,
) -> list[Violation]:
    """Run the THRA passes of ``passes`` (default: all) over a built program.

    Findings come back deduplicated, suppression-filtered, and sorted.
    """
    suppressions_by_path = {
        module.path: line_suppressions(module.source) for module in graph.modules.values()
    }
    out: list[Violation] = []
    for finding in _pass_findings(graph, config, passes):
        codes = suppressions_by_path.get(finding.path, {}).get(finding.line, frozenset())
        if ALL_CODES not in codes and finding.code not in codes:
            out.append(finding)
    return out


def analyze_package(
    package_dir: str | Path,
    config: AnalyzeConfig | None = None,
    passes: Sequence[Check] | None = None,
) -> list[Violation]:
    """Build the program graph for ``package_dir`` and run the passes."""
    graph = build_program(package_dir)
    return run_passes(graph, config if config is not None else default_config(), passes)


def _program_under(paths: Sequence[str | Path]) -> Optional[ProgramGraph]:
    package = find_package(paths)
    return build_program(package) if package is not None else None


def check_paths(
    paths: Sequence[str | Path],
    rule_set: Sequence[Check] | None = None,
    config: AnalyzeConfig | None = None,
) -> tuple[list[Violation], int]:
    """Run ``rule_set`` (default: every check) under ``paths``.

    THR rules run on every file; THRA passes run on the package found under
    ``paths``, if any.  Returns (violations, files_checked).
    """
    checks = list(rule_set) if rule_set is not None else all_rules()
    files = collect_files(paths)
    violations: list[Violation] = []
    if any(isinstance(check, Rule) for check in checks):
        for path in files:
            violations.extend(check_file(path, checks))
    if any(isinstance(check, AnalysisPass) for check in checks):
        graph = _program_under(paths)
        if graph is not None:
            violations.extend(
                run_passes(graph, config if config is not None else default_config(), checks)
            )
    violations.sort(key=_order)
    return violations, len(files)


def find_unused_noqa(
    paths: Sequence[str | Path], config: AnalyzeConfig | None = None
) -> tuple[list[Violation], int]:
    """``thrifty: noqa`` comments that no longer suppress any violation.

    Runs every registered check under ``paths`` *without* suppression (the
    THR rules on each file, the THRA passes on the package found under
    ``paths``), then reports each noqa comment whose line has no violation
    it could silence (for a bracketed noqa, none of its codes fire; for a
    blanket one, nothing fires at all).  Reported with the pseudo-code
    ``NOQA`` so the usual report machinery renders them.
    """
    contexts = [_parse(path) for path in collect_files(paths)]
    raw: list[Violation] = []
    for rule in all_rules():
        if isinstance(rule, Rule):
            for ctx in contexts:
                raw.extend(rule.check(ctx))
    graph = _program_under(paths)
    if graph is not None:
        raw.extend(
            _pass_findings(graph, config if config is not None else default_config(), None)
        )
    fired: dict[tuple[Path, int], set[str]] = {}
    for violation in raw:
        fired.setdefault((Path(violation.path).resolve(), violation.line), set()).add(
            violation.code
        )
    stale: list[Violation] = []
    for ctx in contexts:
        resolved = Path(ctx.path).resolve()
        for comment in noqa_comments(ctx.source):
            codes_here = fired.get((resolved, comment.line), set())
            used = bool(codes_here) if comment.is_blanket else bool(
                codes_here & comment.codes
            )
            if used:
                continue
            if comment.is_blanket:
                detail = "no violation fires on this line"
            else:
                detail = f"none of [{', '.join(sorted(comment.codes))}] fire on this line"
            stale.append(
                Violation(
                    code="NOQA",
                    message=f"unused suppression: {detail}",
                    path=ctx.path,
                    line=comment.line,
                    col=comment.col,
                )
            )
    stale.sort(key=_order)
    return stale, len(contexts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thrifty-lint",
        description=(
            "Static analysis for the Thrifty reproduction: per-file THR rules "
            "(deterministic replay, error hierarchy, float comparison, typing) "
            "on every file under PATHS, and whole-program THRA passes "
            "(determinism taint, exception flow, lifecycle transitions, API "
            "drift) on the package found under them.  --list-rules lists both."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint; THRA passes run on the package they hold",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule and pass codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule and pass codes to skip",
    )
    parser.add_argument(
        "--statistics", action="store_true", help="append per-code violation counts"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the registered rules and passes and exit"
    )
    parser.add_argument(
        "--unused-noqa",
        action="store_true",
        help="report 'thrifty: noqa' comments that no longer suppress anything",
    )
    parser.add_argument(
        "--api-doc",
        metavar="PATH",
        help=(
            "API document the THRA105 drift pass checks __all__ exports "
            f"against (default: {_DEFAULT_API_DOC} if present, else the pass is skipped)"
        ),
    )
    parser.add_argument(
        "--entry",
        action="append",
        metavar="PREFIX",
        help=(
            "package-relative qualname prefix to use as a replay entry point "
            "for THRA101 (repeatable; overrides the built-in set)"
        ),
    )
    return parser


def _parse_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def _resolve_api_doc(raw: Optional[str]) -> Optional[Path]:
    if raw is not None:
        path = Path(raw)
        if not path.exists():
            raise AnalysisError(f"API document not found: {path}")
        return path
    default = Path(_DEFAULT_API_DOC)
    if default.exists():
        return default
    sys.stderr.write(
        f"thrifty-lint: note: {_DEFAULT_API_DOC} not found, "
        "skipping the THRA105 api-surface pass\n"
    )
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 clean, 1 findings, 2 usage)."""
    parser = _build_parser()
    opts = parser.parse_args(argv)
    if opts.list_rules:
        for rule in all_rules():
            sys.stdout.write(f"{rule.code}  {rule.summary}\n")
        return 0
    try:
        config = default_config()
        if opts.entry:
            config.entry_prefixes = tuple(opts.entry)
        config.api_doc = _resolve_api_doc(opts.api_doc)
        if opts.unused_noqa:
            violations, files_checked = find_unused_noqa(opts.paths, config)
        else:
            rule_set = select_rules(_parse_codes(opts.select), _parse_codes(opts.ignore))
            violations, files_checked = check_paths(opts.paths, rule_set, config)
    except (LintError, AnalysisError) as exc:
        sys.stderr.write(f"thrifty-lint: error: {exc}\n")
        return 2
    write_report(
        sys.stdout,
        violations,
        fmt=opts.format,
        files_checked=files_checked,
        statistics=opts.statistics,
    )
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
