"""``thrifty-lint`` — domain-aware static analysis for the reproduction.

Run as ``python -m repro.tools.lint src/ benchmarks/ examples/`` or via the
``thrifty-lint`` console script.  One registry holds two kinds of check:

* the per-file THR rules in :mod:`repro.tools.lint.rules`, run on every
  file under the given paths;
* the whole-program THRA passes in :mod:`repro.tools.lint.passes`, run on
  the package found under them over its import and call graphs
  (:mod:`repro.tools.lint.graph`).

``docs/STATIC_ANALYSIS.md`` documents the invariant behind each check and
how to suppress a finding with ``# thrifty: noqa[CODE] <justification>``.
"""

from __future__ import annotations

from .config import (
    DEFAULT_ENTRY_PREFIXES,
    AnalyzeConfig,
    TransitionTable,
    default_config,
    default_transition_tables,
)
from .graph import ProgramGraph, build_program, find_package, find_package_root
from .registry import (
    AnalysisPass,
    Check,
    FileContext,
    Rule,
    Violation,
    all_rules,
    finding_at,
    get_rule,
    register,
    rule_codes,
    select_rules,
)
from .runner import (
    analyze_package,
    check_file,
    check_paths,
    collect_files,
    find_unused_noqa,
    main,
    run_passes,
)

__all__ = [
    "AnalysisPass",
    "AnalyzeConfig",
    "Check",
    "DEFAULT_ENTRY_PREFIXES",
    "FileContext",
    "ProgramGraph",
    "Rule",
    "TransitionTable",
    "Violation",
    "all_rules",
    "analyze_package",
    "build_program",
    "check_file",
    "check_paths",
    "collect_files",
    "default_config",
    "default_transition_tables",
    "find_package",
    "find_package_root",
    "find_unused_noqa",
    "finding_at",
    "get_rule",
    "main",
    "register",
    "rule_codes",
    "run_passes",
    "select_rules",
]
