"""Developer tooling shipped with the Thrifty reproduction.

:mod:`repro.tools.lint` (``thrifty-lint``) machine-checks the invariants
the library's correctness rests on — deterministic replay, the
:class:`~repro.errors.ReproError` hierarchy, declared lifecycle
transitions, and a documented API surface — with per-file THR rules and
whole-program THRA passes from one registry (``--list-rules`` lists them).
"""

from __future__ import annotations

__all__: list[str] = []
