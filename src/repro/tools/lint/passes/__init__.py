"""The whole-program THRA passes; importing this package registers them.

Each pass subclasses :class:`~repro.tools.lint.registry.AnalysisPass`: a
``code`` (``THRA101``…), a ``name``, a one-line ``summary``, and a ``run``
method taking the program graph plus the
:class:`~repro.tools.lint.config.AnalyzeConfig`.
"""

from __future__ import annotations

from . import api_surface, determinism, exceptions, lifecycle  # noqa: F401
