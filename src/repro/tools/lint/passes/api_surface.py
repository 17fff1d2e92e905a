"""THRA105 — API-surface drift between ``__all__`` exports and the API docs.

Every name a *package* ``__init__.py`` exports through ``__all__`` is part
of the public surface and must be mentioned in ``docs/API.md`` (word-exact;
a prose mention or a code-span both count).  Without this check the doc
rots silently: an export added in one PR is invisible to readers of the
API tour until someone notices by accident.

The pass only checks package ``__init__.py`` modules — a leaf module's
``__all__`` is an import-hygiene tool, not a documentation contract.  It is
skipped entirely when no API document is configured (fixture packages).
"""

from __future__ import annotations

import re
from typing import List

from ....errors import AnalysisError
from ..config import AnalyzeConfig
from ..graph import ProgramGraph
from ..registry import AnalysisPass, Violation, finding_at, register

__all__ = ["ApiSurfaceDriftPass"]


@register
class ApiSurfaceDriftPass(AnalysisPass):
    code = "THRA105"
    name = "api-surface"
    summary = "__all__ export missing from the API document"

    def run(self, graph: ProgramGraph, config: AnalyzeConfig) -> List[Violation]:
        if config.api_doc is None:
            return []
        try:
            document = config.api_doc.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read API document {config.api_doc}: {exc}") from exc
        findings: list[Violation] = []
        for name in sorted(graph.modules):
            module = graph.modules[name]
            if not module.is_package:
                continue
            for export, line in module.exports:
                if export.startswith("__"):
                    continue  # dunders (__version__) are metadata, not API
                if re.search(rf"\b{re.escape(export)}\b", document):
                    continue
                findings.append(
                    finding_at(
                        code=self.code,
                        message=(
                            f"{module.name}.__all__ exports {export!r} but "
                            f"{config.api_doc.name} never mentions it"
                        ),
                        path=module.path,
                        root=graph.root,
                        scope=module.name,
                        label=export,
                        line=line,
                    )
                )
        return findings
