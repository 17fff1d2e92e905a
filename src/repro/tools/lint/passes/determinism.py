"""THRA101 — determinism taint: wall-clock / ad-hoc RNG reachable from replay.

THR001 (the per-file lint rule) bans wall-clock and ad-hoc randomness
*inside* the replay layers but deliberately leaves ``packing`` and
``analysis`` free to time their own solvers.  That carve-out is exactly the
blind spot this pass closes: a ``perf_counter`` call is legal where it
stands, yet becomes a determinism leak the moment a replay entry point can
reach it through the call graph.  The pass BFSes from the configured entry
points and reports every nondeterminism *source* call in a reachable
function, together with the call chain that reaches it.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..config import AnalyzeConfig
from ..graph import ProgramGraph
from ..registry import AnalysisPass, Violation, finding_at, register

__all__ = ["DeterminismTaintPass", "classify_source"]

#: Exact dotted chains that read the host wall clock.
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "datetime", "now"),
    ("datetime", "datetime", "utcnow"),
    ("datetime", "date", "today"),
}

#: numpy global-state seeding — order-dependent across components.
_NUMPY_GLOBAL = {("numpy", "random", "seed")}


def classify_source(chain: tuple[str, ...], call: ast.Call) -> Optional[str]:
    """The source label when an external call is a nondeterminism source."""
    if chain in _WALL_CLOCK or chain in _NUMPY_GLOBAL:
        return ".".join(chain)
    # Any use of the stdlib ``random`` module draws from interpreter-global
    # state instead of a named RngFactory sub-stream.
    if chain and chain[0] == "random":
        return ".".join(chain)
    if chain == ("numpy", "random", "default_rng") and not call.args and not call.keywords:
        return "unseeded numpy.random.default_rng"
    return None


@register
class DeterminismTaintPass(AnalysisPass):
    code = "THRA101"
    name = "determinism"
    summary = "wall-clock/ad-hoc-RNG source reachable from a replay entry point"

    def run(self, graph: ProgramGraph, config: AnalyzeConfig) -> List[Violation]:
        prefixes = [f"{graph.package}.{p}" for p in config.entry_prefixes]
        roots = graph.functions_with_prefix(prefixes)
        paths = graph.reachable(roots)
        findings: list[Violation] = []
        for qualname in sorted(paths):
            fn = graph.functions[qualname]
            for call, resolution in graph.calls_of(qualname):
                if not resolution.external:
                    continue
                label = classify_source(resolution.external, call)
                if label is None:
                    continue
                chain = " -> ".join(
                    graph.functions[hop].display for hop in paths[qualname]
                )
                findings.append(
                    finding_at(
                        code=self.code,
                        message=(
                            f"{label} is reachable from replay entry point "
                            f"{graph.functions[paths[qualname][0]].display}"
                        ),
                        path=fn.path,
                        root=graph.root,
                        scope=fn.display,
                        label=label,
                        node=call,
                        detail=f"via {chain} -> {label}",
                    )
                )
        return findings
