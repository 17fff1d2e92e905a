"""Configuration for the whole-program THRA passes.

The passes themselves are generic graph algorithms; everything Thrifty-
specific — which functions count as replay entry points, which enums are
lifecycle state machines and what their legal transitions are — lives here
as data, so the fixture tests can run the same passes against synthetic
packages with their own tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = [
    "TransitionTable",
    "AnalyzeConfig",
    "DEFAULT_ENTRY_PREFIXES",
    "default_transition_tables",
    "default_config",
]

#: Replay entry points for the determinism pass, as qualname prefixes
#: *relative to the analyzed package* ("core.service.ThriftyService."
#: matches ``repro.core.service.ThriftyService.deploy`` when the package is
#: ``repro``).  Anything transitively callable from these executes during a
#: replay and must not read wall-clock time or ad-hoc randomness.
DEFAULT_ENTRY_PREFIXES: tuple[str, ...] = (
    "core.service.ThriftyService.",
    "core.runtime.GroupRuntime.",
    "core.routing.",
    "core.monitor.",
    "cluster.health.",
)


@dataclass(frozen=True)
class TransitionTable:
    """Declared legal transitions of one lifecycle enum.

    ``transitions`` maps ``(from_member, to_member)`` to the set of method
    names allowed to perform that transition, or ``None`` for "any method".
    A pair absent from the map is illegal everywhere.  Self-loops
    (``X -> X``) are always legal and never checked.
    """

    enum_name: str
    initial: frozenset[str]
    transitions: dict[tuple[str, str], Optional[frozenset[str]]]

    def allowed_in(self, source: str, target: str) -> tuple[bool, Optional[frozenset[str]]]:
        """Whether ``source -> target`` is ever legal, and where."""
        if source == target:
            return (True, None)
        if (source, target) not in self.transitions:
            return (False, None)
        return (True, self.transitions[(source, target)])


def default_transition_tables() -> tuple[TransitionTable, ...]:
    """The PR 3 health state machines (see docs/FAULT_TOLERANCE.md).

    ``InstanceState``: an instance provisions, comes up READY (or DEGRADED,
    if nodes failed mid-provisioning), degrades and recovers through the
    token-guarded node-replacement path, and only
    ``complete_node_replacement`` may bring a DEGRADED/DOWN instance back
    to READY.  DOWN is absorbing with respect to further node failures —
    there is deliberately no DOWN -> DEGRADED edge.

    ``NodeState``: HIBERNATED -> STARTING -> RUNNING, failure from either
    active state, and every path back to the pool ends in HIBERNATED.
    """
    any_method: Optional[frozenset[str]] = None
    instance = TransitionTable(
        enum_name="InstanceState",
        initial=frozenset({"PROVISIONING"}),
        transitions={
            ("PROVISIONING", "READY"): frozenset({"mark_ready"}),
            ("PROVISIONING", "DEGRADED"): frozenset({"mark_ready"}),
            ("PROVISIONING", "DOWN"): any_method,
            ("PROVISIONING", "RETIRED"): any_method,
            ("READY", "DEGRADED"): any_method,
            ("READY", "DOWN"): any_method,
            ("READY", "RETIRED"): any_method,
            ("DEGRADED", "READY"): frozenset({"complete_node_replacement"}),
            ("DEGRADED", "DOWN"): any_method,
            ("DEGRADED", "RETIRED"): any_method,
            ("DOWN", "READY"): frozenset({"complete_node_replacement"}),
            ("DOWN", "RETIRED"): any_method,
        },
    )
    node = TransitionTable(
        enum_name="NodeState",
        initial=frozenset({"HIBERNATED"}),
        transitions={
            ("HIBERNATED", "STARTING"): any_method,
            ("STARTING", "RUNNING"): any_method,
            ("STARTING", "FAILED"): any_method,
            ("STARTING", "HIBERNATED"): any_method,
            ("RUNNING", "FAILED"): any_method,
            ("RUNNING", "HIBERNATED"): any_method,
            ("FAILED", "HIBERNATED"): any_method,
        },
    )
    return (instance, node)


@dataclass
class AnalyzeConfig:
    """Everything the passes need beyond the program graph itself."""

    entry_prefixes: tuple[str, ...] = DEFAULT_ENTRY_PREFIXES
    transition_tables: tuple[TransitionTable, ...] = field(
        default_factory=default_transition_tables
    )
    #: Document the API-surface pass checks ``__all__`` exports against;
    #: ``None`` skips the pass (no such document in fixture packages).
    api_doc: Optional[Path] = None


def default_config() -> AnalyzeConfig:
    return AnalyzeConfig()
