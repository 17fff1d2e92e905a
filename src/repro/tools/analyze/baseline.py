"""The checked-in analyzer baseline (gradual adoption).

Interprocedural findings often point at *designed* behaviour — the
packing solvers read ``perf_counter`` on purpose; their ``solve_seconds``
is measurement metadata that never feeds a grouping decision.  Such findings are
carried in a baseline file instead of being fixed, one per line:

    <fingerprint> | <one-line justification>

The justification is **mandatory**: a fingerprint with no explanation is a
parse error, so every accepted finding records why it is acceptable.
Fingerprints are line-number free (``CODE::file::scope::label``), so the
baseline survives unrelated edits to the file.  Entries that no longer
match any finding are reported as *stale* on stderr — they should be
deleted, but do not fail the run.
"""

from __future__ import annotations

from pathlib import Path

from ...errors import AnalysisError
from .findings import Finding

__all__ = [
    "load_baseline",
    "apply_baseline",
    "stale_entries",
    "render_baseline",
    "write_baseline",
]

_SEPARATOR = "|"


def load_baseline(path: Path) -> dict[str, str]:
    """Parse a baseline file into ``{fingerprint: justification}``."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
    out: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fingerprint, separator, justification = line.partition(_SEPARATOR)
        fingerprint = fingerprint.strip()
        justification = justification.strip()
        if not separator or not justification:
            raise AnalysisError(
                f"{path}:{number}: baseline entries are "
                f"'<fingerprint> {_SEPARATOR} <justification>'; "
                "the justification is mandatory"
            )
        if not fingerprint:
            raise AnalysisError(f"{path}:{number}: empty fingerprint")
        if fingerprint in out:
            raise AnalysisError(f"{path}:{number}: duplicate fingerprint {fingerprint!r}")
        out[fingerprint] = justification
    return out


def apply_baseline(
    findings: list[Finding], baseline: dict[str, str]
) -> tuple[list[Finding], set[str]]:
    """Split findings into (new, matched-fingerprints)."""
    kept: list[Finding] = []
    used: set[str] = set()
    for finding in findings:
        if finding.fingerprint in baseline:
            used.add(finding.fingerprint)
        else:
            kept.append(finding)
    return kept, used


def stale_entries(baseline: dict[str, str], used: set[str]) -> list[str]:
    """Baselined fingerprints that matched no finding this run."""
    return sorted(set(baseline) - used)


def render_baseline(findings: list[Finding], existing: dict[str, str]) -> str:
    """Serialize findings as a baseline, keeping existing justifications.

    New entries get a ``TODO`` justification the loader will accept but a
    reviewer should replace before merging.
    """
    lines = [
        "# thrifty-analyze baseline: accepted findings, one per line as",
        "#   <fingerprint> | <one-line justification>",
        "# Regenerate with: thrifty-analyze --write-baseline",
    ]
    seen: set[str] = set()
    for finding in sorted(findings, key=lambda f: f.fingerprint):
        if finding.fingerprint in seen:
            continue
        seen.add(finding.fingerprint)
        justification = existing.get(finding.fingerprint, "TODO: justify this finding")
        lines.append(f"{finding.fingerprint} {_SEPARATOR} {justification}")
    return "\n".join(lines) + "\n"


def write_baseline(path: Path, findings: list[Finding], existing: dict[str, str]) -> None:
    path.write_text(render_baseline(findings, existing), encoding="utf-8")
