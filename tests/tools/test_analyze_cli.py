"""The THRA passes through the ``thrifty-lint`` CLI, and the repo meta-test."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.tools.lint import AnalysisPass, AnalyzeConfig, all_rules, analyze_package, main
from repro.tools.lint.runner import collect_files
from repro.tools.lint.suppress import noqa_comments

from .test_analyze_graph import make_package

REPO_ROOT = Path(__file__).resolve().parents[2]

LEAKY = {
    "service.py": """
    from .solver import plan

    class Replay:
        def run(self):
            return plan()
    """,
    "solver.py": """
    import time

    def plan():
        return time.perf_counter()
    """,
}

CLEAN = {"service.py": "class Replay:\n    def run(self):\n        return 1\n"}


def cli(pkg: Path, *args: str) -> int:
    return main([str(pkg), "--entry", "service.", *args])


class TestCLI:
    def test_exit_zero_on_clean_package(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, CLEAN)
        assert cli(pkg) == 0
        captured = capsys.readouterr()
        assert "clean" in captured.out
        assert "skipping the THRA105" in captured.err  # no docs/API.md here

    def test_exit_one_with_text_report_and_chain(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, LEAKY)
        assert cli(pkg) == 1
        out = capsys.readouterr().out
        assert "THRA101" in out
        assert "via Replay.run -> solver.plan -> time.perf_counter" in out

    def test_json_report_carries_fingerprints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, LEAKY)
        assert cli(pkg, "--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        (violation,) = doc["violations"]
        assert violation["code"] == "THRA101"
        assert violation["fingerprint"] == (
            "THRA101::app/solver.py::solver.plan::time.perf_counter"
        )

    def test_select_and_ignore_restrict_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, LEAKY)
        assert cli(pkg, "--select", "THRA102,THRA103") == 0
        assert cli(pkg, "--ignore", "THRA101") == 0
        assert cli(pkg, "--select", "THRA101") == 1

    def test_unknown_pass_code_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, CLEAN)
        assert cli(pkg, "--select", "THRA999") == 2
        assert "THRA999" in capsys.readouterr().err

    def test_missing_package_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path / "nowhere")]) == 2

    def test_list_passes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        passes = [check for check in all_rules() if isinstance(check, AnalysisPass)]
        assert len(passes) == 5
        for analysis_pass in passes:
            assert analysis_pass.code in out

    def test_statistics_footer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, LEAKY)
        assert cli(pkg, "--statistics") == 1
        assert "THRA101" in capsys.readouterr().out

    def test_explicit_api_doc_must_exist(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = make_package(tmp_path, CLEAN)
        assert cli(pkg, "--api-doc", str(tmp_path / "missing.md")) == 2


class TestRepositoryIsClean:
    """The standing gate: the passes run clean over the shipped tree.

    Its baseline, the findings accepted as designed behaviour, is the set of
    justified ``# thrifty: noqa[THRAxxx] <why>`` comments on their lines.
    """

    @pytest.mark.usefixtures("shared_repo_program")
    def test_tree_is_clean_modulo_baseline(self):
        config = AnalyzeConfig(api_doc=REPO_ROOT / "docs" / "API.md")
        findings = analyze_package(REPO_ROOT / "src" / "repro", config)
        assert findings == [], "\n".join(f.format_text() for f in findings)

    def test_shipped_baseline_entries_are_justified(self):
        """Every ``thrifty: noqa`` in the shipped trees says why, after its codes."""
        marker = re.compile(r"#\s*thrifty:\s*noqa(\[[^\]]*\])?", re.IGNORECASE)
        roots = [REPO_ROOT / name for name in ("src", "benchmarks", "examples")]
        for path in collect_files(roots):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            for comment in noqa_comments(source):
                text = lines[comment.line - 1][comment.col - 1 :]
                justification = marker.sub("", text, count=1).strip()
                assert justification, f"{path}:{comment.line}: noqa without a justification"
