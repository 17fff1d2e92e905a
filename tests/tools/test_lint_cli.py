"""CLI behaviour of ``thrifty-lint`` plus the repo-wide meta-test."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import LintError, ReproError
from repro.tools.lint import all_rules, check_paths, collect_files, main, rule_codes, select_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


BAD = "def f(xs=[]):\n    return xs == 0.5\n"


class TestCLI:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        _write(tmp_path, "pkg/clean.py", "X: int = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_text_report(self, tmp_path, capsys):
        path = _write(tmp_path, "pkg/bad.py", BAD)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "THR003" in out and "THR004" in out
        assert f"{path}:1:" in out

    def test_json_format_is_parseable(self, tmp_path, capsys):
        path = _write(tmp_path, "pkg/bad.py", BAD)
        assert main([str(path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["files_checked"] == 1
        assert doc["count"] == len(doc["violations"]) == 2
        assert {v["code"] for v in doc["violations"]} == {"THR003", "THR004"}

    def test_select_restricts_rules(self, tmp_path, capsys):
        path = _write(tmp_path, "pkg/bad.py", BAD)
        assert main([str(path), "--select", "THR004"]) == 1
        out = capsys.readouterr().out
        assert "THR004" in out and "THR003" not in out

    def test_ignore_drops_rules(self, tmp_path, capsys):
        path = _write(tmp_path, "pkg/bad.py", BAD)
        assert main([str(path), "--ignore", "THR003,THR004"]) == 0

    def test_unknown_rule_and_path_are_usage_errors(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing"), "--select", "THR001"]) == 2
        assert main([str(tmp_path), "--select", "THR999"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out

    def test_statistics_footer(self, tmp_path, capsys):
        path = _write(tmp_path, "pkg/bad.py", BAD)
        assert main([str(path), "--statistics"]) == 1
        assert "THR003" in capsys.readouterr().out


class TestLibraryAPI:
    def test_collect_files_dedupes_and_skips_caches(self, tmp_path):
        a = _write(tmp_path, "pkg/a.py", "X: int = 1\n")
        _write(tmp_path, "pkg/__pycache__/a.py", "X: int = 1\n")
        files = collect_files([tmp_path, a])
        assert files == [a]

    def test_collect_files_rejects_existing_non_python_path(self, tmp_path):
        readme = _write(tmp_path, "pkg/README.md", "# not python\n")
        with pytest.raises(LintError, match="not a Python file"):
            collect_files([readme])

    def test_collect_files_rejects_missing_path(self, tmp_path):
        with pytest.raises(LintError, match="no such file or directory"):
            collect_files([tmp_path / "missing.py"])

    def test_select_rules_unknown_code_raises_repro_error(self):
        with pytest.raises(LintError):
            select_rules(["THR999"])
        assert issubclass(LintError, ReproError)

    def test_syntax_error_is_a_lint_error(self, tmp_path):
        path = _write(tmp_path, "pkg/broken.py", "def f(:\n")
        with pytest.raises(LintError):
            check_paths([path])


class TestDocs:
    def test_every_code_has_a_doc_heading(self):
        doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
        headings = {line.split()[1] for line in doc.splitlines() if line.startswith("### ")}
        assert len(rule_codes()) == 14
        assert set(rule_codes()) <= headings


class TestRepositoryIsClean:
    """The standing gate: the linter runs clean over the shipped tree."""

    @pytest.mark.parametrize("target", ["src", "benchmarks", "examples"])
    @pytest.mark.usefixtures("shared_repo_program")
    def test_tree_is_clean(self, target):
        violations, files_checked = check_paths([REPO_ROOT / target])
        assert files_checked > 0
        assert violations == [], "\n".join(v.format_text() for v in violations)
