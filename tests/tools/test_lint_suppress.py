"""Edge cases of the ``thrifty: noqa`` machinery and the unused-noqa audit."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.tools.lint import AnalyzeConfig, check_paths, main
from repro.tools.lint.registry import Violation
from repro.tools.lint.runner import find_unused_noqa
from repro.tools.lint.suppress import (
    ALL_CODES,
    NoqaComment,
    filter_suppressed,
    line_suppressions,
    noqa_comments,
    suppressed_codes,
)

from .test_analyze_graph import make_package


def _violation(line: int, code: str = "THR003") -> Violation:
    return Violation(code=code, message="m", path="f.py", line=line, col=1)


class TestParsing:
    def test_codes_are_case_insensitive(self):
        assert suppressed_codes("x = 1  # THRIFTY: NOQA[thr003]") == {"THR003"}
        assert suppressed_codes("x = 1  # Thrifty: NoQa[Thr001,thr003]") == {
            "THR001",
            "THR003",
        }

    def test_whitespace_inside_brackets(self):
        assert suppressed_codes("x  # thrifty: noqa[ THR001 ,  THR003 ]") == {
            "THR001",
            "THR003",
        }

    def test_blanket_form_yields_sentinel(self):
        assert suppressed_codes("x  # thrifty: noqa") == {ALL_CODES}
        comment = noqa_comments("x = 1  # thrifty: noqa\n")[0]
        assert comment.is_blanket

    def test_unknown_codes_parse_but_do_not_match_others(self):
        codes = suppressed_codes("x  # thrifty: noqa[THR999]")
        assert codes == {"THR999"}
        kept = filter_suppressed([_violation(1)], "x == 0.5  # thrifty: noqa[THR999]\n")
        assert len(kept) == 1

    def test_plain_comment_is_not_a_noqa(self):
        assert suppressed_codes("x = 1  # regular comment") == frozenset()


class TestTokenizerAccuracy:
    def test_noqa_inside_string_literal_does_not_suppress(self):
        source = 'MARKER = "use # thrifty: noqa[THR003] to silence"\n'
        assert noqa_comments(source) == []
        assert line_suppressions(source) == {}
        kept = filter_suppressed([_violation(1)], source)
        assert len(kept) == 1

    def test_noqa_in_docstring_does_not_suppress(self):
        source = 'def f():\n    """# thrifty: noqa"""\n    return 1\n'
        assert noqa_comments(source) == []

    def test_real_comment_after_string_on_same_line_counts(self):
        source = 'x = "text"  # thrifty: noqa[THR003]\n'
        (comment,) = noqa_comments(source)
        assert comment == NoqaComment(line=1, col=comment.col, codes=frozenset({"THR003"}))
        assert line_suppressions(source) == {1: frozenset({"THR003"})}

    def test_broken_source_falls_back_to_regex(self):
        source = "def f(:\n    x = 1  # thrifty: noqa[THR003]\n"
        (comment,) = noqa_comments(source)
        assert comment.line == 2
        assert comment.codes == frozenset({"THR003"})

    def test_filter_accepts_text_or_line_list(self):
        text = "a == 0.5  # thrifty: noqa[THR003]\nb == 0.5\n"
        for source in (text, text.splitlines()):
            kept = filter_suppressed([_violation(1), _violation(2)], source)
            assert [v.line for v in kept] == [2]

    def test_string_literal_noqa_does_not_hide_lint_findings(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            'def _f(fraction):\n'
            '    return fraction == 0.999, "# thrifty: noqa[THR003]"\n'
        )
        violations, _ = check_paths([path])
        assert [v.code for v in violations] == ["THR003"]


class TestUnusedNoqa:
    def test_reports_noqa_that_fires_nothing(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # thrifty: noqa[THR003]\n")
        stale, files_checked = find_unused_noqa([path])
        assert files_checked == 1
        (violation,) = stale
        assert violation.code == "NOQA"
        assert violation.line == 1
        assert "THR003" in violation.message

    def test_active_suppression_is_not_reported(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(fraction):\n    return fraction == 0.999  # thrifty: noqa[THR003]\n"
        )
        stale, _ = find_unused_noqa([path])
        assert stale == []

    def test_blanket_noqa_on_clean_line_is_reported(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # thrifty: noqa\n")
        stale, _ = find_unused_noqa([path])
        assert [v.code for v in stale] == ["NOQA"]
        assert "no violation fires" in stale[0].message

    def test_wrong_code_on_firing_line_is_reported(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(fraction):\n    return fraction == 0.999  # thrifty: noqa[THR001]\n"
        )
        stale, _ = find_unused_noqa([path])
        assert len(stale) == 1
        assert "THR001" in stale[0].message

    def test_cli_flag_exit_codes(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # thrifty: noqa[THR004]\n")
        assert main([str(stale), "--unused-noqa"]) == 1
        assert "unused suppression" in capsys.readouterr().out
        clean = tmp_path / "clean.py"
        clean.write_text("y = 2\n")
        assert main([str(clean), "--unused-noqa"]) == 0

    def test_thra_noqa_is_used_only_where_its_pass_fires(self, tmp_path, capsys):
        pkg = make_package(
            tmp_path,
            {
                "service.py": """
                from .solver import plan

                class Replay:
                    def run(self):
                        return plan()
                """,
                "solver.py": """
                import time

                def plan():
                    return time.perf_counter()  # thrifty: noqa[THRA101] measured on purpose

                X = 1  # thrifty: noqa[THRA101] nothing fires here
                """,
            },
        )
        config = AnalyzeConfig(entry_prefixes=("service.",))
        stale, _ = find_unused_noqa([pkg], config)
        assert [(Path(v.path).name, v.line) for v in stale] == [("solver.py", 7)]
        assert "THRA101" in stale[0].message
        assert main([str(pkg), "--entry", "service.", "--unused-noqa"]) == 1
        assert "solver.py:7:" in capsys.readouterr().out

    @pytest.mark.usefixtures("shared_repo_program")
    def test_repo_has_no_unused_noqa(self):
        repo_root = Path(__file__).resolve().parents[2]
        stale, files_checked = find_unused_noqa([repo_root / "src"])
        assert files_checked > 0
        assert stale == [], "\n".join(v.format_text() for v in stale)
