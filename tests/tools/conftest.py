"""Shared fixtures for the lint tests.

Building ``src/repro``'s :class:`~repro.tools.lint.graph.ProgramGraph`
takes seconds, and three standing gates lint the shipped package.  No
THRA pass mutates the graph it runs on (running every pass twice over one
graph leaves its modules, functions, classes and syntax trees unchanged
and gives the findings a fresh graph gives), so those gates share one
graph per test session.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.tools.lint import runner

_REPO_PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def repo_program():
    """``src/repro``'s program graph, built once per test session."""
    return runner.build_program(_REPO_PACKAGE)


@pytest.fixture
def shared_repo_program(repo_program, monkeypatch):
    """Make the lint runner reuse :func:`repo_program` for ``src/repro``."""
    build = runner.build_program

    def build_program(package_dir):
        if Path(package_dir).resolve() == _REPO_PACKAGE:
            return repo_program
        return build(package_dir)

    monkeypatch.setattr(runner, "build_program", build_program)
