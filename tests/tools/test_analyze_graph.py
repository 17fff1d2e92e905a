"""Program-graph construction and call resolution for the THRA passes."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.errors import AnalysisError, ReproError
from repro.tools.lint import build_program, find_package_root
from repro.tools.lint.graph import ProgramGraph


def make_package(tmp_path: Path, files: dict[str, str], name: str = "app") -> Path:
    """Write a synthetic package under ``tmp_path`` and return its directory."""
    pkg = tmp_path / name
    pkg.mkdir(parents=True, exist_ok=True)
    if "__init__.py" not in files:
        (pkg / "__init__.py").write_text("")
    for relpath, source in files.items():
        path = pkg / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return pkg


def build(tmp_path: Path, files: dict[str, str]) -> ProgramGraph:
    return build_program(make_package(tmp_path, files))


def resolutions_of(graph: ProgramGraph, qualname: str) -> list:
    return [resolution for _call, resolution in graph.calls_of(qualname)]


class TestPackageLoading:
    def test_modules_keyed_by_dotted_name(self, tmp_path):
        graph = build(tmp_path, {"a.py": "X = 1\n", "sub/__init__.py": "", "sub/b.py": "Y = 2\n"})
        assert graph.package == "app"
        assert {"app", "app.a", "app.sub", "app.sub.b"} <= set(graph.modules)
        assert graph.modules["app"].is_package
        assert graph.modules["app.sub"].is_package
        assert not graph.modules["app.a"].is_package

    def test_functions_and_classes_are_collected(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                def free():
                    return 1

                class Box:
                    def get(self):
                        return free()
                """
            },
        )
        assert "app.mod.free" in graph.functions
        assert "app.mod.Box.get" in graph.functions
        assert "app.mod.Box" in graph.classes
        assert graph.functions["app.mod.Box.get"].display == "Box.get"
        assert graph.functions["app.mod.free"].display == "mod.free"

    def test_exports_include_appends(self, tmp_path):
        graph = build(
            tmp_path,
            {"__init__.py": '__all__ = ["a"]\n__all__.append("b")\n__all__.extend(["c"])\n'},
        )
        names = {export for export, _line in graph.modules["app"].exports}
        assert names == {"a", "b", "c"}


class TestCallResolution:
    def test_bare_name_and_from_import(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "util.py": "def helper():\n    return 1\n",
                "mod.py": "from .util import helper\n\ndef run():\n    return helper()\n",
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.run")
        assert resolution.targets == ("app.util.helper",)

    def test_typed_self_attribute_method(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                class Engine:
                    def submit(self):
                        return 1

                class Service:
                    def __init__(self, engine: Engine) -> None:
                        self.engine = engine

                    def run(self):
                        return self.engine.submit()
                """
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.Service.run")
        assert resolution.targets == ("app.mod.Engine.submit",)

    def test_constructor_call_reaches_init(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                class Thing:
                    def __init__(self) -> None:
                        self.x = 1

                def make():
                    return Thing()
                """
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.make")
        assert resolution.targets == ("app.mod.Thing.__init__",)

    def test_classmethod_access_through_class_name(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                class Matrix:
                    @classmethod
                    def from_rows(cls, rows):
                        return cls()

                def load(rows):
                    return Matrix.from_rows(rows)
                """
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.load")
        assert resolution.targets == ("app.mod.Matrix.from_rows",)

    def test_dispatch_table_subscript_call(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                def fast():
                    return 1

                def slow():
                    return 2

                ALGOS = {"fast": fast, "slow": slow}

                def run(name):
                    return ALGOS[name]()
                """
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.run")
        assert set(resolution.targets) == {"app.mod.fast", "app.mod.slow"}

    def test_subclass_overrides_included_for_self_calls(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                class Base:
                    def hook(self):
                        return 0

                    def run(self):
                        return self.hook()

                class Child(Base):
                    def hook(self):
                        return 1
                """
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.Base.run")
        assert set(resolution.targets) == {"app.mod.Base.hook", "app.mod.Child.hook"}

    def test_unknown_self_attribute_is_opaque(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                class Box:
                    def run(self):
                        return self.mystery()
                """
            },
        )
        (resolution,) = resolutions_of(graph, "app.mod.Box.run")
        assert resolution.opaque
        assert not resolution.targets

    def test_stdlib_call_is_external(self, tmp_path):
        graph = build(tmp_path, {"mod.py": "import time\n\ndef now():\n    return time.time()\n"})
        (resolution,) = resolutions_of(graph, "app.mod.now")
        assert resolution.external == ("time", "time")


class TestReachability:
    def test_reachable_returns_shortest_chains(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "mod.py": """
                def leaf():
                    return 1

                def mid():
                    return leaf()

                def root():
                    return mid()
                """
            },
        )
        paths = graph.reachable(["app.mod.root"])
        assert paths["app.mod.leaf"] == ("app.mod.root", "app.mod.mid", "app.mod.leaf")
        assert "app.mod.root" in paths

    def test_unreachable_function_is_absent(self, tmp_path):
        graph = build(
            tmp_path,
            {"mod.py": "def island():\n    return 1\n\ndef root():\n    return 2\n"},
        )
        paths = graph.reachable(["app.mod.root"])
        assert "app.mod.island" not in paths


class TestFindPackageRoot:
    def test_accepts_package_directory_itself(self, tmp_path):
        pkg = make_package(tmp_path, {})
        assert find_package_root([pkg]) == pkg

    def test_accepts_parent_with_single_package(self, tmp_path):
        pkg = make_package(tmp_path, {})
        assert find_package_root([tmp_path]) == pkg

    def test_multiple_packages_is_an_error(self, tmp_path):
        make_package(tmp_path, {}, name="one")
        make_package(tmp_path, {}, name="two")
        with pytest.raises(AnalysisError):
            find_package_root([tmp_path])

    def test_no_package_is_an_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            find_package_root([tmp_path])
        assert issubclass(AnalysisError, ReproError)
