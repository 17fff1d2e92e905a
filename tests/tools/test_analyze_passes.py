"""Fixture tests for the THRA passes: each has a firing and a quiet case."""

from __future__ import annotations

from pathlib import Path

from repro.tools.lint import AnalyzeConfig, build_program, default_transition_tables, run_passes
from repro.tools.lint.passes.api_surface import ApiSurfaceDriftPass
from repro.tools.lint.passes.determinism import DeterminismTaintPass
from repro.tools.lint.passes.exceptions import DeadHandlerPass, PublicBuiltinEscapePass
from repro.tools.lint.passes.lifecycle import LifecycleTransitionPass

from .test_analyze_graph import make_package


def analyze(tmp_path: Path, files: dict[str, str], analysis_pass, **config_kwargs):
    graph = build_program(make_package(tmp_path, files))
    config = AnalyzeConfig(**config_kwargs)
    return run_passes(graph, config, [analysis_pass])


class TestDeterminismTaint:
    def test_transitive_two_hop_leak_fires_with_chain(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "service.py": """
                from .solver import plan

                class Replay:
                    def run(self):
                        return plan()
                """,
                "solver.py": """
                from .timing import stamp

                def plan():
                    return stamp()
                """,
                "timing.py": """
                import time

                def stamp():
                    return time.perf_counter()
                """,
            },
            DeterminismTaintPass(),
            entry_prefixes=("service.",),
        )
        assert [f.code for f in findings] == ["THRA101"]
        finding = findings[0]
        assert finding.path.endswith("timing.py")
        assert "time.perf_counter" in finding.message
        assert "Replay.run" in finding.message
        assert finding.detail == (
            "via Replay.run -> solver.plan -> timing.stamp -> time.perf_counter"
        )
        assert finding.fingerprint == (
            "THRA101::app/timing.py::timing.stamp::time.perf_counter"
        )

    def test_stdlib_random_and_unseeded_default_rng_fire(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "service.py": """
                import random

                import numpy

                class Replay:
                    def run(self):
                        numpy.random.default_rng()
                        return random.random()
                """
            },
            DeterminismTaintPass(),
            entry_prefixes=("service.",),
        )
        labels = {f.message.split(" is reachable")[0] for f in findings}
        assert labels == {"random.random", "unseeded numpy.random.default_rng"}

    def test_source_outside_the_entry_cone_is_quiet(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "service.py": """
                class Replay:
                    def run(self):
                        return 1
                """,
                "bench.py": """
                import time

                def measure():
                    return time.perf_counter()
                """,
            },
            DeterminismTaintPass(),
            entry_prefixes=("service.",),
        )
        assert findings == []

    def test_seeded_default_rng_is_quiet(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "service.py": """
                import numpy

                class Replay:
                    def run(self, seed):
                        return numpy.random.default_rng(seed)
                """
            },
            DeterminismTaintPass(),
            entry_prefixes=("service.",),
        )
        assert findings == []

    def test_noqa_comment_suppresses_the_finding(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "service.py": """
                import time

                class Replay:
                    def run(self):
                        return time.perf_counter()  # thrifty: noqa[THRA101]
                """
            },
            DeterminismTaintPass(),
            entry_prefixes=("service.",),
        )
        assert findings == []


class TestPublicBuiltinEscape:
    def test_builtin_from_private_helper_escapes_public_function(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "api.py": """
                def load(raw):
                    return _parse(raw)

                def _parse(raw):
                    if not raw:
                        raise ValueError("empty")
                    return raw
                """
            },
            PublicBuiltinEscapePass(),
        )
        assert [f.code for f in findings] == ["THRA102"]
        assert "ValueError" in findings[0].message
        assert "api.load" in findings[0].message

    def test_caught_builtin_and_internal_errors_are_quiet(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "api.py": """
                class AppError(Exception):
                    pass

                def safe(raw):
                    try:
                        return _parse(raw)
                    except ValueError:
                        return None

                def typed(raw):
                    if not raw:
                        raise AppError("empty")
                    return raw

                def _parse(raw):
                    if not raw:
                        raise ValueError("empty")
                    return raw
                """
            },
            PublicBuiltinEscapePass(),
        )
        assert findings == []

    def test_supertype_handler_absorbs_subtype_raise(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "api.py": """
                def read(path):
                    try:
                        return _open(path)
                    except OSError:
                        return None

                def _open(path):
                    raise FileNotFoundError(path)
                """
            },
            PublicBuiltinEscapePass(),
        )
        assert findings == []

    def test_not_implemented_error_is_exempt(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "api.py": """
                def abstract_hook():
                    raise NotImplementedError
                """
            },
            PublicBuiltinEscapePass(),
        )
        assert findings == []


class TestDeadHandler:
    ERRORS = """
    class AppError(Exception):
        pass

    class PackError(AppError):
        pass

    class RouteError(AppError):
        pass
    """

    def test_handler_for_unraisable_error_fires(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "errors.py": self.ERRORS,
                "work.py": """
                from .errors import PackError, RouteError

                def pack():
                    raise PackError("x")

                def run():
                    try:
                        return pack()
                    except RouteError:
                        return None
                """,
            },
            DeadHandlerPass(),
        )
        assert [f.code for f in findings] == ["THRA103"]
        assert "except RouteError" in findings[0].message
        assert "work.run" in findings[0].message

    def test_matching_and_supertype_handlers_are_quiet(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "errors.py": self.ERRORS,
                "work.py": """
                from .errors import AppError, PackError

                def pack():
                    raise PackError("x")

                def run():
                    try:
                        return pack()
                    except PackError:
                        return None

                def run_wide():
                    try:
                        return pack()
                    except AppError:
                        return None
                """,
            },
            DeadHandlerPass(),
        )
        assert findings == []

    def test_opaque_call_in_try_body_stays_silent(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "errors.py": self.ERRORS,
                "work.py": """
                from .errors import RouteError

                def run(callback):
                    try:
                        return callback()
                    except RouteError:
                        return None
                """,
            },
            DeadHandlerPass(),
        )
        assert findings == []


class TestLifecycleTransitions:
    STATE = """
    import enum

    class InstanceState(enum.Enum):
        PROVISIONING = "provisioning"
        READY = "ready"
        DEGRADED = "degraded"
        DOWN = "down"
        RETIRED = "retired"
    """

    LEGAL = """
    from .state import InstanceState

    class Inst:
        def __init__(self):
            self._state = InstanceState.PROVISIONING

        def mark_ready(self):
            if self._state is not InstanceState.PROVISIONING:
                return
            self._state = InstanceState.READY

        def mark_down(self):
            if self._state is not InstanceState.RETIRED:
                self._state = InstanceState.DOWN

        def complete_node_replacement(self):
            if self._state in (InstanceState.DEGRADED, InstanceState.DOWN):
                self._state = InstanceState.READY
    """

    def run_pass(self, tmp_path, files):
        return analyze(
            tmp_path,
            files,
            LifecycleTransitionPass(),
            transition_tables=default_transition_tables(),
        )

    def test_legal_guarded_transitions_are_quiet(self, tmp_path):
        assert self.run_pass(tmp_path, {"state.py": self.STATE, "inst.py": self.LEGAL}) == []

    def test_down_to_ready_outside_replacement_method_fires(self, tmp_path):
        findings = self.run_pass(
            tmp_path,
            {
                "state.py": self.STATE,
                "inst.py": self.LEGAL
                + """
        def force_ready(self):
            if self._state is InstanceState.DOWN:
                self._state = InstanceState.READY
    """,
            },
        )
        assert [f.code for f in findings] == ["THRA104"]
        assert "DOWN -> READY" in findings[0].message
        assert "complete_node_replacement" in findings[0].message
        assert "force_ready" in findings[0].message

    def test_undeclared_edge_fires_as_illegal(self, tmp_path):
        findings = self.run_pass(
            tmp_path,
            {
                "state.py": self.STATE,
                "inst.py": self.LEGAL
                + """
        def weird(self):
            if self._state is InstanceState.DOWN:
                self._state = InstanceState.DEGRADED
    """,
            },
        )
        assert len(findings) == 1
        assert "illegal InstanceState transition DOWN -> DEGRADED" in findings[0].message

    def test_missing_guard_is_caught_even_when_each_line_is_plausible(self, tmp_path):
        # No guard at all: the method may run in any state, so the RETIRED ->
        # DOWN edge (undeclared) is among the checked transitions.
        findings = self.run_pass(
            tmp_path,
            {
                "state.py": self.STATE,
                "inst.py": """
                from .state import InstanceState

                class Inst:
                    def __init__(self):
                        self._state = InstanceState.PROVISIONING

                    def mark_down(self):
                        self._state = InstanceState.DOWN
                """,
            },
        )
        assert any("RETIRED -> DOWN" in f.message for f in findings)

    def test_constructor_must_start_in_initial_state(self, tmp_path):
        findings = self.run_pass(
            tmp_path,
            {
                "state.py": self.STATE,
                "inst.py": """
                from .state import InstanceState

                class Inst:
                    def __init__(self):
                        self._state = InstanceState.READY
                """,
            },
        )
        assert len(findings) == 1
        assert "not a declared initial state" in findings[0].message

    def test_assignment_outside_owning_class_fires(self, tmp_path):
        findings = self.run_pass(
            tmp_path,
            {
                "state.py": self.STATE,
                "inst.py": self.LEGAL,
                "hack.py": """
                from .state import InstanceState

                def knock_out(inst):
                    inst._state = InstanceState.DOWN
                """,
            },
        )
        assert len(findings) == 1
        assert "outside its owning class" in findings[0].message

    def test_package_without_the_enum_is_quiet(self, tmp_path):
        assert self.run_pass(tmp_path, {"mod.py": "X = 1\n"}) == []


class TestApiSurfaceDrift:
    def test_undocumented_export_fires(self, tmp_path):
        doc = tmp_path / "API.md"
        doc.write_text("Only `good` is documented here.\n")
        findings = analyze(
            tmp_path,
            {"__init__.py": '__all__ = ["good", "missing"]\n'},
            ApiSurfaceDriftPass(),
            api_doc=doc,
        )
        assert [f.code for f in findings] == ["THRA105"]
        assert "'missing'" in findings[0].message

    def test_documented_exports_and_leaf_modules_are_quiet(self, tmp_path):
        doc = tmp_path / "API.md"
        doc.write_text("Both `good` and `better` appear.\n")
        findings = analyze(
            tmp_path,
            {
                "__init__.py": '__all__ = ["good", "better"]\n',
                "leaf.py": '__all__ = ["undocumented_leaf_name"]\n',
            },
            ApiSurfaceDriftPass(),
            api_doc=doc,
        )
        assert findings == []

    def test_no_document_skips_the_pass(self, tmp_path):
        findings = analyze(
            tmp_path,
            {"__init__.py": '__all__ = ["missing"]\n'},
            ApiSurfaceDriftPass(),
            api_doc=None,
        )
        assert findings == []
