"""THRA104 — lifecycle transitions verified against a declared table.

For every enum named in a :class:`~repro.tools.lint.config.TransitionTable`
the pass finds each attribute that holds it (any ``self.<attr> = Enum.MEMBER``
assignment), then abstractly interprets every method that assigns the
attribute: the set of states the object may be in is narrowed by the guards
dominating each assignment (``if self._state != X: raise``, membership
tests, single-``return`` property guards like ``is_available``) and each
assignment is checked as a transition *from every state still possible* —
so one missing guard clause (the classic ``DOWN -> DEGRADED`` regression)
is caught even though every individual line is legal.

Constructors (``__init__``/``__post_init__``) are checked against the
table's declared initial states instead.  Assignments through anything
other than ``self`` are flagged unconditionally: lifecycle state belongs to
the owning class's methods.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from ..config import AnalyzeConfig, TransitionTable
from ..graph import ClassInfo, FunctionInfo, ProgramGraph, attr_chain
from ..registry import AnalysisPass, Violation, finding_at, register

__all__ = ["LifecycleTransitionPass"]

_CONSTRUCTORS = ("__init__", "__post_init__")

States = frozenset[str]
#: (possible-states-if-true, possible-states-if-false), or None when the
#: expression says nothing about the state attribute.
Constraint = Optional[Tuple[States, States]]


def _enum_members(cls: ClassInfo) -> frozenset[str]:
    """Member names of an enum class (plain class-body Name assignments)."""
    out: set[str] = set()
    for stmt in cls.node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    out.add(target.id)
    return frozenset(out)


class _StateMachine:
    """One (enum, table) pair resolved against the program graph."""

    def __init__(self, graph: ProgramGraph, table: TransitionTable, enum: ClassInfo) -> None:
        self.graph = graph
        self.table = table
        self.enum = enum
        self.members = _enum_members(enum)

    def member_of(self, fn: FunctionInfo, expr: ast.expr) -> Optional[str]:
        """The member name when ``expr`` is ``<Enum>.<MEMBER>`` of this enum."""
        chain = attr_chain(expr)
        if len(chain) != 2 or chain[1] not in self.members:
            return None
        module = self.graph.modules[fn.module]
        resolved = self.graph.resolve_scope_name(module, chain[0])
        if resolved is not None and resolved[0] == "class" and resolved[1] == self.enum.qualname:
            return chain[1]
        return None


class _MethodChecker:
    """Abstract interpretation of one method over one state attribute."""

    def __init__(
        self,
        machine: _StateMachine,
        fn: FunctionInfo,
        attr: str,
        pass_code: str,
        findings: list[Violation],
    ) -> None:
        self.machine = machine
        self.graph = machine.graph
        self.fn = fn
        self.attr = attr
        self.pass_code = pass_code
        self.findings = findings
        self.constructor = fn.name in _CONSTRUCTORS

    # ------------------------------------------------------------- plumbing

    def check(self) -> None:
        initial: Optional[States]
        if self.constructor:
            initial = None  # unborn: first assignment must be an initial state
        else:
            initial = self.machine.members
        self._block(self.fn.node.body, initial)

    def _is_state_attr(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == self.attr
            and attr_chain(expr) == ("self", self.attr)
        )

    def _report(self, node: ast.AST, message: str, label: str) -> None:
        self.findings.append(
            finding_at(
                code=self.pass_code,
                message=message,
                path=self.fn.path,
                root=self.graph.root,
                scope=self.fn.display,
                label=label,
                node=node,
            )
        )

    # ------------------------------------------------------------ the walk

    def _block(
        self, stmts: Sequence[ast.stmt], states: Optional[States]
    ) -> tuple[Optional[States], bool]:
        """Interpret a statement list; returns (fall-through states, terminated)."""
        for stmt in stmts:
            states, terminated = self._stmt(stmt, states)
            if terminated:
                return (states, True)
        return (states, False)

    def _stmt(
        self, stmt: ast.stmt, states: Optional[States]
    ) -> tuple[Optional[States], bool]:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if self._is_state_attr(target):
                    member = self.machine.member_of(self.fn, stmt.value)
                    if member is not None:
                        states = self._check_assignment(stmt, states, member)
                    else:
                        # Value we cannot read (variable, call): widen.
                        states = self.machine.members
            return (states, False)
        if isinstance(stmt, (ast.Raise, ast.Return)):
            return (states, True)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return (states, True)
        if isinstance(stmt, ast.If):
            constraint = self._constrain(stmt.test, states)
            if constraint is None:
                true_states, false_states = states, states
            else:
                true_states, false_states = constraint
            body_out, body_term = self._block(stmt.body, true_states)
            else_out, else_term = self._block(stmt.orelse, false_states)
            if body_term and else_term:
                return (frozenset(), True)
            if body_term:
                return (else_out, False)
            if else_term:
                return (body_out, False)
            return (self._union(body_out, else_out), False)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            widened = self._union(states, self._assigned_members(stmt))
            self._block([*stmt.body, *stmt.orelse], widened)
            return (widened, False)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._block(stmt.body, states)
        if isinstance(stmt, ast.Try):
            widened = self._union(states, self._assigned_members(stmt))
            body_out, _ = self._block(stmt.body, states)
            out = body_out
            for handler in stmt.handlers:
                handler_out, _ = self._block(handler.body, widened)
                out = self._union(out, handler_out)
            out2, _ = self._block([*stmt.orelse, *stmt.finalbody], out)
            return (out2, False)
        if isinstance(stmt, ast.Match):
            case_union: Optional[States] = frozenset()
            for case in stmt.cases:
                case_out, case_term = self._block(case.body, states)
                if not case_term:
                    case_union = self._union(case_union, case_out)
            return (self._union(case_union, states), False)
        return (states, False)

    def _assigned_members(self, stmt: ast.stmt) -> States:
        """Members assigned to the state attr anywhere inside ``stmt``."""
        out: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if self._is_state_attr(target):
                        member = self.machine.member_of(self.fn, node.value)
                        if member is None:
                            return self.machine.members
                        out.add(member)
        return frozenset(out)

    @staticmethod
    def _union(a: Optional[States], b: Optional[States]) -> Optional[States]:
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    # ----------------------------------------------------- transition check

    def _check_assignment(
        self, stmt: ast.Assign, states: Optional[States], member: str
    ) -> States:
        enum_name = self.machine.enum.name
        table = self.machine.table
        if states is None:
            # Constructor: the object has no prior state.
            if member not in table.initial:
                self._report(
                    stmt,
                    f"{enum_name}.{member} is not a declared initial state "
                    f"(expected one of: {', '.join(sorted(table.initial))})",
                    f"init:{member}",
                )
            return frozenset({member})
        for source in sorted(states):
            allowed, methods = table.allowed_in(source, member)
            if not allowed:
                self._report(
                    stmt,
                    f"illegal {enum_name} transition {source} -> {member} "
                    f"in {self.fn.display}",
                    f"{source}->{member}",
                )
            elif methods is not None and self.fn.name not in methods:
                self._report(
                    stmt,
                    f"{enum_name} transition {source} -> {member} is only "
                    f"allowed in {', '.join(sorted(methods))} "
                    f"(found in {self.fn.name})",
                    f"{source}->{member}",
                )
        return frozenset({member})

    # --------------------------------------------------- guard constraints

    def _constrain(self, test: ast.expr, states: Optional[States]) -> Constraint:
        if states is None:
            return None
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._constrain(test.operand, states)
            if inner is None:
                return None
            return (inner[1], inner[0])
        if isinstance(test, ast.BoolOp):
            parts = [self._constrain(value, states) for value in test.values]
            known = [p for p in parts if p is not None]
            if not known:
                return None
            if isinstance(test.op, ast.And):
                true_states = states
                for part in known:
                    true_states = true_states & part[0]
                if len(known) == len(parts):
                    false_states: States = frozenset()
                    for part in known:
                        false_states = false_states | part[1]
                else:
                    false_states = states
                return (true_states, false_states)
            # Or: only exact when every disjunct constrains the attribute.
            if len(known) != len(parts):
                return None
            true_states = frozenset()
            false_states = states
            for part in known:
                true_states = true_states | part[0]
                false_states = false_states & part[1]
            return (true_states, false_states)
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            return self._constrain_compare(test, states)
        if isinstance(test, ast.Attribute):
            return self._constrain_property(test, states)
        return None

    def _constrain_compare(self, test: ast.Compare, states: States) -> Constraint:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if not self._is_state_attr(left):
            # Allow the reversed spelling ``Enum.MEMBER == self._state``.
            if self._is_state_attr(right) and isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)):
                left, right = right, left
            else:
                return None
        if isinstance(op, (ast.Eq, ast.Is, ast.NotEq, ast.IsNot)):
            member = self.machine.member_of(self.fn, right)
            if member is None:
                return None
            hit = states & frozenset({member})
            miss = states - frozenset({member})
            if isinstance(op, (ast.Eq, ast.Is)):
                return (hit, miss)
            return (miss, hit)
        if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
            right, (ast.Tuple, ast.List, ast.Set)
        ):
            members: set[str] = set()
            for element in right.elts:
                member = self.machine.member_of(self.fn, element)
                if member is None:
                    return None
                members.add(member)
            hit = states & frozenset(members)
            miss = states - frozenset(members)
            if isinstance(op, ast.In):
                return (hit, miss)
            return (miss, hit)
        return None

    def _constrain_property(self, test: ast.Attribute, states: States) -> Constraint:
        """Inline a single-``return`` property used as a guard (``is_available``)."""
        if attr_chain(test) != ("self", test.attr) or self.fn.cls is None:
            return None
        prop = self.graph.find_property(self.fn.cls, test.attr)
        if prop is None:
            return None
        body = prop.node.body
        stmts = [s for s in body if not isinstance(s, (ast.Expr,))]  # skip docstring
        if len(stmts) != 1 or not isinstance(stmts[0], ast.Return) or stmts[0].value is None:
            return None
        return self._constrain(stmts[0].value, states)


@register
class LifecycleTransitionPass(AnalysisPass):
    code = "THRA104"
    name = "lifecycle"
    summary = "state-machine assignment outside the declared transition table"

    def run(self, graph: ProgramGraph, config: AnalyzeConfig) -> List[Violation]:
        findings: list[Violation] = []
        for table in config.transition_tables:
            enum = next(
                (c for c in graph.classes.values() if c.name == table.enum_name), None
            )
            if enum is None:
                continue
            machine = _StateMachine(graph, table, enum)
            owners = self._state_attrs(graph, machine)
            for qualname in sorted(graph.functions):
                fn = graph.functions[qualname]
                self._check_function(machine, fn, owners, findings)
        return findings

    def _state_attrs(
        self, graph: ProgramGraph, machine: _StateMachine
    ) -> set[tuple[str, str]]:
        """(owning class qualname, attr) pairs assigned this enum via ``self``."""
        owners: set[tuple[str, str]] = set()
        for fn in graph.functions.values():
            if fn.cls is None:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    chain = attr_chain(target)
                    if len(chain) == 2 and chain[0] == "self":
                        if machine.member_of(fn, node.value) is not None:
                            owners.add((fn.cls, chain[1]))
        return owners

    def _check_function(
        self,
        machine: _StateMachine,
        fn: FunctionInfo,
        owners: set[tuple[str, str]],
        findings: list[Violation],
    ) -> None:
        graph = machine.graph
        state_attrs = {attr for _cls, attr in owners}
        # Non-self assignments of a state attribute: always a finding.
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                chain = attr_chain(target)
                if (
                    isinstance(target, ast.Attribute)
                    and chain[:1] != ("self",)
                    and target.attr in state_attrs
                    and machine.member_of(fn, node.value) is not None
                ):
                    findings.append(
                        finding_at(
                            code=self.code,
                            message=(
                                f"{machine.enum.name} attribute .{target.attr} assigned "
                                f"outside its owning class (in {fn.display}); lifecycle "
                                "transitions belong to the owner's methods"
                            ),
                            path=fn.path,
                            root=graph.root,
                            scope=fn.display,
                            label=f"external:{target.attr}",
                            node=node,
                        )
                    )
        # Self assignments: interpret the whole method per owned attribute.
        if fn.cls is None:
            return
        own_mro = {c.qualname for c in graph.mro(fn.cls)}
        for cls_qualname, attr in sorted(owners):
            if cls_qualname not in own_mro:
                continue
            assigns_here = any(
                isinstance(node, ast.Assign)
                and any(
                    self_target
                    for self_target in node.targets
                    if attr_chain(self_target) == ("self", attr)
                )
                for node in ast.walk(fn.node)
            )
            if not assigns_here:
                continue
            _MethodChecker(machine, fn, attr, self.code, findings).check()
