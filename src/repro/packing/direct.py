"""The DIRECT global optimization algorithm (DIviding RECTangles).

A from-scratch implementation of Jones' DIRECT [14] for box-constrained
global minimization, used — exactly as in the paper — to attack the MINLP
formulation of Appendix 9.1 on tiny instances ("these general-purpose
global optimization algorithms/solvers run extremely slow for more than 20
variables"; the paper reports ~12 days for 20 tenants, which is the point
of the heuristics).

The search space is the unit box ``[0, 1]^n``.  Each hyper-rectangle keeps
its center, value and per-dimension trisection levels; every iteration
selects the *potentially optimal* rectangles via the lower convex hull of
(measure, best value) and trisects them along their longest sides, longest
dimensions ordered by the better of the two new samples (Jones' rule).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import PackingError
from .livbp import GroupingSolution, LIVBPwFCProblem
from .minlp import MINLPFormulation

__all__ = ["DirectOptimizer", "DirectResult", "solve_livbp_with_direct"]


@dataclass
class _Rect:
    """One hyper-rectangle of the DIRECT partition."""

    center: np.ndarray
    levels: np.ndarray
    value: float

    def measure(self) -> float:
        """Half-diagonal length (Jones' size measure)."""
        sides = 3.0 ** (-self.levels.astype(np.float64))
        return 0.5 * float(np.linalg.norm(sides))

    def max_side_dims(self) -> np.ndarray:
        """Dimensions along which the rectangle is longest (lowest level)."""
        return np.nonzero(self.levels == self.levels.min())[0]


@dataclass(frozen=True)
class DirectResult:
    """Outcome of a DIRECT run."""

    best_point: np.ndarray
    best_value: float
    evaluations: int
    iterations: int
    elapsed_s: float
    history: tuple[float, ...] = field(default_factory=tuple)


class DirectOptimizer:
    """Minimize ``f`` over the unit box ``[0, 1]^dims``."""

    def __init__(
        self,
        func: Callable[[np.ndarray], float],
        dims: int,
        epsilon: float = 1e-4,
    ) -> None:
        if dims < 1:
            raise PackingError(f"dims must be >= 1, got {dims!r}")
        if epsilon < 0:
            raise PackingError("epsilon must be non-negative")
        self._func = func
        self._dims = dims
        self._epsilon = float(epsilon)
        self._evals = 0

    def _evaluate(self, point: np.ndarray) -> float:
        self._evals += 1
        value = float(self._func(point))
        if math.isnan(value):
            raise PackingError("objective returned NaN")
        return value

    def _potentially_optimal(self, rects: list[_Rect], best_value: float) -> list[int]:
        """Indices of potentially optimal rectangles (lower-hull selection)."""
        # Best rectangle per distinct measure.
        best_by_measure: dict[float, int] = {}
        for idx, rect in enumerate(rects):
            m = round(rect.measure(), 12)
            cur = best_by_measure.get(m)
            if cur is None or rect.value < rects[cur].value:
                best_by_measure[m] = idx
        points = sorted(
            ((m, rects[i].value, i) for m, i in best_by_measure.items()),
            key=lambda t: (t[0], t[1]),
        )
        # Lower convex hull over (measure, value), measures ascending.
        hull: list[tuple[float, float, int]] = []
        for point in points:
            while len(hull) >= 2:
                (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
                x3, y3, _ = point
                cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(point)
        # Epsilon test: keep hull points that could improve on the best
        # value by at least eps*|best| for some K (slope to the next hull
        # point gives the binding K; the largest rectangle always passes).
        selected: list[int] = []
        for pos, (m, v, idx) in enumerate(hull):
            if pos == len(hull) - 1:
                selected.append(idx)
                continue
            m_next, v_next, _ = hull[pos + 1]
            if m_next == m:
                continue
            slope = (v_next - v) / (m_next - m)
            attainable = v + slope * (0.0 - m)
            threshold = best_value - self._epsilon * abs(best_value)
            if attainable <= threshold:
                selected.append(idx)
        return selected

    def minimize(self, max_evals: int = 500, max_iters: Optional[int] = None) -> DirectResult:
        """Run DIRECT; stops after ``max_evals`` evaluations or ``max_iters``."""
        if max_evals < 1:
            raise PackingError("max_evals must be >= 1")
        started = time.perf_counter()
        self._evals = 0
        center = np.full(self._dims, 0.5)
        rects: list[_Rect] = [
            _Rect(center=center, levels=np.zeros(self._dims, dtype=np.int64), value=self._evaluate(center))
        ]
        best_point = rects[0].center.copy()
        best_value = rects[0].value
        history = [best_value]
        iteration = 0
        while self._evals < max_evals and (max_iters is None or iteration < max_iters):
            iteration += 1
            selected = self._potentially_optimal(rects, best_value)
            progressed = False
            for idx in selected:
                if self._evals >= max_evals:
                    break
                rect = rects[idx]
                dims = rect.max_side_dims()
                level = int(rect.levels[dims[0]])
                delta = 3.0 ** (-(level + 1))
                samples: list[tuple[float, int, np.ndarray, float, np.ndarray, float]] = []
                for dim in dims:
                    if self._evals + 2 > max_evals:
                        break
                    plus = rect.center.copy()
                    plus[dim] = min(plus[dim] + delta, 1.0)
                    minus = rect.center.copy()
                    minus[dim] = max(minus[dim] - delta, 0.0)
                    f_plus = self._evaluate(plus)
                    f_minus = self._evaluate(minus)
                    samples.append((min(f_plus, f_minus), int(dim), plus, f_plus, minus, f_minus))
                    for candidate_value, candidate in ((f_plus, plus), (f_minus, minus)):
                        if candidate_value < best_value:
                            best_value = candidate_value
                            best_point = candidate.copy()
                if not samples:
                    continue
                progressed = True
                samples.sort(key=lambda s: s[0])
                for _, dim, plus, f_plus, minus, f_minus in samples:
                    rect.levels = rect.levels.copy()
                    rect.levels[dim] += 1
                    for child_center, child_value in ((plus, f_plus), (minus, f_minus)):
                        rects.append(
                            _Rect(center=child_center, levels=rect.levels.copy(), value=child_value)
                        )
            history.append(best_value)
            if not progressed:
                break
        return DirectResult(
            best_point=best_point,
            best_value=best_value,
            evaluations=self._evals,
            iterations=iteration,
            elapsed_s=time.perf_counter() - started,
            history=tuple(history),
        )


def _repair_assignment(formulation: MINLPFormulation, assignment: np.ndarray) -> list[list[int]]:
    """Split infeasible groups into feasible ones (singletons always fit).

    DIRECT's decoded best point may violate the fuzzy capacity; the repair
    repeatedly evicts the most-active member of each infeasible group into
    a fresh singleton group until every group fits.
    """
    problem = formulation.problem
    groups: list[list[int]] = []
    for j in np.unique(assignment):
        groups.append([int(i) for i in np.nonzero(assignment == j)[0]])
    items = problem.items
    repaired: list[list[int]] = []
    for members in groups:
        members = list(members)
        while members and not problem.fits([items[i] for i in members]):
            most_active = max(members, key=lambda i: items[i].active_epoch_count)
            members.remove(most_active)
            repaired.append([most_active])
        if members:
            repaired.append(members)
    return [[items[i].tenant_id for i in group] for group in repaired]


def solve_livbp_with_direct(
    problem: LIVBPwFCProblem,
    max_evals: int = 2000,
    penalty_per_epoch: float = 1000.0,
) -> tuple[GroupingSolution, DirectResult]:
    """Solve a (tiny) LIVBPwFC instance via the MINLP + DIRECT route.

    Returns the repaired feasible solution and the raw optimizer result.
    """
    formulation = MINLPFormulation(problem, penalty_per_epoch=penalty_per_epoch)

    def objective(point: np.ndarray) -> float:
        return formulation.continuous_objective(point)

    optimizer = DirectOptimizer(objective, dims=formulation.num_tenants)
    result = optimizer.minimize(max_evals=max_evals)
    assignment = formulation.decode(result.best_point)
    groups = _repair_assignment(formulation, assignment)
    solution = GroupingSolution(
        problem, groups, solver="minlp-direct", solve_seconds=result.elapsed_s
    )
    return solution, result
