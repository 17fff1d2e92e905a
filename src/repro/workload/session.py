"""User session behaviour (§7.1 Step 1).

"Each tenant has at most S autonomous users, where S is a random integer
between 1 and 5.  Each user follows a probability distribution P to carry
out the following: (a) either submits a random TPC-H/DS query to a MPPDB,
or (b) submits a batch of M random TPC-H/DS queries to a MPPDB, where M is
a random integer between 1 and 10.  The user will not take any action until
the single query (for (a)) or the query batch (for (b)) is complete...
After the completion of a query/query batch, a user will pause for W
seconds before the next event takes place, where W is a random integer from
3 to 600."

:class:`SessionConfig` captures those knobs; :func:`run_user_session`
drives ``num_users`` such state machines against one shared execution
engine, which is how intra-tenant concurrency (several users, batches)
inflates the collected latencies exactly as on the real dedicated MPPDB.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import WorkloadError
from ..mppdb.execution import ExecutionEngine, QueryExecution
from ..simulation.engine import Simulator
from .queries import QueryTemplate

__all__ = ["SessionConfig", "run_user_session"]


@dataclass(frozen=True)
class SessionConfig:
    """Stochastic knobs of one user session (paper defaults)."""

    duration_s: float = 3 * 3600.0
    batch_probability: float = 0.5
    max_batch: int = 10
    min_think_s: float = 3.0
    max_think_s: float = 600.0
    max_initial_stagger_s: float = 300.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise WorkloadError("session duration must be positive")
        if not (0 <= self.batch_probability <= 1):
            raise WorkloadError("batch_probability must be in [0, 1]")
        if self.max_batch < 1:
            raise WorkloadError("max_batch must be >= 1")
        if not (0 <= self.min_think_s <= self.max_think_s):
            raise WorkloadError("invalid think-time range")
        if self.max_initial_stagger_s < 0:
            raise WorkloadError("max_initial_stagger_s must be >= 0")


class _UserProcess:
    """One autonomous user's submit / wait-for-batch / think loop."""

    def __init__(
        self,
        user_id: int,
        simulator: Simulator,
        engine: ExecutionEngine,
        config: SessionConfig,
        templates: Sequence[QueryTemplate],
        work_of: Callable[[QueryTemplate], float],
        rng: np.random.Generator,
        batch_ids: "itertools.count[int]",
    ) -> None:
        self.user_id = user_id
        self._sim = simulator
        self._engine = engine
        self._config = config
        self._templates = list(templates)
        self._work_of = work_of
        self._rng = rng
        self._batch_ids = batch_ids
        self._outstanding: set[int] = set()
        #: query_id -> (template name, batch id); read by the session runner.
        self.submitted: dict[int, tuple[str, int]] = {}

    def start(self) -> None:
        """Schedule the user's first action (staggered within the session)."""
        stagger = float(self._rng.uniform(0.0, self._config.max_initial_stagger_s))
        self._sim.schedule_after(stagger, self._next_event, label=f"user{self.user_id}-start")

    def owns(self, query_id: int) -> bool:
        """Whether a running query belongs to this user."""
        return query_id in self._outstanding

    def on_query_done(self, execution: QueryExecution) -> None:
        """Notify the user one of its queries finished; think when all are done."""
        self._outstanding.discard(execution.query_id)
        if not self._outstanding:
            self._schedule_think()

    def _schedule_think(self) -> None:
        think = float(self._rng.uniform(self._config.min_think_s, self._config.max_think_s))
        next_time = self._sim.now + think
        if next_time < self._config.duration_s:
            self._sim.schedule(next_time, self._next_event, label=f"user{self.user_id}-wake")

    def _next_event(self, time: float) -> None:
        if time >= self._config.duration_s:
            return
        if self._rng.random() < self._config.batch_probability:
            batch_size = int(self._rng.integers(1, self._config.max_batch + 1))
            batch_id = next(self._batch_ids)
        else:
            batch_size = 1
            batch_id = -1
        for _ in range(batch_size):
            template = self._templates[int(self._rng.integers(0, len(self._templates)))]
            execution = self._engine.submit(
                tenant_id=0,
                work_s=self._work_of(template),
                label=template.name,
            )
            if not execution.finished:
                self._outstanding.add(execution.query_id)
            self.submitted[execution.query_id] = (template.name, batch_id)
        if not self._outstanding:
            # Degenerate zero-work batch completed instantly; think directly.
            self._schedule_think()


def run_user_session(
    num_users: int,
    config: SessionConfig,
    templates: Sequence[QueryTemplate],
    work_of: Callable[[QueryTemplate], float],
    rng: np.random.Generator,
) -> tuple[list[QueryExecution], dict[int, tuple[int, str, int]]]:
    """Run one multi-user session on a fresh dedicated engine.

    ``work_of`` maps a template to its dedicated latency on the session's
    MPPDB — the caller fixes the tenant's data size and the instance's
    parallelism there.

    Returns ``(completed, attribution)`` where ``completed`` are the
    finished query executions (with interference-inflated latencies) and
    ``attribution`` maps ``query_id -> (user_id, template name, batch id)``.
    """
    if num_users < 1:
        raise WorkloadError(f"num_users must be >= 1, got {num_users!r}")
    if not templates:
        raise WorkloadError("at least one query template is required")
    simulator = Simulator()
    engine = ExecutionEngine(simulator, retain_completed=True)
    batch_ids = itertools.count()
    users = [
        _UserProcess(
            user_id=u,
            simulator=simulator,
            engine=engine,
            config=config,
            templates=templates,
            work_of=work_of,
            rng=rng,
            batch_ids=batch_ids,
        )
        for u in range(num_users)
    ]

    def _dispatch(execution: QueryExecution) -> None:
        for user in users:
            if user.owns(execution.query_id):
                user.on_query_done(execution)
                return

    engine.on_complete(_dispatch)
    for user in users:
        user.start()
    simulator.run()

    attribution: dict[int, tuple[int, str, int]] = {}
    for user in users:
        for query_id, (template_name, batch_id) in user.submitted.items():
            attribution[query_id] = (user.user_id, template_name, batch_id)
    return engine.completed, attribution
