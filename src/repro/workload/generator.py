"""Step 1 of the log-generation methodology: real query log collection.

"We imitate the activity of different kinds of tenants, submit queries to
MPPDBs, and collect the corresponding real query logs from the MPPDBs"
(§7.1).  Here the MPPDB is the simulated substrate: sessions run through
the fair-share execution engine of a dedicated instance sized to the
tenant, so the collected per-query latencies include intra-tenant
interference, just like the paper's.

The result is a :class:`SessionLibrary` — for each node size, a set of
3-hour session logs (the paper collects 100 per size) from which Step 2
(:mod:`~repro.workload.composer`) randomly picks when stitching multi-day
multi-tenant logs.  The library caches, per session and epoch size, the
session's active-epoch index array, and per session its records in
tenant-log order (:meth:`SessionLibrary.replay_order`), which keeps
composition and replay at thousands of tenants cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..config import EvaluationConfig
from ..errors import WorkloadError
from ..rng import RngFactory
from .activity import active_epoch_indices
from .logs import QueryRecord, log_order, merge_intervals
from .queries import QueryTemplate
from .session import SessionConfig, run_user_session
from .tpcds import TPCDS_TEMPLATES
from .tpch import TPCH_TEMPLATES

__all__ = ["SessionLog", "SessionOrder", "SessionLibrary", "SessionLogGenerator"]


@dataclass(frozen=True)
class SessionLog:
    """One collected 3-hour session log (times relative to session start)."""

    node_size: int
    benchmark: str
    num_users: int
    records: tuple[QueryRecord, ...]
    duration_s: float

    def busy_intervals(self) -> list[tuple[float, float]]:
        """Merged intervals during which some query of the session runs."""
        return merge_intervals((r.submit_time_s, r.finish_time_s) for r in self.records)

    def total_busy_seconds(self) -> float:
        """Total active time within the session."""
        return sum(e - s for s, e in self.busy_intervals())


class SessionOrder(NamedTuple):
    """A session's records sorted as a tenant log sorts them.

    ``SessionLog.records`` is sorted by submit time only; a tenant log
    also orders equal submit times by user and template (stably).
    """

    records: tuple[QueryRecord, ...]
    #: ``records``' submit times, non-decreasing.
    times: tuple[float, ...]
    #: Smallest gap between two consecutive distinct times (``inf`` if none).
    min_gap: float


class SessionLibrary:
    """Per-node-size collections of session logs with cached epoch sets."""

    def __init__(self, sessions: Mapping[int, Sequence[SessionLog]]) -> None:
        if not sessions:
            raise WorkloadError("session library must not be empty")
        self._sessions: dict[int, tuple[SessionLog, ...]] = {}
        for node_size, logs in sessions.items():
            logs = tuple(logs)
            if not logs:
                raise WorkloadError(f"no sessions for node size {node_size}")
            if any(log.node_size != node_size for log in logs):
                raise WorkloadError(f"session node sizes disagree with key {node_size}")
            self._sessions[int(node_size)] = logs
        # epoch-index cache: (node_size, session index, epoch_size) -> array
        self._epoch_cache: dict[tuple[int, int, float], np.ndarray] = {}
        self._order_cache: dict[tuple[int, int], SessionOrder] = {}

    @property
    def node_sizes(self) -> tuple[int, ...]:
        """The node sizes the library covers, ascending."""
        return tuple(sorted(self._sessions))

    def sessions_for(self, node_size: int) -> tuple[SessionLog, ...]:
        """All sessions collected for ``node_size``-node tenants."""
        try:
            return self._sessions[node_size]
        except KeyError:
            raise WorkloadError(f"library has no sessions for node size {node_size!r}") from None

    def session(self, node_size: int, index: int) -> SessionLog:
        """One specific session."""
        sessions = self.sessions_for(node_size)
        if not (0 <= index < len(sessions)):
            raise WorkloadError(f"session index {index!r} out of range for size {node_size}")
        return sessions[index]

    def epoch_indices(self, node_size: int, index: int, epoch_size: float) -> np.ndarray:
        """Active-epoch indices of a session, relative to its start (cached)."""
        key = (node_size, index, float(epoch_size))
        cached = self._epoch_cache.get(key)
        if cached is not None:
            return cached
        indices = active_epoch_indices(self.session(node_size, index).busy_intervals(), epoch_size)
        self._epoch_cache[key] = indices
        return indices

    def replay_order(self, node_size: int, index: int) -> SessionOrder:
        """A session's records in tenant-log order (sorted once, then cached)."""
        key = (node_size, index)
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        records = tuple(sorted(self.session(node_size, index).records, key=log_order))
        times = tuple(r.submit_time_s for r in records)
        gaps = [b - a for a, b in zip(times, times[1:]) if b > a]
        order = SessionOrder(records, times, min(gaps, default=math.inf))
        self._order_cache[key] = order
        return order

    def mean_busy_fraction(self) -> float:
        """Average fraction of the session a tenant is active, over all logs."""
        fractions = [
            log.total_busy_seconds() / log.duration_s
            for logs in self._sessions.values()
            for log in logs
        ]
        return float(np.mean(fractions))


class SessionLogGenerator:
    """Generates a :class:`SessionLibrary` per the §7.1 Step 1 procedure."""

    def __init__(self, config: EvaluationConfig, sessions_per_size: int = 24) -> None:
        if sessions_per_size < 1:
            raise WorkloadError("sessions_per_size must be >= 1")
        self._config = config
        self._sessions_per_size = sessions_per_size
        self._rngs = RngFactory(config.seed).spawn("session-library")

    def _templates(self, benchmark: str) -> list[QueryTemplate]:
        if benchmark == "tpch":
            return list(TPCH_TEMPLATES.values())
        return list(TPCDS_TEMPLATES.values())

    def generate_session(
        self, node_size: int, benchmark: str, num_users: int, rng: np.random.Generator
    ) -> SessionLog:
        """Collect one session log for a dedicated ``node_size``-node MPPDB."""
        logs_cfg = self._config.logs
        session_cfg = SessionConfig(
            duration_s=logs_cfg.session_seconds,
            max_batch=logs_cfg.max_batch,
            min_think_s=logs_cfg.min_think_s,
            max_think_s=logs_cfg.max_think_s,
        )
        data_gb = self._config.data_gb_for_nodes(node_size)
        templates = self._templates(benchmark)

        def work_of(template: QueryTemplate) -> float:
            return template.dedicated_latency_s(data_gb, node_size)

        completed, attribution = run_user_session(
            num_users=num_users,
            config=session_cfg,
            templates=templates,
            work_of=work_of,
            rng=rng,
        )
        records = []
        for execution in completed:
            user_id, template_name, batch_id = attribution[execution.query_id]
            records.append(
                QueryRecord(
                    submit_time_s=execution.submit_time,
                    latency_s=execution.latency_s,
                    template=template_name,
                    user=user_id,
                    batch_id=batch_id,
                )
            )
        return SessionLog(
            node_size=node_size,
            benchmark=benchmark,
            num_users=num_users,
            records=tuple(sorted(records, key=lambda r: r.submit_time_s)),
            duration_s=session_cfg.duration_s,
        )

    def generate(self) -> SessionLibrary:
        """Collect ``sessions_per_size`` logs for every node size of the config."""
        logs_cfg = self._config.logs
        library: dict[int, list[SessionLog]] = {}
        for node_size in self._config.node_sizes:
            sessions: list[SessionLog] = []
            for index in range(self._sessions_per_size):
                rng = self._rngs.stream("session", node_size, index)
                benchmark = "tpch" if rng.random() < 0.5 else "tpcds"
                num_users = int(rng.integers(1, logs_cfg.max_users + 1))
                sessions.append(self.generate_session(node_size, benchmark, num_users, rng))
            library[node_size] = sessions
        return SessionLibrary(library)
