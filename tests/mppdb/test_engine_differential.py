"""Differential test: the incremental engine against the reference engine.

:mod:`tests.mppdb.engine_oracle` keeps the processor-sharing engine that
settled progress, took the next-completion minimum and scanned for due
queries in separate passes.  The library engine folds them into one pass
and counts running queries per tenant; it must be the same engine to the
bit.  Both are driven, each on its own simulator, by the same random
submits (some of them tied, some zero-work), aborts, time advances and
follow-up submits from completion callbacks, and every observable is
compared: finish times, completion order, aborted queries and their
remaining work, the ``(time, sequence)`` of every scheduled completion,
the number of cancelled completions, and the running tenants.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mppdb.execution import ExecutionEngine
from repro.simulation.engine import Simulator
from tests.mppdb import engine_oracle


class _RecordingSimulator(Simulator):
    """A simulator that logs every schedule and counts live cancels."""

    def __init__(self) -> None:
        super().__init__()
        self.scheduled: list[tuple[float, int, str]] = []
        self.cancelled = 0

    def schedule(self, time, callback, label="", sequence=None):
        handle = super().schedule(time, callback, label=label, sequence=sequence)
        self.scheduled.append((handle.time, handle.sequence, label))
        return handle

    def cancel(self, handle):
        if not handle.cancelled:
            self.cancelled += 1
        super().cancel(handle)


_TENANTS = st.integers(min_value=1, max_value=4)
# A few shared values make equal remaining work, hence simultaneous
# completions (a due list longer than one).
_WORK = st.one_of(
    st.sampled_from([1.0, 2.5, 10.0]),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _TENANTS, _WORK),
        st.tuples(st.just("zero"), _TENANTS, st.sampled_from([0.0, 1e-10, 1e-9])),
        st.tuples(st.just("abort")),
        st.tuples(st.just("advance"), st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
        )),
    ),
    max_size=40,
)


def _bits(value):
    """A float's exact bits (``-0.0`` and ``0.0`` differ), else ``value``."""
    return value.hex() if isinstance(value, float) else value


def _drive(engine_type, ops, retain):
    sim = _RecordingSimulator()
    engine = engine_type(sim, retain_completed=retain)
    completions, aborts, states = [], [], []

    def on_complete(q):
        completions.append(
            (q.query_id, q.tenant_id, _bits(q.submit_time), _bits(q.finish_time), q.label)
        )
        # A follow-up submitted from inside the completion callback.
        if q.query_id % 3 == 0 and q.work_s >= 1.0:
            engine.submit(q.tenant_id, q.work_s / 2, label="follow-up")

    engine.on_complete(on_complete)
    engine.on_abort(lambda q: aborts.append(("callback", q.query_id)))
    for op in ops:
        if op[0] in ("submit", "zero"):
            __, tenant, work = op
            engine.submit(tenant, work, label=op[0])
        elif op[0] == "abort":
            aborts.append([
                (q.query_id, _bits(q.abort_time), _bits(q.remaining_work_s))
                for q in engine.abort_all()
            ])
        else:
            sim.run(until=sim.now + op[1])
        states.append((
            _bits(sim.now),
            engine.concurrency,
            sorted(engine.active_tenants),
            [(q.query_id, _bits(q.remaining_work_s)) for q in engine.running],
        ))
    sim.run()
    retained = [(q.query_id, _bits(q.finish_time)) for q in engine.completed]
    return engine, {
        "completions": completions,
        "aborts": aborts,
        "states": states,
        "scheduled": [(_bits(t), seq, label) for t, seq, label in sim.scheduled],
        "cancelled": sim.cancelled,
        "fired": sim.events_fired,
        "retained": retained,
    }


class TestEngineMatchesOracle:
    @given(ops=_OPS, retain=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_events_and_floats(self, ops, retain):
        __, expected = _drive(engine_oracle.ExecutionEngine, ops, retain)
        engine, actual = _drive(ExecutionEngine, ops, retain)
        for key in expected:
            assert actual[key] == expected[key], key
        assert engine.active_tenants == set()
        assert not any(engine.runs_tenant(t) for t in range(1, 5))

    @given(ops=_OPS)
    @settings(max_examples=100, deadline=None)
    def test_runs_tenant_is_active_tenants(self, ops):
        sim = Simulator()
        engine = ExecutionEngine(sim)
        for op in ops:
            if op[0] in ("submit", "zero"):
                engine.submit(op[1], op[2])
            elif op[0] == "abort":
                engine.abort_all()
            else:
                sim.run(until=sim.now + op[1])
            running = {q.tenant_id for q in engine.running}
            assert engine.active_tenants == running
            assert all(engine.runs_tenant(t) == (t in running) for t in range(1, 5))
