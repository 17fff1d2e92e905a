"""Execution-engine abort semantics (fault-tolerance plane)."""

from repro.mppdb.execution import ExecutionEngine
from repro.simulation.engine import Simulator


class TestAbortAll:
    def test_abort_empty_engine_is_noop(self):
        engine = ExecutionEngine(Simulator())
        assert engine.abort_all() == []

    def test_abort_marks_and_clears(self):
        sim = Simulator()
        engine = ExecutionEngine(sim)
        q1 = engine.submit(1, 100.0)
        q2 = engine.submit(2, 100.0)
        sim.run(until=10.0)
        aborted = engine.abort_all()
        assert [q.query_id for q in aborted] == [q1.query_id, q2.query_id]
        assert all(q.aborted and not q.finished for q in aborted)
        assert all(q.abort_time == sim.now for q in aborted)
        assert engine.concurrency == 0
        assert not engine.busy

    def test_abort_settles_progress_first(self):
        sim = Simulator()
        engine = ExecutionEngine(sim)
        query = engine.submit(1, 100.0)
        sim.run(until=30.0)
        engine.abort_all()
        # Ran alone for 30 s, so 70 s of dedicated work remains at abort.
        assert query.remaining_work_s == 70.0

    def test_abort_callbacks_fire_in_query_order(self):
        sim = Simulator()
        engine = ExecutionEngine(sim)
        seen = []
        engine.on_abort(lambda q: seen.append(q.query_id))
        a = engine.submit(1, 50.0)
        b = engine.submit(2, 50.0)
        engine.abort_all()
        assert seen == [a.query_id, b.query_id]

    def test_aborted_queries_never_complete(self):
        sim = Simulator()
        engine = ExecutionEngine(sim, retain_completed=True)
        completions = []
        engine.on_complete(lambda q: completions.append(q.query_id))
        engine.submit(1, 10.0)
        engine.abort_all()
        sim.run(until=100.0)
        assert completions == []
        assert engine.completed == []

    def test_engine_usable_after_abort(self):
        sim = Simulator()
        engine = ExecutionEngine(sim)
        engine.submit(1, 10.0)
        engine.abort_all()
        replay = engine.submit(2, 10.0)
        sim.run(until=100.0)
        assert replay.finished
        assert replay.latency_s == 10.0
