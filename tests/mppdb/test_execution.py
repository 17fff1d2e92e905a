"""Execution engine tests: processor sharing is the interference model.

The key behaviours are the ones Figure 1.1a measures: sequential
submissions see no slowdown; k concurrent equal queries each run k times
slower.
"""

import pytest

from repro.errors import MPPDBError
from repro.mppdb.execution import ExecutionEngine
from repro.simulation.engine import Simulator


@pytest.fixture
def engine():
    sim = Simulator()
    return sim, ExecutionEngine(sim)


class TestSingleQuery:
    def test_runs_at_full_speed(self, engine):
        sim, eng = engine
        execution = eng.submit(tenant_id=1, work_s=100.0)
        sim.run()
        assert execution.finished
        assert execution.latency_s == pytest.approx(100.0)
        assert execution.slowdown == pytest.approx(1.0)

    def test_zero_work_completes_instantly(self, engine):
        sim, eng = engine
        execution = eng.submit(tenant_id=1, work_s=0.0)
        assert execution.finished
        assert execution.latency_s == 0.0

    def test_negative_work_rejected(self, engine):
        __, eng = engine
        with pytest.raises(MPPDBError):
            eng.submit(tenant_id=1, work_s=-1.0)

    def test_latency_before_finish_rejected(self, engine):
        __, eng = engine
        execution = eng.submit(tenant_id=1, work_s=10.0)
        with pytest.raises(MPPDBError):
            __ = execution.latency_s


class TestSequentialSubmissions:
    def test_no_slowdown(self, engine):
        # 2T-SEQ in Figure 1.1a: back-to-back queries keep isolated latency.
        sim, eng = engine
        first = eng.submit(tenant_id=1, work_s=50.0)
        sim.run()
        second = eng.submit(tenant_id=2, work_s=50.0)
        sim.run()
        assert first.latency_s == pytest.approx(50.0)
        assert second.latency_s == pytest.approx(50.0)


class TestConcurrentSubmissions:
    def test_two_equal_queries_2x_slower(self, engine):
        # 2T-CON in Figure 1.1a.
        sim, eng = engine
        a = eng.submit(tenant_id=1, work_s=100.0)
        b = eng.submit(tenant_id=2, work_s=100.0)
        sim.run()
        assert a.latency_s == pytest.approx(200.0)
        assert b.latency_s == pytest.approx(200.0)

    def test_four_equal_queries_4x_slower(self, engine):
        # 4T-CON in Figure 1.1a.
        sim, eng = engine
        executions = [eng.submit(tenant_id=t, work_s=100.0) for t in range(4)]
        sim.run()
        for execution in executions:
            assert execution.latency_s == pytest.approx(400.0)

    def test_unequal_queries_processor_sharing(self, engine):
        # Works 10 and 30 started together: the short one finishes at 20
        # (half speed), the long one at 20 + 20 remaining at full speed = 40.
        sim, eng = engine
        short = eng.submit(tenant_id=1, work_s=10.0)
        long = eng.submit(tenant_id=2, work_s=30.0)
        sim.run()
        assert short.latency_s == pytest.approx(20.0)
        assert long.latency_s == pytest.approx(40.0)

    def test_late_arrival(self, engine):
        # Query B (work 10) arrives at t=10 while A (work 20) is halfway.
        # They share until B finishes at t=30; A has 10-10=... A progressed
        # 10 by t=10, then shares: each gets 10 more by t=30 -> B done, A
        # remaining 0 -> A also done at t=30.
        sim, eng = engine
        a = eng.submit(tenant_id=1, work_s=20.0)
        sim.schedule(10.0, lambda t: eng.submit(tenant_id=2, work_s=10.0))
        sim.run()
        assert a.finish_time == pytest.approx(30.0)

    def test_simultaneous_equal_completions(self, engine):
        sim, eng = engine
        a = eng.submit(tenant_id=1, work_s=10.0)
        b = eng.submit(tenant_id=2, work_s=10.0)
        sim.run()
        assert a.finish_time == pytest.approx(b.finish_time)
        assert eng.concurrency == 0


class TestEngineState:
    def test_busy_and_active_tenants(self, engine):
        sim, eng = engine
        assert not eng.busy
        eng.submit(tenant_id=5, work_s=10.0)
        eng.submit(tenant_id=5, work_s=10.0)
        eng.submit(tenant_id=7, work_s=10.0)
        assert eng.busy
        assert eng.concurrency == 3
        assert eng.active_tenants == {5, 7}
        sim.run()
        assert not eng.busy
        assert eng.active_tenants == set()

    def test_completed_in_completion_order(self):
        sim = Simulator()
        eng = ExecutionEngine(sim, retain_completed=True)
        eng.submit(tenant_id=1, work_s=30.0)
        eng.submit(tenant_id=2, work_s=10.0)
        sim.run()
        completed = eng.completed
        assert [q.tenant_id for q in completed] == [2, 1]

    def test_completed_not_retained_by_default(self, engine):
        sim, eng = engine
        eng.submit(tenant_id=1, work_s=30.0)
        eng.submit(tenant_id=2, work_s=0.0)
        sim.run()
        assert not eng.busy
        assert eng.completed == []

    def test_on_complete_callback(self, engine):
        sim, eng = engine
        seen = []
        eng.on_complete(lambda q: seen.append(q.tenant_id))
        eng.submit(tenant_id=3, work_s=5.0)
        sim.run()
        assert seen == [3]

    def test_work_conservation(self, engine):
        # Total busy time equals total work regardless of interleaving.
        sim, eng = engine
        works = [7.0, 13.0, 20.0]
        for i, w in enumerate(works):
            eng.submit(tenant_id=i, work_s=w)
        sim.run()
        assert sim.now == pytest.approx(sum(works))
