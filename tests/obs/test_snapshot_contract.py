"""The metrics snapshot contract after a real instrumented replay.

Counters and histograms aggregate in place and reach the sink only as
snapshots, taken at monitor ticks and at the replay horizon.  After
``ThriftyService.replay`` the sink must therefore hold, for every counter
and histogram child, a last sample equal to the live value, at most one
sample per instant, and only samples stamped with a tick or the horizon.
The group counters and latency histograms are the runtime's books, read
by its collector at each scrape, so they must equal the replay's report.
"""

from __future__ import annotations

import pytest

from repro.core.service import ThriftyService
from repro.obs import Counter, Histogram, MemorySink, Observer
from repro.units import DAY, HOUR
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import assert_counters_match_books, tiny_config


def _replay(horizon: float):
    config = tiny_config(num_tenants=24, seed=13, replication_factor=2)
    library = SessionLogGenerator(config, sessions_per_size=2).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    observer = Observer(MemorySink())
    service = ThriftyService(config, observer=observer)
    service.deploy(workload)
    service.arm_chaos(2 * DAY, horizon=horizon)
    report = service.replay(until=horizon)
    ticks = {t for r in report.group_reports.values() for t, _ in r.rt_ttp_samples}
    tuning = {name: rt.router.tuning_instance.name for name, rt in service._runtimes.items()}
    return observer, ticks, report, tuning


# A horizon on a monitor tick, and one between two ticks.
@pytest.fixture(scope="module", params=[DAY, 20 * HOUR + 250.0], ids=["on-tick", "off-tick"])
def replayed(request):
    observer, ticks, report, tuning = _replay(request.param)
    return observer, ticks, request.param, report, tuning


def _aggregated(observer):
    return [f for f in observer.metrics if isinstance(f, (Counter, Histogram))]


def _samples_by_child(observer):
    by_child = {}
    for sample in observer.memory_sink().metrics:
        if sample.kind in ("counter", "histogram"):
            by_child.setdefault((sample.name, sample.labels), []).append(sample)
    return by_child


def test_the_replay_reaches_the_fault_plane(replayed):
    observer, *_ = replayed
    assert sum(observer.node_failures.snapshot().values()) > 0
    assert observer.instance_degraded_seconds.snapshot()


def test_last_sample_equals_the_live_value(replayed):
    observer, *_ = replayed
    by_child = _samples_by_child(observer)
    children = set()
    for family in _aggregated(observer):
        for key in family.snapshot():
            children.add((family.name, key))
            last = by_child[(family.name, key)][-1]
            labels = dict(key)
            if isinstance(family, Counter):
                assert last.value == family.value(**labels)
            else:
                assert last.value == sum(family.counts(**labels).values())
                assert dict(last.buckets) == family.counts(**labels)
                assert last.total == family.snapshot()[key].total
    assert children == set(by_child)


def test_no_child_has_two_samples_at_one_instant(replayed):
    observer, *_ = replayed
    for samples in _samples_by_child(observer).values():
        times = [s.time for s in samples]
        assert len(times) == len(set(times))
        assert times == sorted(times)


def test_samples_are_stamped_at_ticks_or_the_horizon(replayed):
    observer, ticks, horizon, *__ = replayed
    stamps = {s.time for samples in _samples_by_child(observer).values() for s in samples}
    assert horizon in stamps
    assert len(stamps) > 1  # the monitor ticks snapshot too, not only the horizon
    assert stamps <= ticks | {horizon}



def test_group_counters_equal_the_books(replayed):
    observer, *_, report, __ = replayed
    assert_counters_match_books(observer, report)


def test_overflow_counts_agree_with_the_route_events(replayed):
    # Two overflow facts: ``overflow_queries`` counts overflows onto the
    # group's MPPDB_0 only; the routing counter's ``overflow`` child counts
    # every all-busy pick, also those onto a surviving replica while
    # MPPDB_0 is down.
    observer, *_, report, tuning = replayed
    for group, r in report.group_reports.items():
        overflows = [
            event.attrs["instance"]
            for span in observer.memory_sink().spans_of("query")
            if span.attrs["group"] == group
            for event in span.events
            if event.name == "route" and event.attrs["outcome"] == "overflow"
        ]
        assert r.overflow_queries == overflows.count(tuning[group]), group
        routed = observer.routing_decisions.value(group=group, outcome="overflow")
        assert routed == len(overflows), group
