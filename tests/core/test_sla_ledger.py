"""The SLA ledger against the per-completion record list it replaced.

The golden failover replay runs with :func:`sla_oracle.record_completions`
beside it: every group's ledger rows must equal the records the old
runtime appended, and every report figure must equal the old fold over
them, to the bit.  Counting and folding must not build the rows.
"""

from __future__ import annotations

import pytest

from repro.core.service import ServiceReport
from repro.core.sla import SLALedger, SLARecord, SLAReport
from repro.errors import DeploymentError
from tests.core import sla_oracle
from tests.core.test_runtime_golden import _run


@pytest.fixture(scope="module")
def replayed():
    patch = pytest.MonkeyPatch()
    rows = sla_oracle.record_completions(patch)
    try:
        (reports, __, __), __ = _run("failover")
    finally:
        patch.undo()
    service = ServiceReport({r.group_name: r for r in reports}, nodes_used=1, nodes_requested=1)
    return reports, service, rows


@pytest.fixture
def constructions(monkeypatch):
    """Count the SLARecords built from here on."""
    built = []
    post_init = SLARecord.__post_init__

    def counted(record):
        built.append(record)
        post_init(record)

    monkeypatch.setattr(SLARecord, "__post_init__", counted)
    return built


def _expected(reports, rows):
    return [record for r in reports for record in rows.get(r.group_name, [])]


def test_group_rows_equal_the_oracle(replayed):
    reports, __, rows = replayed
    assert sum(len(r.sla) for r in reports) > 1000
    for r in reports:
        assert r.sla.records == tuple(rows.get(r.group_name, []))
        assert r.queries_completed == len(r.sla)


def test_service_rows_equal_the_oracle_in_group_order(replayed):
    reports, service, rows = replayed
    assert service.sla.records == tuple(_expected(reports, rows))


def test_figures_equal_the_oracle_fold_without_building_rows(replayed, constructions):
    reports, service, rows = replayed
    for report, expected in [(service.sla, _expected(reports, rows))] + [
        (r.sla, rows.get(r.group_name, [])) for r in reports
    ]:
        fresh = SLAReport.combine([report])
        assert len(fresh) == len(expected)
        assert fresh.fraction_met == sla_oracle.fraction_met(expected)
        assert fresh.mean_normalized() == sla_oracle.mean_normalized(expected)
        assert fresh.worst_normalized == sla_oracle.worst_normalized(expected)
    assert constructions == []
    assert 0.0 < sla_oracle.fraction_met(_expected(reports, rows)) < 1.0


def test_records_are_built_once(replayed, constructions):
    __, service, __ = replayed
    sla = service.sla
    first = sla.records
    assert len(constructions) == len(first)
    assert sla.records is first
    assert len(constructions) == len(first)


def test_report_is_a_snapshot_of_its_ledger():
    ledger = SLALedger()
    ledger.append(1, "g", "g/mppdb0", "tpch.q1", 0.0, 10.0, 10.0)
    report = ledger.report()
    assert ledger.append(2, "g", "g/mppdb1", "tpch.q6", 5.0, 10.0, 20.0) == (2.0, False)
    assert len(report) == 1 and len(ledger.report()) == 2
    assert report.records == (SLARecord(1, "g", "g/mppdb0", "tpch.q1", 0.0, 10.0, 10.0),)
    assert ledger.met == 1


def test_ledger_rejects_negative_latency():
    with pytest.raises(DeploymentError):
        SLALedger().append(1, "g", "i", "t", 0.0, 10.0, -1.0)
