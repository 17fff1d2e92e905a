"""SLA accounting tests."""

import pytest

from repro.core.sla import SLARecord, SLAReport
from repro.errors import DeploymentError


def _record(normalized=1.0, tenant_id=1, group="tg0", submit=0.0, template="tpch.q1"):
    baseline = 100.0
    return SLARecord(
        tenant_id=tenant_id,
        group_name=group,
        instance_name="tg0/mppdb0",
        template=template,
        submit_time_s=submit,
        baseline_latency_s=baseline,
        observed_latency_s=baseline * normalized,
    )


class TestSLARecord:
    def test_normalized(self):
        assert _record(1.2).normalized == pytest.approx(1.2)

    def test_met_at_or_below_one(self):
        assert _record(1.0).met
        assert _record(0.5).met  # faster than baseline (bigger MPPDB)
        assert not _record(1.01).met

    def test_zero_baseline(self):
        record = SLARecord(
            tenant_id=1,
            group_name="g",
            instance_name="i",
            template="t",
            submit_time_s=0.0,
            baseline_latency_s=0.0,
            observed_latency_s=0.0,
        )
        assert record.normalized == 1.0
        assert record.met

    def test_negative_latency_rejected(self):
        with pytest.raises(DeploymentError):
            _record(-1.0)


class TestSLAReport:
    def test_fraction_met(self):
        report = SLAReport([_record(1.0), _record(1.5), _record(0.9), _record(1.0)])
        assert report.fraction_met == pytest.approx(0.75)

    def test_empty_report(self):
        report = SLAReport([])
        assert report.fraction_met == 1.0
        assert report.worst_normalized == 1.0
        assert report.mean_normalized() == 1.0

    def test_worst_and_mean(self):
        report = SLAReport([_record(1.0), _record(1.8)])
        assert report.worst_normalized == pytest.approx(1.8)
        assert report.mean_normalized() == pytest.approx(1.4)

    def test_violations_time_ordered(self):
        report = SLAReport(
            [_record(1.5, submit=10.0), _record(1.2, submit=5.0), _record(0.9, submit=1.0)]
        )
        violations = report.violations()
        assert [v.submit_time_s for v in violations] == [5.0, 10.0]

    def test_filters(self):
        records = [
            _record(1.0, tenant_id=1, group="a", submit=0.0),
            _record(1.5, tenant_id=2, group="a", submit=10.0),
            _record(1.0, tenant_id=1, group="b", submit=20.0),
        ]
        report = SLAReport(records)
        assert len(report.window(5.0, 25.0)) == 2

    def test_summary_keys(self):
        summary = SLAReport([_record(1.0)]).summary()
        assert set(summary) == {
            "queries",
            "fraction_met",
            "mean_normalized",
            "worst_normalized",
        }
