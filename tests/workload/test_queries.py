"""Query template and TPC-H/DS set tests."""

import pytest

from repro.errors import WorkloadError
from repro.mppdb.scaleout import AmdahlScaleOut, LinearScaleOut
from repro.workload.queries import QueryTemplate, template_by_name
from repro.workload.tpcds import TPCDS_TEMPLATES, tpcds_template
from repro.workload.tpch import TPCH_TEMPLATES, tpch_template


class TestQueryTemplate:
    def test_dedicated_latency(self):
        template = QueryTemplate("t", "tpch", seconds_per_gb=0.01)
        # 0.01 s/GB x 200 GB / 2 nodes = 1 s.
        assert template.dedicated_latency_s(200.0, 2) == pytest.approx(1.0)

    def test_linear_flag(self):
        linear = QueryTemplate("a", "tpch", 0.01, LinearScaleOut())
        amdahl = QueryTemplate("b", "tpch", 0.01, AmdahlScaleOut(0.2))
        assert linear.is_linear_scale_out
        assert not amdahl.is_linear_scale_out

    def test_validation(self):
        with pytest.raises(WorkloadError):
            QueryTemplate("", "tpch", 0.01)
        with pytest.raises(WorkloadError):
            QueryTemplate("x", "mysql", 0.01)
        with pytest.raises(WorkloadError):
            QueryTemplate("x", "tpch", 0.0)
        with pytest.raises(WorkloadError):
            QueryTemplate("x", "tpch", 0.01).dedicated_latency_s(-1.0, 2)


class TestTPCH:
    def test_all_22_queries(self):
        assert sorted(TPCH_TEMPLATES) == list(range(1, 23))

    def test_q1_is_linear(self):
        # Figure 1.1a: Q1 scales out linearly.
        assert tpch_template(1).is_linear_scale_out

    def test_q19_is_non_linear(self):
        # Figure 1.1c: Q19 does not scale out linearly.
        q19 = tpch_template(19)
        assert not q19.is_linear_scale_out
        assert isinstance(q19.curve, AmdahlScaleOut)

    def test_names_and_benchmark(self):
        for number, template in TPCH_TEMPLATES.items():
            assert template.name == f"tpch.q{number}"
            assert template.benchmark == "tpch"

    def test_unknown_query_rejected(self):
        with pytest.raises(WorkloadError):
            tpch_template(23)

    def test_q1_latency_order_of_magnitude(self):
        # ~1 s on a 2-node / 200 GB tenant (the calibration note in the
        # module docstring).
        latency = tpch_template(1).dedicated_latency_s(200.0, 2)
        assert 0.3 < latency < 3.0


class TestTPCDS:
    def test_twenty_queries(self):
        assert len(TPCDS_TEMPLATES) == 20

    def test_names_and_benchmark(self):
        for number, template in TPCDS_TEMPLATES.items():
            assert template.name == f"tpcds.q{number}"
            assert template.benchmark == "tpcds"

    def test_q72_is_heaviest(self):
        # TPC-DS Q72 is the notorious catalog/inventory join.
        costs = {n: t.seconds_per_gb for n, t in TPCDS_TEMPLATES.items()}
        assert max(costs, key=costs.get) == 72

    def test_unknown_query_rejected(self):
        with pytest.raises(WorkloadError):
            tpcds_template(1)


class TestTemplateByName:
    def test_resolves_both_benchmarks(self):
        assert template_by_name("tpch.q19") is tpch_template(19)
        assert template_by_name("tpcds.q72") is tpcds_template(72)

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            template_by_name("tpch.q99")
        with pytest.raises(WorkloadError):
            template_by_name("")

    def test_every_registered_template_resolves_to_itself(self):
        for registry in (TPCH_TEMPLATES, TPCDS_TEMPLATES):
            for template in registry.values():
                assert template_by_name(template.name) is template
        # Repeated lookups return the same object, not a copy.
        assert template_by_name("tpch.q1") is template_by_name("tpch.q1")
