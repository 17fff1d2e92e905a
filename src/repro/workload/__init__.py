"""Tenant workload substrate: queries, logs, and the §7.1 generator.

The paper generates close-to-realistic MPPDBaaS tenant logs in two steps:

* **Step 1 — real query log collection** (:mod:`~repro.workload.generator`):
  imitate tenants with up to 5 autonomous users submitting single TPC-H /
  TPC-DS queries or batches of up to 10, with 3–600 s think times, for
  3-hour sessions against dedicated 2/4/8/16/32-node MPPDBs, and collect
  the query logs.  We run the sessions through the fair-share execution
  engine so intra-tenant concurrency shows up in the latencies exactly as
  it would on the real system.
* **Step 2 — multi-tenant log composition** (:mod:`~repro.workload.composer`):
  sample tenant sizes from a Zipf(θ) distribution, give each tenant a
  time-zone offset, and stitch morning / afternoon / evening sessions into
  a multi-day activity log with weekends and shared public holidays.

:mod:`~repro.workload.activity` discretizes logs into fixed-width epochs —
the representation the tenant-grouping algorithms operate on (Chapter 5).
"""

from .activity import (
    ActivityMatrix,
    active_epoch_indices,
    active_tenant_ratio,
    concurrency_profile,
)
from .composer import ComposedWorkload, LazyTenantLog, MultiTenantLogComposer
from .distributions import sample_node_sizes, zipf_pmf
from .generator import SessionLibrary, SessionLogGenerator
from .io import (
    load_session_library,
    read_tenant_log,
    save_session_library,
    write_tenant_log,
)
from .logs import QueryRecord, SubmissionSource, Submissions, TenantLog, merge_intervals
from .queries import QueryTemplate, template_by_name
from .session import SessionConfig
from .tenant import TenantSpec
from .tpcds import TPCDS_TEMPLATES, tpcds_template
from .tpch import TPCH_TEMPLATES, tpch_template

__all__ = [
    "ActivityMatrix",
    "active_epoch_indices",
    "active_tenant_ratio",
    "concurrency_profile",
    "ComposedWorkload",
    "LazyTenantLog",
    "MultiTenantLogComposer",
    "sample_node_sizes",
    "zipf_pmf",
    "SessionLibrary",
    "SessionLogGenerator",
    "load_session_library",
    "read_tenant_log",
    "save_session_library",
    "write_tenant_log",
    "QueryRecord",
    "SubmissionSource",
    "Submissions",
    "TenantLog",
    "merge_intervals",
    "QueryTemplate",
    "template_by_name",
    "SessionConfig",
    "TenantSpec",
    "TPCDS_TEMPLATES",
    "tpcds_template",
    "TPCH_TEMPLATES",
    "tpch_template",
]
