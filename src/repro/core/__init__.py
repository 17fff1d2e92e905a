"""Thrifty core: Tenant-Driven Design and the run-time service (Ch. 3–6).

* :mod:`~repro.core.tdd` — cluster design + tenant placement for one tenant
  group (Chapter 4.1–4.2): ``A`` node groups, one MPPDB each, every MPPDB
  hosting every tenant of the group (replication factor = A).
* :mod:`~repro.core.routing` — the Algorithm 1 query router plus ablation
  policies.
* :mod:`~repro.core.advisor` / :mod:`~repro.core.master` — the Deployment
  Advisor (grouping → deployment plan) and Deployment Master (apply the
  plan on the machine pool).
* :mod:`~repro.core.monitor` — the Tenant Activity Monitor: per-group
  concurrent-active-tenant tracking and RT-TTP over a sliding window.
* :mod:`~repro.core.scaling` — lightweight elastic scaling (Chapter 5.1)
  with over-active tenant identification, plus the pessimistic and
  disabled policies for ablation.
* :mod:`~repro.core.tuning` — manual tuning of the ``U`` parameter of the
  tuning MPPDB (Chapter 6).
* :mod:`~repro.core.sla` / :mod:`~repro.core.pricing` — normalized-latency
  SLA accounting and the per-node/active-usage pricing model.
* :mod:`~repro.core.runtime` / :mod:`~repro.core.service` — the replay
  engine driving composed logs through a deployed group, and the
  :class:`~repro.core.service.ThriftyService` facade tying it all together.
"""

from .advisor import DeploymentAdvisor
from .deployment import DeploymentPlan, GroupDeployment
from .fault import DEFAULT_RETRY_POLICY, FaultRecord, RetryPolicy
from .divergent import (
    DivergentDesign,
    DivergentDesigner,
    minimum_tuning_nodes_for_templates,
    template_serial_fraction,
)
from .heterogeneous import assign_node_classes, plan_speed_summary
from .master import DeployedGroup, DeploymentMaster
from .monitor import GroupActivityMonitor, TenantActivityMonitor
from .pricing import PricingModel, TenantInvoice
from .routing import (
    AlwaysTuningRouter,
    QueryRouter,
    RandomFreeRouter,
    RoundRobinRouter,
    TDDRouter,
)
from .runtime import GroupRuntime, RuntimeReport
from .security import AdjustableSecurityPolicy, SecurityScheme, secure_log
from .scaling import (
    DisabledScaling,
    LightweightScaling,
    ProactiveScaling,
    ScalingAction,
    WholeGroupScaling,
)
from .service import ServiceReport, ThriftyService
from .sla import SLALedger, SLARecord, SLAReport
from .tdd import ClusterDesign, TenantPlacement, design_for_group
from .tuning import ManualTuner, recommended_tuning_nodes

__all__ = [
    "DeploymentAdvisor",
    "DeploymentPlan",
    "GroupDeployment",
    "RetryPolicy",
    "FaultRecord",
    "DEFAULT_RETRY_POLICY",
    "DivergentDesign",
    "DivergentDesigner",
    "minimum_tuning_nodes_for_templates",
    "template_serial_fraction",
    "assign_node_classes",
    "plan_speed_summary",
    "DeployedGroup",
    "DeploymentMaster",
    "GroupActivityMonitor",
    "TenantActivityMonitor",
    "PricingModel",
    "TenantInvoice",
    "QueryRouter",
    "TDDRouter",
    "RandomFreeRouter",
    "RoundRobinRouter",
    "AlwaysTuningRouter",
    "GroupRuntime",
    "RuntimeReport",
    "AdjustableSecurityPolicy",
    "SecurityScheme",
    "secure_log",
    "ScalingAction",
    "LightweightScaling",
    "ProactiveScaling",
    "WholeGroupScaling",
    "DisabledScaling",
    "ServiceReport",
    "ThriftyService",
    "SLALedger",
    "SLARecord",
    "SLAReport",
    "ClusterDesign",
    "TenantPlacement",
    "design_for_group",
    "ManualTuner",
    "recommended_tuning_nodes",
]
