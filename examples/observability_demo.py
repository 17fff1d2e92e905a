#!/usr/bin/env python
"""Observability end-to-end: instrument a replay, export it, read it back.

Runs a small multi-tenant replay with a :class:`repro.obs.Observer`
attached, writes the run report (``metrics.jsonl`` / ``spans.jsonl`` /
``summary.json``), then reloads the directory the way ``thrifty obs``
does and prints the top-5 busiest groups plus one group's RT-TTP
trajectory — computed *only* from the exported files, proving the export
is self-contained.

Run:  python examples/observability_demo.py [out_dir]
"""

import sys
import tempfile

from repro.analysis.report import ascii_series, format_table
from repro.config import EvaluationConfig, LogGenerationConfig
from repro.core.service import ThriftyService
from repro.obs import MemorySink, Observer, load_run_report, write_run_report
from repro.units import DAY, format_duration
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator

HORIZON = 1 * DAY


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="thrifty-obs-")

    config = EvaluationConfig(
        num_tenants=60, logs=LogGenerationConfig(horizon_days=3), seed=11
    )
    library = SessionLogGenerator(config, sessions_per_size=4).generate()
    workload = MultiTenantLogComposer(config, library).compose()

    observer = Observer(MemorySink())
    service = ThriftyService(config, observer=observer)
    advice = service.deploy(workload)
    print(
        f"deployed {config.num_tenants} tenants into {len(advice.plan)} groups "
        f"({advice.plan.consolidation_effectiveness:.1%} of nodes saved)"
    )
    service.replay(until=HORIZON)
    paths = write_run_report(
        out_dir,
        observer,
        horizon=HORIZON,
        simulator_events=service.simulator.event_counts,
        meta={"example": "observability_demo", "tenants": config.num_tenants},
    )
    print(f"run report written to {paths.directory}\n")

    # Everything below uses only the files on disk — the thrifty-obs view.
    report = load_run_report(out_dir)
    queries = report.summary["queries"]
    print(
        f"replayed {format_duration(HORIZON)}: "
        f"{queries['submitted']:.0f} submitted, {queries['completed']:.0f} completed, "
        f"{queries['sla_violations']:.0f} SLA violations"
    )

    top = report.top_groups(5)
    rows = []
    for name, submitted in top:
        info = report.summary["groups"][name]
        rows.append(
            [
                name,
                int(submitted),
                int(info["queries_completed"]),
                int(info["sla_violations"]),
                f"{info['rt_ttp_min']:.4f}",
            ]
        )
    print(
        format_table(
            ["group", "submitted", "completed", "violations", "rt_ttp_min"],
            rows,
            title="Top-5 busiest groups (by queries submitted)",
        )
    )

    busiest = top[0][0]
    trajectory = report.rt_ttp_trajectory(busiest)
    if trajectory:
        print(
            ascii_series(
                [v for __, v in trajectory], label=f"RT-TTP trajectory ({busiest})"
            )
        )
        print(
            f"  {len(trajectory)} monitor ticks, "
            f"min {min(v for __, v in trajectory):.5f}"
        )

    # Gauges write one row per change; counters and histograms write one
    # snapshot row per changed child at each monitor tick and the horizon.
    samples = report.metric_samples("thrifty_rt_ttp")
    gauges = sum(1 for row in report.metrics if row.get("type") == "gauge")
    print(f"\nmetrics.jsonl carries {len(report.metrics)} rows: {gauges} gauge samples "
          f"({len(samples)} of them thrifty_rt_ttp) and {len(report.metrics) - gauges} "
          f"counter/histogram snapshots; spans.jsonl carries {len(report.spans)} spans")


if __name__ == "__main__":
    main()
