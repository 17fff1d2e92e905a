"""Peak memory of a replay against its simulated length.

Replays the perfbench ``replay`` tenants — 80 tenants whose node-size mix
is the Zipf expectation, seed 20130625 — from 8-day logs, with a null
observer: ``ThriftyService.replay(until=d * DAY)`` in a fresh interpreter
for each ``d``, so one run's memory never inflates the next.  Each run
reports its peak RSS (``ru_maxrss``) after deploy and after the replay,
the queries it submitted, and the history its activity monitors hold at
the end: concurrency change points and closed busy intervals.

Run from the repository root::

    PYTHONPATH=src python benchmarks/memory_probe.py --days 1 7
    PYTHONPATH=src python benchmarks/memory_probe.py --days 1 3 --max-growth-mb 15

With ``--max-growth-mb B`` the probe exits 1 when the peak RSS of the
longest replay exceeds that of the shortest by more than ``B`` MB.
Memory that follows live state, not the horizon, passes a bound sized
from what must grow: the SLA ledger's rows.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any

SEED = 20130625
TENANTS = 80
LOG_DAYS = 8
SESSIONS_PER_SIZE = 16


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _workload(config: Any) -> Any:
    """The perfbench ``replay`` tenants: the first of each size in a pool four times larger."""
    from repro.workload.composer import MultiTenantLogComposer
    from repro.workload.distributions import zipf_pmf
    from repro.workload.generator import SessionLogGenerator

    library = SessionLogGenerator(config, sessions_per_size=SESSIONS_PER_SIZE).generate()
    pool = MultiTenantLogComposer(config, library).compose(4 * TENANTS)
    sizes = sorted(config.node_sizes)
    share = zipf_pmf(len(sizes), config.theta) * TENANTS
    quota = [int(x) for x in share]
    for i in sorted(range(len(sizes)), key=lambda i: quota[i] - share[i])[: TENANTS - sum(quota)]:
        quota[i] += 1
    chosen: list[int] = []
    for size, wanted in zip(sizes, quota):
        chosen += [t.tenant_id for t in pool.tenants if t.nodes_requested == size][:wanted]
    return pool.subset(sorted(chosen))


def probe(days: float) -> dict[str, float]:
    """Deploy, replay ``days`` simulated days, and read the peak RSS."""
    from repro.config import EvaluationConfig, LogGenerationConfig
    from repro.core.service import ThriftyService
    from repro.units import DAY

    logs = LogGenerationConfig(horizon_days=LOG_DAYS, holiday_weekdays=0)
    config = EvaluationConfig(num_tenants=TENANTS, seed=SEED, logs=logs)
    service = ThriftyService(config)
    service.deploy(_workload(config))
    deployed_mb = _peak_mb()
    report = service.replay(until=days * DAY)
    peak_mb = _peak_mb()
    monitors = service.monitor.groups().values()
    return {
        "days": days,
        "queries": sum(r.queries_submitted for r in report.group_reports.values()),
        "change_points": sum(len(list(m.concurrency.changes())) for m in monitors),
        "closed_intervals": sum(len(ends) for m in monitors for __, ends in m._closed.values()),
        "deployed_mb": round(deployed_mb, 1),
        "peak_mb": round(peak_mb, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=float, nargs="+", default=[1.0, 7.0])
    parser.add_argument("--max-growth-mb", type=float, default=None)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        sys.stdout.write(json.dumps(probe(args.days[0])) + "\n")
        return 0
    rows = []
    for days in args.days:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--one", "--days", str(days)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        rows.append(json.loads(done.stdout.splitlines()[-1]))
        sys.stdout.write(json.dumps(rows[-1]) + "\n")
    if args.max_growth_mb is None:
        return 0
    shortest, longest = min(rows, key=lambda r: r["days"]), max(rows, key=lambda r: r["days"])
    growth = longest["peak_mb"] - shortest["peak_mb"]
    verdict = "within" if growth <= args.max_growth_mb else "exceeds"
    sys.stdout.write(
        f"peak RSS grew {growth:.1f} MB from {shortest['days']:g} to {longest['days']:g} days, "
        f"{verdict} the {args.max_growth_mb:g} MB bound\n"
    )
    return 0 if growth <= args.max_growth_mb else 1


if __name__ == "__main__":
    sys.exit(main())
