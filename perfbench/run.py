"""Thrifty's benchmark: plan and replay workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload replay --seed 20130625 --seconds 45 --trace 0

Each repetition runs ``worker.py`` in a fresh single-threaded interpreter,
so no workload or library cache carries over.  Repetitions start while the
next one is expected to end within ``--seconds`` (at least two run).
``--trace 0`` reports the end-to-end metrics over untraced repetitions:
``ops_per_s`` from the repetition with the best host-speed-corrected
time (see ``worker.Stopwatch``), the others as medians.  ``--trace 1``
runs one untraced repetition, then at least two traced ones, and reports
the per-layer metrics plus ``trace.overhead``; spans go to
``.perfbench-out/``.

Every repetition checks its outcome, and all repetitions of a run must
agree on the outcome fingerprint and on every deterministic figure.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan", "replay", "replay-obs-chaos")
MIN_REPS = 2
#: Every run must end well inside the 180 s a run is allowed.
HARD_LIMIT_S = 170.0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "nodes_used_fraction": "fraction",
}
#: Outcome figures printed in the report; deterministic for one seed.
REPORTED = {
    "sla_met_fraction": "fraction",
    "query_slowdown_p50": "ratio",
    "query_slowdown_p999": "ratio",
    "failed_query_fraction": "fraction",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction", ".overhead")):
        return "ratio"
    return "count"


def _worker(workload: str, seed: int, traced: bool, timeout: float) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed)]
    if traced:
        out = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-spans.npz"
        command += ["--spans-out", str(out)]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _repetitions(workload: str, seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """Run repetitions while the next one is expected to end within ``seconds``.

    With ``trace`` the first repetition is untraced and the rest traced,
    so at least two traced repetitions can be compared.
    """
    started = time.perf_counter()
    results: List[Dict[str, Any]] = []
    while True:
        rep_started = time.perf_counter()
        remaining = HARD_LIMIT_S - (rep_started - started)
        results.append(_worker(workload, seed, traced=trace and bool(results), timeout=remaining))
        now = time.perf_counter()
        expected_end = now - started + (now - rep_started)
        if len(results) >= MIN_REPS + trace and expected_end > seconds or expected_end > HARD_LIMIT_S:
            return results


def _agree(results: List[Dict[str, Any]], key: str, errors: List[str]) -> Any:
    """The value every repetition reports under ``key`` (an error if they differ)."""
    values = [json.dumps(r[key], sort_keys=True) for r in results]
    if len(set(values)) != 1:
        errors.append(f"repetitions disagree on {key}: {sorted(set(values))}")
    return results[0][key]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=20130625)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no Thrifty sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = _repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    errors = [f"rep {i}: {e}" for i, r in enumerate(results) for e in r["errors"]]
    outcome = _agree(results, "outcome", errors)
    for i, r in enumerate(results):
        print(f"rep {i} {'traced' if r['traced'] else 'untraced'}: setup {r['setup_s']:.3f} s, "
              f"measured {r['op_s']:.3f} s ({r['op_reference_s']:.3f} s at reference host speed) "
              f"for {r['ops']} ops, peak {r['peak_rss_mb']:.1f} MB")
    print(f"fingerprint {outcome['fingerprint']} (partition {outcome['partition']}, "
          f"{outcome['groups']} groups, nodes {outcome['nodes_used']}/{outcome['nodes_requested']})")
    if "queries" in outcome:
        print("queries " + ", ".join(f"{k} {v}" for k, v in outcome["queries"].items())
              + f"; node failures {outcome['node_failures']}"
              + f"; slowdown samples {outcome['query_slowdown_samples']}")

    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            if _layer_unit(name) != "s" and len(set(values)) != 1:
                errors.append(f"traced repetitions disagree on {name}: {values}")
            layers[name] = statistics.median(values)
        layers["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0
        )
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            # Contention from outside the process slows repetitions at
            # random, by up to a half, and never speeds one up.
            "ops_per_s": plain[0]["ops"] / min(r["op_reference_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "nodes_used_fraction": outcome["nodes_used_fraction"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, unit in REPORTED.items():
            if name in outcome:
                print(f"{name} {outcome[name]!r} {unit}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
