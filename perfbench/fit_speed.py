"""Fit each workload's speed elasticity from the records of earlier runs.

    python3 perfbench/fit_speed.py [.perfbench_out]

Reads the `jobs-<workload>-seed<n>.json` records that `run.py --trace 0`
leaves, fits log(wall) = c + elasticity * log(probe) by least squares over
all jobs of a workload (check-suite jobs are centred per input, since their
inputs differ in cost), and prints the fit next to the run-to-run spread of
job_p50_s under the current and the fitted elasticity. Copy a fit into
workloads.ELASTICITY only together with a fresh set of runs.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import speed
import workloads


def fit(groups: list[list[tuple[float, float]]]) -> float:
    """Least-squares slope of log wall on log probe, centred per group."""
    num = den = 0.0
    for pts in groups:
        if len(pts) < 2:
            continue
        xs = [math.log(p) for _, p in pts]
        ys = [math.log(w) for w, _ in pts]
        mx, my = statistics.mean(xs), statistics.mean(ys)
        num += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den += sum((x - mx) ** 2 for x in xs)
    return num / den if den else float("nan")


def spread(runs: list[list[tuple[float, float]]], alpha: float) -> float:
    """Quartile spread, over runs, of the median scaled job time."""
    values = [statistics.median(speed.scale(w, p, alpha) for w, p in jobs) for jobs in runs]
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / ".perfbench_out"
    runs = defaultdict(list)
    groups = defaultdict(lambda: defaultdict(list))
    setups = []
    for path in sorted(out.glob("jobs-*-seed*.json")):
        name = path.name[len("jobs-") : path.name.rindex("-seed")]
        rec = json.loads(path.read_text())
        jobs = [tuple(j) for j in rec["jobs"]]
        runs[name].append(jobs)
        for inp, job in zip(rec["env"]["inputs"], jobs):
            key = json.dumps(inp) if name == "check-suite" else ""
            groups[name][key].append(job)
        setups.append([tuple(s) for s in rec["setups"]])
    for name in sorted(runs):
        alpha = fit(list(groups[name].values()))
        now = workloads.ELASTICITY[name]
        print(
            f"{name}: {len(runs[name])} runs, fitted elasticity {alpha:.2f} "
            f"(spread {spread(runs[name], alpha):.3f}); current {now} (spread {spread(runs[name], now):.3f})"
        )
    alpha = fit([[s for run in setups for s in run]])
    now = workloads.SETUP_ELASTICITY
    print(
        f"setup: fitted elasticity {alpha:.2f} (spread {spread(setups, alpha):.3f}); "
        f"current {now} (spread {spread(setups, now):.3f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
