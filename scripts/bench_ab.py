#!/usr/bin/env python3
"""A/B benchmark of two source checkouts with `perfbench/run.py`.

    python3 scripts/bench_ab.py --parent DIR --change DIR --workload W --pairs N --label L

Pair k (k = 1..N) runs
`perfbench/run.py --workload W --seed k --seconds T` once in each
checkout and alternates which side goes first, so that a drift in
machine speed falls on both sides alike. Every run is a fresh
process started in its checkout, after the `__pycache__` directories
under the checkout's `src/` are removed: a bytecode cache left in one
checkout would spare only that side the compiling that `setup_s` times
(when `PYTHONDONTWRITEBYTECODE` is set, every setup interpreter compiles
the package; else the first one writes the cache that the others read).
The result is written to `BENCH_<L>.json`: each run's result line, and
per metric and side the median, quartiles and IQR, and the number of
pairs in which the change reads lower. A run that fails or prints no
result is recorded with `"correct": false`, the file is written with the
runs made so far, and no further run starts. The exit status is 1 unless
every run reports `"correct": true` and no failed job.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in a checkout, or a
    result with `"correct": false` and the error when the run fails."""
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "error": f"exit status {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def revision(checkout: Path) -> str:
    """The checkout's git commit, marked when its tree differs from it;
    its directory name when it is no git checkout."""
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if head.returncode:
        return checkout.name
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout, capture_output=True, text=True)
    return head.stdout.strip() + (" (modified)" if dirty.stdout.strip() else "")


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the baseline")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    ap.add_argument("--seconds", type=float, default=25.0, help="window of each run (default 25)")
    ap.add_argument("--outdir", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    schedule = [(k, side) for k in range(args.pairs) for side in (("parent", "change"), ("change", "parent"))[k % 2]]
    for k, side in schedule:
        result = run_once(sides[side], args.workload, k + 1, args.seconds)
        runs.append({"pair": k, "side": side, "seed": k + 1, "result": result})
        values = {m: round(v["value"], 4) for m, v in result.get("metrics", {}).items()}
        print(f"pair {k} {side:6} seed {k + 1}: correct={result.get('correct')} {values}", file=sys.stderr)
        if "error" in result:
            print(f"error: perfbench/run.py failed in {sides[side]}: {result['error']}", file=sys.stderr)
            break

    metrics = sorted({m for r in runs for m in r["result"].get("metrics", {})})
    by = {
        (r["pair"], r["side"], m): r["result"]["metrics"][m]["value"]
        for r in runs
        for m in r["result"].get("metrics", {})
    }
    stats = {}
    for m in metrics:
        per_side = {s: [by[k, s, m] for k in range(args.pairs) if (k, s, m) in by] for s in sides}
        stats[m] = {s: summary(v) for s, v in per_side.items() if v}
        stats[m]["change_lower_pairs"] = sum(
            by[k, "change", m] < by[k, "parent", m]
            for k in range(args.pairs)
            if (k, "change", m) in by and (k, "parent", m) in by
        )
    ok = all(r["result"].get("correct") is True and r["result"].get("failed", 0) == 0 for r in runs)
    out = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "first_seed": 1,
        "parent": revision(sides["parent"]),
        "change": revision(sides["change"]),
        "all_correct": ok,
        "metrics": stats,
        "runs": runs,
    }
    path = args.outdir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for m in metrics:
        s = stats[m]
        if "parent" not in s or "change" not in s:
            continue
        print(
            f"{m}: parent {s['parent']['median']:.4g} (IQR {s['parent']['iqr']:.2g}) -> "
            f"change {s['change']['median']:.4g}, lower in {s['change_lower_pairs']} of {args.pairs} pairs"
        )
    print(f"wrote {path}; all runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
