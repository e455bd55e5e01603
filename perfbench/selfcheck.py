"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

For every workload, a run against the committed reference must pass, and
a run against a reference with one deliberately wrong value, or with the
wrong expected exit code, must fail every job (failed_frac 1). The metric
names a run prints must be those BENCHMARK.json declares. Takes about
three minutes, most of it in tower-m3.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import run
import workloads


def wrong_value(name: str, ref: dict) -> dict:
    bad = copy.deepcopy(ref)
    w = bad[name]
    if name == "certify-m2":
        w["certificate"]["n"] += 1
    elif name == "tower-m3":
        w["certificate"]["dims"]["quotient"][-1][1] += 1
    elif name == "dims-cache":
        w["csv"] = w["csv"].replace("214", "215")
    elif name == "check-suite":
        for entry in w["pool"]:
            entry["reports"][0] = entry["reports"][0].replace("(100 checks", "(101 checks", 1)
    return bad


def wrong_exit(name: str, ref: dict) -> dict:
    bad = copy.deepcopy(ref)
    bad[name]["exit_code"] = 0 if bad[name]["exit_code"] else 2
    return bad


def one_run(name: str, reference: dict, trace: int = 0) -> dict:
    return run.run(argparse.Namespace(workload=name, seed=1, seconds=0, trace=trace), reference)


def main() -> int:
    reference = workloads.load_reference(run.HERE / "reference.json")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        res = one_run(name, reference)
        if res["failed"] or not res["correct"]:
            problems.append(f"{name}: failed against the committed reference")
        if set(res["metrics"]) != {m["name"] for m in declared["end_to_end"]}:
            problems.append(f"{name}: end-to-end metric names differ from BENCHMARK.json")
        for label, bad in (("wrong value", wrong_value), ("wrong exit code", wrong_exit)):
            res = one_run(name, bad(name, reference))
            if res["failed"] != res["attempted"] or res["correct"]:
                problems.append(f"{name}: a {label} in the reference failed {res['failed']} of {res['attempted']} jobs")
    res = one_run("certify-m2", reference, trace=1)
    if set(res["metrics"]) != {m["name"] for m in declared["per_layer"]}:
        problems.append("per-layer metric names differ from BENCHMARK.json")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
