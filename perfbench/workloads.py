"""The four benchmark workloads: the CLI calls one job makes, and the check
of their output against the committed reference answers.

Every job runs `nilpow.cli.main(argv)` in-process over a prime field F_p
with p drawn per job from [30011, 40000). All reference answers except
those of `check-suite` are independent of p. The check suites draw their
random elements with `random.randrange(p)`, which consumes a p-dependent
number of random bits, so their `checked` counts depend on both the suite
seed and p: `check-suite` jobs take their (seed, prime) pairs from a pool
committed with its answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PRIME_LO, PRIME_HI = 30011, 40000


def odd_primes(lo: int = PRIME_LO, hi: int = PRIME_HI) -> list[int]:
    """Odd primes in [lo, hi), by trial division."""
    out = []
    for n in range(lo | 1, hi, 2):
        d = 3
        while d * d <= n and n % d:
            d += 2
        if d * d > n:
            out.append(n)
    return out


CERTIFY_M2 = "certify --i 1 --generators 2 --nil 2,2 --max-degree 24"
TOWER_M3 = "certify --i 1 --generators 3 --nil 2,2,2 --max-degree 10"
DIMS = "dims --generators 2 --nil 3,3 --max-degree 12 --levels 3"
# (m; nil; D) of the four suite presentations at their table degrees
SUITE_SPECS = [
    "--generators 2 --nil 2,2 --max-degree 12",
    "--generators 2 --nil 3,3 --max-degree 8",
    "--generators 3 --nil 2,2,2 --max-degree 8",
    "--generators 1 --nil 4 --max-degree 8",
]
CHECK_TRIALS = 100


@dataclass
class Call:
    """One CLI call of a job and what it left behind."""

    argv: list[str]
    code: int | None = None
    stdout: str = ""
    stderr: str = ""


@dataclass
class Job:
    """The calls of one job. ``prime`` and ``check_seed`` are its inputs."""

    workload: str
    prime: int
    check_seed: int | None
    calls: list[Call]
    cache_dir: Path | None = None


def plan_job(workload: str, prime: int, check_seed: int | None, scratch: Path) -> Job:
    field = ["--field", f"fp:{prime}"]
    if workload == "certify-m2":
        return Job(workload, prime, None, [Call(CERTIFY_M2.split() + field)])
    if workload == "tower-m3":
        return Job(workload, prime, None, [Call(TOWER_M3.split() + field)])
    if workload == "dims-cache":
        argv = DIMS.split() + field + ["--cache", str(scratch)]
        return Job(workload, prime, None, [Call(argv), Call(list(argv))], cache_dir=scratch)
    if workload == "check-suite":
        return Job(
            workload,
            prime,
            check_seed,
            [
                Call(
                    ["check", "all"]
                    + spec.split()
                    + field
                    + ["--trials", str(CHECK_TRIALS), "--seed", str(check_seed)]
                )
                for spec in SUITE_SPECS
            ],
        )
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ["certify-m2", "tower-m3", "check-suite", "dims-cache"]
# How strongly each workload's job time follows the machine-speed probe
# (speed.py), and that of interpreter set-up; fitted by fit_speed.py.
ELASTICITY = {"certify-m2": 1.0, "tower-m3": 0.6, "check-suite": 0.7, "dims-cache": 0.7}
SETUP_ELASTICITY = 0.7


def execute(job: Job, main: Callable[[list[str]], int]) -> float:
    """Run the job's calls in order; returns their wall time in seconds.

    Output is captured per call. An exception propagates to the caller,
    which counts the job as failed.
    """
    elapsed = 0.0
    for call in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            call.code = main(call.argv)
            elapsed += time.perf_counter() - t0
        call.stdout, call.stderr = out.getvalue(), err.getvalue()
    return elapsed


# -- output checks -------------------------------------------------------------


def certificate_digest(text: str) -> dict:
    """The parts of a certificate that do not depend on the prime."""
    cert = json.loads(text)
    per_degree: dict[int, int] = {}
    for g in cert["generators"]:
        per_degree[g["degree"]] = per_degree.get(g["degree"], 0) + 1
    spec = {k: v for k, v in cert["spec"].items() if k != "field"}
    return {
        "spec": spec,
        "verdict": cert["verdict"],
        "n": cert["n"],
        "bound": cert["bound"],
        "reason": cert.get("reason"),
        "dims": cert["dims"],
        "generators_per_degree": sorted([d, c] for d, c in per_degree.items()),
    }


def check(job: Job, reference: dict) -> str | None:
    """None when every output of the job matches the reference, else why not."""
    ref = reference[job.workload]
    for k, call in enumerate(job.calls):
        if call.code != ref["exit_code"]:
            return f"call {k} exited {call.code}, expected {ref['exit_code']}: {call.stderr.strip()[-200:]}"
    if job.workload in ("certify-m2", "tower-m3"):
        text = job.calls[0].stdout
        field = json.loads(text)["spec"]["field"]
        if field != f"fp:{job.prime}":
            return f"certificate over {field}, job asked for fp:{job.prime}"
        got = certificate_digest(text)
        for key, want in ref["certificate"].items():
            if got[key] != want:
                return f"certificate {key} is {got[key]!r}, expected {want!r}"
        return None
    if job.workload == "dims-cache":
        cold, warm = job.calls
        if cold.stdout != ref["csv"]:
            return "cold CSV differs from the reference"
        if warm.stdout != cold.stdout:
            return "warm CSV differs from the cold one"
        entries = len(list(job.cache_dir.glob("*.json")))
        if entries != ref["cache_entries"]:
            return f"cache holds {entries} entries, expected {ref['cache_entries']}"
        return None
    if job.workload == "check-suite":
        entry = next(
            (e for e in ref["pool"] if e["seed"] == job.check_seed and e["prime"] == job.prime),
            None,
        )
        if entry is None:
            return f"no reference for seed {job.check_seed} over fp:{job.prime}"
        for spec, call, want in zip(SUITE_SPECS, job.calls, entry["reports"]):
            if call.stdout != want:
                return f"check all {spec}: reports differ from the reference"
        return None
    raise ValueError(f"unknown workload {job.workload!r}")


def load_reference(path: str | os.PathLike) -> dict:
    return json.loads(Path(path).read_text())
