"""Regenerate reference.json, the answers every benchmark job is checked
against.

    python3 perfbench/make_reference.py

Each workload is run over two primes and the prime-independent answers
must agree (dimension agreement across primes). The check-suite pool
holds (suite seed, prime) pairs with the exact reports for each.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
import workloads

POOL_SIZE = 4
POOL_SEED = 20171220


def answers(cli, workload: str, prime: int, check_seed=None) -> workloads.Job:
    job = workloads.plan_job(workload, prime, check_seed, run.OUT / "reference-cache")
    workloads.execute(job, cli.main)
    return job


def main() -> int:
    _, cli = run.import_package()
    primes = workloads.odd_primes()
    ref: dict = {}
    for name, code in (("certify-m2", 0), ("tower-m3", 2)):
        digests = [
            workloads.certificate_digest(answers(cli, name, p).calls[0].stdout)
            for p in (primes[0], primes[-1])
        ]
        assert digests[0] == digests[1], f"{name}: answers differ between primes"
        ref[name] = {"exit_code": code, "certificate": digests[0]}

    csvs = []
    for p in (primes[0], primes[-1]):
        job = answers(cli, "dims-cache", p)
        entries = len(list(job.cache_dir.glob("*.json")))
        assert job.calls[0].stdout == job.calls[1].stdout, "warm output differs from cold"
        csvs.append(job.calls[0].stdout)
        for f in job.cache_dir.glob("*.json"):
            f.unlink()
    assert csvs[0] == csvs[1], "dims-cache: answers differ between primes"
    ref["dims-cache"] = {"exit_code": 0, "csv": csvs[0], "cache_entries": entries}
    job.cache_dir.rmdir()

    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        seed, prime = rng.randrange(2**32), rng.choice(primes)
        job = answers(cli, "check-suite", prime, seed)
        assert all(c.code == 0 for c in job.calls), f"check suite failed for seed {seed} over fp:{prime}"
        pool.append({"seed": seed, "prime": prime, "reports": [c.stdout for c in job.calls]})
        print(f"pool entry {len(pool)}: seed {seed}, fp:{prime}", file=sys.stderr)
    # the reports that use no random element agree across primes
    fixed = [
        [line for line in report.splitlines() if "random ideal" not in line and "seed=" not in line]
        for report in pool[0]["reports"]
    ]
    for entry in pool[1:]:
        got = [
            [line for line in report.splitlines() if "random ideal" not in line and "seed=" not in line]
            for report in entry["reports"]
        ]
        assert got == fixed, "check-suite: deterministic reports differ between primes"
    ref["check-suite"] = {"exit_code": 0, "pool": pool}

    path = run.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
