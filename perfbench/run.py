"""Closed-loop benchmark of the nilpow command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`. One client runs one job at a time in this process, each job
starting when the previous one returns, until the next job would end past
`--seconds` (and at least two jobs). Every job calls `nilpow.cli.main(argv)`
and its output is checked against `reference.json`.

The seed picks each job's prime p in [30011, 40000), passed as
`--field fp:<p>`, and the order in which `check-suite` walks its pool of
(suite seed, prime) pairs.

`--trace 0` prints the end-to-end metrics. Their times are in seconds at
the reference machine speed (see speed.py); the raw wall times are on the
line before the result. `--trace 1` wraps the package's modules (see
spans.py), runs each input twice, traced then untraced, prints the
per-module metrics in raw seconds and writes the spans to
`.perfbench_out/`. Lines before the last describe the environment and the
jobs; the last line is the JSON result. predictions.md lists the metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: with the client's own thread this stays within the 2 cores
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# NILPOW_CACHE silently turns on --cache
os.environ.pop("NILPOW_CACHE", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_JOBS = 2
SETUP_REPEATS = 7


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_package():
    if not (SRC / "nilpow" / "cli.py").is_file():
        sys.exit(f"error: no nilpow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    from nilpow import cli

    return numpy, cli


@dataclass
class Timed:
    """Wall seconds of one measured interval and its monotonic bounds."""

    wall: float
    start: float
    end: float


def measure_setup(argv: list[str]) -> list[Timed]:
    """Times for a fresh interpreter to import nilpow and parse argv."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from nilpow.cli import make_parser; "
        f"make_parser().parse_args({argv!r})"
    )
    out = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        t1 = time.monotonic()
        if k:  # the first call may compile bytecode
            out.append(Timed(t1 - t0, t0, t1))
    return out


def environment(numpy, seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "seed": seed,
    }


def caches_of_package() -> list:
    """The package's lru caches. They are emptied between jobs, as a fresh
    CLI process would start with them empty."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "nilpow" or name.startswith("nilpow."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def tail(times: list[float]) -> dict | None:
    """Highest of p99, p95, p90, p75 with at least 10 jobs beyond it."""
    n = len(times)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            k = min(n - 1, int(n * q / 100))
            return {"value": sorted(times)[k], "percentile": q, "samples": n}
    return None


@dataclass
class Jobs:
    timed: list[Timed] = field(default_factory=list)
    inputs: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    traced: list[int] = field(default_factory=list)


def run_jobs(args: argparse.Namespace, reference: dict, cli, tracer) -> Jobs:
    """The closed loop: one job at a time until the window is spent.

    With a tracer, jobs come in pairs on the same input, the first traced
    and the second not, so that the pairs measure the tracing overhead."""
    rng = random.Random(args.seed)
    primes = workloads.odd_primes()
    pool = reference["check-suite"]["pool"]
    pool = rng.sample(pool, len(pool))

    def draws():
        for k in itertools.count():
            if args.workload == "check-suite":
                entry = pool[k % len(pool)]
                yield entry["prime"], entry["seed"]
            else:
                yield rng.choice(primes), None

    inputs = draws()
    caches = caches_of_package()
    scratch = OUT / f"cache-{os.getpid()}"
    jobs = Jobs()
    start = time.monotonic()
    try:
        while True:
            job_id = len(jobs.timed)
            trace_this = tracer is not None and job_id % 2 == 0
            if tracer is None or trace_this:
                prime, check_seed = next(inputs)
            jobs.inputs.append([check_seed, prime] if check_seed is not None else prime)
            job = workloads.plan_job(args.workload, prime, check_seed, scratch / str(job_id))
            for c in caches:
                c.cache_clear()
            gc.collect()
            if trace_this:
                tracer.start_job(job_id)
                tracer.install()
                jobs.traced.append(job_id)
            t0 = time.monotonic()
            try:
                # cli.main is looked up per call, so the tracer's wrapper is used
                wall = workloads.execute(job, lambda argv: cli.main(argv))
                t1 = time.monotonic()
                why = workloads.check(job, reference)
            except Exception:  # a raising job is a failed job; the run goes on
                t1 = time.monotonic()
                wall = t1 - t0
                why = "raised " + traceback.format_exc(limit=-3)
            finally:
                if trace_this:
                    tracer.uninstall()
                if job.cache_dir is not None:
                    shutil.rmtree(job.cache_dir, ignore_errors=True)
            jobs.timed.append(Timed(wall, t0, t1))
            if why is not None:
                jobs.failures.append(f"job {job_id} (fp:{prime}): {why}")
            p50 = statistics.median(t.wall for t in jobs.timed)
            if len(jobs.timed) >= MIN_JOBS and time.monotonic() - start + p50 > args.seconds:
                return jobs
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(args, env: dict, jobs: Jobs, setups: list[Timed], sampler, info: dict) -> dict:
    """The `--trace 0` metrics; times at the reference machine speed."""
    walls = [t.wall - sampler.busy(t.start, t.end) for t in jobs.timed]  # the probe's time is not the job's
    job_probes = [sampler.local_probe(t.start, t.end) for t in jobs.timed]
    setup_probes = [sampler.local_probe(t.start, t.end) for t in setups]
    alpha = workloads.ELASTICITY[args.workload]
    at_ref = [speed.scale(w, p, alpha) for w, p in zip(walls, job_probes)]
    setup_at_ref = [speed.scale(t.wall, p, workloads.SETUP_ELASTICITY) for t, p in zip(setups, setup_probes)]
    path = OUT / f"jobs-{args.workload}-seed{args.seed}.json"
    OUT.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "env": env,
                "jobs": [[w, p] for w, p in zip(walls, job_probes)],
                "setups": [[t.wall, p] for t, p in zip(setups, setup_probes)],
            }
        )
    )
    info.update(
        raw_job_p50_s=statistics.median(walls),
        raw_job_tail_s=tail(walls),
        job_tail_s=tail(at_ref),
        raw_setup_s=statistics.median(t.wall for t in setups),
        probe_p50_s=statistics.median(d for _, d in sampler.samples),
        jobs_file=str(path.relative_to(ROOT)),
    )
    return {
        "job_p50_s": (statistics.median(at_ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_at_ref), "s"),
    }


def per_layer(args, env: dict, jobs: Jobs, tracer, info: dict) -> dict:
    """The `--trace 1` metrics, in raw seconds; writes the spans out."""
    import spans

    walls = [t.wall for t in jobs.timed]
    pairs = [walls[j] - walls[j + 1] for j in jobs.traced if j + 1 < len(walls)]
    metrics = {m: (v, spans.METRIC_UNITS[m]) for m, v in spans.layer_metrics(tracer, jobs.traced).items()}
    metrics["trace.job_p50_s"] = (statistics.median(walls[j] for j in jobs.traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(pairs), "s")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {**env, "traced_jobs": jobs.traced})
    info.update(raw_job_p50_s=statistics.median(walls), spans=len(tracer.spans), spans_file=str(path.relative_to(ROOT)))
    if tracer.missing:
        print(f"warning: not traced, missing: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    return metrics


def run(args: argparse.Namespace, reference: dict) -> dict:
    """One run of ``args.workload``; returns the result object."""
    numpy, cli = import_package()
    env = environment(numpy, args.seed)
    if args.trace:
        import spans

        tracer = spans.Tracer()
        jobs = run_jobs(args, reference, cli, tracer)
    else:
        with speed.Sampler() as sampler:
            setups = measure_setup(workloads.plan_job(args.workload, workloads.PRIME_LO, 0, OUT).calls[0].argv)
            jobs = run_jobs(args, reference, cli, None)
    env["inputs"] = jobs.inputs
    print(json.dumps({"env": env}))
    for line in jobs.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {"workload": args.workload, "jobs": len(jobs.timed), "failed_frac": len(jobs.failures) / len(jobs.timed)}
    if args.trace:
        metrics = per_layer(args, env, jobs, tracer, info)
    else:
        metrics = end_to_end(args, env, jobs, setups, sampler, info)
    print(json.dumps(info))
    return {
        "correct": not jobs.failures,
        "attempted": len(jobs.timed),
        "failed": len(jobs.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    result = run(parse_args(argv), workloads.load_reference(HERE / "reference.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
