#!/usr/bin/env python3
"""Scan how the nilpotency index of the ideal quotients grows with the
truncation degree for one presentation. Used to discover how large a
truncation degree a VERIFIED certificate would need.

Each D= line ends with the time and the process's peak RSS so far. On
stderr, one line per derived level and one for the ideal closure give its
seconds, its total rank over all degrees and the peak RSS so far.

Example (the three-generator case; with one BLAS thread on 2 cores, each
degree in a process of its own, degree 11 takes about 0.3 s and 49 MB,
degree 12 about 0.9 s and 62 MB, degree 13, where the quotient first
vanishes, about 2.2 s and 93 MB, degree 14 about 7.4 s and 219 MB, and
degree 15 about 53 s and 0.78 GB):

    python3 scripts/explore_nilpotency.py --generators 3 --nil 2,2,2 \
        --k 3 --degrees 8,9,10,11
"""

import argparse
import resource
import sys
import time

from nilpow import AlgebraSpec, DerivedTower, nilpotency_index
from nilpow.fields import parse_field


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux


def timed(label: str, build):
    """build(), with one stderr line: seconds, total rank, peak RSS so far."""
    t0 = time.time()
    s = build()
    rank = sum(r for _, r in s.dims())
    print(f"{label}: {time.time() - t0:.2f}s, rank {rank}, {peak_mb():.0f} MB peak RSS", file=sys.stderr, flush=True)
    return s


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--generators", type=int, required=True)
    ap.add_argument("--nil", required=True)
    ap.add_argument("--field", default="fp:32003")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--degrees", required=True, help="comma-separated truncation degrees to scan")
    args = ap.parse_args()

    nil = tuple(int(x) for x in args.nil.split(","))
    for d in (int(x) for x in args.degrees.split(",")):
        spec = AlgebraSpec(
            m=args.generators, nil=nil, field=parse_field(args.field), max_degree=d
        )
        t0 = time.time()
        tower = DerivedTower(spec)
        for i in range(1, args.k + 1):
            timed(f"D={d} level {i}", lambda: tower.level(i))
        timed(f"D={d} id(level {args.k})", lambda: tower.ideal(args.k))
        rep = nilpotency_index(tower, args.k)  # reads the ideal built above
        quot = ", ".join(f"{deg}:{q}" for deg, q in rep.quotient_dims)
        print(
            f"D={d:3d}  n(k={args.k})={rep.n}  quotient dims [{quot}]  "
            f"({time.time() - t0:.1f}s, {peak_mb():.0f} MB peak RSS)",
            flush=True,
        )
        if rep.n is not None:
            print(f"  -> a VERIFIED certificate for i={args.k - 2} needs D >= {2 * rep.n - 1}")
            break


if __name__ == "__main__":
    main()
