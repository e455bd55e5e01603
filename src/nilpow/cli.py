"""Command-line front end.

Subcommands:
  dims     degree-by-degree dimension table of the algebra and its derived
           powers, as CSV
  certify  run the generation pipeline for the i-th derived power and emit
           a JSON certificate (exit 0 VERIFIED, 2 INCONCLUSIVE, 1 error)
  check    property suites: identities | lemma1 | fk | all

Certificates are byte-identical across runs for the same configuration;
wall-clock timings go into the JSON only with --timings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from pathlib import Path

from . import cache as cache_mod
from .algebra import DerivedTower
from .certify import (
    Certificate,
    certify_generation,
    fk_identity_check,
    identity_check,
    lemma1_check,
    random_lie_ideal,
)
from .errors import NilpowError
from .fields import parse_field
from .words import AlgebraSpec, dim_component, format_word, normal_words

CERT_FORMAT_VERSION = "nilpow-cert-1"


def certificate_schema() -> dict:
    """The JSON schema certificates are published against."""
    path = Path(__file__).with_name("certificate_schema.json")
    return json.loads(path.read_text())

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generators", type=int, required=True, help="generator count m")
    p.add_argument("--nil", required=True, help="comma-separated nil exponents n1,..,nm")
    p.add_argument("--field", default="fp:32003", help="fp:<odd prime> or q")
    p.add_argument("--max-degree", type=int, required=True, help="truncation degree D")


def build_spec(args: argparse.Namespace) -> AlgebraSpec:
    nil = tuple(int(x) for x in args.nil.split(","))
    spec = AlgebraSpec(
        m=args.generators,
        nil=nil,
        field=parse_field(args.field),
        max_degree=args.max_degree,
    )
    for g in spec.dead_generators:
        print(
            f"warning: generator x{g} has nil exponent 1; it is zero and excluded "
            "from all normal words",
            file=sys.stderr,
        )
    return spec


# -- certificate serialization -----------------------------------------------


def certificate_to_dict(cert: Certificate, with_timings: bool = False) -> dict:
    spec = cert.spec
    f = spec.field
    gens = []
    for g in cert.generators:
        (d,) = g.degrees()
        gens.append(
            {
                "degree": d,
                "terms": [
                    {
                        "word": format_word(spec, normal_words(spec, d)[o], compact=False),
                        "coeff": f.format_coeff(c),
                    }
                    for o, c in g.terms(d)
                ],
            }
        )
    out = {
        "version": CERT_FORMAT_VERSION,
        "spec": cache_mod.spec_key(spec),
        "i": cert.i,
        "n": cert.n,
        "bound": cert.bound,
        "generators": gens,
        "dims": {
            "A_i": [list(t) for t in cert.dims_target],
            "closure": [list(t) for t in cert.dims_closure],
            "quotient": [list(t) for t in cert.quotient_dims],
        },
        "verdict": cert.verdict,
        "seed": 0,  # certify draws nothing at random; the field goes with a format bump
        "timings_ms": {k: round(v, 3) for k, v in cert.timings_ms.items()} if with_timings else {},
    }
    if cert.reason is not None:
        out["reason"] = cert.reason
    return out


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_dims(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    levels = args.levels
    tower = DerivedTower(spec, cache_dir=args.cache)
    header = ["degree", "dim_A"] + [f"dim_A{i}" for i in range(1, levels + 1)]
    rows = []
    for d in range(1, spec.max_degree + 1):
        rows.append(
            [d, dim_component(spec, d)] + [tower.level(i).dim_at(d) for i in range(1, levels + 1)]
        )
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    cert = certify_generation(DerivedTower(spec, cache_dir=args.cache), args.i)
    text = _dump_json(certificate_to_dict(cert, with_timings=args.timings))
    _write_out(text, args.out)
    if cert.verified:
        return EXIT_OK
    print(f"INCONCLUSIVE: {cert.reason}", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def cmd_check(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    tower = DerivedTower(spec, cache_dir=args.cache)
    reports = []
    if args.which in ("identities", "all"):
        reports.append(identity_check(spec, trials=args.trials, seed=args.seed))
    if args.which in ("lemma1", "all"):
        for i in (1, 2):
            rep = lemma1_check(tower.level(i), tower.ideal(i + 1))
            rep.name = f"lemma1[derived power {i}]"
            reports.append(rep)
        rng = random.Random(args.seed)
        n_random = max(1, args.trials // 20)
        for t in range(n_random):
            rep = lemma1_check(random_lie_ideal(spec, rng))
            rep.name = f"lemma1[random ideal {t}]"
            rep.seed = args.seed
            reports.append(rep)
    if args.which in ("fk", "all"):
        ks = [args.k] if args.which == "fk" else [1, 2, 3]
        for k in ks:
            reports.append(fk_identity_check(tower, k, trials=args.trials, seed=args.seed))
    ok = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        extra = f" seed={rep.seed}" if rep.seed is not None else ""
        print(f"{rep.name}: {status} ({rep.checked} checks{extra})")
        if not rep.passed:
            print(f"  counterexample: {rep.counterexample}")
            ok = False
    return EXIT_OK if ok else EXIT_ERROR


# -- entry point -------------------------------------------------------------


def _int_from(lo: int):
    """argparse type: an integer >= lo."""

    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"{text} is below {lo}")
        return int(text)

    return integer


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nilpow",
        description="Exact computation and certification of Lie derived powers "
        "of finitely presented nil-generated algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="dimension table of derived powers")
    _add_spec_args(d)
    d.add_argument("--levels", type=_int_from(0), default=2, help="deepest derived power to tabulate")
    d.add_argument("--out", default=None)
    d.add_argument("--cache", default=os.environ.get("NILPOW_CACHE"))
    d.set_defaults(func=cmd_dims)

    c = sub.add_parser("certify", help="certify finite generation of a derived power")
    _add_spec_args(c)
    c.add_argument("--i", type=int, required=True, help="derived power index to certify")
    c.add_argument("--out", default=None)
    c.add_argument("--cache", default=os.environ.get("NILPOW_CACHE"))
    c.add_argument("--timings", action="store_true", help="include wall-clock timings in the JSON")
    c.set_defaults(func=cmd_certify)

    k = sub.add_parser("check", help="run property suites")
    k.add_argument("which", choices=["identities", "lemma1", "fk", "all"])
    _add_spec_args(k)
    k.add_argument("--trials", type=_int_from(0), default=100)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--k", type=_int_from(1), default=2, help="level for the fk suite")
    k.add_argument("--cache", default=os.environ.get("NILPOW_CACHE"))
    k.set_defaults(func=cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error; --help exits 0
            return EXIT_ERROR
        raise
    try:
        return args.func(args)
    except (NilpowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
