"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here is exact arithmetic: tolerances are zero.
"""

import json
import random
import time

import pytest

from nilpow import (
    AlgebraSpec,
    DerivedTower,
    Field,
    certify_generation,
    degree_split_check,
    dim_component,
    fk_identity_check,
    identity_check,
    ideal_closure,
    lemma1_check,
    nilpotency_index,
)
from nilpow.certify import random_lie_ideal
from nilpow.cli import main

from conftest import SUITE_PARAMS, make_suite_specs
from dense_oracle import Oracle


def report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{label}]: {status}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


def capped_specs(cap: int, field=None):
    return [
        AlgebraSpec(m=m, nil=nil, field=field or Field.prime(32003), max_degree=min(d, cap))
        for m, nil, d in SUITE_PARAMS
    ]


def test_criterion_1_identity_suite():
    ok = True
    detail = []
    for spec in make_suite_specs():
        t0 = time.time()
        rep = identity_check(spec, trials=500, seed=101)
        ok &= rep.passed
        detail.append(f"{spec.m}gen fp {time.time() - t0:.1f}s")
    for spec in make_suite_specs(Field.rationals()):
        rep = identity_check(spec, trials=50, seed=101)
        ok &= rep.passed
    report(1, "identities (1)-(3), 500 fp + 50 Q trials/spec", ok, "; ".join(detail))


def test_criterion_2_lemma1_containment():
    ok = True
    times = []
    for spec in capped_specs(8):
        t0 = time.time()
        tower = DerivedTower(spec)
        for i in (1, 2):
            ok &= lemma1_check(tower.level(i)).passed
        rng = random.Random(202)
        for _ in range(20):
            ok &= lemma1_check(random_lie_ideal(spec, rng)).passed
        times.append(f"{spec.m}gen {time.time() - t0:.1f}s")
    report(2, "lemma-1 containment, derived powers + 20 random ideals/spec", ok, "; ".join(times))


def test_criterion_3_oracle_equivalence():
    ok = True
    for m, nil, _ in SUITE_PARAMS:
        spec = AlgebraSpec(m=m, nil=nil, max_degree=6)
        oracle = Oracle(m, nil, 6)
        tower = DerivedTower(spec)
        levels = oracle.derived_levels(2)
        id1 = ideal_closure(tower.level(1))
        oracle_id1 = oracle.graded_ranks(oracle.ideal_closure(levels[1]))
        oracle_l1 = oracle.graded_ranks(levels[1])
        oracle_l2 = oracle.graded_ranks(levels[2])
        for d in range(1, 7):
            ok &= dim_component(spec, d) == len(oracle.basis[d])
            ok &= tower.level(1).dim_at(d) == oracle_l1[d]
            ok &= tower.level(2).dim_at(d) == oracle_l2[d]
            ok &= id1.dim_at(d) == oracle_id1[d]
    report(3, "sparse engine vs dense oracle, degrees <= 6, all suite specs", ok)


def test_criterion_4_known_small_values():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=12)
    ok = all(dim_component(spec, d) == 2 for d in range(1, 13))
    tower = DerivedTower(spec)
    ok &= [tower.level(1).dim_at(d) for d in range(2, 6)] == [1, 2, 1, 2]
    rep1 = nilpotency_index(tower, 1)
    ok &= rep1.n == 3 and rep1.total_dim == 3
    ok &= tower.level(3).dims()[0] == (10, 1)  # first nonzero degree and its dim
    rep3 = nilpotency_index(tower, 3)
    ok &= rep3.n == 11
    report(4, "known values for m=2, nil=(2,2)", ok, f"n(1)={rep1.n}, n(3)={rep3.n}")


def test_criterion_5_end_to_end_certification():
    t0 = time.time()
    spec2 = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    cert2 = certify_generation(DerivedTower(spec2), 1)
    ok = cert2.verified and cert2.n == 11 and cert2.bound == 20
    t2 = time.time() - t0

    # m=3: the measured nilpotency index exceeds desk scale (the quotient by
    # id of the third derived power is still nonzero at degree 11), so the
    # required max degree 2n-1 blows the budget; the honest outcome at a
    # budget-sized degree is INCONCLUSIVE, never a wrong VERIFIED.
    t0 = time.time()
    spec3 = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=9)
    cert3 = certify_generation(DerivedTower(spec3), 1)
    ok &= cert3.verdict == "INCONCLUSIVE"
    t3 = time.time() - t0
    report(
        5,
        "end-to-end certify i=1",
        ok,
        f"m=2 VERIFIED n={cert2.n} in {t2:.1f}s; m=3 {cert3.verdict} at D=9 in {t3:.1f}s",
    )


def test_criterion_6_degree_split():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    rep = degree_split_check(DerivedTower(spec), 1, 11)
    report(6, "degree-split bracket membership on the verified instance", rep.passed,
           f"{rep.checked} basis pairs")


def test_criterion_7_fk_suite():
    ok = True
    for spec in make_suite_specs():
        for k in (1, 2, 3):
            ok &= fk_identity_check(DerivedTower(spec), k, trials=100, seed=303).passed
    report(7, "f_k evaluations inside id of k-th derived power, k=1..3", ok)


def test_criterion_8_robustness(capsys, tmp_path):
    base = ["--generators", "2", "--nil", "2,2", "--max-degree", "5"]
    ok = main(["dims", *base[:4], "--field", "fp:2", "--max-degree", "5"]) == 1
    code = main(["dims", "--generators", "2", "--nil", "2,1", "--max-degree", "5"])
    err = capsys.readouterr().err
    ok &= code == 0 and "nil exponent 1" in err
    code = main(["certify", "--i", "1", "--generators", "2", "--nil", "2,2", "--max-degree", "10",
                 "--out", str(tmp_path / "c.json")])
    cert = json.loads((tmp_path / "c.json").read_text())
    capsys.readouterr()
    ok &= code == 2 and cert["verdict"] == "INCONCLUSIVE"
    report(8, "char-2 rejected; dead generator warned; small D never wrongly VERIFIED", ok)


def test_criterion_9_reproducibility(capsys, tmp_path):
    args = ["certify", "--i", "1", "--generators", "2", "--nil", "2,2",
            "--max-degree", "24"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main([*args, "--out", str(a)])
    code_b = main([*args, "--out", str(b)])
    capsys.readouterr()
    ok = code_a == code_b == 0 and a.read_bytes() == b.read_bytes()
    report(9, "byte-identical certificates for identical config", ok)
