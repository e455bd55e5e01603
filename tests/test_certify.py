import json
import random
import tracemalloc

import numpy as np
import pytest

import nilpow.algebra
import nilpow.certify
import nilpow.cli
from nilpow import (
    AlgebraSpec,
    DerivedTower,
    Field,
    GradedVector,
    Subspace,
    bracket,
    certify_generation,
    degree_split_check,
    fk_identity_check,
    generating_set,
    identity_check,
    lemma1_check,
    nilpotency_index,
    span,
)
from nilpow.algebra import eval_f, ideal_closure, lie_subalgebra_closure
from nilpow.cache import subspace_from_payload, subspace_to_payload
from nilpow.certify import random_homogeneous, random_lie_ideal
from nilpow.errors import BoundExceedsTruncation, InternalSoundnessFailure, NotALieIdeal


def test_nilpotency_index_k1_m2():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    rep = nilpotency_index(DerivedTower(spec), 1)
    assert rep.n == 3
    assert rep.quotient_dims[:3] == [(1, 2), (2, 1), (3, 0)]
    assert all(q == 0 for d, q in rep.quotient_dims if d >= 3)
    assert rep.total_dim == 3


def test_nilpotency_index_commutative_case():
    # one generator: the first derived power is zero, so the quotient is the
    # whole algebra, nilpotent of index equal to the nil exponent
    spec = AlgebraSpec(m=1, nil=(4,), max_degree=8)
    rep = nilpotency_index(DerivedTower(spec), 1)
    assert rep.n == 4
    assert rep.quotient_dims == [(1, 1), (2, 1), (3, 1)] + [(d, 0) for d in range(4, 9)]


def test_nilpotency_index_k3_m2():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=12)
    rep = nilpotency_index(DerivedTower(spec), 3)
    assert rep.n == 11


def test_m3_quotient_dims_d11():
    # the three-generator case at the largest degree in the docs: the
    # quotient by id(A^(3)) is still nonzero at degree 11
    tower = DerivedTower(AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=11))
    rep = nilpotency_index(tower, 3)
    assert rep.n is None
    assert rep.quotient_dims[9:] == [(10, 771), (11, 132)]
    assert [tower.level(3).dim_at(d) for d in range(8, 12)] == [3, 81, 558, 2334]


def test_m3_tower_memory_d10():
    # Peak traced allocation (numpy reports its buffers) of each step for
    # (m=3, nil=2,2,2, D=10). Degree-wide dense candidate matrices put the
    # first level at about 75 MB; part-width candidates stay near 12 MB.
    tower = DerivedTower(AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=10))
    steps = [lambda: tower.level(1), lambda: tower.level(2), lambda: nilpotency_index(tower, 3)]
    peaks = []
    tracemalloc.start()
    try:
        for step in steps:
            tracemalloc.reset_peak()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 25, peaks


def test_m3_tower_retained_memory_d10():
    # Traced memory still held by levels 1..3 of (m=3, nil=2,2,2, D=10) and
    # by the ideal closure of level 3, once a first build has filled the word
    # and multiplication tables. Echelon rows stored densely over each part's
    # columns hold about 7.4 MB; as pivots plus their entries on the other
    # columns, about 2 MB.
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=10)

    def build():
        tower = DerivedTower(spec)
        return tower, ideal_closure(tower.level(3))

    build()
    tracemalloc.start()
    try:
        kept = build()
        retained = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert [kept[0].level(3).dim_at(d) for d in (8, 9, 10)] == [3, 81, 558]
    assert retained < 3, retained


def test_m3_cache_round_trip_memory_d10():
    # Peak traced allocation of encoding the first level of (m=3,
    # nil=2,2,2) and of decoding it, at D=10 and 11. At D=10, degree-wide
    # dense rows put encoding near 18 MB and decoding near 56 MB; rows read
    # and loaded as entries, part by part, stay near 2 and 5 MB. Rows
    # checked on their entries and written into each part's [I | R]
    # directly decode D=11 near 4 MB; a dense check of each part took 11 MB.
    for D, decode_bound in ((10, 15), (11, 6)):
        spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=D)
        level = DerivedTower(spec).level(1)
        peaks = []
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            payload = subspace_to_payload(level)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.reset_peak()
            restored = subspace_from_payload(spec, payload)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
        assert restored.dims() == level.dims()
        assert max(peaks) < 15, (D, peaks)
        assert peaks[1] < decode_bound, (D, peaks)


def test_nilpotency_not_found_is_a_value():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    rep = nilpotency_index(DerivedTower(spec), 3)
    assert rep.n is None


def test_nilpotency_monotone_in_k(suite_specs):
    for spec in suite_specs:
        tower = DerivedTower(spec)
        ns = [nilpotency_index(tower, k).n for k in (1, 2, 3)]
        found = [n for n in ns if n is not None]
        assert found == sorted(found)
        # once an index is not found, deeper ones cannot be found either
        for a, b in zip(ns, ns[1:]):
            if a is None:
                assert b is None


def test_generating_set_i1():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    gens = generating_set(DerivedTower(spec), 1, 11)
    assert len(gens) == 28  # dims of the first derived power over degrees 2..20
    assert all(max(g.degrees()) <= 20 for g in gens)
    tower = DerivedTower(spec)
    assert all(tower.level(1).contains(g) for g in gens)


def test_generating_set_empty_when_derived_power_zero():
    spec = AlgebraSpec(m=1, nil=(4,), max_degree=8)
    assert generating_set(DerivedTower(spec), 1, 4) == []


def test_generating_set_bound_exceeds_truncation():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=10)
    with pytest.raises(BoundExceedsTruncation):
        generating_set(DerivedTower(spec), 1, 11)


def test_certify_verified_m2():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    cert = certify_generation(DerivedTower(spec), 1)
    assert cert.verified
    assert cert.n == 11 and cert.bound == 20
    assert cert.dims_target == cert.dims_closure
    assert cert.reason is None


def test_certify_trivial_m1():
    spec = AlgebraSpec(m=1, nil=(4,), max_degree=8)
    cert = certify_generation(DerivedTower(spec), 1)
    assert cert.verified
    assert cert.generators == []
    assert all(dim == 0 for _, dim in cert.dims_target)


def test_certify_inconclusive_small_degree():
    # at D=10 the nilpotency index n=11 is not yet visible
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=10)
    cert = certify_generation(DerivedTower(spec), 1)
    assert cert.verdict == "INCONCLUSIVE"
    assert "not found" in cert.reason
    # at D=12 the index is found but the generation bound overshoots D
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=12)
    cert = certify_generation(DerivedTower(spec), 1)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.n == 11
    assert "bound 20 exceeds max degree 12" in cert.reason


def test_certify_inconclusive_when_index_not_found():
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=8)
    cert = certify_generation(DerivedTower(spec), 1)
    assert cert.verdict == "INCONCLUSIVE"
    assert "not found" in cert.reason


def _tower_short_above(spec, d):
    """Tower of spec whose level 2 lacks its degree-d block, levels 1-3 built."""
    tower = DerivedTower(spec)
    tower.level(3)
    short = tower.level(2).copy()
    del short._blocks[d]
    tower.levels[2] = short
    return tower


def test_certify_inconclusive_when_closure_falls_short(monkeypatch, capsys, tmp_path):
    # level 2 without its degree-21 block: the closure of the degree <= 20
    # generators of level 1 is level 2 at degree 21, which falls short there
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    tower = _tower_short_above(spec, 21)
    cert = certify_generation(tower, 1)
    assert cert.verdict == "INCONCLUSIVE"
    target = tower.level(1).dim_at(21)
    assert target > 0
    assert cert.reason == f"closure dimension 0 below target {target} at degree 21"
    assert cert.n == 11 and cert.bound == 20
    assert cert.generators == generating_set(DerivedTower(spec), 1, 11)
    assert cert.dims_closure == cert.dims_target[:20] + [(21, 0)]
    # at the bound itself the generators span level 1, whatever level 2 holds
    at_bound = certify_generation(_tower_short_above(spec, 20), 1)
    assert at_bound.verified and at_bound.dims_closure == at_bound.dims_target
    # the same certificate through the CLI: exit 2
    monkeypatch.setattr(nilpow.cli, "DerivedTower", lambda spec, cache_dir=None: _tower_short_above(spec, 21))
    out = tmp_path / "cert.json"
    code = nilpow.cli.main(["certify", "--i", "1", "--generators", "2", "--nil", "2,2",
                            "--max-degree", "24", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"INCONCLUSIVE: {cert.reason}\n"
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "INCONCLUSIVE" and doc["reason"] == cert.reason
    assert doc["dims"]["closure"][-1] == [21, 0] and len(doc["dims"]["closure"]) == 21


def test_certify_rejects_level_above_outside_target():
    # A^(i+1) is in A^(i); a level above that escapes is an engine fault
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    tower = DerivedTower(spec)
    tower.level(3)
    tower.levels[2] = tower.level(0)
    with pytest.raises(InternalSoundnessFailure, match="derived power 2 escaped derived power 1"):
        certify_generation(tower, 1)


def test_closure_oracle_agrees_with_tower_criterion(suite_specs):
    # graded Nakayama on real data: the Lie closure of A^(i) in degrees <= b
    # is A^(i) up to b, then A^(i+1) through the first degree where that
    # falls short of A^(i); past that degree the criterion says nothing
    shortfalls = 0
    for spec in suite_specs:
        tower = DerivedTower(spec)
        for i in (1, 2):
            level, above = tower.level(i), tower.level(i + 1)
            for b in range(1, spec.max_degree + 1):
                gens = [g for d in range(1, b + 1) for g in level.basis_vectors(d)]
                closure = lie_subalgebra_closure(spec, gens)
                assert level.contains_subspace(closure)
                predicted = []
                for d in range(1, spec.max_degree + 1):
                    predicted.append((d, level.dim_at(d) if d <= b else above.dim_at(d)))
                    if predicted[-1][1] < level.dim_at(d):
                        shortfalls += 1
                        break
                assert closure.dims(all_degrees=True)[: len(predicted)] == predicted, (spec, i, b)
    assert shortfalls > 0


@pytest.mark.parametrize("m, nil, max_degree, i", [(1, (4,), 8, 1), (2, (2, 2), 24, 1), (2, (2, 2), 41, 2)])
def test_verified_certificates_match_closure_oracle(m, nil, max_degree, i):
    spec = AlgebraSpec(m=m, nil=nil, max_degree=max_degree)
    tower = DerivedTower(spec)
    cert = certify_generation(tower, i)
    assert cert.verified
    closure = lie_subalgebra_closure(spec, cert.generators)
    assert closure.dims(all_degrees=True) == cert.dims_closure
    assert tower.level(i).contains_subspace(closure)


def test_certify_rejects_i_zero():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    with pytest.raises(ValueError):
        certify_generation(DerivedTower(spec), 0)


def test_degree_split_property():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=24)
    rep = degree_split_check(DerivedTower(spec), 1, 11)
    assert rep.passed and rep.checked > 0


def test_degree_split_reports_escape():
    # n = 1 claims every bracket of degree >= 1 words lies in level 2
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    rep = degree_split_check(DerivedTower(spec), 1, 1)
    assert not rep.passed
    assert rep.counterexample == "[x, y] escapes level 2 at degree 2"
    xy = bracket(GradedVector.from_word(spec, (1,)), GradedVector.from_word(spec, (2,)))
    assert not DerivedTower(spec).level(2).contains(xy)


def test_degree_split_brackets_start_at_degree_n():
    # only words of degree >= n = 3 enter on the left, so the first escape
    # is [xxy, xx] at degree 5, not a bracket with a shorter left word
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=9)
    rep = degree_split_check(DerivedTower(spec), 1, 3)
    assert not rep.passed and rep.checked == 4
    assert rep.counterexample == "[xxy, xx] escapes level 2 at degree 5"


def test_nilpotency_propagation(suite_specs):
    # once the quotient vanishes it stays vanished at every larger degree
    for spec in suite_specs:
        for k in (1, 2):
            rep = nilpotency_index(DerivedTower(spec), k)
            if rep.n is None:
                continue
            assert all(q == 0 for d, q in rep.quotient_dims if d >= rep.n)


# -- lemma-1 containment -----------------------------------------------------


def test_lemma1_on_derived_powers():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    tower = DerivedTower(spec)
    for i in (1, 2):
        rep = lemma1_check(tower.level(i))
        assert rep.passed


def test_lemma1_on_random_ideals(suite_specs):
    rng = random.Random(42)
    for spec in suite_specs:
        for _ in range(3):
            rep = lemma1_check(random_lie_ideal(spec, rng))
            assert rep.passed


def test_lemma1_vacuous_on_zero():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    rep = lemma1_check(Subspace(spec))
    assert rep.passed


def test_lemma1_rejects_non_ideal():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    not_ideal = span(spec, [GradedVector.from_word(spec, (1, 2))])  # xy alone is no Lie ideal
    with pytest.raises(NotALieIdeal, match=r"^\[x, U_2\] not inside U at degree 3$"):
        lemma1_check(not_ideal)


def test_lemma1_reports_escape(monkeypatch):
    # an ideal closure that returns the whole algebra is the only way to make
    # the containment fail: the first pass still runs on a true Lie ideal
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    u = DerivedTower(spec).level(2)
    monkeypatch.setattr(nilpow.certify, "ideal_closure", lambda s: Subspace.full_space(s.spec))
    rep = lemma1_check(u)
    assert not rep.passed and rep.checked == 6
    assert rep.counterexample == "[row 1 of id([U,U])_1, x] escapes U at degree 2"


# runs of 1 row of rows_p (a cap of 0 rows of m) and of up to 5 rows of m:
# the first escape may sit anywhere in a run
BUFFERS = [1, 3, 40]


@pytest.mark.parametrize("buffer", BUFFERS)
def test_first_escape_across_run_boundaries(monkeypatch, buffer):
    # the escape reports above, with runs split at other rows
    monkeypatch.setattr(nilpow.algebra, "_BUFFER", buffer)
    test_degree_split_reports_escape()
    test_degree_split_brackets_start_at_degree_n()
    test_lemma1_rejects_non_ideal()
    test_lemma1_reports_escape(monkeypatch)

    # an escape past the first word and row of a run: s = <xx, xy> and
    # u = <[x, xy], [y, xx]>, so [y, xy] is the first bracket outside u
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=5)
    x, y, xx, xy = (GradedVector.from_word(spec, w) for w in [(1,), (2,), (1, 1), (1, 2)])
    u = span(spec, [bracket(x, xy), bracket(y, xx)])
    hit = dict(w="y", v="xy", r=1, e=2, f=3)
    assert nilpow.certify._first_escape(u, span(spec, [xx, xy]), range(2, 6)) == (4, hit)


def test_first_escape_names_the_canonical_row():
    # id(A^(2)) of (3; 2,2,3) has target parts in degree 5, where the first
    # escape lies, and they read their source's rows, which are not canonical
    # there. Which word escapes first does not depend on the rows' basis,
    # but which row does: the report names the canonical one, as when every
    # part was eliminated (the stored basis names row 17, xzyxz).
    t = DerivedTower(AlgebraSpec(m=3, nil=(2, 2, 3), max_degree=8))
    blk = t.ideal(2).block(5)
    assert not np.array_equal(blk.entries().col, blk.canonical_entries().col)
    hit = dict(w="xyx", v="xzyzy", r=19, e=5, f=8)
    assert nilpow.certify._first_escape(t.level(2), t.ideal(2), range(2, 9), lo=3) == (91, hit)


@pytest.mark.parametrize("buffer", BUFFERS)
def test_degree_split_reports_do_not_depend_on_runs(monkeypatch, buffer):
    # the same reports, passing or not, as under the default run lengths
    cases = [((2, (2, 2), 24), 11), ((2, (3, 3), 9), 3), ((3, (2, 2, 2), 8), 2), ((2, (2, 2), 8), 1)]
    reports = {}
    for b in (nilpow.algebra._BUFFER, buffer):
        monkeypatch.setattr(nilpow.algebra, "_BUFFER", b)
        reports[b] = [
            vars(degree_split_check(DerivedTower(AlgebraSpec(m=m, nil=nil, max_degree=d)), 1, n))
            for (m, nil, d), n in cases
        ]
    assert reports[buffer] == reports[nilpow.algebra._BUFFER]


# -- fk identities -----------------------------------------------------------


def _fk_per_trial(tower, k, trials, seed):
    """fk_identity_check as one membership test per trial: (passed, checked,
    counterexample)."""
    spec = tower.spec
    ideal = ideal_closure(tower.level(k))
    rng = random.Random(seed)
    for t in range(trials):
        degrees = [1] * 2**k
        budget = spec.max_degree - 2**k
        while budget > 0 and rng.random() < 0.7:
            degrees[rng.randrange(2**k)] += 1
            budget -= 1
        args = [random_homogeneous(spec, rng, d) for d in degrees]
        if not ideal.contains(eval_f(k, args)):
            return False, t + 1, f"trial {t}: evaluation of degrees {degrees} escapes the ideal"
    return True, trials, None


def test_first_nonmember_takes_the_first_vector_over_all_degrees():
    # degree 2 comes first but fails later (at vector 2) than degree 3 does
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    xy, yx, xyx = (GradedVector.from_word(spec, w) for w in [(1, 2), (2, 1), (1, 2, 1)])
    s = span(spec, [xy])
    assert nilpow.certify._first_nonmember(s, [xy, xyx, yx]) == 1
    assert nilpow.certify._first_nonmember(s, [xy, xy + yx, xyx]) == 1
    assert nilpow.certify._first_nonmember(s, [xy, GradedVector(spec), xy.scale(3)]) is None


@pytest.mark.parametrize("batch", [1, 2, 4, nilpow.certify._TRIAL_BATCH])
def test_fk_failing_trial_matches_per_trial_loop(monkeypatch, batch):
    # level 2 without its degrees below 6 stands in for A^(2): evaluations
    # of degrees 4 and 5 then escape, the first at trial 5 for seed 3
    monkeypatch.setattr(nilpow.certify, "_TRIAL_BATCH", batch)
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=12)
    tower = DerivedTower(spec)
    level = tower.level(2)
    tower.levels[2] = span(spec, [v for d in range(6, spec.max_degree + 1) for v in level.basis_vectors(d)])
    for seed in (0, 3):
        rep = fk_identity_check(tower, 2, trials=40, seed=seed)
        assert (rep.passed, rep.checked, rep.counterexample) == _fk_per_trial(tower, 2, 40, seed)
    assert rep.checked == 6 and not rep.passed
    assert fk_identity_check(DerivedTower(spec), 2, trials=9, seed=3).checked == 9


@pytest.mark.parametrize("k", [1, 2])
def test_fk_identity_suite(k):
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=12)
    rep = fk_identity_check(DerivedTower(spec), k, trials=50, seed=7)
    assert rep.passed and rep.trials == 50 and rep.seed == 7


def test_fk_k3_m3():
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=8)
    rep = fk_identity_check(DerivedTower(spec), 3, trials=20, seed=1)
    assert rep.passed


def test_identity_check_fp_and_q():
    for field in (Field.prime(32003), Field.rationals()):
        spec = AlgebraSpec(m=2, nil=(3, 3), field=field, max_degree=8)
        rep = identity_check(spec, trials=30, seed=3)
        assert rep.passed
