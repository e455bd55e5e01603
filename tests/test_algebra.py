import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilpow.algebra
from nilpow import (
    AlgebraSpec,
    DerivedTower,
    Field,
    GradedVector,
    Subspace,
    bracket,
    dim_component,
    eval_f,
    ideal_closure,
    jordan,
    lie_ideal_closure,
    lie_subalgebra_closure,
    mul,
    span,
)
from nilpow.algebra import _brackets, _derived_step, _insert_all, _split_brackets, _sweep
from nilpow.linalg import Entries, _Block, _Echelon
from nilpow.certify import nilpotency_index, random_homogeneous, random_lie_ideal
from nilpow.errors import ArityMismatch

from conftest import make_suite_specs
from dense_oracle import Oracle

S22 = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
X = GradedVector.from_word(S22, (1,))
Y = GradedVector.from_word(S22, (2,))


def test_mul_examples():
    assert mul(X, GradedVector.from_word(S22, (2, 1))) == GradedVector.from_word(S22, (1, 2, 1))  # x * yx = xyx
    assert mul(X, GradedVector.from_word(S22, (1, 2))).is_zero()  # x * xy = 0
    assert mul(X, GradedVector(S22)).is_zero()


@pytest.mark.parametrize("p", [5, 32003, 2**31 - 1, None], ids=["fp:5", "fp:32003", "fp:2147483647", "q"])
def test_mul_matches_oracle(p):
    # mul and the other element operations against the oracle's Python-int
    # (or Fraction) arithmetic. Inhomogeneous operands, so several splits
    # (d1, d2) meet in one target degree; over F_{2^31-1} the residues sit
    # near p, the int64 worst case of the one-pass uv -+ vu sums.
    spec = AlgebraSpec(m=2, nil=(3, 3), field=Field(p), max_degree=6)
    oracle = Oracle(2, (3, 3), 6, p=p)
    rng = random.Random(23)

    def coeff():
        if p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(max(0, p - 100), p)

    def element():
        return {d: {o: coeff() for o in range(dim_component(spec, d))} for d in rng.sample(range(1, 5), 3)}

    def raw(v):
        return {oracle.basis[d][o]: c for d in v.degrees() for o, c in v.terms(d)}

    def scaled(x, c):
        return oracle.clean({w: oracle.norm(a * c) for w, a in x.items()})

    minus_one = -1 if p is None else p - 1
    for _ in range(10):
        u, v = GradedVector(spec, element()), GradedVector(spec, element())
        ru, rv = raw(u), raw(v)
        c = coeff()
        assert raw(mul(u, v)) == oracle.vmul(ru, rv)
        assert raw(bracket(u, v)) == oracle.vbracket(ru, rv)
        assert raw(jordan(u, v)) == oracle.vadd(oracle.vmul(ru, rv), oracle.vmul(rv, ru))
        assert raw(u + v) == oracle.vadd(ru, rv)
        assert raw(u - v) == oracle.vadd(ru, scaled(rv, minus_one))
        assert raw(u.scale(c)) == scaled(ru, c)
        assert (u - u).is_zero() and u.scale(0).is_zero() and bracket(u, u).is_zero()


def test_vector_rows_are_read_only():
    # operations share rows between vectors, so no row may be written
    u = GradedVector(S22, {1: {0: 3, 1: 2}, 2: {1: 2}})  # 3x + 2y + 2yx
    v = GradedVector(S22, {2: {0: 1}})  # xy
    built = [u, v, u + v, u - v, u.scale(5), mul(u, v), bracket(u, v), jordan(u, v)]
    assert (u + v).parts[1] is u.parts[1]  # a degree only one side has is shared
    for w in built:
        assert not w.is_zero()
        for row in w.parts.values():
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1


def test_mul_truncates_silently():
    s = AlgebraSpec(m=2, nil=(2, 2), max_degree=3)
    u = GradedVector.from_word(s, (1, 2))
    v = GradedVector.from_word(s, (1, 2))
    assert mul(u, v).is_zero()  # degree 4 > D dropped


def test_bracket_examples():
    assert bracket(X, Y) == GradedVector.from_word(S22, (1, 2)) - GradedVector.from_word(S22, (2, 1))
    assert bracket(X, X).is_zero()
    assert bracket(X, GradedVector.from_word(S22, (2, 1))) == GradedVector.from_word(S22, (1, 2, 1))


def test_jordan_examples():
    assert jordan(X, Y) == GradedVector.from_word(S22, (1, 2)) + GradedVector.from_word(S22, (2, 1))
    assert jordan(X, X).is_zero()  # 2x^2 = 0 by the relation
    u, v = bracket(X, Y), jordan(X, Y)
    assert jordan(u, v) == jordan(v, u)


@st.composite
def random_triples(draw):
    m, nil, d = draw(st.sampled_from([(2, (2, 2), 8), (2, (3, 3), 6), (3, (2, 2, 2), 6)]))
    field = draw(st.sampled_from([Field.prime(32003), Field.rationals()]))
    spec = AlgebraSpec(m=m, nil=nil, field=field, max_degree=d)
    rng = random.Random(draw(st.integers(0, 2**32)))
    vecs = [random_homogeneous(spec, rng, rng.randint(1, max(1, d // 3))) for _ in range(3)]
    return spec, vecs


@given(random_triples())
def test_classical_identities(sv):
    spec, (x, y, z) = sv
    half = spec.field.half
    assert mul(x, y) == (bracket(x, y) + jordan(x, y)).scale(half)
    assert bracket(z, jordan(x, y)) == jordan(bracket(z, x), y) + jordan(bracket(z, y), x)
    assert bracket(z, jordan(x, y)) == bracket(jordan(z, x), y) + bracket(jordan(z, y), x)


@given(random_triples())
def test_bracket_is_a_lie_bracket(sv):
    spec, (x, y, z) = sv
    assert bracket(x, y) == -bracket(y, x)
    jacobi = (
        bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    )
    assert jacobi.is_zero()


@given(random_triples())
def test_bilinearity(sv):
    spec, (x, y, z) = sv
    c = spec.field.elem(7)
    assert bracket(x + y.scale(c), z) == bracket(x, z) + bracket(y, z).scale(c)
    assert mul(x, y + z) == mul(x, y) + mul(x, z)


# -- derived powers ----------------------------------------------------------


def test_derived_dims_m2():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=5)
    t = DerivedTower(spec)
    assert t.level(1).dims() == [(2, 1), (3, 2), (4, 1), (5, 2)]


def test_one_generator_is_commutative():
    spec = AlgebraSpec(m=1, nil=(4,), max_degree=8)
    t = DerivedTower(spec)
    assert t.level(1).dims() == []


def test_third_derived_power_first_degree():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=10)
    t = DerivedTower(spec)
    assert t.level(3).dims() == [(10, 1)]
    # the single basis vector is the alternating commutator xyxyxyxyxy - yxyxyxyxyx
    [v] = t.level(3).basis_vectors(10)
    f = spec.field
    assert v.terms(10) == [(0, f.one), (1, f.neg(f.one))]


def test_tower_builds_missing_levels_once(monkeypatch):
    calls = []
    step = nilpow.algebra._derived_step
    monkeypatch.setattr(
        nilpow.algebra, "_derived_step", lambda *a, **k: calls.append(a) or step(*a, **k)
    )
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=10)
    t = DerivedTower(spec)
    one = t.level(1)
    nilpotency_index(t, 3)
    assert t.level(1) is one and len(calls) == 3
    with pytest.raises(ValueError):
        t.level(-1)


def test_tower_chain_containment(suite_specs):
    for spec in suite_specs:
        t = DerivedTower(spec)
        for i in range(3):
            upper, lower = t.level(i), t.level(i + 1)
            for d in range(1, spec.max_degree + 1):
                assert lower.dim_at(d) <= upper.dim_at(d)
            assert upper.contains_subspace(lower)


@pytest.mark.parametrize("m,nil", [(2, (2, 2)), (2, (3, 3)), (3, (2, 2, 2)), (1, (4,))])
def test_derived_dims_match_oracle(m, nil):
    spec = AlgebraSpec(m=m, nil=tuple(nil), max_degree=6)
    t = DerivedTower(spec)
    oracle = Oracle(m, nil, 6)
    levels = oracle.derived_levels(2)
    for i in (1, 2):
        ranks = oracle.graded_ranks(levels[i])
        for d in range(1, 7):
            assert t.level(i).dim_at(d) == ranks[d], (m, nil, i, d)


P31 = 2**31 - 1  # the largest admissible prime


def test_derived_dims_match_oracle_at_largest_prime():
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), field=Field.prime(P31), max_degree=5)
    t = DerivedTower(spec)
    oracle = Oracle(3, (2, 2, 2), 5, p=P31)
    levels = oracle.derived_levels(2)
    for i in (1, 2):
        ranks = oracle.graded_ranks(levels[i])
        assert [t.level(i).dim_at(d) for d in range(1, 6)] == [ranks[d] for d in range(1, 6)]


def _same_rows(a, b):
    same = a.shape == b.shape and np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
    return same and a.val.tolist() == b.val.tolist()


def _canonical(s, d):
    """The degree-d rows of s as canonical entries, target parts eliminated."""
    return s.block(d).canonical_entries()


@given(
    st.integers(1, 3).flatmap(lambda m: st.lists(st.integers(1, 4), min_size=m, max_size=m)),
    st.integers(1, 9),
    st.sampled_from([5, 32003, P31, None]),
    st.booleans(),
)
def test_commutators_match_all_splits_sweep(nil, top, p, multigraded):
    # The closed form of [A, A] against the sweep of every split [A_p, A_q],
    # which uses neither the rotations nor [A, A] = [A_1, A]: the same rows,
    # entry for entry, in either block layout. D is lowered until the top
    # degree has at most 400 words (100 over Q), to keep the sweep small.
    spec = AlgebraSpec(m=len(nil), nil=tuple(nil), field=Field(p), max_degree=top)
    while spec.max_degree > 1 and dim_component(spec, spec.max_degree) > (400 if p else 100):
        spec = AlgebraSpec(m=spec.m, nil=spec.nil, field=spec.field, max_degree=spec.max_degree - 1)
    full = Subspace(spec, full=True, multigraded=multigraded, symmetric=True)
    closed = _derived_step(spec, full, from_full=True)
    swept = _derived_step(spec, full, from_full=False)  # symmetric, as the full space is
    for d in range(1, spec.max_degree + 1):
        assert _same_rows(_canonical(closed, d), _canonical(swept, d)), (spec, d)


@st.composite
def _equal_exponent_specs(draw):
    """Specs where two nil exponents are equal: m <= 3 with exponents 1..4
    (some degrees then have no words), or (4; 2,2,2,2); D is lowered until
    the top degree has at most 1000 words (200 over Q)."""
    p = draw(st.sampled_from([5, 32003, None]))
    m = draw(st.integers(2, 4))
    if m == 4:
        nil, top = [2, 2, 2, 2], draw(st.integers(1, 6))
    else:
        nil = draw(st.lists(st.integers(1, 4), min_size=m - 1, max_size=m - 1))
        nil.insert(draw(st.integers(0, m - 1)), draw(st.sampled_from(nil)))
        top = draw(st.integers(1, 10))
    spec = AlgebraSpec(m=m, nil=tuple(nil), field=Field(p), max_degree=top)
    while spec.max_degree > 1 and dim_component(spec, spec.max_degree) > (1000 if p else 200):
        spec = AlgebraSpec(m=m, nil=spec.nil, field=spec.field, max_degree=spec.max_degree - 1)
    return spec


@settings(max_examples=40)
@given(_equal_exponent_specs())
@example(AlgebraSpec(m=3, nil=(2, 2, 2), field=Field(5), max_degree=9))
@example(AlgebraSpec(m=3, nil=(2, 2, 3), field=Field(None), max_degree=6))
@example(AlgebraSpec(m=4, nil=(2, 2, 2, 2), field=Field(32003), max_degree=6))
@example(AlgebraSpec(m=3, nil=(1, 3, 3), field=Field(32003), max_degree=8))
@example(AlgebraSpec(m=2, nil=(1, 1), field=Field(5), max_degree=1))
def test_relabelled_tower_matches_eliminated_tower(spec):
    # Levels 1..3 and the ideals of levels 2 and 3, eliminated in one part
    # of each orbit of the letter permutations and read relabelled in the
    # others, against the same built from a full space that is not
    # symmetric, where every part is eliminated: equal dims and equal
    # canonical rows, entry for entry.
    relabelled, eliminated = DerivedTower(spec), DerivedTower(spec)
    eliminated.levels[0] = Subspace(spec, full=True, symmetric=False)
    built = [lambda t, i=i: t.level(i) for i in (1, 2, 3)] + [lambda t, k=k: t.ideal(k) for k in (2, 3)]
    for get in built:
        a, b = get(relabelled), get(eliminated)
        assert a.symmetric and not b.symmetric
        assert a.dims(all_degrees=True) == b.dims(all_degrees=True)
        for d in range(1, spec.max_degree + 1):
            assert _same_rows(_canonical(a, d), b.block(d).entries()), (spec, d)


def _uncapped_step(prev):
    """[prev, prev] swept with no ceiling: every part takes every candidate."""
    out = Subspace(prev.spec, multigraded=prev.multigraded, symmetric=prev.symmetric)
    return _sweep(out, lambda _, f: _split_brackets(prev, f))


@pytest.mark.parametrize(
    "spec",
    make_suite_specs() + [AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=9), AlgebraSpec(m=2, nil=(2, 3), max_degree=10)],
    ids=lambda s: f"m{s.m}-nil{''.join(map(str, s.nil))}-D{s.max_degree}",
)
def test_ceiling_changes_no_level(spec):
    # Levels 2 and 3 swept with the level above as the ceiling, against the
    # same swept with none: equal canonical rows, each inside the other,
    # equal ideals and an equal nilpotency report. An ideal closure sweeps a
    # copy of its level with no ceiling, so a ceiling that outlived its
    # sweep would show in the ideals.
    capped, uncapped = DerivedTower(spec), DerivedTower(spec)
    uncapped.levels.append(capped.level(1))
    for i in (2, 3):
        uncapped.levels.append(_uncapped_step(uncapped.levels[-1]))
        a, b = capped.level(i), uncapped.level(i)
        for d in range(1, spec.max_degree + 1):
            assert _same_rows(_canonical(a, d), _canonical(b, d)), (spec, i, d)
        assert a.contains_subspace(b) and b.contains_subspace(a)
        assert capped.ideal(i).dims(all_degrees=True) == uncapped.ideal(i).dims(all_degrees=True)
    assert nilpotency_index(capped, 3) == nilpotency_index(uncapped, 3)


@pytest.mark.parametrize("seed", range(4))
def test_ceiling_changes_no_step_of_a_lie_ideal(seed):
    # [U, U] of a Lie ideal U, one part, with U as the ceiling and with none
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=8)
    u = random_lie_ideal(spec, random.Random(seed))
    a, b = _derived_step(spec, u, from_full=False), _uncapped_step(u)
    assert not a.multigraded and u.contains_subspace(a)
    for d in range(1, spec.max_degree + 1):
        assert _same_rows(_canonical(a, d), _canonical(b, d)), (seed, d)


def test_ceiling_saves_insertions(monkeypatch):
    # Level 2 of (3; 2,2,2) at D=10 against level 1: the degree-10 block
    # reaches level 1's rank on its first insertion and draws no more
    # candidates (with no ceiling it takes 3 insertions and 8476 rows in all),
    # and no part that has level 1's rank is handed rows.
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=10)
    tower = DerivedTower(spec)
    above = tower.level(1)
    degree = {dim_component(spec, d): d for d in range(1, spec.max_degree + 1)}
    offered, capped, fed = [], set(), []
    block_insert, part_insert = _Block.insert_matrix, _Echelon.insert_matrix

    def block_recorded(blk, m, *args):
        d = degree[blk.dim]
        offered.append((d, m.shape[0]))
        capped.clear()
        capped.update(id(e) for e, c in zip(blk._parts, above.block(d)._parts) if e.rank >= c.rank)
        return block_insert(blk, m, *args)

    def part_recorded(e, sub, *args):
        fed.append(id(e) in capped)
        return part_insert(e, sub, *args)

    monkeypatch.setattr(_Block, "insert_matrix", block_recorded)
    monkeypatch.setattr(_Echelon, "insert_matrix", part_recorded)
    level = tower.level(2)
    assert [d for d, _ in offered].count(10) == 1
    assert sum(r for _, r in offered) <= 5443
    assert fed and not any(fed)
    assert level.dim_at(10) == 1428


def test_insert_all_at_ceiling_draws_nothing():
    def never():
        raise AssertionError("a candidate was drawn")
        yield

    s, zero = Subspace(S22), Subspace(S22)
    _insert_all(s.block(3), never(), zero.block(3))
    assert s.dim_at(3) == 0


@pytest.mark.parametrize(
    "m,nil,D", [(1, (4,), 8), (2, (2, 3), 8), (2, (1, 3), 7), (3, (2, 2, 2), 7), (3, (3, 1, 2), 7)]
)
def test_commutator_quotient_counts_cyclic_words(m, nil, D):
    # A/[A, A] has a basis of the rotation classes of words whose rotations
    # are all normal; counted by brute force over the oracle's words
    oracle = Oracle(m, nil, D)
    level = DerivedTower(AlgebraSpec(m=m, nil=nil, max_degree=D)).level(1)
    for d in range(1, D + 1):
        classes = set()
        for w in oracle.basis[d]:
            rotations = [w[i:] + w[:i] for i in range(d)]
            if all(oracle.is_normal(r) for r in rotations):
                classes.add(min(rotations))
        assert len(oracle.basis[d]) - level.dim_at(d) == len(classes), (m, nil, d)


@pytest.mark.parametrize("multigraded", [True, False])
def test_commutator_blocks_load_as_canonical(multigraded):
    # `_Block.load` accepts only canonical RREF, and hands the same rows back.
    # The target parts of a symmetric [A, A] read their source's rows over
    # permuted columns, so its canonical rows are read with `canonical_entries`.
    spec = AlgebraSpec(m=3, nil=(2, 3, 2), max_degree=7)
    full = Subspace(spec, full=True, multigraded=multigraded, symmetric=True)
    level = _derived_step(spec, full, from_full=True)
    fresh = Subspace(spec, multigraded=multigraded, symmetric=True)
    relabelled = 0
    for d in range(1, 8):
        rows = level.block(d).canonical_entries()
        relabelled += not _same_rows(level.block(d).entries(), rows)
        assert fresh.block(d).load(rows)
        assert _same_rows(fresh.block(d).canonical_entries(), rows)
    assert bool(relabelled) == multigraded


def test_closures_leave_their_level_untouched():
    # A closure copies the level and sweeps into the copy, whose target
    # parts must read the copy's own sources: the level keeps its rows, entry
    # for entry, and the closures equal those of a tower where every part
    # is eliminated.
    spec = AlgebraSpec(m=3, nil=(2, 2, 3), max_degree=8)
    t, eliminated = DerivedTower(spec), DerivedTower(spec)
    eliminated.levels[0] = Subspace(spec, full=True)
    level = t.level(2)

    def rows():
        out = []
        for d in range(1, spec.max_degree + 1):
            level.block(d)._entries = None  # gather the parts again
            e = level.block(d).entries()
            out.append((e.row.tolist(), e.col.tolist(), e.val.tolist()))
        return out

    before = rows()
    closures = t.ideal(2), lie_ideal_closure(level)
    assert rows() == before
    for a, b in zip(closures, (eliminated.ideal(2), lie_ideal_closure(eliminated.level(2)))):
        assert a.dims(all_degrees=True) == b.dims(all_degrees=True)
        assert all(_same_rows(_canonical(a, d), b.block(d).entries()) for d in range(1, spec.max_degree + 1))


# -- closures ----------------------------------------------------------------


def test_ideal_closure_of_zero():
    assert ideal_closure(Subspace(S22)).dims() == []


def test_ideal_closure_of_commutator():
    comm = bracket(X, Y)
    clo = ideal_closure(span(S22, [comm]))
    assert clo.dims() == [(2, 1)] + [(d, 2) for d in range(3, 7)]


def test_ideal_closure_idempotent():
    comm = bracket(X, Y)
    clo = ideal_closure(span(S22, [comm]))
    again = ideal_closure(clo)
    assert clo.dims() == again.dims() and clo.contains_subspace(again)


def test_ideal_closure_matches_oracle(suite_specs):
    for field, p in ((Field.prime(32003), 32003), (Field.prime(5), 5), (Field.rationals(), None)):
        for spec in suite_specs:
            # over Q the dense Fraction products take seconds for (3; 2,2,2) at D=6
            top = 5 if p is None and spec.m == 3 else 6
            small = AlgebraSpec(m=spec.m, nil=spec.nil, field=field, max_degree=top)
            t = DerivedTower(small)
            clo = ideal_closure(t.level(1))
            oracle = Oracle(small.m, small.nil, top, p=p)
            ranks = oracle.graded_ranks(oracle.ideal_closure(oracle.derived_levels(1)[1]))
            for d in range(1, top + 1):
                assert clo.dim_at(d) == ranks[d]


def test_ideal_closure_insertions_are_bounded(monkeypatch):
    # an insertion takes at most _BUFFER candidate rows plus one run of them
    monkeypatch.setattr(nilpow.algebra, "_BUFFER", 64)
    level = DerivedTower(AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=8)).level(1)
    sizes, insert = [], _Block.insert_matrix

    def recorded(blk, m, ceiling=None):
        sizes.append(m.shape[0])
        return insert(blk, m, ceiling)

    monkeypatch.setattr(_Block, "insert_matrix", recorded)
    ideal_closure(level)
    assert sizes and max(sizes) <= 64 + 64 // 8


@pytest.mark.parametrize("close", [ideal_closure, lie_ideal_closure])
def test_closure_leaves_input_unchanged(close):
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=6)
    rng = random.Random(3)
    s = span(spec, [random_homogeneous(spec, rng, d) for d in (2, 3, 3)])
    dims = s.dims()
    rows = {d: s.block(d).entries().dense(s.arith) for d, _ in dims}
    clo = close(s)
    assert clo.dim_at(3) > s.dim_at(3)  # the closure changed a block s has rows in
    assert s.dims() == dims
    assert all(np.array_equal(s.block(d).entries().dense(s.arith), m) for d, m in rows.items())


def test_lie_ideal_closure_of_zero():
    assert lie_ideal_closure(Subspace(S22)).dims() == []


def test_derived_powers_are_lie_ideals():
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    t = DerivedTower(spec)
    for i in (1, 2):
        clo = lie_ideal_closure(t.level(i))
        assert clo.dims() == t.level(i).dims() and clo.contains_subspace(t.level(i))


def test_lie_ideal_closure_contains_seed():
    rng = random.Random(5)
    v = random_homogeneous(S22, rng, 2)
    s = span(S22, [v])
    clo = lie_ideal_closure(s)
    assert clo.contains(v)


def test_lie_ideal_closure_matches_oracle():
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=5)
    oracle = Oracle(3, (2, 2, 2), 5)
    rng = random.Random(17)
    v = random_homogeneous(spec, rng, 2)
    clo = lie_ideal_closure(span(spec, [v]))
    dv = {oracle.basis[2][o]: c for o, c in v.terms(2)}
    ranks = oracle.graded_ranks(oracle.lie_ideal_closure([dv]))
    for d in range(1, 6):
        assert clo.dim_at(d) == ranks[d]


def test_lie_subalgebra_closure_of_generators():
    clo = lie_subalgebra_closure(S22, [X, Y])
    assert clo.dim_at(1) == 2
    assert clo.dim_at(2) == 1  # only xy - yx in degree 2


def test_lie_subalgebra_closure_empty():
    assert lie_subalgebra_closure(S22, []).dims() == []


def test_lie_subalgebra_closure_matches_oracle():
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=6)
    oracle = Oracle(2, (3, 3), 6)
    clo = lie_subalgebra_closure(spec, [GradedVector.from_word(spec, (1,)), GradedVector.from_word(spec, (2,))])
    ranks = oracle.graded_ranks(oracle.lie_subalgebra_closure([{(1,): 1}, {(2,): 1}]))
    for d in range(1, 7):
        assert clo.dim_at(d) == ranks[d]


def _check_brackets(field, same, words, products=False):
    """Check every row that `_brackets` yields against `bracket` of its
    (a', j) pair, or under ``products`` each pair of rows against the two
    `mul`s with the degree-1 rows, and the exact pair count; returns the
    runs as (first row of rows_p, rows of rows_p)."""
    spec = AlgebraSpec(m=2, nil=(3, 3), field=field, max_degree=7)
    p, q = (3, 3) if same else (3, 1) if products else (3, 4)
    arith = Subspace(spec).arith
    if words:
        rows_p, rows_q = (Subspace.full_space(spec).block(d).entries().dense(arith) for d in (p, q))
    else:
        rng = random.Random(5)
        rows_p, rows_q = (
            np.stack([random_homogeneous(spec, rng, d).parts[d] for _ in range(4)]
                     + [arith.zeros(dim_component(spec, d))])
            for d in (p, q)
        )
    if same:
        rows_q = rows_p
    n_p, n_q = len(rows_p), len(rows_q)

    def vec(d, row):
        return GradedVector(spec, {d: {o: row[o] for o in np.flatnonzero(row)}})

    e_p = Entries.of(rows_p)
    e_q = e_p if same else Entries.of(rows_q)  # one object: `_brackets` then takes the pairs j > a' only
    pairs, runs, nxt = 0, [], 0
    for a, m in _brackets(spec, p, q, e_p, e_q, products=products):
        assert a == nxt  # runs follow each other, row by row
        expect = []  # the (a', j) pair of each row of m, or of each two under ``products``
        while len(expect) < m.shape[0] // (2 if products else 1):
            expect += [(nxt, j) for j in range(nxt + 1 if same else 0, n_q)]
            nxt += 1
        assert len(expect) * (2 if products else 1) == m.shape[0]  # a run ends where a row of rows_p does
        dense = m.dense(arith)
        for r, (a2, j) in enumerate(expect):
            u, v = vec(p, rows_p[a2]), vec(q, rows_q[j])
            if products:
                assert vec(p + q, dense[2 * r]) == mul(u, v) and vec(p + q, dense[2 * r + 1]) == mul(v, u)
            else:
                assert vec(p + q, dense[r]) == bracket(u, v)
            pairs += 1
        runs.append((a, nxt - a))
    assert pairs == (n_p * (n_p - 1) // 2 if same else n_p * n_q)
    return runs


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(32003), Field.rationals()], ids=str)
@pytest.mark.parametrize("same", [False, True])
@pytest.mark.parametrize("words", [True, False], ids=["identity", "random"])
def test_brackets_match_element_bracket(field, same, words):
    runs = _check_brackets(field, same, words)
    assert len(runs) == 1  # under the default caps each case is one run


# run sizes, in rows of rows_p, by (_BUFFER, same, words): a run holds at
# most _BUFFER // 8 rows of m, or one row of rows_p. rows_p has 6 rows
# (identity) or 5 (random, the last zero); without ``same`` each row gives
# 10 or 5 rows of m, and under it row a' gives n - 1 - a'.
RUNS = {
    (1, False, True): [1] * 6,
    (1, True, True): [1] * 5,
    (1, False, False): [1] * 5,
    (1, True, False): [1] * 4,
    (56, False, True): [1] * 6,
    (56, True, True): [1, 2, 2],
    (56, False, False): [1] * 5,
    (56, True, False): [2, 2],
    (160, False, True): [2, 2, 2],
    (160, True, True): [5],
    (160, False, False): [4, 1],
    (160, True, False): [4],
}


@pytest.mark.parametrize("buffer, same, words", list(RUNS))
def test_brackets_runs_split_mid_degree(monkeypatch, buffer, same, words):
    monkeypatch.setattr(nilpow.algebra, "_BUFFER", buffer)
    runs = _check_brackets(Field.prime(32003), same, words)
    assert [size for _, size in runs] == RUNS[buffer, same, words]


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(32003), Field.rationals()], ids=str)
@pytest.mark.parametrize("words", [True, False], ids=["identity", "random"])
def test_brackets_products_match_element_products(field, words):
    runs = _check_brackets(field, False, words, products=True)
    assert len(runs) == 1


# run sizes under ``products``, in rows of rows_p, by (_BUFFER, words): both
# rows of a pair count against _BUFFER // 8, so a row of rows_p gives 4
# rows of m against the 2 degree-1 identity rows, or 10 against 5 random ones
PRODUCT_RUNS = {
    (1, True): [1] * 6,
    (1, False): [1] * 5,
    (64, True): [2, 2, 2],
    (64, False): [1] * 5,
    (160, True): [5, 1],
    (160, False): [2, 2, 1],
}


@pytest.mark.parametrize("buffer, words", list(PRODUCT_RUNS))
def test_brackets_products_runs_cap_rows(monkeypatch, buffer, words):
    monkeypatch.setattr(nilpow.algebra, "_BUFFER", buffer)
    sizes = [size for _, size in _check_brackets(Field.prime(32003), False, words, products=True)]
    assert sizes == PRODUCT_RUNS[buffer, words]
    assert all(size == 1 or size * (4 if words else 10) <= buffer // 8 for size in sizes)


def test_brackets_runs_cap_entry_pairs(monkeypatch):
    # identity rows_p against the 10 rows of degree 4: 10 entry pairs a row
    monkeypatch.setattr(nilpow.algebra, "_RUN_PAIRS", 25)
    runs = _check_brackets(Field.prime(32003), False, True)
    assert [size for _, size in runs] == [2, 2, 2]
    monkeypatch.setattr(nilpow.algebra, "_RUN_PAIRS", 1)
    assert len(_check_brackets(Field.prime(32003), False, True)) == 6


def test_closures_are_single_sweep_stable(suite_specs):
    # re-running a closure on its own output must not grow anything
    for spec in suite_specs[:2]:
        t = DerivedTower(spec)
        clo = ideal_closure(t.level(1))
        assert ideal_closure(clo).dims() == clo.dims()
        lclo = lie_ideal_closure(t.level(1))
        assert lie_ideal_closure(lclo).dims() == lclo.dims()


# -- recursive bracketed elements -------------------------------------------


def test_eval_f_level_one():
    assert eval_f(1, [X, Y]) == bracket(X, Y)


def test_eval_f_recursion():
    rng = random.Random(9)
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=10)
    args = [random_homogeneous(spec, rng, 1) for _ in range(4)]
    direct = eval_f(2, args)
    manual = bracket(eval_f(1, args[:2]), eval_f(1, args[2:]))
    assert direct == manual


def test_eval_f_multilinearity_zero():
    args = [X, GradedVector(S22), X, Y]
    assert eval_f(2, args).is_zero()


def test_eval_f_arity():
    with pytest.raises(ArityMismatch):
        eval_f(2, [X, Y])
    with pytest.raises(ArityMismatch):
        eval_f(0, [])


@settings(max_examples=20)
@given(st.integers(0, 2**31))
def test_eval_f_lands_in_derived_power(seed):
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=10)
    t = DerivedTower(spec)
    rng = random.Random(seed)
    args = [random_homogeneous(spec, rng, rng.randint(1, 2)) for _ in range(4)]
    assert t.level(2).contains(eval_f(2, args))
