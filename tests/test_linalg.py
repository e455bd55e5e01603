import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilpow import AlgebraSpec, DerivedTower, Field, GradedVector, Subspace, bracket, linalg, span
from nilpow.cache import subspace_to_payload
from nilpow.errors import (
    CorruptCacheEntry,
    DivisionByZero,
    InexactCoefficient,
    InternalSoundnessFailure,
    SpecMismatch,
)
from nilpow.linalg import Layout
from nilpow.words import letter_orbits, multidegree_parts

from conftest import full_space
from dense_oracle import Oracle

S22 = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
XY = GradedVector.from_word(S22, (1, 2))
YX = GradedVector.from_word(S22, (2, 1))
COMM = XY - YX  # xy - yx


def _rows(blk):
    """A block's RREF rows as one dense matrix in degree columns."""
    return blk.entries().dense(blk.arith)


def _same_entries(a, b):
    return all(np.array_equal(x, y) for x, y in zip((a.row, a.col, a.val), (b.row, b.col, b.val)))


def test_vector_construction_drops_zeros():
    v = GradedVector(S22, {2: {0: 0, 1: 5}})
    assert v.terms(2) == [(1, 5)]
    assert GradedVector(S22, {2: {0: 0}}).is_zero()


def test_vec_add_and_scale():
    assert (COMM + COMM.scale(-1)).is_zero()
    half = S22.field.half
    assert COMM.scale(half).scale(2) == COMM
    assert COMM.terms(2) == [(0, 1), (1, S22.field.elem(-1))]


def test_spec_mismatch_rejected():
    other = AlgebraSpec(m=2, nil=(2, 2), max_degree=7)
    with pytest.raises(SpecMismatch):
        COMM + GradedVector.from_word(other, (1, 2))
    s = Subspace(S22)
    with pytest.raises(SpecMismatch):
        s.contains(GradedVector.from_word(other, (1, 2)))
    with pytest.raises(SpecMismatch):
        span(S22, [GradedVector.from_word(other, (1, 2))])
    with pytest.raises(SpecMismatch):  # a subspace over another spec is no subspace of s
        s.contains_subspace(span(other, [GradedVector.from_word(other, (1, 2))]))
    with pytest.raises(SpecMismatch):
        bracket(COMM, GradedVector.from_word(other, (1, 2)))
    for ordinal in (-1, 5):  # degree 2 has the two words xy, yx
        with pytest.raises(SpecMismatch):
            GradedVector(S22, {2: {ordinal: 1}})
    # a degree's coefficients are an {ordinal: coeff} map; rows are no input form
    for row in ([5], np.array([5]), 5, [0, 5], np.array([0, 5]), [[1, 2]], np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(SpecMismatch):
            GradedVector(S22, {2: row})
    assert GradedVector(S22, {2: {1: 5}}).terms(2) == [(1, 5)]


@pytest.mark.parametrize(
    "parts",
    [{2.0: {1: 3}}, {"2": {1: 3}}, {Fraction(2): {1: 3}}, {2: {1.0: 3}}, {2: {"1": 3}}, {2: {np.float64(1): 3}}],
    ids=["degree-float", "degree-str", "degree-fraction", "ordinal-float", "ordinal-str", "ordinal-npfloat"],
)
def test_vector_keys_must_be_integers(parts):
    with pytest.raises(SpecMismatch):
        GradedVector(S22, parts)


def test_vector_integer_keys_become_ints():
    v = GradedVector(S22, {np.int64(2): {np.int64(1): 3}})
    assert v == GradedVector(S22, {2: {1: 3}})
    assert all(type(d) is int for d in v.parts)


def test_coefficients_enter_exactly():
    f7, q = Field.prime(7), Field.rationals()
    assert f7.elem(Fraction(3, 2)) == 5 and f7.elem(Fraction(-1, 3)) == 2 and q.elem(3) == Fraction(3)
    with pytest.raises(DivisionByZero):
        f7.elem(Fraction(1, 14))
    for field in (f7, q):
        for x in (0.5, 1.0, np.float64(2.0), np.float32(2.0)):
            with pytest.raises(InexactCoefficient):
                field.elem(x)
    spec = AlgebraSpec(m=2, nil=(2, 2), field=f7, max_degree=4)
    half = GradedVector(spec, {1: {0: Fraction(1, 2)}})
    assert half.terms(1) == [(0, 4)] and half.scale(2) == GradedVector(spec, {1: {0: 1}})
    v = GradedVector(spec, {1: {0: Fraction(1, 2), 1: 0}})
    assert v.parts[1].dtype == np.int64 and v.parts[1].tolist() == [4, 0]
    assert GradedVector(spec, {1: {0: np.int64(-1), 1: 9}}).parts[1].tolist() == [6, 2]
    qspec = AlgebraSpec(m=2, nil=(2, 2), field=q, max_degree=4)
    v = GradedVector(qspec, {1: {0: Fraction(1, 2), 1: 3}})
    assert all(type(x) is Fraction for x in v.parts[1]) and v.terms(1) == [(0, Fraction(1, 2)), (1, 3)]
    assert all(type(x) is Fraction for x in GradedVector(qspec, {1: {0: np.int64(1), 1: 3}}).parts[1])
    for field_spec in (spec, qspec):
        for x in (0.5, 0.0, np.float64(1.0)):
            with pytest.raises(InexactCoefficient):
                GradedVector(field_spec, {1: {0: x}})


def test_insert_examples():
    s = Subspace(S22)
    insert = lambda v: s.block(2).insert_matrix(v.parts[2][None, :])
    assert insert(COMM) == 1
    assert s.dim_at(2) == 1
    assert insert(COMM) == 0  # idempotent
    assert insert(YX - XY) == 0  # scalar multiple
    assert s.dim_at(2) == 1


def test_contains_examples():
    s = span(S22, [COMM])
    assert s.contains(COMM.scale(3))
    assert not s.contains(XY)
    assert Subspace(S22).contains(GradedVector(S22))


def test_dims_and_equality():
    s = span(S22, [COMM])
    assert s.dims() == [(2, 1)]
    assert s.contains_subspace(s)
    full = Subspace.full_space(S22)
    assert full.dims() == [(d, 2) for d in range(1, 7)]
    assert full.contains_subspace(s) and not s.contains_subspace(full)


def test_contains_iff_no_growth():
    rng = random.Random(3)
    s = Subspace(S22, Layout.ONE)  # the random rows are not multihomogeneous
    for _ in range(20):
        v = GradedVector(
            S22, {d: {o: rng.randrange(32003) for o in range(2)} for d in rng.sample(range(1, 7), 2)}
        )
        before = s.contains(v)
        grew = [s.block(d).insert_matrix(row[None, :]) for d, row in v.parts.items()]
        assert before == (not any(grew))


@st.composite
def vector_lists(draw):
    field = draw(st.sampled_from([Field.prime(32003), Field.prime(5), Field.rationals()]))
    spec = AlgebraSpec(m=2, nil=(3, 3), field=field, max_degree=4)
    n = draw(st.integers(1, 6))
    vecs = []
    for _ in range(n):
        d = draw(st.integers(1, 4))
        dim = len(__import__("nilpow").normal_words(spec, d))
        comp = {o: draw(st.integers(-6, 6)) for o in range(dim)}
        vecs.append(GradedVector(spec, {d: comp}))
    return spec, vecs


@given(vector_lists(), st.randoms(use_true_random=False))
def test_insertion_order_independence(sv, rnd):
    spec, vecs = sv
    a = span(spec, vecs)
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    b = span(spec, shuffled)
    for d in range(1, spec.max_degree + 1):
        assert a.dim_at(d) == b.dim_at(d)
        if a.dim_at(d):
            assert (_rows(a.block(d)) == _rows(b.block(d))).all()


@pytest.mark.parametrize("p", [32003, None])
def test_rank_matches_dense_oracle(p):
    field = Field.prime(p) if p else Field.rationals()
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), field=field, max_degree=5)
    oracle = Oracle(3, (2, 2, 2), 5, p=p)
    rng = random.Random(11)
    vecs = []
    for _ in range(25):
        d = rng.randint(1, 5)
        dim = len(__import__("nilpow").normal_words(spec, d))
        comp = {o: rng.randint(-8, 8) for o in range(dim)}
        vecs.append(GradedVector(spec, {d: comp}))
    s = span(spec, vecs)
    dicts = [
        {oracle.basis[d][o]: oracle.norm(c) for d in v.degrees() for o, c in v.terms(d)}
        for v in vecs
    ]
    ranks = oracle.graded_ranks(dicts)
    for d in range(1, 6):
        assert s.dim_at(d) == ranks[d]


def test_full_space_basis_vectors():
    full = Subspace.full_space(S22)
    basis = full.basis_vectors(3)
    assert [v.terms(3) for v in basis] == [[(0, 1)], [(1, 1)]]


def test_rationals_path():
    fq = Field.rationals()
    spec = AlgebraSpec(m=2, nil=(2, 2), field=fq, max_degree=4)
    from fractions import Fraction

    v = GradedVector(spec, {2: {0: Fraction(1, 2), 1: Fraction(-1, 3)}})
    s = span(spec, [v])
    assert s.dim_at(2) == 1
    # pivot is monic after echelonization
    assert subspace_to_payload(s)["rows"] == {"2": [[2], [0, 1], ["1", "-2/3"]]}
    assert s.contains(v.scale(Fraction(7, 5)))


# -- the blocked elimination kernel against a row-at-a-time reference --------


def _lead(row):
    return next(i for i, x in enumerate(row) if x != 0)


def reference_insert(field, rows, candidates):
    """Canonical RREF rows after inserting candidates one at a time, and the
    rank growth; plain Python over field elements."""
    rows = [list(r) for r in rows]
    grew = 0
    for v in candidates:
        v = [field.elem(x) for x in v]
        for r in rows:
            c = v[_lead(r)]
            if c != 0:
                v = [field.elem(a - c * b) for a, b in zip(v, r)]
        if all(x == 0 for x in v):
            continue
        piv = _lead(v)
        inv = field.inv(v[piv])
        v = [field.elem(inv * x) for x in v]
        rows = [[field.elem(a - r[piv] * b) for a, b in zip(r, v)] for r in rows]
        rows = sorted(rows + [v], key=_lead)
        grew += 1
    return rows, grew


def _random_rows(rng, n, dim, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(n)]


def _combinations(rng, basis, n):
    """n random combinations of the basis rows, coefficients in -1..1."""
    return [
        [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(len(basis[0]))]
        for coeffs in _random_rows(rng, n, len(basis), -1, 1)
    ]


def _path_rows(rng, n, dim):
    """A full-rank chunk of n rows that the recursive RREF must back-reduce
    across at every split: row t is a nonzero multiple of R[t] + R[t+1]
    (the last, of R[n-1]) for a canonical RREF R of n rows. Each half spans
    a hyperplane of its own R rows plus the next half's first one, so its
    RREF rows carry that row's pivot column."""
    piv = sorted(rng.sample(range(dim), n))
    free = sorted(set(range(dim)) - set(piv))
    ref = []
    for p in piv:
        row = [0] * dim
        row[p] = 1
        for j in free:
            row[j] = rng.randint(-2, 2) if j > p else 0
        ref.append(row)
    ref.append([0] * dim)
    scale = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(n)]
    return [[s * (a + b) for a, b in zip(ref[t], ref[t + 1])] for t, s in enumerate(scale)]


def _kernel_cases(rng):
    """name -> (dim, rows inserted first, the chunk under test)"""
    basis = _random_rows(rng, 12, 20)
    spanned = _combinations(rng, basis, 2 * linalg._CHUNK + 7)
    row = _random_rows(rng, 1, 8)[0]
    # above `_BASE` rows `linalg._rref` recurses on halves
    wide = 4 * linalg._BASE + 8
    half = linalg._BASE + 1
    top = _combinations(rng, _random_rows(rng, 3, 3 * linalg._BASE), half)
    # pivots arriving left of the earlier ones: rows zero on the left half,
    # then rows on all columns, in a later `_CHUNK` chunk and in the bottom
    # half of a `_BASE` split
    right = [[0] * 10 + r for r in _random_rows(rng, 4, 10)]
    late = _combinations(rng, right, linalg._CHUNK) + _combinations(rng, _random_rows(rng, 4, 20), 9)
    wide_right = [[0] * (2 * linalg._BASE) + r for r in _random_rows(rng, 3, linalg._BASE)]
    bottom = _combinations(rng, wide_right, half) + _combinations(rng, _random_rows(rng, 3, 3 * linalg._BASE), half)
    return {
        "zero rows": (8, _random_rows(rng, 3, 8), [[0] * 8, row, [0] * 8, [0] * 8, _random_rows(rng, 1, 8)[0]]),
        "duplicate rows": (8, _random_rows(rng, 2, 8), [row, row, [2 * x for x in row], row, [-x for x in row]]),
        "fills partway": (6, _random_rows(rng, 2, 6), _random_rows(rng, 10, 6)),
        "taller than dim": (5, [], _random_rows(rng, 40, 5)),
        "more rows than chunk": (20, basis[:3], spanned),
        "full rank past base": (wide + 8, [], _path_rows(rng, wide, wide + 8)),
        "dependent top half": (3 * linalg._BASE, [], top + _random_rows(rng, half, 3 * linalg._BASE, -1, 1)),
        "later chunk leads left": (20, right[:2], late),
        "bottom half leads left": (3 * linalg._BASE, [], bottom),
    }


KERNEL_CASES = [
    "zero rows",
    "duplicate rows",
    "fills partway",
    "taller than dim",
    "more rows than chunk",
    "full rank past base",
    "dependent top half",
    "later chunk leads left",
    "bottom half leads left",
]
KERNEL_FIELDS = [Field.prime(5), Field.prime(32003), Field.prime(2**31 - 1), Field.rationals()]


# Q reaches the recursion in "more rows than chunk" and "dependent top half";
# its full-rank case would spend about 11 s in `Fraction` arithmetic.
@pytest.mark.parametrize(
    "case, field",
    [(c, f) for c in KERNEL_CASES for f in KERNEL_FIELDS if f.p or c != "full rank past base"],
    ids=str,
)
def test_insert_matrix_matches_reference(field, case):
    dim, first, chunk = _kernel_cases(random.Random(case))[case]
    blk = linalg._Block(linalg._Arith(field), dim)

    def dense(rows):
        return np.array([[field.elem(x) for x in r] for r in rows], dtype=np.int64 if field.p else object)

    ref, ref_grew = reference_insert(field, [], first)
    assert (blk.insert_matrix(dense(first)) if first else 0) == ref_grew
    ref, ref_grew = reference_insert(field, ref, chunk)
    assert blk.insert_matrix(dense(chunk)) == ref_grew
    assert [[field.elem(x) for x in r] for r in _rows(blk)] == ref
    assert [[field.elem(x) for x in r] for r in blk.canonical_entries().dense(blk.arith)] == ref
    assert blk.rank == len(ref) and blk.full == (len(ref) == dim)
    assert sorted(blk._parts[0].pivots) == [_lead(r) for r in ref]


# -- multigraded blocks against one-part blocks --------------------------------


MULTIGRADED_CASES = [(3, (2, 2, 2), 5), (2, (3, 3), 6)]  # (m, nil, degree)


def _multihomogeneous_rows(rng, cols, dim, n):
    """n integer rows, each on the columns of one random part: random rows,
    up to half the part's size of them, then combinations of those (zero in
    a part of one column), so the span stays a proper subspace."""
    drawn = [[] for _ in cols]
    rows = []
    for _ in range(n):
        k = rng.randrange(len(cols))
        row = np.zeros(dim, dtype=np.int64)
        if len(drawn[k]) < cols[k].size // 2:
            row[cols[k]] = [rng.randint(-4, 4) for _ in cols[k]]
            drawn[k].append(row)
        else:
            for r in drawn[k]:
                row += rng.randint(-3, 3) * r
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(32003), Field.rationals()], ids=str)
@pytest.mark.parametrize("m, nil, d", MULTIGRADED_CASES)
def test_multigraded_block_matches_one_part(field, m, nil, d):
    spec = AlgebraSpec(m=m, nil=nil, field=field, max_degree=d)
    part_of, cols = multidegree_parts(spec, d)
    dim = part_of.size
    arith = linalg._Arith(field)
    rng = random.Random(f"{m}-{d}-{field}")
    elem = lambda x: field.elem(x if isinstance(x, Fraction) else int(x))

    def dense(rows):
        return np.array([[elem(x) for x in r] for r in rows], dtype=np.int64 if field.p else object)

    rows = _multihomogeneous_rows(rng, cols, dim, 2 * linalg._CHUNK + 40)
    split, one = linalg._Block(arith, dim, parts=(part_of, cols)), linalg._Block(arith, dim)
    assert len(split._parts) == len(cols) > 1
    for lo, hi in ((0, 30), (30, len(rows))):  # the second call meets earlier rows
        assert split.insert_matrix(dense(rows[lo:hi])) == one.insert_matrix(dense(rows[lo:hi]))
        assert split.rank == one.rank < dim
        assert np.array_equal(_rows(split), _rows(one))

    # Rows that are not multihomogeneous: sums of two rows from different
    # parts, each in the span or not. `escape` has its leading column in a
    # span row while the row is outside: routing it by that column alone
    # would call it contained.
    inside = list(_rows(one))
    outside = []
    for c in cols:
        row = np.zeros(dim, dtype=np.int64)
        row[c] = [rng.randint(-4, 4) for _ in c]
        if one.contains_matrix(dense([row])) is not None:
            outside.append(row)
    lead = lambda r: int(np.flatnonzero(r != 0)[0])
    pairs = [(a, b) for a in inside for b in inside + outside if part_of[lead(a)] != part_of[lead(b)]]
    escape = next(a + b for a, b in pairs if lead(a) < lead(b) and any(b is r for r in outside))
    rows = [a + b for a, b in rng.sample(pairs, 40)] + [escape]
    verdicts = [one.contains_matrix(dense([r])) is None for r in rows]
    assert [split.contains_matrix(dense([r])) is None for r in rows] == verdicts
    assert True in verdicts and not verdicts[-1]
    assert split.contains_matrix(dense(rows)) == one.contains_matrix(dense(rows)) == verdicts.index(False)


def test_multigraded_guards():
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=6)
    table = multidegree_parts(spec, 3)
    blk = linalg._Block(linalg._Arith(spec.field), table[0].size, parts=table)
    two_parts = np.zeros((1, table[0].size), dtype=np.int64)
    two_parts[0, [table[1][0][0], table[1][1][0]]] = 1
    with pytest.raises(InternalSoundnessFailure):
        blk.insert_matrix(two_parts)
    with pytest.raises(CorruptCacheEntry):
        blk.load(linalg.Entries.of(two_parts))
    assert blk.rank == 0


def test_symmetric_block_guards():
    # an insertion leaves out target parts, which read their source's rows,
    # but a row across two parts still raises when one of them, or both, is
    # a target
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=5)
    orbits = letter_orbits(spec, 4)
    _, cols = multidegree_parts(spec, 4)
    t0, t1 = orbits.target[:2].tolist()
    k = orbits.source[0]
    for a, b in [(t0, k), (t0, t1)]:
        s = Subspace(spec, Layout.VIEWS)
        row = np.zeros((1, s.block(4).dim), dtype=np.int64)
        row[0, [cols[a][0], cols[b][0]]] = 1
        with pytest.raises(InternalSoundnessFailure):
            s.block(4).insert_matrix(row)
        assert s.block(4).rank == 0
    # a row in a target part only is dropped; the target shares its source's
    # rows, read over the images of the source's columns (``orbits.cols``),
    # and the block's rank and rows count them
    blk = Subspace(spec, Layout.VIEWS).block(4)
    unit = np.eye(blk.dim, dtype=np.int64)
    assert blk.insert_matrix(unit[orbits.cols[t0][:1]]) == 0
    assert blk._parts[t0] is blk._parts[k]
    grew = blk.insert_matrix(unit[cols[k][:1]])
    assert grew == 1 + (orbits.source == k).sum() and blk.rank == grew
    assert _rows(blk).shape[0] == grew
    for t in orbits.target[orbits.source == k].tolist():
        assert blk.contains_matrix(unit[orbits.cols[t][:2]]) == 1  # the image of the source's row only
    assert _same_entries(blk.canonical_entries(), blk.entries())  # unit rows are canonical as read


def test_relabelled_rows_leave_canonical():
    # target parts read their source's rows, a reduced basis that is not
    # canonical RREF here; `canonical_entries` eliminates them afresh, leaves
    # the stored rows as they are, and the engine's exits read it
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=8)
    level = DerivedTower(spec).level(2)
    eliminated = DerivedTower(spec)
    eliminated.levels[0] = full_space(spec, Layout.PARTS)
    plain = eliminated.level(2)
    assert level.layout is Subspace.full_space(spec).layout is Layout.VIEWS
    assert plain.layout is span(spec, []).layout is Layout.PARTS
    changed = [d for d in range(1, 9) if not np.array_equal(_rows(level.block(d)), _rows(plain.block(d)))]
    assert changed
    for d in changed:
        assert level.basis_vectors(d) == plain.basis_vectors(d)
        assert _same_entries(level.block(d).canonical_entries(), plain.block(d).entries())
        assert not np.array_equal(_rows(level.block(d)), _rows(plain.block(d)))
    assert subspace_to_payload(level) == subspace_to_payload(plain)


@pytest.mark.parametrize(
    "nil, field, top, first",
    [
        ((2, 2, 2), Field.rationals(), 6, 1),
        ((3, 3), Field.rationals(), 8, 1),
        ((2, 2, 3), Field.rationals(), 5, 1),
        ((3, 3), Field.prime(32003), 10, 3),  # level 3 begins at degree 10, of 178 words
    ],
)
def test_canonical_rows_match_reference(nil, field, top, first):
    # `canonical_entries` and the fully eliminated tower both come from the
    # kernel; a plain-Python RREF of the stored rows (`reference_insert`)
    # checks them. Over Q every degree up to `top` has at most 100 words, so
    # levels 1 and 2 have rows there and level 3 and id(A^(3)) none; those
    # two are checked over F_p at degree 10 of (2; 3,3), of 178 words.
    spec = AlgebraSpec(m=len(nil), nil=nil, field=field, max_degree=top)
    tower = DerivedTower(spec)
    spaces = [tower.level(i) for i in range(first, 4)] + [tower.ideal(3)]
    relabelled = 0
    for s in spaces:
        assert s.layout is Layout.VIEWS
        for d, rank in s.dims():
            blk = s.block(d)
            ref, grew = reference_insert(field, [], _rows(blk).tolist())
            assert grew == rank
            assert blk.canonical_entries().dense(blk.arith).tolist() == ref
            relabelled += not _same_entries(blk.canonical_entries(), blk.entries())
    assert relabelled  # some target part's rows are not canonical as stored


@pytest.mark.parametrize("split", [True, False], ids=["parts", "one-part"])
def test_load_takes_canonical_rows_only(split):
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=6)
    part_of, cols = multidegree_parts(spec, 6)
    dim = part_of.size
    arith = linalg._Arith(spec.field)
    new = lambda: linalg._Block(arith, dim, parts=(part_of, cols) if split else None)
    blk = new()
    blk.insert_matrix(_dense(spec.field, _multihomogeneous_rows(random.Random(7), cols, dim, 40)))
    rows = _rows(blk)
    lead = [_lead(r) for r in rows]
    # two rows of different parts swapped: each part's rows stay in order
    i = next(i for i in range(len(rows) - 1) if part_of[lead[i]] != part_of[lead[i + 1]])
    swapped = rows.copy()
    swapped[[i, i + 1]] = rows[[i + 1, i]]
    monic = rows.copy()
    monic[0] = 2 * rows[0] % spec.field.p
    zero = np.vstack([rows, np.zeros((1, dim), dtype=np.int64)])
    for bad in (swapped, monic, zero, rows[::-1]):
        loaded = new()
        assert not loaded.load(linalg.Entries.of(bad)) and loaded.rank == 0
    # entries whose sum is a canonical matrix (or, with the repeat, the
    # rows with one value doubled), but not in the form a block writes
    e = blk.entries()
    t = int(np.flatnonzero(np.bincount(e.row) >= 3)[0])
    at = int(np.searchsorted(e.row, t))  # row t's pivot entry; two more follow
    order = np.arange(e.row.size)
    repeated = np.insert(order, at + 2, at + 2)
    cols_swapped = order.copy()
    cols_swapped[[at + 1, at + 2]] = order[[at + 2, at + 1]]
    first_row_last = np.roll(order, -int(np.searchsorted(e.row, 1)))
    for idx in (repeated, cols_swapped, first_row_last):
        loaded = new()
        bad = linalg.Entries(e.shape, e.row[idx], e.col[idx], e.val[idx])
        assert not loaded.load(bad) and loaded.rank == 0
    loaded = new()
    assert loaded.load(blk.entries()) and loaded.rank == blk.rank
    assert np.array_equal(_rows(loaded), rows)


def test_insert_outside_one_part_splits_no_more():
    # a span with a row outside one multidegree part keeps one part per block
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=4)
    x, y, xy, yx = (GradedVector.from_word(spec, w) for w in [(1,), (2,), (1, 2), (2, 1)])
    assert span(spec, [x, xy - yx]).layout is Layout.PARTS
    s = span(spec, [x, xy - yx, x + y])
    assert s.layout is Layout.ONE and s.dims() == [(1, 2), (2, 1)]
    s = span(spec, [x, xy - yx, x + y, xy])
    assert s.contains(yx) and not s.contains(GradedVector.from_word(spec, (1, 1)))
    assert span(spec, [x + y]).layout is Layout.ONE


# -- candidate entries against dense rows ---------------------------------------


def _dense(field, rows):
    elem = lambda x: field.elem(x if isinstance(x, Fraction) else int(x))
    return np.array([[elem(x) for x in r] for r in rows], dtype=np.int64 if field.p else object)


def _as_entries(field, rng, m, part_of, cols):
    """The dense rows m as `linalg.Entries` in the form of bracket products:
    each nonzero split into two unreduced entries at its position, and at
    one more column of the row's part two products summing to zero mod p
    (a nonzero multiple of p whenever p > 2), in shuffled order."""
    p = field.p
    entries = []
    for r, row in enumerate(m):
        nz = np.flatnonzero(row != 0)
        for c in nz:
            first = rng.randrange(p) * rng.randrange(p) if p else Fraction(rng.randint(-9, 9), 4)
            entries += [(r, c, first), (r, c, row[c] - first)]
        k = part_of[nz[0]] if nz.size else rng.randrange(len(cols))
        c = int(rng.choice(cols[k]))
        if p:
            x = rng.randrange(p // 2 + 1, p)  # x * x > p, so x*x - (x*x % p) != 0
            entries += [(r, c, x * x), (r, c, -(x * x % p))]
        else:
            entries += [(r, c, Fraction(3, 7)), (r, c, Fraction(-3, 7))]
    rng.shuffle(entries)
    row, col, val = zip(*entries)
    return linalg.Entries(m.shape, np.array(row), np.array(col), np.array(val, dtype=np.int64 if p else object))


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(32003), Field.rationals()], ids=str)
@pytest.mark.parametrize("m, nil, d", MULTIGRADED_CASES + [(2, (2, 2), 5)])  # the last: one-column parts
def test_candidate_entries_match_dense_rows(field, m, nil, d):
    spec = AlgebraSpec(m=m, nil=nil, field=field, max_degree=d)
    part_of, cols = multidegree_parts(spec, d)
    dim = part_of.size
    arith = linalg._Arith(field)
    rng = random.Random(f"entries-{m}-{d}-{field}")
    rows = _dense(field, _multihomogeneous_rows(rng, cols, dim, 2 * linalg._CHUNK + 40))
    by_entries, by_rows = (linalg._Block(arith, dim, parts=(part_of, cols)) for _ in range(2))
    for lo, hi in ((0, 30), (30, len(rows))):  # the second call meets earlier rows
        grew = by_rows.insert_matrix(rows[lo:hi])
        assert by_entries.insert_matrix(_as_entries(field, rng, rows[lo:hi], part_of, cols)) == grew
        assert by_entries.rank == by_rows.rank < dim
        assert np.array_equal(_rows(by_entries), _rows(by_rows))

    # membership of candidate entries, inside and outside the span
    probe = _dense(field, _multihomogeneous_rows(rng, cols, dim, 40))
    outside = by_rows.contains_matrix(probe)
    assert by_rows.contains_matrix(_as_entries(field, rng, probe, part_of, cols)) == outside
    assert by_rows.contains_matrix(_as_entries(field, rng, rows, part_of, cols)) is None

    # a row across two parts is refused before anything is inserted
    across = linalg.Entries(
        (1, dim), np.array([0, 0]), np.array([cols[0][0], cols[1][0]]), _dense(field, [[1, 1]])[0]
    )
    rank, matrix = by_entries.rank, _rows(by_entries)
    with pytest.raises(InternalSoundnessFailure):
        by_entries.insert_matrix(across)
    assert by_entries.rank == rank and np.array_equal(_rows(by_entries), matrix)


def test_full_part_takes_no_candidates():
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=5)
    part_of, cols = multidegree_parts(spec, 5)
    dim = part_of.size
    arith = linalg._Arith(spec.field)
    k = max(range(len(cols)), key=lambda j: cols[j].size)
    blk, rest = (linalg._Block(arith, dim, parts=(part_of, cols)) for _ in range(2))
    assert blk.insert_matrix(np.eye(dim, dtype=np.int64)[cols[k]]) == cols[k].size  # part k is full
    rng = random.Random(0)
    rows = _dense(spec.field, _multihomogeneous_rows(rng, cols, dim, 60))
    in_k = np.array([r.any() and part_of[np.flatnonzero(r)[0]] == k for r in rows])
    assert in_k.any() and not in_k.all()
    cand = _as_entries(spec.field, rng, rows, part_of, cols)
    grouped = [j for j, _, _ in blk._group(cand)]
    assert grouped and k not in grouped
    rest.insert_matrix(rows[~in_k])
    assert blk.insert_matrix(cand) == rest.rank > 0


# -- the [I | R] layout of each part -------------------------------------------


# name -> (m, nil, degree, whether the block is split by multidegree, the
# rank to draw in each part from the parts' widths)
LAYOUT_CASES = {
    "one-column parts": (2, (2, 2), 5, True, lambda ws: [1] + [0] * (len(ws) - 1)),
    "multi-part": (3, (2, 2, 2), 5, True, lambda ws: [w // 2 for w in ws]),
    "full part": (3, (2, 2, 2), 5, True, lambda ws: [w if w == max(ws) else w // 2 for w in ws]),
    "one part": (2, (3, 3), 4, False, lambda ws: [ws[0] - 2]),
}
FULL_PART_CASES = {"one-column parts", "full part"}


def _check_layout(blk):
    """Each part is [I | R] on its pivot and free columns, or keeps nothing."""
    for e in blk._parts:
        if e.rank == 0:
            assert e.free is None and e.R is None
            continue
        piv = e.pivots.tolist()  # in the order the rows arrived
        assert len(set(piv)) == len(piv)
        assert e.free.tolist() == sorted(set(range(e.dim)) - set(piv))
        assert e.R.shape == (e.rank, e.dim - e.rank)


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(32003), Field.rationals()], ids=str)
@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_parts_keep_pivots_and_free_columns(field, case):
    m, nil, d, split, draw_ranks = LAYOUT_CASES[case]
    spec = AlgebraSpec(m=m, nil=nil, field=field, max_degree=d)
    part_of, cols = multidegree_parts(spec, d)
    dim = part_of.size
    if not split:
        part_of, cols = np.zeros(dim, dtype=np.intp), (np.arange(dim),)
    ranks = draw_ranks([c.size for c in cols])
    rng = random.Random(f"layout-{case}-{field}")
    basis = []  # per part, ranks[k] rows on its columns, of rank ranks[k] over any field
    for c, r in zip(cols, ranks):
        rows = np.zeros((r, dim), dtype=np.int64)
        for t, j in enumerate(sorted(rng.sample(range(c.size), r))):
            rows[t, c[j]] = 1
            rows[t, c[j + 1 :]] = [rng.randint(-4, 4) for _ in c[j + 1 :]]
        basis.append(rows)
    # per part, 2 * rank + 3 combinations of its rows, shuffled
    combination = lambda rows: sum((rng.randint(-2, 2) * b for b in rows), np.zeros(dim, dtype=np.int64))
    rows = [combination(rows) for rows in basis for _ in range(2 * len(rows) + 3)]
    rng.shuffle(rows)
    arith = linalg._Arith(field)
    new = lambda: linalg._Block(arith, dim, parts=(part_of, cols) if split else None)
    blk = new()
    third = len(rows) // 3
    blk.insert_matrix(_dense(field, rows[:third]))
    _check_layout(blk)
    blk.insert_matrix(_as_entries(field, rng, _dense(field, rows[third:]), part_of, cols))
    _check_layout(blk)
    ref, _ = reference_insert(field, [], [r.tolist() for r in rows])
    assert [[field.elem(x) for x in r] for r in _rows(blk)] == ref
    full = [e.rank == e.dim for e in blk._parts]
    assert any(full) == (case in FULL_PART_CASES) and not all(full)

    # a copy grows without touching the arrays the original holds
    before = [(e.pivots, e.free, e.R) for e in blk._parts]
    saved = [[None if a is None else a.copy() for a in arrays] for arrays in before]
    c = blk.copy()
    # the last free column of each part that is not full: old rows meet it
    # and, where two or more columns are free, others stay free
    last = [
        cs[-1 if e.free is None else e.free[-1]] for cs, e in zip(cols, blk._parts) if e.rank < e.dim
    ]
    assert c.insert_matrix(_dense(field, np.eye(dim, dtype=np.int64)[last])) == len(last)
    _check_layout(c)
    for e, arrays, copies in zip(blk._parts, before, saved):
        assert all(x is y for x, y in zip((e.pivots, e.free, e.R), arrays))
        assert all(a is None if b is None else np.array_equal(a, b) for a, b in zip(arrays, copies))
    assert [[field.elem(x) for x in r] for r in _rows(blk)] == ref

    # rows loaded from a block's entries take the same layout
    loaded = new()
    assert loaded.load(blk.entries())
    _check_layout(loaded)
    assert np.array_equal(_rows(loaded), _rows(blk))


# -- reduction: every dense matrix inside the kernel holds residues ------------


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_scatter_matches_sum_then_reduce(field):
    # `scatter` reduces only the positions it wrote; the others stay zero
    arith = linalg._Arith(field)
    rng = random.Random(f"scatter-{field}")
    size = 40
    # repeated positions below size // 2, none above it; at size // 2 two
    # values summing to a nonzero multiple of p (to zero over Q)
    at = np.array([rng.randrange(size // 2) for _ in range(200)] + [size // 2] * 2)
    if field.p:
        val = [rng.randint(-3 * field.p, 3 * field.p) for _ in range(200)] + [field.p, field.p]
        val = np.array(val, dtype=np.int64)
    else:
        val = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(200)] + [Fraction(1, 3), Fraction(-1, 3)]
        val = np.array(val, dtype=object)
    ref = [0] * size
    for t, v in zip(at.tolist(), val.tolist()):
        ref[t] += v
    out = arith.scatter(size, at, val)
    assert out.dtype == (np.int64 if field.p else object)
    assert out.tolist() == [field.elem(x) for x in ref]
    assert not out[size // 2 :].any()


def _unreduced(field, rng, rows, part_of, cols):
    """rows with random multiples of p (negative ones too) added on the
    columns of each row's part, so the rows stay multihomogeneous; over Q,
    a copy."""
    out = rows.copy()
    if field.p:
        for r, row in enumerate(rows):
            nz = np.flatnonzero(row != 0)
            c = cols[part_of[nz[0]] if nz.size else rng.randrange(len(cols))]
            out[r, c] += field.p * np.array([rng.randint(-3, 3) for _ in c], dtype=np.int64)
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("split", [True, False], ids=["parts", "one-part"])
def test_unreduced_dense_rows_act_as_their_residues(field, split):
    # a caller's dense rows may hold any integers; the block reduces them
    # once, as it takes them, and leaves the caller's array as it was
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), field=field, max_degree=5)
    part_of, cols = multidegree_parts(spec, 5)
    dim = part_of.size
    arith = linalg._Arith(field)
    rng = random.Random(f"unreduced-{field}-{split}")
    new = lambda: linalg._Block(arith, dim, parts=(part_of, cols) if split else None)
    rows = _dense(field, _multihomogeneous_rows(rng, cols, dim, 120))
    given = _unreduced(field, rng, rows, part_of, cols)
    if field.p:
        assert (given != rows).any() and ((given < 0) | (given >= field.p)).any()
    saved = given.copy()
    by_residues, by_given = new(), new()
    for lo, hi in ((0, 30), (30, len(rows))):  # the second call meets earlier rows
        assert by_given.insert_matrix(given[lo:hi]) == by_residues.insert_matrix(rows[lo:hi])
        assert by_given.rank == by_residues.rank
        assert np.array_equal(_rows(by_given), _rows(by_residues))
    assert 0 < by_residues.rank < dim

    probe = np.vstack([rows[:10], _dense(field, _multihomogeneous_rows(rng, cols, dim, 30))])
    probe_given = _unreduced(field, rng, probe, part_of, cols)
    saved_probe = probe_given.copy()
    verdicts = [by_residues.contains_matrix(probe[t : t + 1]) is None for t in range(len(probe))]
    assert [by_residues.contains_matrix(probe_given[t : t + 1]) is None for t in range(len(probe))] == verdicts
    assert True in verdicts and False in verdicts
    assert by_residues.contains_matrix(probe_given) == by_residues.contains_matrix(probe) == verdicts.index(False)
    assert np.array_equal(given, saved) and np.array_equal(probe_given, saved_probe)


def _sparse_fractions(rng, shape, zero_rows=(), zero_cols=()):
    """A `Fraction` matrix with about a third of its entries nonzero, none
    in the given rows and columns."""
    a = np.empty(shape, dtype=object)
    a[...] = Fraction(0)
    for i in range(shape[0]):
        for j in range(shape[1]):
            if i not in zero_rows and j not in zero_cols and rng.random() < 0.35:
                a[i, j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return a


# (rows of a, inner size, columns of b); the last three have an empty side
@pytest.mark.parametrize("n, k, w", [(6, 9, 7), (1, 12, 1), (9, 3, 8), (5, 0, 4), (0, 3, 2), (4, 3, 0)])
def test_q_matmul_multiplies_nonzeros_only(n, k, w):
    arith = linalg._Arith(Field.rationals())
    rng = random.Random(f"q-matmul-{n}-{k}-{w}")
    # a row and a column of each operand all zero, and column 2 of a meets row 2 of b, which is zero
    a = _sparse_fractions(rng, (n, k), zero_rows={0}, zero_cols={1})
    b = _sparse_fractions(rng, (k, w), zero_rows={1, 2}, zero_cols={0})
    for x, y in ((a, b), (arith.zeros((n, k)), b), (a, arith.zeros((k, w)))):
        out = arith.matmul(x, y)
        assert out.shape == (n, w) and out.dtype == object
        assert all(type(v) is Fraction for v in out.flat)
        assert out.tolist() == x.dot(y).tolist()
