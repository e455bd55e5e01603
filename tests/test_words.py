import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from nilpow import AlgebraSpec, dim_component, format_word, mul_table, normal_words, word_index
from nilpow.errors import DegreeOutOfRange, InternalSoundnessFailure, NotNormal
from nilpow.fields import Field
from nilpow import words
from nilpow.cache import cache_key
from nilpow.words import _orbits, _parts, _words, letter_orbits, multidegree_parts

from dense_oracle import brute_normal_words


def spec_of(m, nil, d=8):
    return AlgebraSpec(m=m, nil=tuple(nil), max_degree=d)


def test_single_generator_square_zero():
    s = spec_of(1, (2,))
    assert normal_words(s, 1) == ((1,),)
    assert normal_words(s, 2) == ()


def test_two_generator_degree_three():
    s = spec_of(2, (2, 2))
    ws = normal_words(s, 3)
    assert ws == ((1, 2, 1), (2, 1, 2))  # xyx, yxy
    assert dim_component(s, 3) == 2


def test_three_generator_degree_four_count():
    s = spec_of(3, (2, 2, 2))
    assert dim_component(s, 4) == 24 == 3 * 2**3


@pytest.mark.parametrize("m,nil", [(2, (2, 2)), (2, (3, 3)), (3, (2, 2, 2)), (1, (4,)), (3, (2, 3, 1))])
def test_counts_match_brute_force(m, nil):
    s = spec_of(m, nil, d=6)
    for d in range(1, 7):
        assert list(normal_words(s, d)) == brute_normal_words(m, nil, d)


def test_degree_out_of_range():
    s = spec_of(2, (2, 2), d=4)
    with pytest.raises(DegreeOutOfRange):
        normal_words(s, 5)
    with pytest.raises(DegreeOutOfRange):
        normal_words(s, 0)


def test_word_index_examples():
    s = spec_of(2, (2, 2))
    assert word_index(s, (1, 2, 1)) == (3, 0)
    assert word_index(s, (2, 1, 2)) == (3, 1)
    s1 = spec_of(1, (3,))
    assert word_index(s1, (1, 1)) == (2, 0)
    with pytest.raises(NotNormal):
        word_index(s, (1, 1))


def test_word_index_round_trip():
    s = spec_of(3, (2, 2, 2), d=5)
    for d in range(1, 6):
        for i, w in enumerate(normal_words(s, d)):
            assert word_index(s, w) == (d, i)


def test_dead_generator_excluded():
    s = spec_of(2, (1, 2))
    assert s.dead_generators == (1,)
    for d in range(1, 4):
        assert all(1 not in w for w in normal_words(s, d))
    assert dim_component(s, 1) == 1


def test_alternating_dims_are_two():
    s = spec_of(2, (2, 2), d=12)
    for d in range(1, 13):
        assert dim_component(s, d) == 2


def test_format_word():
    s = spec_of(2, (2, 2))
    assert format_word(s, (1, 2, 1)) == "xyx"
    assert format_word(s, (1, 2, 1), compact=False) == "x1.x2.x1"


# specs with empty components from degree 4 up, a dead generator, four
# generators, and unequal exponents (the first- and last-run logic)
EQUIVALENCE_SPECS = [(1, (4,), 8), (3, (2, 1, 3), 6), (4, (2, 2, 2, 2), 6), (2, (2, 3), 8), (2, (4, 3), 8)]


@pytest.mark.parametrize("m,nil,top", EQUIVALENCE_SPECS, ids=[f"{m};{nil};D={d}" for m, nil, d in EQUIVALENCE_SPECS])
def test_tables_match_brute_force(m, nil, top):
    # the reference is the dense oracle's: words enumerated by a full scan,
    # and the product of two words their concatenation when that is normal
    s = spec_of(m, nil, d=top)
    basis = {d: brute_normal_words(m, nil, d) for d in range(1, top + 1)}
    for d, words in basis.items():
        assert normal_words(s, d) == tuple(words)
        assert dim_component(s, d) == len(words)
        part_of, cols = multidegree_parts(s, d)
        md = [tuple(w.count(g) for g in range(1, m + 1)) for w in words]
        firsts = list(dict.fromkeys(md))
        assert part_of.tolist() == [firsts.index(k) for k in md]
        assert [c.tolist() for c in cols] == [[o for o, k in enumerate(md) if k == f] for f in firsts]
    ordinal = {w: o for words in basis.values() for o, w in enumerate(words)}
    for p in range(1, top):
        for q in range(1, top - p + 1):
            expect = [[ordinal.get(u + v, -1) for v in basis[q]] for u in basis[p]]
            assert mul_table(s, p, q).tolist() == expect
    for bad in (0, top + 1):
        for fn in (normal_words, dim_component, multidegree_parts):
            with pytest.raises(DegreeOutOfRange):
                fn(s, bad)


def test_specs_over_different_primes_share_read_only_tables():
    a = AlgebraSpec(m=2, nil=(2, 3), field=Field.prime(31991), max_degree=8)
    b = AlgebraSpec(m=2, nil=(2, 3), field=Field.prime(32003), max_degree=8)
    assert np.shares_memory(mul_table(a, 2, 3), mul_table(b, 2, 3))
    assert np.shares_memory(multidegree_parts(a, 5)[0], multidegree_parts(b, 5)[0])
    assert np.shares_memory(multidegree_parts(a, 5)[1][0], multidegree_parts(b, 5)[1][0])
    for arr in (mul_table(a, 2, 3), multidegree_parts(a, 5)[0], multidegree_parts(a, 5)[1][0]):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_spec_equality_and_hash():
    base = AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    assert base == AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
    assert hash(base) == hash(AlgebraSpec(m=2, nil=(2, 2), max_degree=8))
    assert base != AlgebraSpec(m=2, nil=(2, 2), field=Field.prime(31991), max_degree=8)
    assert base != AlgebraSpec(m=2, nil=(2, 2), max_degree=9)
    assert base != AlgebraSpec(m=2, nil=(2, 3), max_degree=8)


def test_spec_takes_integers_only():
    # integer-like values are stored as Python ints, so keys and certificates agree
    for spec in (
        AlgebraSpec(m=np.int64(2), nil=(np.int64(2), np.int64(2)), max_degree=np.int64(8)),
        AlgebraSpec(m=2, nil=[2, 2], max_degree=8),
    ):
        assert spec == AlgebraSpec(m=2, nil=(2, 2), max_degree=8)
        assert hash(spec) == hash(AlgebraSpec(m=2, nil=(2, 2), max_degree=8))
        assert type(spec.nil) is tuple and all(type(x) is int for x in (spec.m, spec.max_degree, *spec.nil))
        assert cache_key(spec, "derived[1]") == cache_key(AlgebraSpec(m=2, nil=(2, 2), max_degree=8), "derived[1]")
    for kwargs in (
        dict(m=2, nil=(2, 2.5)),
        dict(m=2.0, nil=(2, 2)),
        dict(m=2, nil=(2, 2), max_degree=6.0),
        dict(m=2, nil=(2, Fraction(2))),
        dict(m=1, nil=2),
        dict(m=2, nil="22"),
    ):
        with pytest.raises(ValueError):
            AlgebraSpec(**kwargs)


# -- letter permutations and the parts that relabelling fills -----------------


def _nil_keeping_perms(nil):
    """Every permutation of the letters 1..m that keeps each nil exponent."""
    m = len(nil)
    return [
        dict(zip(range(1, m + 1), p))
        for p in itertools.permutations(range(1, m + 1))
        if all(nil[a - 1] == nil[b - 1] for a, b in zip(range(1, m + 1), p))
    ]


def _word_at(nil, d, small):
    """The normal word of an ordinal: from `normal_words` where it is small,
    else counted out letter by letter (the word count after each prefix by
    a memoised recursion), so that no degree-wide table of words is built."""
    if small:
        basis = normal_words(AlgebraSpec(m=len(nil), nil=nil, max_degree=d), d)
        return lambda o: basis[o]
    m = len(nil)

    def runs(g, r):  # (letter, run) after each letter that may follow a run of r letters g
        return [(h, r + 1 if h == g else 1) for h in range(1, m + 1) if (r + 1 if h == g else 1) < nil[h - 1]]

    @functools.lru_cache(maxsize=None)
    def tails(n, g, r):  # normal words of length n after a run of r letters g
        return 1 if n == 0 else sum(tails(n - 1, h, run) for h, run in runs(g, r))

    def word(o):
        w, g, r = [], 0, 0
        for i in range(d):
            for h, run in runs(g, r):
                n = tails(d - i - 1, h, run)
                if o < n:
                    w.append(h)
                    g, r = h, run
                    break
                o -= n
        return tuple(w)

    return word


def _map_errors(nil, d, orbits, sample=None):
    """What is wrong with the column lists of degree d: a part that is no
    target must list its columns in increasing order; a target's list must
    be a bijection onto the target part, and one nil-keeping letter
    permutation σ must give its j-th column as σ of its source's j-th
    column, for every j. With ``sample``, the words of that many columns of
    each target are checked."""
    part_of, cols = _parts(nil, d)
    dim = part_of.size
    word = _word_at(nil, d, small=dim <= 20000)
    perms = _nil_keeping_perms(nil)
    rng = np.random.default_rng(0)
    targets = set(orbits.target.tolist())
    errors = [
        f"degree {d}: part {k} out of order"
        for k, c in enumerate(cols)
        if k not in targets and not np.array_equal(orbits.cols[k], c)
    ]
    for t, k in zip(orbits.target.tolist(), orbits.source.tolist()):
        src, img = orbits.cols[k], orbits.cols[t]
        if not np.array_equal(np.sort(img), cols[t]):
            errors.append(f"degree {d}: target {t} is no bijection of part {k}")
            continue
        js = range(src.size) if sample is None or src.size <= sample else rng.choice(src.size, sample, replace=False)
        pairs = [(word(int(src[j])), word(int(img[j]))) for j in js]
        if not any(all(tuple(p[g] for g in u) == v for u, v in pairs) for p in perms):
            errors.append(f"degree {d}: no letter permutation takes part {k} to part {t} column by column")
    return errors


def _orbit_errors(nil, d, orbits):
    """The targets must be the parts wider than one column that a letter
    permutation takes an earlier part to, and their sources not targets."""
    part_of, cols = _parts(nil, d)
    w = _words(nil, d)
    perms = _nil_keeping_perms(nil)
    md = [tuple(r) for r in w.md.tolist()]
    images = [{tuple(r[p[g] - 1] for g in range(1, len(nil) + 1)) for p in perms} for r in md]
    expect = [k for k, c in enumerate(cols) if c.size > 1 and any(md[j] in images[k] for j in range(k))]
    got = [] if orbits is None else orbits.target.tolist()
    errors = [] if sorted(got) == expect else [f"degree {d}: targets {sorted(got)}, expected {expect}"]
    if orbits is not None and set(orbits.source.tolist()) & set(got):
        errors.append(f"degree {d}: a source is a target")
    return errors


# (nil, D): equal exponents, exponent 1 and degrees with no words, and
# (2; 2,2) at D=41, where a word read as a base-(m+1) integer overflows int64
MAP_CASES = [
    ((2, 2), 41),
    ((3, 3), 12),
    ((1, 1), 1),
    ((1, 3, 3), 9),
    ((3, 1, 3), 7),
    ((2, 2, 3), 9),
    ((3, 2, 3), 9),
    ((2, 2, 2), 10),
    ((4, 4, 4), 7),
    ((2, 2, 2, 2), 6),
    ((3, 2, 3, 2), 6),
    ((2, 3), 8),
    ((1,), 3),
    ((3, 3, 1, 1), 6),
]


@pytest.mark.parametrize("nil,D", MAP_CASES, ids=[f"{n}-{D}" for n, D in MAP_CASES])
def test_column_maps_permute_letters(nil, D):
    spec = AlgebraSpec(m=len(nil), nil=nil, max_degree=D)
    for d in range(1, D + 1):
        orbits = letter_orbits(spec, d)
        assert _orbit_errors(nil, d, orbits) == []
        if orbits is not None:
            assert _map_errors(nil, d, orbits) == []


def test_column_maps_at_degree_21():
    # 3 * 2^20 words of degree 21: the maps come from the parent and letter
    # arrays, and a sample of each target's columns is checked by counting
    # words, which is first checked against `normal_words` at degree 10
    nil = (2, 2, 2)
    count, basis = _word_at(nil, 10, small=False), normal_words(spec_of(3, nil, 10), 10)
    assert [count(o) for o in range(len(basis))] == list(basis)
    try:
        orbits = letter_orbits(AlgebraSpec(m=3, nil=nil, max_degree=21), 21)
        assert _map_errors(nil, 21, orbits, sample=40) == []
        assert len(orbits.target) == 65
    finally:  # the word arrays of this degree take hundreds of MB
        for cache in (words._orbits, words._swap_maps, words._parts, words._words):
            cache.cache_clear()


def test_identity_column_maps_fail():
    # the check sees a map that takes a source's columns to the target's in
    # increasing order, and a target that lists a column twice
    for nil, d in [((2, 2, 2), 6), ((3, 3), 7), ((2, 2, 2, 2), 5)]:
        orbits = _orbits(nil, d)
        _, cols = _parts(nil, d)
        assert _map_errors(nil, d, orbits._replace(cols=cols))
        t = int(orbits.target[0])
        twice = list(orbits.cols)
        twice[t] = np.concatenate([orbits.cols[t][:1], orbits.cols[t][:-1]])
        assert _map_errors(nil, d, orbits._replace(cols=tuple(twice)))
        assert _map_errors(nil, d, orbits) == []


def test_orbits_refuse_a_map_that_is_no_bijection(monkeypatch):
    # a letter permutation maps part to part one to one; a map that sends
    # two columns of a part to one word raises
    nil, d = (2, 2, 2), 6
    maps = words._swap_maps(nil, d).copy()
    _, cols = _parts(nil, d)
    k = int(_orbits(nil, d).source[0])
    maps[:, cols[k][1]] = maps[:, cols[k][0]]
    monkeypatch.setattr(words, "_swap_maps", lambda *_: maps)
    with pytest.raises(InternalSoundnessFailure, match="does not map part"):
        _orbits.__wrapped__(nil, d)


def test_orbit_tables_are_shared_and_read_only():
    a = AlgebraSpec(m=3, nil=(2, 2, 2), field=Field.prime(31991), max_degree=8)
    b = AlgebraSpec(m=3, nil=(2, 2, 2), field=Field.rationals(), max_degree=9)
    assert letter_orbits(a, 6) is letter_orbits(b, 6)
    with pytest.raises(ValueError):
        letter_orbits(a, 6).cols[letter_orbits(a, 6).target[0]][0] = 0
    with pytest.raises(DegreeOutOfRange):
        letter_orbits(a, 9)
