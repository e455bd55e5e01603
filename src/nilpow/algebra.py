"""Graded algebra operations: product, Lie bracket, Jordan product, derived
powers, and the associative/Lie closures, all truncated at max_degree.

Element-level operations work on `GradedVector` rows. The product of two
rows is their outer product gathered at the word pairs whose product is
nonzero (`_nonzero_index`), which come in the order of the product words;
the bracket and the Jordan product form uv -+ vu in the same pass, and
results are built with `GradedVector._of`, without a second check.
Closures work degree-by-degree on echelon blocks: every contribution to
degree f comes from strictly smaller degrees, so one increasing sweep is
a fixpoint. `_sweep` is that sweep; each derived power past [A, A] and
each closure is one call to it with its own candidate stream. A^(k) lies
in A^(k-1), so a derived step's sweep has the level above as its ceiling:
a part stops at its rank there. Basis
products are looked up in (p, q)-degree multiplication tables, which
keeps the inner loops in numpy: `mul_table` slices them from the tables (p, 1..D-p) that
`words._product_tables` builds in one numpy pass per p. Those are keyed
by the nil exponents and degrees, not the field, so specs over different
fields share them.

One generator, `_brackets`, produces every closure's candidates: brackets
row x row (basis words enter as the identity rows of a full block), or for
the ideal closure both products of each row with each generator. It reads
the rows of blocks as entries (`_Block.entries`) and yields the candidates
as `linalg.Entries` for a run of rows at a time, gathered from the tables
in one pass per run: each product of two entries is one entry, unreduced,
so no candidate matrix is as wide as its degree. The check suites test a
run with one membership test. One feeder, `_insert_all`, batches the
candidates into an echelon block, which forms dense rows only over the
columns of each multidegree part they reach. The first derived power
[A, A] needs no elimination at all: its canonical RREF is written down
from the rotations of the words (`_commutators`) into the parts that own
their rows (in a symmetric block, targets read their source's).
`DerivedTower` is the one tower builder: it builds each level on first
use, through an optional on-disk cache, and the ideal of each level once.
Subspaces and towers carry their spec, so the closures take only the
subspace.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .cache import cache_get, cache_key, cache_put, subspace_from_payload, subspace_to_payload
from .errors import ArityMismatch, CorruptCacheEntry, InternalSoundnessFailure
from .linalg import Entries, GradedVector, Subspace, _Arith, _same_spec, span
from .words import AlgebraSpec, _product_tables, _words, dim_component


# bounded: the slices share the tables, but one entry per (spec, p, q) would
# still pile up in a process that runs many primes
@lru_cache(maxsize=4096)
def mul_table(spec: AlgebraSpec, p: int, q: int) -> np.ndarray:
    """table[i, j] = ordinal of (i-th degree-p word)*(j-th degree-q word)
    in the degree p+q basis, or -1 when the product is zero. A read-only
    slice of the tables (p, 1..D-p) built in one pass, which specs that
    differ only in the field share."""
    assert p + q <= spec.max_degree
    tables, offsets = _product_tables(spec.nil, p, spec.max_degree - p)
    return tables[:, offsets[q - 1] : offsets[q]]


@lru_cache(maxsize=4096)
def _nonzero_index(spec: AlgebraSpec, p: int, q: int) -> np.ndarray:
    """The flat indices of the nonzero products in `mul_table(spec, p, q)`,
    increasing: row-major, the t-th of them gives the t-th word of degree
    p+q. Cached, as a boolean mask per product costs more than the gather."""
    index = np.flatnonzero(mul_table(spec, p, q) >= 0)
    index.flags.writeable = False
    return index


# -- element-level operations ------------------------------------------------


def _products(u: GradedVector, v: GradedVector, sign: int) -> GradedVector:
    """uv + sign*vu for sign in (1, -1), or uv for sign 0, in one pass over
    the degree splits (d1, d2); terms beyond max_degree are dropped. The
    product of two rows gathers their outer product at `_nonzero_index`.
    Each split adds at most one product per sign to a word and is reduced
    at once, so the sums stay below p + 2(p-1)^2 < 2^63 for p < 2^31."""
    spec = _same_spec(u.spec, v.spec)
    mod = _Arith(spec.field).mod
    parts: dict[int, np.ndarray] = {}
    for d1, r1 in u.parts.items():
        for d2, r2 in v.parts.items():
            d = d1 + d2
            if d > spec.max_degree:
                continue
            acc = np.multiply.outer(r1, r2).ravel()[_nonzero_index(spec, d1, d2)]
            if sign:
                vu = np.multiply.outer(r2, r1).ravel()[_nonzero_index(spec, d2, d1)]
                acc = acc + vu if sign > 0 else acc - vu
            parts[d] = mod(parts[d] + acc if d in parts else acc)
    return GradedVector._of(spec, parts)


def mul(u: GradedVector, v: GradedVector) -> GradedVector:
    """Associative product; terms beyond max_degree are dropped."""
    return _products(u, v, 0)


def bracket(u: GradedVector, v: GradedVector) -> GradedVector:
    """[u, v] = uv - vu."""
    return _products(u, v, -1)


def jordan(u: GradedVector, v: GradedVector) -> GradedVector:
    """u o v = uv + vu."""
    return _products(u, v, 1)


def eval_f(s: int, args: Sequence[GradedVector]) -> GradedVector:
    """The recursively bracketed multilinear element: level 1 is a plain
    bracket, level s brackets two level s-1 evaluations on split arguments."""
    if s < 1:
        raise ArityMismatch("level must be >= 1")
    if len(args) != 2**s:
        raise ArityMismatch(f"level {s} needs {2**s} arguments, got {len(args)}")
    if s == 1:
        return bracket(args[0], args[1])
    half = len(args) // 2
    return bracket(eval_f(s - 1, args[:half]), eval_f(s - 1, args[half:]))


# -- closure machinery -------------------------------------------------------

# `_insert_all` hands `_Block.insert_matrix` fewer than `_BUFFER` candidate
# rows plus one run, as entries; the block forms a dense matrix per part hit
_BUFFER = 2048
# a run of `_brackets`, for every closure, holds at most `_BUFFER` // 8 rows
# (both products of a pair count) and gathers at most `_RUN_PAIRS` entry
# pairs, unless it is a single row of rows_p
_RUN_PAIRS = 2**16


def _brackets(
    spec: AlgebraSpec, p: int, q: int, rows_p: Entries, rows_q: Entries, same: bool = False, products: bool = False
) -> Iterator[tuple[int, Entries]]:
    """Yield (a, m) for runs of rows a, a+1, ... of the degree-p rows_p,
    in order: m stacks, for each row a' of the run in turn, the brackets
    [rows_p[a'], rows_q[j]] with the rows j of the degree-q rows_q, or only
    those with j > a' under ``same`` (rows_q is then rows_p, p == q;
    antisymmetry covers the other pairs). Without ``same``, row r of m is
    thus the bracket of row a + r // n with row r % n, n = rows_q.shape[0];
    under ``products`` that pair (u, v) gives u v in row 2r, v u in 2r + 1.
    A run has at most `_BUFFER` // 8 rows of m and `_RUN_PAIRS` entry pairs,
    or one row of rows_p. Both row sets are sorted by row; m holds each
    product of two entries as an entry of its own, unreduced."""
    dimf = dim_component(spec, p + q)
    t1 = mul_table(spec, p, q)
    t2 = mul_table(spec, q, p)
    n = rows_q.shape[0]
    top = (n - 1 if same else rows_p.shape[0]) if n else 0  # the rows with a bracket
    k = 2 if products else 1  # rows of m per pair

    def before(a: int) -> int:  # the pairs that rows 0..a-1 give
        return a * n - (a * (a + 1) // 2 if same else 0)

    ptr = np.searchsorted(rows_p.row, np.arange(top + 1)).tolist()
    bq, jq, xq = rows_q.row, rows_q.col, rows_q.val
    max_rows = _BUFFER // 8
    a = 0
    while a < top:
        k0 = ptr[a + 1] if same else 0  # under ``same``, rows up to a pair with no row of the run
        b, j, x = bq[k0:], jq[k0:], xq[k0:]
        stop = min(top, bisect_right(ptr, ptr[a] + _RUN_PAIRS // max(1, b.size)) - 1)
        if same:
            a1 = a + 1
            while a1 < stop and k * (before(a1 + 1) - before(a)) <= max_rows:
                a1 += 1
        else:
            a1 = max(a + 1, min(stop, a + max_rows // (k * n)))
        e = slice(ptr[a], ptr[a1])
        pr, i, c = rows_p.row[e, None], rows_p.col[e, None], rows_p.val[e, None]
        # Product words of entry i of row a' with entry j of row b: u_i v_j
        # with coefficient c*x, and v_j u_i with -c*x, both in row r of m,
        # r = before(a') - before(a) + b (less a' + 1 under ``same``), or in
        # rows 2r and 2r + 1, both with c*x, under ``products``. An entry gets
        # at most one product per sign (its word's degree-p prefix and suffix
        # fix the factors), so a sum at one position stays below (p-1)^2 < 2^62.
        d = pr - a
        r = d * n - (d * (pr + a + 1) // 2 + pr + 1 if same else 0) + b
        rows = np.concatenate([2 * r, 2 * r + 1] if products else [r, r])
        cols = np.concatenate([t1[i, j], t2[j, i]])
        keep = cols >= 0
        if same:
            keep &= np.tile(b > pr, (2, 1))
        cx = c * x
        vals = np.concatenate([cx, cx if products else -cx])
        yield a, Entries((k * (before(a1) - before(a)), dimf), rows[keep], cols[keep], vals[keep])
        a = a1


def _insert_all(blk, mats: Iterable[Entries], ceiling=None) -> None:
    """Insert a lazy stream of candidate rows into one echelon block, one call
    per `_BUFFER` rows reached and one for the rest; stops drawing at its
    ceiling, the rank of ``ceiling`` (`_Block.insert_matrix`) or else its
    width, so a block whose ceiling is 0 draws none."""
    top = blk.dim if ceiling is None else ceiling.rank
    if blk.rank >= top:
        return
    buf: list[Entries] = []
    rows = 0
    for m in mats:
        buf.append(m)
        rows += m.shape[0]
        if rows >= _BUFFER:
            blk.insert_matrix(Entries.stack(buf), ceiling)
            if blk.rank >= top:
                return
            buf, rows = [], 0
    if rows:
        blk.insert_matrix(Entries.stack(buf), ceiling)


def _sweep(out: Subspace, candidates: Callable[[Subspace, int], Iterable[Entries]], ceiling=None) -> Subspace:
    """Insert candidates(out, f) into out's degree-f block for f = 1..D in
    turn; the candidates may read out in degrees below f, already final.
    ``ceiling``, a subspace of out's layout that holds every candidate,
    stops each part of out at its rank there; out keeps no trace of it.
    A symmetric out is eliminated in one part of each orbit of the letter
    permutations, which the other parts of the orbit read relabelled."""
    for f in range(1, out.spec.max_degree + 1):
        _insert_all(out.block(f), candidates(out, f), None if ceiling is None else ceiling.block(f))
    return out


def _split_brackets(s: Subspace, f: int) -> Iterator[Entries]:
    """Candidate rows [s_p, s_{f-p}] of one subspace, for every split p <= f - p."""
    for p in range(1, f // 2 + 1):
        q = f - p
        if s.dim_at(p) and s.dim_at(q):
            rows_p = s.block(p).entries()
            rows_q = rows_p if p == q else s.block(q).entries()
            for _, m in _brackets(s.spec, p, q, rows_p, rows_q, same=p == q):
                yield m


def _word_brackets(s: Subspace, f: int, lo: int = 1) -> Iterator[tuple[int, int, Entries]]:
    """(d, a, m) for each degree lo <= d < f and each run of degree-d basis
    words from word a on: row r of m is [word a + r // n, row r % n of
    s_{f-d}], where n = s.dim_at(f - d)."""
    words = Subspace.full_space(s.spec)
    for d in range(lo, f):
        if s.dim_at(f - d):
            rows_q = s.block(f - d).entries()
            for a, m in _brackets(s.spec, d, f - d, words.block(d).entries(), rows_q):
                yield d, a, m


def _multiples(s: Subspace, e: int) -> Iterator[Entries]:
    """u g and g u for each degree-e row u of s and each generator g."""
    if s.dim_at(e):
        gens = Subspace.full_space(s.spec).block(1).entries()
        for _, m in _brackets(s.spec, e, 1, s.block(e).entries(), gens, products=True):
            yield m


# -- derived powers ----------------------------------------------------------


def _derived_step(spec: AlgebraSpec, prev: Subspace, from_full: bool) -> Subspace:
    """[prev, prev], in prev's layout. ``from_full`` requires prev to be the
    full space, and writes [A, A] down in closed form (`_commutators`);
    otherwise every split [prev_p, prev_q] is swept in, degree by degree,
    with prev as the ceiling: prev must be closed under the bracket (a
    derived power or a Lie ideal), so that [prev, prev] lies in it."""
    out = Subspace(spec, multigraded=prev.multigraded, symmetric=prev.symmetric)
    if from_full:
        return _commutators(out)
    return _sweep(out, lambda _, f: _split_brackets(prev, f), ceiling=prev)


def _commutators(out: Subspace) -> Subspace:
    """[A, A] written into the empty out as its canonical RREF, with no
    elimination. For normal words, [u, v] = uv - vu with each product zero
    or the concatenation, so [A, A]_d is spanned by the words w with a
    rotation that is not normal (then w is a bracket on its own) and by the
    differences of two rotations of any other word. Each word of the first
    kind is thus a row e_w; each other word w below the largest ordinal t of
    its rotation class is a pivot with row e_w - e_t, and the class maxima
    are the free columns. Words x^r, whose class is themselves, give no row.

    A rotation of w fails to be normal exactly when w is not one run and
    its closing and opening runs, of one letter, reach that letter's nil
    exponent together. The other words are permuted by the one-letter
    rotation u b -> b u, read from the (1, d-1) product table; pointer
    doubling over it gives each class maximum in ceil(log2 d) steps."""
    spec = out.spec
    nil = np.asarray(spec.nil)
    letters = _words(spec.nil, 1).last
    at = np.zeros(spec.m + 1, dtype=np.intp)  # the degree-1 ordinal of each live letter
    at[letters] = np.arange(letters.size)
    for d in range(2, spec.max_degree + 1):  # [A, A]_1 = 0
        w = _words(spec.nil, d)
        alone = (w.first == w.last) & (w.first_run < d) & (w.first_run + w.last_run >= nil[w.first - 1])
        o = np.arange(alone.size)
        step = np.where(alone, o, mul_table(spec, 1, d - 1)[at[w.last], w.parent])
        if (step < 0).any():
            raise InternalSoundnessFailure(f"a rotation left the normal words of degree {d}")
        top = o
        for _ in range((d - 1).bit_length()):  # top[o]: the largest of rotations 0..2^k-1 of o
            top = np.maximum(top, top[step])
            step = step[step]
        piv = np.flatnonzero(alone | (top > o))
        r = np.flatnonzero(~alone[piv])
        out.block(d).write(piv, r, top[piv[r]], spec.field.neg(spec.field.one))
    return out


def _cached(spec: AlgebraSpec, key: str, cache_dir: str | Path) -> Optional[Subspace]:
    payload = cache_get(cache_dir, key)
    if payload is None:
        return None
    try:
        return subspace_from_payload(spec, payload)
    except CorruptCacheEntry as exc:
        print(f"warning: ignoring cache entry {key}: {exc}", file=sys.stderr)
        return None


class DerivedTower:
    """The derived series of one spec, each level truncated at max_degree;
    level 0 is the full space. `level(i)` builds the levels up to i that
    are missing. With ``cache_dir`` each level is read from the on-disk
    cache when an entry decodes, and computed and written back otherwise.
    `ideal(k)` keeps the ideal of each level it is asked for, so the checks
    and the nilpotency index share it."""

    def __init__(self, spec: AlgebraSpec, cache_dir: str | Path | None = None):
        self.spec = spec
        self.cache_dir = cache_dir
        self.levels = [Subspace.full_space(spec)]
        self._ideals: dict[int, Subspace] = {}

    def level(self, i: int) -> Subspace:
        if i < 0:
            raise ValueError(f"derived level must be >= 0, got {i}")
        while len(self.levels) <= i:
            j = len(self.levels)
            key = cache_key(self.spec, f"derived[{j}]")
            level = _cached(self.spec, key, self.cache_dir) if self.cache_dir else None
            if level is None:
                level = _derived_step(self.spec, self.levels[-1], from_full=j == 1)
                if self.cache_dir:
                    cache_put(self.cache_dir, key, subspace_to_payload(level))
            self.levels.append(level)
        return self.levels[i]

    def ideal(self, k: int) -> Subspace:
        """id(A^(k)), the two-sided ideal of level k, built once per tower
        (in memory only)."""
        if k not in self._ideals:
            self._ideals[k] = ideal_closure(self.level(k))
        return self._ideals[k]


# -- closures ----------------------------------------------------------------


def ideal_closure(s: Subspace) -> Subspace:
    """Smallest two-sided associative ideal containing s, degree-wise: the
    degree-f slice is that of s plus the products u g and g u of each row u
    of the closed degree f-1 slice with each generator g (`_multiples`)."""
    return _sweep(s.copy(), lambda out, f: _multiples(out, f - 1))


def lie_ideal_closure(s: Subspace) -> Subspace:
    """Smallest Lie ideal of the bracket algebra containing s.

    Bracketing by basis words of every degree, not only degree 1: Lie
    multiples by the degree-1 slice alone do not generate multiples by
    higher components.
    """
    return _sweep(s.copy(), lambda out, f: (m for _, _, m in _word_brackets(out, f)))


def lie_subalgebra_closure(spec: AlgebraSpec, gens: Iterable[GradedVector]) -> Subspace:
    """Smallest graded subspace containing the generators and closed under
    the bracket. Inhomogeneous generators are split into homogeneous parts
    (this can only enlarge the closure)."""
    return _sweep(span(spec, gens), _split_brackets)
