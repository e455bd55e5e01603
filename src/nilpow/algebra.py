"""Graded algebra operations: product, Lie bracket, Jordan product, derived
powers, and the associative/Lie closures, all truncated at max_degree.

Element-level operations work on sparse `GradedVector`s. Closures work
degree-by-degree on echelon blocks: every contribution to degree f comes
from strictly smaller degrees, so one increasing sweep is a fixpoint.
Basis products are looked up in cached (p, q)-degree multiplication
tables, which keeps the inner loops in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ArityMismatch, SpecMismatch
from .linalg import GradedVector, Subspace, _Arith, span
from .words import AlgebraSpec, concat, dim_component, normal_words, word_index


@lru_cache(maxsize=None)
def mul_table(spec: AlgebraSpec, p: int, q: int) -> np.ndarray:
    """table[i, j] = ordinal of (i-th degree-p word)*(j-th degree-q word)
    in the degree p+q basis, or -1 when the product is zero."""
    assert p + q <= spec.max_degree
    up = normal_words(spec, p)
    uq = normal_words(spec, q)
    t = np.full((len(up), len(uq)), -1, dtype=np.int64)
    for i, u in enumerate(up):
        for j, v in enumerate(uq):
            w = concat(spec, u, v)
            if w is not None:
                t[i, j] = word_index(spec, w)[1]
    return t


# -- element-level operations ------------------------------------------------


def _check_pair(u: GradedVector, v: GradedVector) -> AlgebraSpec:
    if u.spec != v.spec:
        raise SpecMismatch("operands over different algebra specs")
    return u.spec


def mul(u: GradedVector, v: GradedVector) -> GradedVector:
    """Associative product; terms beyond max_degree are dropped."""
    spec = _check_pair(u, v)
    f = spec.field
    parts: dict[int, dict[int, object]] = {}
    for d1, c1 in u.parts.items():
        for d2, c2 in v.parts.items():
            d = d1 + d2
            if d > spec.max_degree:
                continue
            t = mul_table(spec, d1, d2)
            tgt = parts.setdefault(d, {})
            for o1, a in c1.items():
                row = t[o1]
                for o2, b in c2.items():
                    o = row[o2]
                    if o >= 0:
                        o = int(o)
                        tgt[o] = f.add(tgt.get(o, f.zero), f.mul(a, b))
    return GradedVector(spec, parts)


def bracket(u: GradedVector, v: GradedVector) -> GradedVector:
    """[u, v] = uv - vu."""
    return mul(u, v) - mul(v, u)


def jordan(u: GradedVector, v: GradedVector) -> GradedVector:
    """u o v = uv + vu."""
    return mul(u, v) + mul(v, u)


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


class _Batcher:
    """Buffers candidate rows and flushes them into one echelon block."""

    def __init__(self, block, cap: int = 2048):
        self.block = block
        self.cap = cap
        self.buf: list[np.ndarray] = []
        self.rows = 0

    def add(self, m: np.ndarray) -> None:
        if m.shape[0] == 0 or self.block.full:
            return
        self.buf.append(m)
        self.rows += m.shape[0]
        if self.rows >= self.cap:
            self.flush()

    def flush(self) -> None:
        if self.buf:
            self.block.insert_matrix(np.vstack(self.buf))
            self.buf.clear()
            self.rows = 0


def _word_brackets(
    spec: AlgebraSpec, p: int, q: int, arith: _Arith, same: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (i, j, m), 4096 pairs at a time: row r of m is the bracket of
    the i[r]-th degree-p basis word with the j[r]-th degree-q one. With
    ``same`` (p == q) only pairs i < j (antisymmetry covers the rest)."""
    dp, dq = dim_component(spec, p), dim_component(spec, q)
    if dp == 0 or dq == 0:
        return
    t1 = mul_table(spec, p, q)
    t2 = mul_table(spec, q, p)
    if same:
        ii, jj = np.triu_indices(dp, k=1)
    else:
        ii, jj = np.meshgrid(np.arange(dp), np.arange(dq), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
    for lo in range(0, ii.size, 4096):
        i, j = ii[lo : lo + 4096], jj[lo : lo + 4096]
        m = arith.zeros((i.size, dim_component(spec, p + q)))
        r = np.arange(i.size)
        o1 = t1[i, j]
        k = o1 >= 0
        np.add.at(m, (r[k], o1[k]), arith.field.one)
        o2 = t2[j, i]
        k = o2 >= 0
        np.add.at(m, (r[k], o2[k]), -arith.field.one)
        yield i, j, arith.mod(m)


def _row_pair_brackets(
    spec: AlgebraSpec,
    p: int,
    q: int,
    rows_p: np.ndarray,
    rows_q: np.ndarray,
    arith: _Arith,
    batcher: _Batcher,
    same: bool,
) -> None:
    """Brackets of every row of rows_p with every row of rows_q; with
    ``same`` only unordered pairs (antisymmetry makes the rest redundant)."""
    f = p + q
    dimf = dim_component(spec, f)
    t1 = mul_table(spec, p, q)
    t2 = mul_table(spec, q, p)
    for a in range(rows_p.shape[0]):
        if batcher.block.full:
            return
        u = rows_p[a]
        v = rows_q[a + 1 :] if same else rows_q
        if v.shape[0] == 0:
            continue
        # An entry gets one product of residues per sign (its word's degree-p
        # prefix and suffix fix i), so |entry| < (p-1)^2 < 2^62 for p < 2^31.
        m = arith.zeros((v.shape[0], dimf))
        for i in np.flatnonzero(u != 0):
            c = u[i]
            idx1 = t1[i]
            k1 = idx1 >= 0
            if k1.any():
                m[:, idx1[k1]] += c * v[:, k1]
            idx2 = t2[:, i]
            k2 = idx2 >= 0
            if k2.any():
                m[:, idx2[k2]] -= c * v[:, k2]
        batcher.add(arith.mod(m))


def _word_row_brackets(
    spec: AlgebraSpec, d: int, rows: np.ndarray, e: int, arith: _Arith
) -> Iterable[tuple[int, np.ndarray]]:
    """Yield (word ordinal a, matrix of [w_a, row] over all rows) for every
    degree-d basis word against degree-e rows."""
    f = d + e
    dimf = dim_component(spec, f)
    t1 = mul_table(spec, d, e)
    t2 = mul_table(spec, e, d)
    for a in range(dim_component(spec, d)):
        m = arith.zeros((rows.shape[0], dimf))
        idx1 = t1[a]
        k1 = idx1 >= 0
        if k1.any():
            m[:, idx1[k1]] += rows[:, k1]
        idx2 = t2[:, a]
        k2 = idx2 >= 0
        if k2.any():
            m[:, idx2[k2]] -= rows[:, k2]
        yield a, arith.mod(m)


# -- derived powers ----------------------------------------------------------


@dataclass
class DerivedTower:
    """Levels 0..imax of the derived series; level 0 is the full space."""

    spec: AlgebraSpec
    levels: list[Subspace]

    def level(self, i: int) -> Subspace:
        return self.levels[i]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _derived_step(spec: AlgebraSpec, prev: Subspace, from_full: bool) -> Subspace:
    out = Subspace(spec)
    arith = out.arith
    for f in range(2, spec.max_degree + 1):
        batcher = _Batcher(out.block(f))
        for p in range(1, f // 2 + 1):
            q = f - p
            if from_full:
                for _, _, m in _word_brackets(spec, p, q, arith, same=p == q):
                    batcher.add(m)
            elif prev.dim_at(p) and prev.dim_at(q):
                _row_pair_brackets(
                    spec, p, q, prev.block(p).matrix, prev.block(q).matrix, arith, batcher, same=p == q
                )
        batcher.flush()
    return out


def derived_tower(spec: AlgebraSpec, imax: int) -> DerivedTower:
    """Derived powers up to level imax, each truncated at max_degree."""
    levels = [Subspace.full_space(spec)]
    for j in range(imax):
        levels.append(_derived_step(spec, levels[-1], from_full=j == 0))
    return DerivedTower(spec, levels)


def derived_power(spec: AlgebraSpec, i: int) -> Subspace:
    return derived_tower(spec, i).level(i)


# -- closures ----------------------------------------------------------------


def ideal_closure(spec: AlgebraSpec, s: Subspace) -> Subspace:
    """Smallest two-sided associative ideal containing s, degree-wise.

    One increasing sweep over target degrees: the degree-f slice is the
    degree-f slice of s plus all one-generator left/right multiples of the
    already-closed degree f-1 slice.
    """
    if s.spec != spec:
        raise SpecMismatch("subspace over a different algebra spec")
    out = Subspace(spec)
    arith = out.arith
    d1 = dim_component(spec, 1)
    for f in range(1, spec.max_degree + 1):
        blk = out.block(f)
        if s.dim_at(f):
            blk.insert_matrix(s.block(f).matrix)
        if f < 2 or out.dim_at(f - 1) == 0 or blk.full:
            continue
        rows = out.block(f - 1).matrix
        tl = mul_table(spec, 1, f - 1)
        tr = mul_table(spec, f - 1, 1)
        batcher = _Batcher(blk)
        for g in range(d1):
            for idx in (tl[g], tr[:, g]):
                k = idx >= 0
                if not k.any():
                    continue
                m = arith.zeros((rows.shape[0], dim_component(spec, f)))
                m[:, idx[k]] = rows[:, k]
                batcher.add(m)
        batcher.flush()
    return out


def lie_ideal_closure(spec: AlgebraSpec, s: Subspace) -> Subspace:
    """Smallest Lie ideal of the bracket algebra containing s.

    Bracketing by basis words of every degree, not only degree 1: Lie
    multiples by the degree-1 slice alone do not generate multiples by
    higher components.
    """
    if s.spec != spec:
        raise SpecMismatch("subspace over a different algebra spec")
    out = Subspace(spec)
    arith = out.arith
    for f in range(1, spec.max_degree + 1):
        blk = out.block(f)
        if s.dim_at(f):
            blk.insert_matrix(s.block(f).matrix)
        batcher = _Batcher(blk)
        for d in range(1, f):
            e = f - d
            if out.dim_at(e) == 0 or blk.full:
                continue
            for _, m in _word_row_brackets(spec, d, out.block(e).matrix, e, arith):
                batcher.add(m)
        batcher.flush()
    return out


def lie_subalgebra_closure(spec: AlgebraSpec, gens: Iterable[GradedVector]) -> Subspace:
    """Smallest graded subspace containing the generators and closed under
    the bracket. Inhomogeneous generators are split into homogeneous parts
    (this can only enlarge the closure)."""
    out = span(spec, gens)
    arith = out.arith
    for f in range(1, spec.max_degree + 1):
        blk = out.block(f)
        batcher = _Batcher(blk)
        for p in range(1, f // 2 + 1):
            q = f - p
            if out.dim_at(p) == 0 or out.dim_at(q) == 0 or blk.full:
                continue
            _row_pair_brackets(
                spec, p, q, out.block(p).matrix, out.block(q).matrix, arith, batcher, same=p == q
            )
        batcher.flush()
    return out
