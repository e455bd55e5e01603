"""Exact graded linear algebra over the chosen field.

Elements are `GradedVector`s: one dense coefficient row per nonzero degree
over the normal-word basis. They are given in one public form,
{degree: {ordinal: coeff}}; the engine builds its own from reduced rows
(`GradedVector._of`). Subspaces keep one reduced-row-echelon block per
degree (monic pivots, fully back-reduced, rows read in pivot order), so
equal subspaces have literally equal rows, as read canonically (below), and
every certificate is canonical.

The relations are multihomogeneous, so the derived powers and the closures
built from them are spanned by multihomogeneous rows. A subspace built only
from such rows is multigraded: each block keeps the RREF of each Z^m
multidegree part over that part's columns (`words.multidegree_parts`). The
parts have disjoint column supports, so the union of their rows is the
block's canonical RREF. A row with entries in two parts is an engine bug.
Membership reduces a row in every part where it has entries, so it is exact
for any row. Other subspaces keep one part. A subspace's `Layout` (one
part, multidegree parts, or parts with views, below) is fixed when `span`,
a sweep, [A, A] in closed form, the full space or the cache builds it.

A subspace a sweep builds is lazy (`Subspace._lazy`), as is the full
space: it holds a fill step and a cursor, the last degree that is final.
`block(f)` and `dim_at(f)` first run the fill on each degree past the
cursor up to f, in turn; the fill of degree f reads the subspace only
below f. So a subspace is built only as far as something reads it. The
full space's fill writes a degree's basis words as the identity rows of
a full block. A fill that raises leaves its degree unfinished.

A permutation of the letters that keeps every nil exponent is an
automorphism of the algebra. A *symmetric* subspace is one that all of them
map to itself: the full space, [A, A] in closed form, the derived step of a
symmetric level, the closures of a symmetric subspace, which take its
layout, and the derived powers a tower decodes from the cache; each has
the views layout. The permutations map each multidegree part onto one of
the same width (`words.letter_orbits`). In a symmetric block, each target
part (one wider than one column that is not the first of its orbit)
shares its source part's `_Echelon` and lists its columns as the images
of the source's, in the source's order. So the target reads the source's
rows relabelled: its rank, membership in it and its entries come through
the permutation, no copy is made, and it is never stale. A sweep
eliminates the sources only and leaves targets out of its insertions, as
it leaves parts at their ceiling out: a part's ceiling is its rank in a
block known to hold the candidates (`_Block.insert_matrix`), else its
width.
A target's rows are a reduced basis (the identity on its pivot columns)
that need not be canonical RREF. Membership, containment and the readers
of rows (the candidates of every closure) do not depend on the basis.
Where rows leave the engine (`Subspace.basis_vectors` and the row that
`certify._first_escape` names) they are read with
`_Block.canonical_entries`, which puts the target parts' rows through the
kernel afresh into parts with sorted columns. So rows are canonical only
through that reader. The cache stores no target rows: the rows of the other
parts are canonical as `_Block.entries` gives them.

Vector rows and block rows share one form: numpy arrays of int64 residues
for F_p (with matrix products routed through float64 BLAS whenever the
exactness bound inner*(p-1)^2 < 2^53 holds; elementwise, residue +
residue*residue is exact as `Field` admits only p < 2^31), `Fraction`
object arrays for Q. Candidate rows travel as `Entries`: (row, column,
value) triples, unreduced, that add up where they meet. Rows leave a block
only this way (`_Block.entries`, in degree columns, sorted by row, rows in
pivot order; the columns of a row are in order except in a target part,
and `_Block.canonical_entries` is the canonical form): the bracket
generators, membership of one subspace in another and the cache read them
so. `_Block.insert_matrix` groups a batch of candidate entries by part and
scatters them into one dense matrix per part over that part's own columns;
no matrix is as wide as its degree unless the block has one part. Rows
already in canonical RREF skip elimination: `_Block.write` fills the `[I | R]` (below) of each part that owns its
`_Echelon` from their entries, trusted for [A, A] in closed form and the
full space, and checked on the entries by `_Block.load` for the cache. Only
`Subspace.basis_vectors` forms dense degree rows, for its own degree.

One blocked kernel, `_Echelon.insert_matrix`, does all elimination into
a part (nothing else reaches `_rref`), after the echelon forms of M4RI
and FFLAS-FFPACK. A part keeps its RREF as `[I | R]` up to a column
permutation (Dumas, Giorgi and Pernet, arXiv:cs/0601133): its pivot
columns, its other ("free") columns and R, the rows' entries on the free
columns, and the kernel works on the free columns only. Per chunk of
`_CHUNK` rows: a matmul reduces the chunk against the part, the
remainder is put in RREF, a matmul back-reduces R by the new rows, and
the old rows of R, then the new, are written once into a new array: a
part keeps rows in arrival order, and only `_Block._gather` sorts them by
pivot. The remainder's RREF is the same step applied to its halves,
recursively, so its work is matmuls too; only pieces of at most `_BASE`
rows run a Gauss-Jordan loop.

Every dense matrix inside the kernel holds residues in [0, p), so a value
is reduced only where it can leave that range, as in FFLAS-FFPACK:
`_Arith.scatter` reduces the positions it wrote, not the zeros around
them; `_Block._group` reduces a caller's dense rows once, the one place
unreduced dense rows enter; `_Arith.matmul` leaves its product
unreduced, so each `x - product` is reduced once; `_Echelon.reduce_matrix`
takes its rows as they come. Over Q, `_Arith.matmul` multiplies only
pairs of nonzero entries, as the RREF rows it meets are sparse.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .errors import CorruptCacheEntry, InternalSoundnessFailure, SpecMismatch
from .fields import Coeff, Field
from .words import AlgebraSpec, Word, dim_component, letter_orbits, multidegree_parts, word_index

_FRACTION_ZERO = Fraction(0)
# candidate rows per step of the elimination kernel (`_Echelon.insert_matrix`)
_CHUNK = 256
# rows up to which `_rref` runs Gauss-Jordan instead of recursing
_BASE = 32


class _Arith:
    """Exact dense kernels for one field."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p

    def zeros(self, shape) -> np.ndarray:
        if self.p is not None:
            return np.zeros(shape, dtype=np.int64)
        a = np.empty(shape, dtype=object)
        a[...] = _FRACTION_ZERO
        return a

    def mod(self, a: np.ndarray) -> np.ndarray:
        return a % self.p if self.p is not None else a

    def scatter(self, size: int, at: np.ndarray, val: np.ndarray) -> np.ndarray:
        """A reduced flat array of the given size whose entry i is the sum
        of the values val[t] with at[t] == i; only the positions written
        are reduced, the others being zero."""
        out = self.zeros(size)
        np.add.at(out, at, val)
        if self.p is not None:
            out[at] %= self.p
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact product of reduced (entries in [0, p)) operand matrices,
        over F_p unreduced while inner*(p-1)^2 < 2^63 (float64 BLAS while
        it is below 2^53, where float sums are exact) and reduced above.
        Over Q only pairs of nonzero entries are multiplied: per inner
        index k, the nonzeros of column k of a by those of row k of b."""
        if self.p is None:
            out = self.zeros((a.shape[0], b.shape[1]))
            a_nz, b_nz = a != 0, b != 0
            for k in np.flatnonzero(a_nz.any(axis=0) & b_nz.any(axis=1)).tolist():
                i, j = np.flatnonzero(a_nz[:, k]), np.flatnonzero(b_nz[k])
                out[np.ix_(i, j)] += np.multiply.outer(a[i, k], b[k, j])
            return out
        inner = a.shape[-1]
        bound = inner * (self.p - 1) ** 2
        if bound < 2**53:
            return np.dot(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
        if bound < 2**63:
            return np.dot(a, b)
        return np.array(a.astype(object).dot(b.astype(object)) % self.p, dtype=np.int64)

    def nonzero_rows(self, m: np.ndarray) -> np.ndarray:
        return np.flatnonzero((m != 0).any(axis=1))


class GradedVector:
    """Element of the truncated algebra: degree -> one reduced coefficient
    row over the normal words of that degree, in the form of block rows.

    The one public form is {degree: {ordinal: coeff}}: degrees and ordinals
    are integers, each coefficient goes through `Field.elem`, and anything
    else raises `SpecMismatch`. The operations build their results with
    `_of`, which takes rows that are already reduced and of the right width
    as they are. Either way the stored rows are read-only, so vectors may
    share them; all operations return fresh vectors. Zero rows are never
    stored.
    """

    __slots__ = ("spec", "parts")

    def __init__(self, spec: AlgebraSpec, parts: Mapping[int, Mapping[int, Coeff]] | None = None):
        f = spec.field
        arith = _Arith(f)
        clean: dict[int, np.ndarray] = {}
        for d, comp in (parts or {}).items():
            d = _integer(d, "degree")
            if not 1 <= d <= spec.max_degree:
                raise SpecMismatch(f"degree {d} outside truncation range")
            if not isinstance(comp, Mapping):
                raise SpecMismatch(f"degree {d} needs an {{ordinal: coeff}} map, not {type(comp).__name__}")
            row = arith.zeros(dim_component(spec, d))
            for o, c in comp.items():
                o = _integer(o, "ordinal")
                if not 0 <= o < row.size:
                    raise SpecMismatch(f"ordinal {o} outside the degree-{d} basis")
                row[o] = f.elem(c)
            clean[d] = row
        self.spec = spec
        self.parts = _nonzero_frozen(clean)

    @classmethod
    def _of(cls, spec: AlgebraSpec, parts: dict[int, np.ndarray]) -> "GradedVector":
        """A vector of rows that are already reduced, of the right width, and
        not written afterwards; zero rows are dropped."""
        v = cls.__new__(cls)
        v.spec = spec
        v.parts = _nonzero_frozen(parts)
        return v

    @classmethod
    def from_word(cls, spec: AlgebraSpec, w: Word) -> "GradedVector":
        d, o = word_index(spec, w)
        return cls(spec, {d: {o: 1}})

    def is_zero(self) -> bool:
        return not self.parts

    def degrees(self) -> list[int]:
        return sorted(self.parts)

    def terms(self, d: int) -> list[tuple[int, Coeff]]:
        """Sorted (ordinal, coeff) pairs at one degree."""
        row = self.parts.get(d, ())  # no row, no terms
        return [(int(o), self.spec.field.elem(row[o])) for o in np.flatnonzero(row)]

    # -- linear operations ---------------------------------------------------

    def __add__(self, other: "GradedVector") -> "GradedVector":
        _same_spec(self.spec, other.spec)
        mod = _Arith(self.spec.field).mod
        parts = dict(self.parts)
        for d, row in other.parts.items():
            parts[d] = mod(parts[d] + row) if d in parts else row
        return GradedVector._of(self.spec, parts)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(self.spec.field.neg(self.spec.field.one))

    def scale(self, c: Coeff) -> "GradedVector":
        c = self.spec.field.elem(c)
        mod = _Arith(self.spec.field).mod
        return GradedVector._of(self.spec, {d: mod(row * c) for d, row in self.parts.items()})

    def __neg__(self) -> "GradedVector":
        return self.scale(self.spec.field.neg(self.spec.field.one))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedVector)
            and self.spec == other.spec
            and self.parts.keys() == other.parts.keys()
            and all(np.array_equal(row, other.parts[d]) for d, row in self.parts.items())
        )

    def __repr__(self) -> str:
        from .words import format_word, normal_words

        if self.is_zero():
            return "0"
        bits = []
        for d in self.degrees():
            basis = normal_words(self.spec, d)
            for o, c in self.terms(d):
                bits.append(f"{self.spec.field.format_coeff(c)}*{format_word(self.spec, basis[o])}")
        return " + ".join(bits)


def _integer(x, what: str) -> int:
    try:  # an exact int, as `AlgebraSpec` takes its fields
        return operator.index(x)
    except TypeError:
        raise SpecMismatch(f"{what} {x!r} is not an integer") from None


def _nonzero_frozen(parts: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """The nonzero rows, made read-only: vectors share them."""
    out = {}
    for d, row in parts.items():
        if np.count_nonzero(row):
            row.flags.writeable = False
            out[d] = row
    return out


class Entries:
    """A matrix of the given shape as its entries: row[t], col[t] holds
    val[t]. Entries at one position add up, and values need not be
    reduced, so bracket products enter as they are formed."""

    __slots__ = ("shape", "row", "col", "val")

    def __init__(self, shape: tuple[int, int], row: np.ndarray, col: np.ndarray, val: np.ndarray):
        self.shape, self.row, self.col, self.val = shape, row, col, val

    @classmethod
    def of(cls, m: np.ndarray) -> "Entries":
        """The nonzero entries of a dense matrix, sorted by row."""
        row, col = np.nonzero(m)
        return cls(m.shape, row, col, m[row, col])

    @classmethod
    def stack(cls, pieces: list["Entries"]) -> "Entries":
        """The rows of the pieces one after another (all of one width)."""
        if len(pieces) == 1:
            return pieces[0]
        at = np.cumsum([0] + [e.shape[0] for e in pieces])
        row = np.concatenate([e.row for e in pieces])
        row += np.repeat(at[:-1], [e.row.size for e in pieces])
        col = np.concatenate([e.col for e in pieces])
        val = np.concatenate([e.val for e in pieces])
        return cls((int(at[-1]), pieces[0].shape[1]), row, col, val)

    def dense(self, arith: _Arith) -> np.ndarray:
        n, dim = self.shape
        return arith.scatter(n * dim, self.row * dim + self.col, self.val).reshape(n, dim)


_NO_COLUMNS = np.empty(0, dtype=np.intp)


class _Echelon:
    """Canonical RREF rows over one set of columns, grown by the blocked
    kernel: row r is 1 at ``pivots[r]`` and ``R[r]`` at the sorted
    ``free``. Rows are kept in the order they arrived, not by pivot (a
    block gives them in pivot order). An empty part keeps None for ``free`` and ``R``;
    a full part keeps an R of no columns. A stored array is never written
    in place, so copies of a block may share them."""

    __slots__ = ("arith", "dim", "pivots", "free", "R")

    def __init__(self, arith: _Arith, dim: int, pivots=_NO_COLUMNS, free=None, R=None):
        self.arith = arith
        self.dim = dim
        self.pivots, self.free, self.R = pivots, free, R

    @property
    def rank(self) -> int:
        return self.pivots.size

    def reduce_matrix(self, m: np.ndarray) -> np.ndarray:
        """Remainders of the rows of m (reduced, as every matrix in the
        kernel) modulo the row space, on the free columns, or m itself while
        the part is empty; zero exactly when the row lies in the span."""
        if self.rank == 0:
            return m
        coeffs = m[:, self.pivots]
        used = np.flatnonzero((coeffs != 0).any(axis=0))  # only these rows contribute
        return self.arith.mod(m[:, self.free] - self.arith.matmul(coeffs[:, used], self.R[used]))

    def insert_matrix(self, m: np.ndarray, top: int) -> None:
        """Insert the rows of m, `_CHUNK` at a time, up to rank top, the part's ceiling (module docstring)."""
        if self.dim == 1:  # any nonzero row spans one column
            if self.rank == 0 and (m != 0).any():
                self.pivots, self.free = np.zeros(1, dtype=np.intp), _NO_COLUMNS
                self.R = self.arith.zeros((1, 0))
            return
        for lo in range(0, m.shape[0], _CHUNK):
            if self.rank >= top:
                break
            self._add(m[lo : lo + _CHUNK])

    def _add(self, m: np.ndarray) -> None:
        """Insert one chunk: reduce it against the rows, put what is left,
        in free-column coordinates, in RREF and merge it in."""
        c = self.reduce_matrix(m)
        keep = self.arith.nonzero_rows(c)
        if keep.size:
            self._merge(_rref(self.arith, c[keep]))

    def _merge(self, new: "_Echelon") -> None:
        """Add ``new``, an RREF over the free columns: back-reduce R by its
        rows, drop its pivot columns from R, and write the old rows, then
        the new ones, once each into one array."""
        if self.rank == 0:
            self.pivots, self.free, self.R = new.pivots, new.free, new.R
            return
        lp, lf, r = new.pivots, new.free, self.rank
        R = np.empty((r + new.rank, lf.size), dtype=self.R.dtype)
        R[:r], R[r:] = self.R[:, lf], new.R
        coeffs = self.R[:, lp]
        hit = np.flatnonzero((coeffs != 0).any(axis=1))
        if hit.size and lf.size:
            R[hit] = self.arith.mod(R[hit] - self.arith.matmul(coeffs[hit], new.R))
        self.pivots, self.free, self.R = np.concatenate([self.pivots, self.free[lp]]), self.free[lf], R


def _rref(arith: _Arith, c: np.ndarray) -> _Echelon:
    """The canonical RREF of c, a fresh matrix of nonzero rows, as an
    `_Echelon` over its columns, rows in the order they were found. Above
    `_BASE` rows, recursively, as in FFLAS-FFPACK: the RREF of the top half
    becomes a scratch part and the bottom half is added to it
    (`_Echelon._add`), so one matmul reduces the bottom by the top and
    another back-reduces the top by what is left. Up to `_BASE` rows,
    Gauss-Jordan over the rows in turn: a row's first nonzero (the earlier
    pivot columns are cleared in it) is its pivot, and the step clears that
    column in every other row with an entry there, right of the pivot."""
    n, w = c.shape
    if n > _BASE:
        e = _rref(arith, c[: n // 2])
        e._add(c[n // 2 :])
        return e
    piv = np.full(n, w, dtype=np.intp)
    # array methods, not the np.* wrappers: this loop runs once per row
    for i in range(n):
        nz = c[i].nonzero()[0]
        if not nz.size:
            continue
        col = piv[i] = nz[0]
        inv = arith.field.inv(c[i, col])
        if inv != 1:
            c[i, col:] = arith.mod(c[i, col:] * inv)
        hit = c[:, col].nonzero()[0]
        hit = hit[hit != i]
        if hit.size:
            c[hit, col:] = arith.mod(c[hit, col:] - c[hit, col][:, None] * c[i, col:][None, :])
    done = np.flatnonzero(piv < w)
    free = _other_columns(w, piv[done])
    return _Echelon(arith, w, piv[done], free, c[done[:, None], free])


def _other_columns(dim: int, piv: np.ndarray) -> np.ndarray:
    """The sorted columns in range(dim) that are not in piv."""
    is_free = np.ones(dim, dtype=bool)
    is_free[piv] = False
    return np.flatnonzero(is_free)


@lru_cache(maxsize=None)
def _one_part(dim: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The table of a one-part block, shared and read-only: all in part 0."""
    part_of, cols = np.zeros(dim, dtype=np.intp), np.arange(dim)
    part_of.flags.writeable = cols.flags.writeable = False
    return part_of, (cols,)


class _Block:
    """RREF rows of one graded component. A multigraded block keeps one
    `_Echelon` per multidegree part, over that part's columns; any other
    block keeps one over all columns (`_one_part`). Rows enter through the
    kernel or, canonical already (the full space's identity rows), `write`.
    A block of a symmetric subspace also has ``orbits``: each of its target
    parts shares its source part's `_Echelon`, over the images of the
    source's columns (`letter_orbits`), so it reads the source's rows
    relabelled and is never filled itself; its candidates must span a space
    that the letter permutations keep."""

    __slots__ = ("arith", "dim", "rank", "_part_of", "_cols", "_pos", "_width", "_parts", "_entries", "_orbits")

    def __init__(self, arith: _Arith, dim: int, parts=None, orbits=None):
        """``parts``: the component's table (`multidegree_parts`); None keeps
        one part. ``orbits``: the parts that read their source's rows and
        the order of their columns (`letter_orbits`)."""
        self.arith = arith
        self.dim = dim
        self._part_of, self._cols = parts if parts is not None else _one_part(dim)
        self._orbits = orbits
        if orbits is not None:
            self._cols = orbits.cols
        self._pos = self._width = None  # of a block with parts, once rows arrive
        self._parts = self._views([_Echelon(arith, c.size) for c in self._cols])
        self.rank = 0
        self._entries = None  # kept until the next insertion

    def _views(self, parts: list[_Echelon]) -> list[_Echelon]:
        """parts, with each target part (``orbits``) its source's `_Echelon`."""
        if self._orbits is not None:
            for t, k in zip(self._orbits.target.tolist(), self._orbits.source.tolist()):
                parts[t] = parts[k]
        return parts

    @property
    def full(self) -> bool:
        """The rows span the whole component (they are then the identity)."""
        return self.rank == self.dim

    def entries(self) -> Entries:
        """The rows as entries in degree columns, sorted by row; rows are in
        pivot order. Within a row the columns are in order except in a
        target part, which reads its source's rows over permuted columns
        (`canonical_entries` orders them). The one way rows leave a block
        for the engine, so no degree-wide matrix is formed."""
        if self._entries is None:
            self._entries = self._gather()
        return self._entries

    def canonical_entries(self) -> Entries:
        """The rows as `entries` gives them, but in canonical RREF, so equal
        blocks give equal entries: the way rows leave the engine. A target
        part reads its source's rows over permuted columns, so while one is
        partly filled its rows go afresh, each call, through the kernel into
        a block of the same parts with sorted columns that shares the other
        parts' rows, canonical already."""
        targets = () if self._orbits is None else self._orbits.target
        if not any(0 < self._parts[t].rank < self._parts[t].dim for t in targets):
            return self.entries()
        is_target = np.isin(np.arange(len(self._parts)), targets)
        fresh = _Block(self.arith, self.dim, parts=(self._part_of, tuple(np.sort(c) for c in self._cols)))
        fresh._parts = [f if t else _Echelon(e.arith, e.dim, e.pivots, e.free, e.R)
                        for f, e, t in zip(fresh._parts, self._parts, is_target.tolist())]
        m = self.entries()  # a row's entries all lie in its part
        keep = is_target[self._part_of[m.col]]
        fresh.insert_matrix(Entries(m.shape, m.row[keep], m.col[keep], m.val[keep]))
        return fresh.entries()

    def _gather(self) -> Entries:
        """The pivot 1s and the nonzeros of R of each part, in degree columns."""
        parts = [(c, e) for c, e in zip(self._cols, self._parts) if e.rank]
        piv = np.concatenate([c[e.pivots] for c, e in parts] + [_NO_COLUMNS])
        at = np.empty(piv.size, dtype=np.intp)
        at[np.argsort(piv)] = np.arange(piv.size)
        # pivots first, so a stable sort by row keeps each canonical row's columns in order
        rows, cols, vals = [at], [piv], [np.full(piv.size, self.arith.field.one)]
        r0 = 0
        for c, e in parts:
            r, j = np.nonzero(e.R)
            rows.append(at[r0 + r])
            cols.append(c[e.free[j]])
            vals.append(e.R[r, j])
            r0 += e.rank
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        order = np.argsort(rows, kind="stable")
        return Entries((piv.size, self.dim), rows[order], cols[order], vals[order])

    def _group(self, m, top=None) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """The rows of m (dense, or `Entries`) by part: (k, rows, sub) for
        each part k below its ceiling (top[k] for an insertion, else its
        width) where m has entries. ``sub`` holds those rows of m on the
        part's columns, reduced, and ``rows`` their indices in m. For an
        insertion (``top`` given), a row with entries in two parts raises
        `InternalSoundnessFailure` and target parts, which read their
        source's rows, are left out as parts at their ceiling are; otherwise
        such a row gives a piece in each part, a target's over its source's
        columns. In a one-part block every row is in the piece."""
        if len(self._cols) == 1:
            # a caller's dense rows may be unreduced: the one place they enter the kernel
            sub = self.arith.mod(m) if isinstance(m, np.ndarray) else m.dense(self.arith)
            return [(0, np.arange(m.shape[0]), sub)]
        if isinstance(m, np.ndarray):
            m = Entries.of(m)
        if self._pos is None:  # the column of each ordinal in its part
            self._pos = np.empty(self.dim, dtype=np.intp)
            for c in self._cols:
                self._pos[c] = np.arange(c.size)
            self._width = np.array([c.size for c in self._cols])
        part = self._part_of[m.col]
        has = np.zeros((len(self._parts), m.shape[0]), dtype=bool)  # part k meets row r
        has[part, m.row] = True
        if top is not None and (has.sum(axis=0) > 1).any():
            raise InternalSoundnessFailure("a row has entries in two multidegree parts")
        row, col, val = m.row, m.col, m.val
        tops = [e.dim for e in self._parts] if top is None else top
        capped = [e.rank >= t for e, t in zip(self._parts, tops)]
        if top is not None and self._orbits is not None:
            capped = np.array(capped)
            capped[self._orbits.target] = True
        if any(capped):
            has[capped] = False
            live = has[part, row]
            row, col, val, part = row[live], col[live], val[live], part[live]
        # part k's rows lie one after another in one flat buffer, from
        # start[k]; row r of part k begins at base[k, r]
        count = has.sum(axis=1)
        size = count * self._width
        start = np.cumsum(size) - size
        base = start[:, None] + (np.cumsum(has, axis=1) - 1) * self._width[:, None]
        flat = self.arith.scatter(int(start[-1] + size[-1]), base[part, row] + self._pos[col], val)
        pieces = []
        for k in np.flatnonzero(count).tolist():
            sub = flat[start[k] : start[k] + size[k]].reshape(count[k], self._width[k])
            pieces.append((k, np.flatnonzero(has[k]), sub))
        return pieces

    # no caller here; perfbench/spans.py wraps it by name and fails on a missing one
    def insert(self, v: np.ndarray) -> bool:
        return self.insert_matrix(v[None, :]) > 0

    def insert_matrix(self, m, ceiling: Optional["_Block"] = None) -> int:
        """Insert candidate rows, dense or as `Entries`, each into its part;
        returns the rank growth. ``ceiling``, a block of the same layout
        whose span holds the rows (the level above, in a derived step), caps
        each part at its rank there, else at its width; a part at its
        ceiling takes no rows. A row with entries in two parts is an engine
        bug (`InternalSoundnessFailure`)."""
        if self.rank >= (self.dim if ceiling is None else ceiling.rank):
            return 0
        start = self.rank
        top = [e.dim for e in self._parts] if ceiling is None else [e.rank for e in ceiling._parts]
        for k, _, sub in self._group(m, top):
            self._parts[k].insert_matrix(sub, top[k])
        self.rank = sum(e.rank for e in self._parts)  # a target counts its source's rows
        if self.rank > start:
            self._entries = None
        return self.rank - start

    def load(self, m: Entries) -> bool:
        """Take the rows m as the rows of this empty block (`write`) if they
        are canonical RREF as a block writes them, checked on the entries:
        rows in order, none empty; columns strictly increasing in a row (so
        none repeats); a 1 first in each row; strictly increasing pivots; no
        other entry in a pivot column. Returns whether they were; raises
        `CorruptCacheEntry` if a row has entries in two multidegree parts."""
        row, col = m.row, m.col  # values are reduced where read: no copy of them all
        off = np.diff(row, prepend=row[:1] - 1) == 0  # the entries after their row's first
        piv = col[~off]
        if not np.array_equal(row[~off], np.arange(m.shape[0])):
            return False
        if (self._part_of[col] != self._part_of[piv][row]).any():
            raise CorruptCacheEntry("a row has entries in two multidegree parts")
        is_piv = np.zeros(self.dim, dtype=bool)
        is_piv[piv] = True
        ordered = (np.diff(col)[off[1:]] > 0).all() and (np.diff(piv) > 0).all()
        if not ordered or (self.arith.mod(m.val[~off]) != 1).any() or is_piv[col[off]].any():
            return False
        self.write(piv, row[off], col[off], self.arith.mod(m.val[off]))
        return True

    def write(self, piv: np.ndarray, row=_NO_COLUMNS, col=_NO_COLUMNS, val=0) -> None:
        """Take as the rows of this empty block the canonical RREF rows with
        increasing pivots piv and reduced values val at (row, col) off the
        pivot columns (by default none), unchecked (`load` checks). Each part's `[I | R]` is
        filled from the entries, its R a view of one buffer for all parts.
        The rows of target parts are left out: those read their source's."""
        part = self._part_of[piv]
        rank = np.bincount(part, minlength=len(self._parts))
        order, end = np.argsort(part, kind="stable"), np.cumsum(rank)  # rows by part, in order
        if self._orbits is not None:
            rank[self._orbits.target] = 0
            keep = rank[part[row]] > 0
            row, col, val = row[keep], col[keep], val[keep] if np.ndim(val) else val
        width = np.array([c.size for c in self._cols], dtype=np.intp) - rank  # free columns
        size = rank * width
        start, flat = np.cumsum(size) - size, self.arith.zeros(int(size.sum()))
        base = np.empty(piv.size, dtype=np.intp)  # where each row of R starts in flat
        free_at = np.empty(self.dim, dtype=np.intp)  # each free ordinal's column in R
        for k in np.flatnonzero(rank).tolist():
            e, c, rows = self._parts[k], self._cols[k], order[end[k] - rank[k] : end[k]]
            base[rows] = start[k] + np.arange(rows.size) * width[k]
            e.pivots = np.searchsorted(c, piv[rows])
            e.free = _other_columns(e.dim, e.pivots)
            free_at[c[e.free]] = np.arange(e.free.size)
            e.R = flat[start[k] : start[k] + size[k]].reshape(rank[k], width[k])  # filled below
        flat[base[row] + free_at[col]] = val
        self.rank = sum(e.rank for e in self._parts)
        self._entries = None

    def copy(self) -> "_Block":
        """An independent block; it shares the parts' arrays, never rewritten,
        and its target parts read its own source parts."""
        out = _Block.__new__(_Block)
        for name in _Block.__slots__:
            setattr(out, name, getattr(self, name))
        out._parts = out._views([_Echelon(e.arith, e.dim, e.pivots, e.free, e.R) for e in self._parts])
        return out

    def contains_matrix(self, m) -> Optional[int]:
        """Index of the first row of m (dense, or `Entries`) not in the span,
        or None if all are. Each row is reduced in every part where it has
        entries: exact for any row."""
        if self.full:
            return None
        first = None
        for k, rows, sub in self._group(m):
            for lo in range(0, sub.shape[0], 1024):
                bad = self.arith.nonzero_rows(self._parts[k].reduce_matrix(sub[lo : lo + 1024]))
                if bad.size:
                    r = int(rows[lo + bad[0]])
                    first = r if first is None else min(first, r)
                    break
        return first


class Layout(Enum):
    """How a subspace's blocks keep their rows: in one part, one part per
    multidegree, or those parts with each target a view of its source."""

    ONE = "one part"
    PARTS = "multidegree parts"
    VIEWS = "parts with views"


class Subspace:
    """Graded subspace as one echelon block per degree, in the blocks'
    `Layout`, fixed when the subspace is built. A lazy one (`_lazy`) has a
    fill step and a cursor: `block` and `dim_at` first fill the degrees up
    to the one they read."""

    def __init__(self, spec: AlgebraSpec, layout: Layout = Layout.PARTS):
        self.spec = spec
        self.arith = _Arith(spec.field)
        self._blocks: dict[int, _Block] = {}
        self.layout = layout
        self._fill: Optional[Callable[[Subspace, int], None]] = None
        self._done = spec.max_degree  # the cursor: degrees 1.._done are final
        self._within: tuple[Subspace, ...] = ()  # known to hold this one, nearest first

    @classmethod
    def full_space(cls, spec: AlgebraSpec) -> "Subspace":
        """A, whose fill writes each degree's basis words as identity rows."""
        return cls(spec, Layout.VIEWS)._lazy(lambda s, d: s._block(d).write(np.arange(dim_component(spec, d))))

    def _lazy(self, fill: Callable[[Subspace, int], None]) -> "Subspace":
        """Make each degree f final only when read, by fill(self, f). The
        fill is handed the subspace, not holding it: a cycle would keep a
        half-read subspace's arrays until the cyclic collector runs."""
        self._fill, self._done = fill, 0
        return self

    def _reach(self, d: int) -> None:
        """Fill the degrees up to d that are not final, in turn; a fill that
        raises leaves its degree unfinished, to be filled again."""
        top = min(d, self.spec.max_degree)
        while self._done < top:
            self._fill(self, self._done + 1)
            self._done += 1
        if self._done == self.spec.max_degree:
            self._fill = None  # drop what the fill holds

    def block(self, d: int) -> _Block:
        if self._done < d:
            self._reach(d)
        return self._block(d)

    def _block(self, d: int) -> _Block:
        """The degree-d block as it stands, made empty if missing."""
        if d not in self._blocks:
            parts = None if self.layout is Layout.ONE else multidegree_parts(self.spec, d)
            orbits = letter_orbits(self.spec, d) if self.layout is Layout.VIEWS else None
            self._blocks[d] = _Block(self.arith, dim_component(self.spec, d), parts, orbits)
        return self._blocks[d]

    # -- queries -------------------------------------------------------------

    def contains(self, v: GradedVector) -> bool:
        _same_spec(self.spec, v.spec)
        return _first_nonmember(self, [v]) is None

    def dim_at(self, d: int) -> int:
        if not 1 <= d <= self.spec.max_degree:
            return 0
        if self._done < d:
            self._reach(d)
        return self._blocks[d].rank if d in self._blocks else 0

    def dims(self, all_degrees: bool = False) -> list[tuple[int, int]]:
        """(degree, rank) table; by default only degrees with rank > 0."""
        out = []
        for d in range(1, self.spec.max_degree + 1):
            r = self.dim_at(d)
            if r or all_degrees:
                out.append((d, r))
        return out

    def contains_subspace(self, other: "Subspace") -> bool:
        _same_spec(self.spec, other.spec)
        for d in range(1, self.spec.max_degree + 1):
            if other.dim_at(d) == 0:
                continue
            if self.block(d).contains_matrix(other.block(d).entries()) is not None:
                return False
        return True

    def basis_vectors(self, d: int) -> list[GradedVector]:
        """The canonical RREF rows of degree d."""
        if self.dim_at(d) == 0:
            return []
        return [GradedVector._of(self.spec, {d: row}) for row in self.block(d).canonical_entries().dense(self.arith)]

    def _like(self) -> "Subspace":
        """An empty subspace of this one's layout."""
        return Subspace(self.spec, self.layout)

    def __repr__(self) -> str:
        return f"Subspace({self.spec.m} gens, dims={self.dims()})"


def _same_spec(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """The one spec check of every binary operation: a, which must be b."""
    if a != b:
        raise SpecMismatch("operands over different algebra specs")
    return a


def _first_nonmember(s: Subspace, vectors: list[GradedVector]) -> Optional[int]:
    """Index of the first vector not in s, or None; one membership test per
    degree for all the vectors' rows of that degree."""
    at: dict[int, list[int]] = {}
    for t, v in enumerate(vectors):
        for d in v.parts:
            at.setdefault(d, []).append(t)
    bad = [
        ts[r]
        for d, ts in at.items()
        if (r := s.block(d).contains_matrix(np.stack([vectors[t].parts[d] for t in ts]))) is not None
    ]
    return min(bad, default=None)


def _multihomogeneous(spec: AlgebraSpec, d: int, m: np.ndarray) -> bool:
    """Whether each row of the degree-d matrix m lies in one multidegree part."""
    part_of, _ = multidegree_parts(spec, d)
    nz = m != 0
    lead = part_of[nz.argmax(axis=1)]
    return not (nz & (part_of[None, :] != lead[:, None])).any()


def span(spec: AlgebraSpec, vectors: Iterable[GradedVector]) -> Subspace:
    """Span of the homogeneous parts of the vectors, one insertion per
    degree; multigraded when every part is multihomogeneous."""
    rows: dict[int, list[np.ndarray]] = {}
    for v in vectors:
        _same_spec(spec, v.spec)
        for d, row in v.parts.items():
            rows.setdefault(d, []).append(row)
    mats = {d: np.stack(m) for d, m in rows.items()}
    s = Subspace(spec, Layout.PARTS if all(_multihomogeneous(spec, d, m) for d, m in mats.items()) else Layout.ONE)
    for d, m in mats.items():
        s.block(d).insert_matrix(m)
    return s
