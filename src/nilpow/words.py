"""Monomial model of the presented algebra <x_1..x_m | x_i^{n_i} = 0>.

A word is a tuple of generator indices in 1..m. A word is *normal* when it
contains no run of n_i consecutive copies of generator i; normal words of
degree d form the canonical basis of the degree-d component, ordered
lexicographically with x_1 < ... < x_m. Everything is truncated at
``max_degree``: no basis exists beyond it and products overflowing it are
the caller's responsibility to drop.

Computations read the words as numpy arrays, built one degree at a time
(`_words`) and keyed by the nil exponents only, so specs that differ in
field or truncation share them, read-only; `normal_words` makes tuples for
display. The product of two normal words is zero or their
concatenation, and the normal words of degree p+q are exactly the pairs
(u, v) whose product is not zero, in row-major order. `_product_tables`
builds the multiplication tables (p, 1..D-p) from this in one pass per p.
These two are the only statement of the rules: there is no word-at-a-time
normality test or product. Their reference is `tests/dense_oracle.py`,
which enumerates words and concatenates them by brute force.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegreeOutOfRange, InternalSoundnessFailure, NotNormal
from .fields import DEFAULT_PRIME, Field

Word = tuple[int, ...]

_COMPACT = "xyz"


@dataclass(frozen=True)
class AlgebraSpec:
    """Presentation parameters; every computation is keyed on one of these.

    ``nil[i-1]`` is the nil exponent of generator i. A generator with
    exponent 1 is zero in the algebra and appears in no normal word.
    """

    m: int
    nil: tuple[int, ...]
    field: Field = dc_field(default_factory=lambda: Field.prime(DEFAULT_PRIME))
    max_degree: int = 8

    def __post_init__(self) -> None:
        try:  # an exact int each, as the cache key and the certificate record them
            m, max_degree, *nil = (operator.index(x) for x in (self.m, self.max_degree, *self.nil))
        except TypeError:
            raise ValueError("m, max_degree and the nil exponents must be integers") from None
        for name, value in (("m", m), ("max_degree", max_degree), ("nil", tuple(nil))):
            object.__setattr__(self, name, value)
        if self.m < 1:
            raise ValueError("need at least one generator")
        if len(self.nil) != self.m:
            raise ValueError("nil exponent list length must equal generator count")
        if any(n < 1 for n in self.nil):
            raise ValueError("nil exponents must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        # every table lookup hashes the spec
        object.__setattr__(self, "_hash", hash((self.m, self.nil, self.field, self.max_degree)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dead_generators(self) -> tuple[int, ...]:
        """Generators with nil exponent 1 (identically zero)."""
        return tuple(i for i in range(1, self.m + 1) if self.nil[i - 1] == 1)


def _check_degree(spec: AlgebraSpec, d: int) -> None:
    if not 1 <= d <= spec.max_degree:
        raise DegreeOutOfRange(f"degree {d} outside 1..{spec.max_degree}")


class _Words(NamedTuple):
    """The normal words of one degree as arrays over their ordinals.

    Word o is word ``parent[o]`` of the degree below followed by the letter
    ``last[o]``. ``first[o]`` is its first letter, ``first_run[o]`` and
    ``last_run[o]`` the lengths of its opening and closing same-letter
    runs, and ``part[o]`` the number of its multidegree (the number of each
    generator in it), whose row in ``md`` is that multidegree; parts are
    numbered in the order of their first ordinal. Degree 0 is the one empty
    word, with letter 0 and runs of length 0."""

    parent: np.ndarray
    last: np.ndarray
    last_run: np.ndarray
    first: np.ndarray
    first_run: np.ndarray
    part: np.ndarray
    md: np.ndarray


def _frozen(arrays):
    """The arrays, made read-only: the caches hand them to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _words(nil: tuple[int, ...], d: int) -> _Words:
    """Degree d appends each allowed letter, in order, to each degree d-1
    word in turn, which keeps the words in lexicographic order."""
    m = len(nil)
    if d == 0:
        return _frozen(_Words(*[np.zeros(1, dtype=np.intp)] * 6, np.zeros((1, m), dtype=np.intp)))
    u = _words(nil, d - 1)
    run = np.where(u.last[:, None] == np.arange(1, m + 1), u.last_run[:, None] + 1, 1)
    parent, g = np.nonzero(run < np.asarray(nil))
    last = g + 1
    first = last if d == 1 else u.first[parent]
    first_run = u.first_run[parent]
    first_run = first_run + ((first_run == d - 1) & (last == first))
    # A word's multidegree is its parent's plus its last letter. Taking the
    # (parent part, letter) pairs in the order of their first word numbers
    # the parts in the order of their first ordinal.
    pairs, at, inverse = np.unique(u.part[parent] * m + g, return_index=True, return_inverse=True)
    pairs, parent_md = pairs.tolist(), u.md.tolist()
    number: dict[tuple[int, ...], int] = {}
    part = np.empty(len(pairs), dtype=np.intp)
    for i in np.argsort(at).tolist():
        k, letter = divmod(pairs[i], m)
        row = parent_md[k].copy()
        row[letter] += 1
        part[i] = number.setdefault(tuple(row), len(number))
    md = np.array(list(number), dtype=np.intp).reshape(-1, m)
    return _frozen(_Words(parent, last, run[parent, g], first, first_run, part[inverse], md))


@lru_cache(maxsize=None)
def _word_tuples(nil: tuple[int, ...], d: int) -> tuple[Word, ...]:
    if d == 0:
        return ((),)
    prev, w = _word_tuples(nil, d - 1), _words(nil, d)
    return tuple(prev[i] + (g,) for i, g in zip(w.parent.tolist(), w.last.tolist()))


@lru_cache(maxsize=None)
def normal_words(spec: AlgebraSpec, d: int) -> tuple[Word, ...]:
    """All normal words of degree d in lexicographic order, as tuples; for
    display (computations read the arrays of `_words`)."""
    _check_degree(spec, d)
    return _word_tuples(spec.nil, d)


def dim_component(spec: AlgebraSpec, d: int) -> int:
    _check_degree(spec, d)
    return len(_words(spec.nil, d).last)


def multidegree_parts(spec: AlgebraSpec, d: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The degree-d basis split by multidegree: the part of each ordinal,
    and the increasing ordinals of each part. Parts are numbered in the
    order of their first ordinal. The arrays are shared and read-only."""
    _check_degree(spec, d)
    return _parts(spec.nil, d)


@lru_cache(maxsize=None)
def _parts(nil: tuple[int, ...], d: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    part_of = _words(nil, d).part
    (order,) = _frozen((np.argsort(part_of, kind="stable"),))
    return part_of, tuple(np.split(order, np.cumsum(np.bincount(part_of))[:-1])) if order.size else ()


class _Orbits(NamedTuple):
    """How the letter permutations map the parts of one degree onto others.

    A permutation of the live letters that keeps every nil exponent maps
    normal words to normal words and each multidegree part onto one of the
    same width. ``target[i]`` is a part wider than one column that is not
    the first part of its orbit, ``source[i]`` that first part. ``cols[k]``
    lists the ordinals of part k: increasing, except for a target, where
    ``cols[target[i]][j]`` is the image of ``cols[source[i]][j]`` under one
    permutation that takes the source onto the target."""

    target: np.ndarray
    source: np.ndarray
    cols: tuple


@lru_cache(maxsize=None)
def _swaps(nil: tuple[int, ...]) -> np.ndarray:
    """The transpositions (a b) of live letters a < b with equal nil
    exponents and no letter of that exponent between them, one row each of
    the images of the letters 0..m (0, the empty word's, is kept). They
    generate the letter permutations that keep every nil exponent."""
    m = len(nil)
    rows = []
    for a in range(1, m + 1):
        b = next((b for b in range(a + 1, m + 1) if nil[b - 1] == nil[a - 1]), None)
        if b is not None and nil[a - 1] > 1:
            row = np.arange(m + 1)
            row[[a, b]] = b, a
            rows.append(row)
    return np.array(rows, dtype=np.intp).reshape(-1, m + 1)


@lru_cache(maxsize=None)
def _swap_maps(nil: tuple[int, ...], d: int) -> np.ndarray:
    """Row g: the ordinal of σ(w) for each degree-d word w, σ = row g of
    `_swaps`. σ(w) is σ(w's parent) followed by σ(w's last letter)."""
    swaps = _swaps(nil)
    if d == 0:
        return np.zeros((len(swaps), 1), dtype=np.intp)
    w, up = _words(nil, d), _swap_maps(nil, d - 1)
    child = np.full((up.shape[1], len(nil) + 1), -1, dtype=np.intp)  # the ordinal of (parent, letter)
    child[w.parent, w.last] = np.arange(w.last.size)
    return child[up[:, w.parent], swaps[:, w.last]]


def letter_orbits(spec: AlgebraSpec, d: int) -> Optional[_Orbits]:
    """The degree-d parts that the letter permutations map onto other parts
    (`_Orbits`); None if there are none. Shared and read-only."""
    _check_degree(spec, d)
    return _orbits(spec.nil, d)


@lru_cache(maxsize=None)
def _orbits(nil: tuple[int, ...], d: int) -> Optional[_Orbits]:
    part_of, cols = _parts(nil, d)
    maps = _swap_maps(nil, d)
    at: dict[int, np.ndarray] = {}  # by part of an orbit: the ordinals that its first part's columns map to
    target, source = [], []
    for k in range(len(cols)):
        if k in at or cols[k].size == 1:  # one column: eliminated as it is
            continue
        at[k], todo = cols[k], [k]
        while todo:
            j = todo.pop()
            for g in maps:
                img = g[at[j]]
                t = int(part_of[img[0]])
                if t not in at:
                    if not np.array_equal(np.sort(img), cols[t]):
                        raise InternalSoundnessFailure(f"a letter permutation does not map part {k} onto part {t}")
                    at[t] = img
                    todo.append(t)
                    target.append(t)
                    source.append(k)
    if not target:
        return None
    _frozen(at.values())
    return _Orbits(*_frozen([np.array(target), np.array(source)]), tuple(at.get(k, c) for k, c in enumerate(cols)))


@lru_cache(maxsize=None)
def _product_tables(nil: tuple[int, ...], p: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The product tables (p, q) for q = 1..top side by side, and the
    offsets of their columns: table q is columns offsets[q-1]:offsets[q].
    Entry [i, j] is the ordinal of u_i v_j in degree p+q, or -1 for zero.

    The words uv of degree p+q are the pairs (u, v) whose product is not
    zero, in row-major order, so an ordinal is a running count of them."""
    u = _words(nil, p)
    vs = [_words(nil, q) for q in range(1, top + 1)]
    offsets = np.cumsum([0] + [len(v.last) for v in vs])
    first = np.concatenate([v.first for v in vs])
    first_run = np.concatenate([v.first_run for v in vs])
    # uv is zero when u's closing run and v's opening run reach a nil exponent together
    limit = np.asarray(nil)[u.last - 1]
    zero = (u.last[:, None] == first) & (u.last_run[:, None] + first_run >= limit[:, None])
    count = np.zeros((len(u.last), len(first) + 1), dtype=np.intp)
    np.cumsum(~zero, axis=1, out=count[:, 1:])
    start = count[:, offsets[:-1]]  # nonzero products in row i before table q
    per_row = count[:, offsets[1:]] - start
    base = start - (np.cumsum(per_row, axis=0) - per_row) + 1
    table = count[:, 1:] - base[:, np.repeat(np.arange(top), np.diff(offsets))]
    table[zero] = -1
    return _frozen((table, offsets))


@lru_cache(maxsize=None)
def _ordinal_table(nil: tuple[int, ...], d: int) -> dict[Word, int]:
    return {w: i for i, w in enumerate(_word_tuples(nil, d))}


def word_index(spec: AlgebraSpec, w: Word) -> tuple[int, int]:
    """(degree, ordinal) of a normal word in the canonical basis."""
    d = len(w)
    _check_degree(spec, d)
    try:
        return d, _ordinal_table(spec.nil, d)[w]
    except KeyError:
        raise NotNormal(f"{format_word(spec, w)} is not a normal word") from None


# -- text form ---------------------------------------------------------------


def format_word(spec: AlgebraSpec, w: Word, compact: bool | None = None) -> str:
    """Render a word; compact x/y/z for m <= 3, else dotted x1.x2 labels."""
    if compact is None:
        compact = spec.m <= 3
    if compact and spec.m <= 3:
        return "".join(_COMPACT[g - 1] for g in w)
    return ".".join(f"x{g}" for g in w)
