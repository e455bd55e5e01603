"""Monomial model of the presented algebra <x_1..x_m | x_i^{n_i} = 0>.

A word is a tuple of generator indices in 1..m. A word is *normal* when it
contains no run of n_i consecutive copies of generator i; normal words of
degree d form the canonical basis of the degree-d component, ordered
lexicographically with x_1 < ... < x_m. Everything is truncated at
``max_degree``: no basis exists beyond it and products overflowing it are
the caller's responsibility to drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DegreeOutOfRange, NotNormal, TruncationOverflow
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
        if self.m < 1:
            raise ValueError("need at least one generator")
        if len(self.nil) != self.m:
            raise ValueError("nil exponent list length must equal generator count")
        if any(n < 1 for n in self.nil):
            raise ValueError("nil exponents must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")

    @property
    def dead_generators(self) -> tuple[int, ...]:
        """Generators with nil exponent 1 (identically zero)."""
        return tuple(i for i in range(1, self.m + 1) if self.nil[i - 1] == 1)


def is_normal(spec: AlgebraSpec, w: Word) -> bool:
    """Full forbidden-run scan; O(len(w))."""
    run = 0
    prev = 0
    for g in w:
        if not 1 <= g <= spec.m:
            return False
        run = run + 1 if g == prev else 1
        if run >= spec.nil[g - 1]:
            return False
        prev = g
    return True


@lru_cache(maxsize=None)
def normal_words(spec: AlgebraSpec, d: int) -> tuple[Word, ...]:
    """All normal words of degree d in lexicographic order."""
    if not 1 <= d <= spec.max_degree:
        raise DegreeOutOfRange(f"degree {d} outside 1..{spec.max_degree}")
    out: list[Word] = []
    word: list[int] = []

    def extend(prev: int, run: int) -> None:
        if len(word) == d:
            out.append(tuple(word))
            return
        for g in range(1, spec.m + 1):
            r = run + 1 if g == prev else 1
            if r >= spec.nil[g - 1]:
                continue
            word.append(g)
            extend(g, r)
            word.pop()

    extend(0, 0)
    return tuple(out)


def dim_component(spec: AlgebraSpec, d: int) -> int:
    return len(normal_words(spec, d))


@lru_cache(maxsize=None)
def multidegree_parts(spec: AlgebraSpec, d: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The degree-d basis split by multidegree (the number of each generator
    in a word): the part of each ordinal, and the increasing ordinals of each
    part. Parts are numbered in the order of their first ordinal."""
    parts: dict[tuple[int, ...], list[int]] = {}
    for o, w in enumerate(normal_words(spec, d)):
        parts.setdefault(tuple(w.count(g) for g in range(1, spec.m + 1)), []).append(o)
    cols = tuple(np.array(c, dtype=np.intp) for c in parts.values())
    part_of = np.empty(dim_component(spec, d), dtype=np.intp)
    for k, c in enumerate(cols):
        part_of[c] = k
    return part_of, cols


@lru_cache(maxsize=None)
def _ordinal_table(spec: AlgebraSpec, d: int) -> dict[Word, int]:
    return {w: i for i, w in enumerate(normal_words(spec, d))}


def word_index(spec: AlgebraSpec, w: Word) -> tuple[int, int]:
    """(degree, ordinal) of a normal word in the canonical basis."""
    d = len(w)
    if not 1 <= d <= spec.max_degree:
        raise DegreeOutOfRange(f"degree {d} outside 1..{spec.max_degree}")
    try:
        return d, _ordinal_table(spec, d)[w]
    except KeyError:
        raise NotNormal(f"{format_word(spec, w)} is not a normal word") from None


def concat(spec: AlgebraSpec, u: Word, v: Word) -> Optional[Word]:
    """Product of two normal words: their concatenation, or None for zero.

    Both factors are normal, so any forbidden run in uv straddles the
    junction; only the maximal same-letter run around it needs checking.
    """
    d = len(u) + len(v)
    if d > spec.max_degree:
        raise TruncationOverflow(f"product degree {d} exceeds {spec.max_degree}")
    g = u[-1]
    if v[0] != g:
        return u + v
    i = len(u) - 1
    while i > 0 and u[i - 1] == g:
        i -= 1
    j = 1
    while j < len(v) and v[j] == g:
        j += 1
    if (len(u) - i) + j >= spec.nil[g - 1]:
        return None
    return u + v


# -- text form ---------------------------------------------------------------


def format_word(spec: AlgebraSpec, w: Word, compact: bool | None = None) -> str:
    """Render a word; compact x/y/z for m <= 3, else dotted x1.x2 labels."""
    if compact is None:
        compact = spec.m <= 3
    if compact and spec.m <= 3:
        return "".join(_COMPACT[g - 1] for g in w)
    return ".".join(f"x{g}" for g in w)


def parse_word(spec: AlgebraSpec, text: str) -> Word:
    """Accepts both 'x1.x2.x1' and (for m <= 3) compact 'xyx'."""
    t = text.strip()
    if "." in t or any(c.isdigit() for c in t):
        letters = []
        for part in t.split("."):
            if not part.startswith("x"):
                raise NotNormal(f"bad word syntax {text!r}")
            letters.append(int(part[1:]))
        w = tuple(letters)
    else:
        if spec.m > 3:
            raise NotNormal(f"compact word syntax requires m <= 3, got {text!r}")
        try:
            w = tuple(_COMPACT.index(c) + 1 for c in t)
        except ValueError:
            raise NotNormal(f"bad word syntax {text!r}") from None
    if not is_normal(spec, w):
        raise NotNormal(f"{text!r} is not a normal word")
    return w
