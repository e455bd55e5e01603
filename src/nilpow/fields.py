"""Exact coefficient fields: F_p for an odd prime p, or the rationals.

Characteristic 2 is rejected everywhere: the factor 1/2 in the identity
xy = (1/2)([x,y] + x o y) must exist. So is any p >= 2^31: the dense
kernels hold residues in int64, where a product of two residues plus a
residue must stay exact. Field elements are plain values
(ints in [0, p) for F_p, `fractions.Fraction` for Q). A `Field` carries
coefficients in and out (`elem`, the text forms) and the few scalars the
engine needs (`one`, `half`, `neg`, `inv`); sums and products of
coefficients are taken on the rows, in `linalg`, not one scalar at a
time here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CharacteristicTwo, DivisionByZero, InexactCoefficient, ModulusTooLarge, NonPrimeModulus

Coeff = Union[int, Fraction]

DEFAULT_PRIME = 32003
PRIME_LIMIT = 2**31  # every admissible p is below it: (p-1)^2 + p < 2^63


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient domain of characteristic != 2.

    ``p is None`` means the rationals; otherwise the prime field F_p.
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if self.p >= PRIME_LIMIT:
                raise ModulusTooLarge(f"{self.p} is not below 2^31, the bound for exact int64 arithmetic")
            if not _is_prime(self.p):
                raise NonPrimeModulus(f"{self.p} is not prime")
            if self.p == 2:
                raise CharacteristicTwo("fields of characteristic 2 are not admissible")

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    # -- element construction ------------------------------------------------

    def elem(self, x: int | Fraction) -> Coeff:
        """Canonical field element from an integer or rational; n/d is
        n * d^-1 in F_p. A float, which has no exact value, is refused."""
        if hasattr(x, "__index__"):  # an integer of any type: int, bool, numpy
            return int(x) % self.p if self.p is not None else Fraction(int(x))
        if not isinstance(x, Fraction):
            raise InexactCoefficient(f"{x!r} is not an integer or a rational")
        return x if self.p is None else x.numerator * self.inv(x.denominator % self.p) % self.p

    @property
    def one(self) -> Coeff:
        return 1 if self.p is not None else Fraction(1)

    @property
    def half(self) -> Coeff:
        return self.inv(self.elem(2))

    # -- arithmetic ----------------------------------------------------------

    def neg(self, a: Coeff) -> Coeff:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Coeff) -> Coeff:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.p is not None:
            return pow(int(a), -1, self.p)
        return Fraction(1) / a

    # -- text form (CLI flags, certificates, cache) --------------------------

    def format_coeff(self, a: Coeff) -> str:
        if self.p is not None:
            return str(int(a))
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def parse_coeff(self, s: str) -> Coeff:
        if not isinstance(s, str):
            raise TypeError(f"a coefficient is written as a string, not {s!r}")
        if self.p is not None:
            return int(s) % self.p
        return Fraction(s)

    def __str__(self) -> str:
        return f"fp:{self.p}" if self.p is not None else "q"


def parse_field(text: str) -> Field:
    """Parse a CLI field descriptor, ``fp:<p>`` or ``q``."""
    t = text.strip().lower()
    if t == "q":
        return Field.rationals()
    if t.startswith("fp:"):
        try:
            p = int(t[3:])
        except ValueError as exc:
            raise NonPrimeModulus(f"bad modulus in {text!r}") from exc
        return Field.prime(p)
    raise NonPrimeModulus(f"unrecognized field descriptor {text!r} (use fp:<p> or q)")
