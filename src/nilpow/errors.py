"""Exception hierarchy shared by all nilpow modules."""


class NilpowError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeModulus(NilpowError):
    """The requested prime-field modulus is not prime."""


class ModulusTooLarge(NilpowError):
    """The prime-field modulus is too large for exact int64 arithmetic."""


class CharacteristicTwo(NilpowError):
    """Coefficient fields of characteristic 2 are not admissible."""


class DivisionByZero(NilpowError):
    """Inverse of the zero field element requested."""


class InexactCoefficient(NilpowError):
    """A coefficient with no exact value (a float) was given."""


class DegreeOutOfRange(NilpowError):
    """Degree outside the range 1..max_degree."""


class NotNormal(NilpowError):
    """Word contains a forbidden power run and is zero in the algebra."""


class SpecMismatch(NilpowError):
    """Operands belong to different algebra presentations or fields."""


class ArityMismatch(NilpowError):
    """Wrong number of arguments for a multilinear evaluation."""


class BoundExceedsTruncation(NilpowError):
    """The generation bound 2n-2 is larger than max_degree."""


class NotALieIdeal(NilpowError):
    """Subspace passed where a Lie ideal is required."""


class CorruptCacheEntry(NilpowError):
    """A cache entry that does not decode to canonical echelon rows."""


class InternalSoundnessFailure(NilpowError):
    """A closure escaped the space it must stay inside; implementation bug."""
