"""Exception types shared across the package."""


class HilbstratError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGenerators(HilbstratError):
    """A semigroup was requested with no generators."""


class NonCoprime(HilbstratError):
    """Generators do not have gcd 1, so the gap set would be infinite."""


class ShiftUnderflow(HilbstratError):
    """A series shift would move a nonzero coefficient below exponent 0."""


class CardinalityMismatch(HilbstratError):
    """A gap set or delta set does not have the expected number of elements."""


class MalformedDelta(HilbstratError):
    """A delta set is not a subset of range(2*delta) of size delta."""


class DimensionMismatch(HilbstratError):
    """Two computations of the same dimension disagree."""


class TruncationMismatch(HilbstratError):
    """Arithmetic was attempted on series with different truncation orders."""


class IdenticallyZeroVector(HilbstratError):
    """A coordinate vector that must be projective is identically zero."""


class NonTriangularRelation(HilbstratError):
    """A coefficient relation could not be solved for any parameter linearly."""


class PivotLoss(HilbstratError):
    """An echelon matrix lost a unit pivot that the construction guarantees."""
