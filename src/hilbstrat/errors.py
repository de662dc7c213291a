"""Exception types shared across the package."""


class HilbstratError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGenerators(HilbstratError):
    """A semigroup was requested with no generators."""


class NonCoprime(HilbstratError):
    """Generators do not have gcd 1, so the gap set would be infinite."""


class ShiftUnderflow(HilbstratError):
    """``delta_set``'s shift of a module by −r would move an order below 0."""


class CardinalityMismatch(HilbstratError):
    """A gap set or delta set does not have the expected number of elements."""


class MalformedDelta(HilbstratError):
    """A delta set is not a subset of range(2*delta) of size delta."""


class IdenticallyZeroVector(HilbstratError):
    """A coordinate vector that must be projective is identically zero."""


class NonTriangularRelation(HilbstratError):
    """A coefficient relation could not be solved for any parameter linearly."""


class PivotLoss(HilbstratError):
    """An echelon matrix lost a unit pivot that the construction guarantees."""
