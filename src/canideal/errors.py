"""Exception types shared across the package."""


class CanidealError(Exception):
    """Base class for every error raised by this package."""


class NonPrimeP(CanidealError):
    """p must be an odd prime."""


class EllOutOfRange(CanidealError):
    """ell must satisfy 1 <= ell <= p - 1."""


class NonPositiveQ(CanidealError):
    """q must be a positive integer."""


class IOutOfRange(CanidealError):
    """Power index i outside its admissible range."""


class TOutOfRange(CanidealError):
    """Weight T outside the range [2, 2(p-1)]."""


class NonIntegralInput(CanidealError):
    """Cyclotomic element is required to have integer coefficients."""


class NotDivisible(CanidealError):
    """Exact division failed."""


class ZeroPolynomial(CanidealError):
    """The zero polynomial has no leading term."""


class MinkowskiClosedFormMismatch(CanidealError):
    """The closed-form Minkowski description disagrees with the enumeration."""


class PointNotInMinkowskiSum(CanidealError):
    """Requested point lies outside the Minkowski sum."""


class VariableOutsideIndexSet(CanidealError):
    """Monomial uses an index pair that is not in the basis index set."""


class WrongDegree(CanidealError):
    """Operation requires a monomial of a specific standard degree."""


class WrongFibre(CanidealError):
    """Generator tagged for a different fibre than requested."""


class NonHomogeneous(CanidealError):
    """Operation requires homogeneous degree-2 input."""


class NonIntegralCoefficient(CanidealError):
    """A relative-generator coefficient failed to be integral."""


class ReductionMismatch(CanidealError):
    """The lam-reduced relative family differs from the special-fibre family."""


class DegenerateSpecialization(CanidealError):
    """Kernel dimension at this specialization differs from the expected value."""


class BadSpecialization(CanidealError):
    """Specialization does not cover the deformation symbols or is malformed."""


class InvariantViolation(CanidealError):
    """A derived table or reduction broke an invariant the construction guarantees."""


class UnluckyPrime(CanidealError):
    """A coefficient has no image in F_r: its denominator is divisible by r."""
