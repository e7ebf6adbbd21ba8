"""Exception types shared across the package.

Everything derives from EmdenLabError, a ValueError, so callers that only
care about "bad input vs. bug" can catch one type.  The CLI maps these,
and no other ValueError, to exit code 2.
"""


class EmdenLabError(ValueError):
    """Base class for all parameter and precondition failures."""


class DimensionTooSmall(EmdenLabError):
    """Ambient dimension N < 3."""


class NonIntegerDimension(EmdenLabError):
    """Ambient dimension N is not a whole number."""


class NonFiniteParameter(EmdenLabError):
    """A parameter is NaN or infinite."""


class DegenerateWeight(EmdenLabError):
    """N - 2 + a <= 0: the weighted Laplacian degenerates."""


class InadmissibleWeights(EmdenLabError):
    """N + b <= 0 or b <= a - 2: no positive solution regime, solvers refuse."""


class NotCritical(EmdenLabError):
    """Operation requires p equal to the critical exponent."""


class NotInSerrinSupercriticalRange(EmdenLabError):
    """Operation requires p strictly above the Serrin exponent."""


class NotInRange(EmdenLabError):
    """A finite value outside the range where the requested object exists."""


class NonpositiveRadius(EmdenLabError):
    """Radius must be positive (or nonnegative, where stated)."""


class DerivativeUndefinedAtOrigin(EmdenLabError):
    """sigma < 1: the profile derivative has no finite limit at r = 0."""


class NonpositiveNode(EmdenLabError):
    """Trajectory node with r <= 0 or v <= 0 where positivity is required."""


class MalformedGrid(EmdenLabError):
    """A parameter grid CSV has a non-numeric or short row, or no rows at all."""


class MalformedOption(EmdenLabError):
    """A command-line option is missing, empty, or not the numbers it must hold."""


class MalformedTrajectory(EmdenLabError):
    """A trajectory CSV row is not three numbers, or its radii do not increase."""


class NonpositiveSolution(EmdenLabError):
    """Solution not positive on the requested interval."""


class RangeExceeded(EmdenLabError):
    """Requested radius lies outside the stored trajectory."""


class RootNotFound(EmdenLabError):
    """A root bracket without a sign change, a NaN function value, or no convergence."""


class BracketInvalid(EmdenLabError):
    """Bisection endpoints do not straddle the crossing boundary."""


class BalanceViolated(EmdenLabError):
    """The dimensional balance tying (N, a, b, q) together fails."""


class SymmetryBreakingRegion(EmdenLabError):
    """Radial candidate is not the minimizer here; refuse to report a constant."""


class NonintegrableProfile(EmdenLabError):
    """Profile decays too slowly for the requested weighted norm."""


class QuadratureMismatch(EmdenLabError):
    """Quadrature and closed form of the same constant disagree."""


class DegenerateProfile(EmdenLabError):
    """A profile's weighted q-norm is zero, or its Rayleigh quotient is not positive."""


class NormOutOfRange(EmdenLabError):
    """A weighted norm is finite but lies outside the range of a double."""
