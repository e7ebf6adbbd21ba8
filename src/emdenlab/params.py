"""Parameters and regime classification for div(|x|^a Du) + |x|^b u^p = 0.

For radial profiles v(r) = u(|x|) the equation reads

    v'' + (N - 1 + a)/r v' + r^(b-a) v^p = 0,

and the whole qualitative picture (does a positive entire solution exist,
does the shooting trajectory cross zero, where does the cylinder phase
plane sit) is controlled by a handful of derived exponents.  This module
computes them and nothing heavier; every solver downstream keys off it.

It owns the paper's standing rules; other modules call, never restate them:
N finite, whole, >= 3 and a, b finite (_check_dimension); N - 2 + a > 0
(_weight_gap, run by validate and by p_critical before it divides);
b > a - 2 and N + b > 0 (require_admissible); p > 1 (derive); criticality
(_is_critical); the balance tolerance (balance_tolerance).  The bubble's
constants live in closed_forms._bubble_constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import (
    BalanceViolated,
    DegenerateWeight,
    DimensionTooSmall,
    InadmissibleWeights,
    NonFiniteParameter,
    NonIntegerDimension,
    NotInRange,
)

# Relative tolerance deciding "p is exactly critical".  Anything within it
# is numerically indistinguishable from critical for the solvers here.
CRITICAL_REL_TOL = 1e-12

# Relative tolerance for the dimensional balance identity.
BALANCE_REL_TOL = 1e-9

# Regime labels (values double as the JSON encoding).
INADMISSIBLE_WEIGHTS = "inadmissible_weights"
NO_POSITIVE_SOLUTION_SERRIN = "no_positive_solution_serrin"
SUBCRITICAL_LIOUVILLE = "subcritical_liouville"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"

# Symmetry regions for the minimization problem on the balance curve.
RADIAL_MINIMIZER = "radial_minimizer"
SYMMETRY_BREAKING = "symmetry_breaking"
NOT_APPLICABLE = "not_applicable"


class Record:
    """Mixin for result dataclasses: to_dict() maps each field name to its value.

    A `kind` class variable, where the class has one, comes first.
    """

    def to_dict(self) -> dict:
        head = {"kind": self.kind} if hasattr(self, "kind") else {}
        return head | {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ProblemParams:
    """Dimension N, weight exponents a and b, nonlinearity power p.

    p = 1 is accepted (classify reports it as a no-solution regime);
    every solver-facing operation requires p > 1.
    """

    N: int
    a: float
    b: float
    p: float


@dataclass(frozen=True)
class DerivedExponents(Record):
    """The exponents controlling the radial problem.

    sigma        gap 2 + b - a between the two weights
    p_serrin     (N + b)/(N - 2 + a), below it not even weak positive
                 solutions survive
    p_critical   (N + 2 + 2b - a)/(N - 2 + a), the existence threshold
    gamma        sigma/(p - 1), decay rate of the singular solution
    lambda1      N - 2 + a - 2*gamma, damping in the cylinder frame
    lambda2      gamma*(N - 2 + a - gamma), the cylinder potential strength
    fs_b_threshold  (p + 1)*beta_fs(N, a) for a > 0, None otherwise
    """

    sigma: float
    p_serrin: float
    p_critical: float
    gamma: float
    lambda1: float
    lambda2: float
    fs_b_threshold: float | None


def _check_dimension(N, a, b) -> None:
    """NonFiniteParameter, NonIntegerDimension or DimensionTooSmall for a bad N, a, b."""
    for name, value in (("N", N), ("a", a), ("b", b)):
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} = {value}, need it finite")
    if not float(N).is_integer():
        raise NonIntegerDimension(f"N = {N}, need a whole number")
    if N < 3:
        raise DimensionTooSmall(f"N = {N}, need N >= 3")


def _weight_gap(N, a) -> float:
    """N - 2 + a, refused with DegenerateWeight unless it is positive."""
    gap = N - 2.0 + a
    if gap <= 0:
        raise DegenerateWeight(f"N - 2 + a = {gap}, need it positive")
    return gap


def _is_critical(p: float, p_c: float) -> bool:
    """p equals the critical exponent p_c to within CRITICAL_REL_TOL."""
    return abs(p - p_c) <= CRITICAL_REL_TOL * abs(p_c)


def p_critical(N: int, a: float, b: float) -> float:
    """(N + 2 + 2b - a)/(N - 2 + a), the dichotomy's threshold; N - 2 + a <= 0 refused."""
    return (N + 2.0 + 2.0 * b - a) / _weight_gap(N, a)


def _serrin(q: ProblemParams) -> float:
    return (q.N + q.b) / (q.N - 2 + q.a)


def _critical(q: ProblemParams) -> float:
    return p_critical(q.N, q.a, q.b)


# Witness tags and their re-evaluation rules.  classify() attaches one of
# these to every regime so a consumer can re-check the inequality that
# fired against the raw parameters.
_WITNESSES = {
    "N+b<=0": lambda q: q.N + q.b <= 0,
    "b<=a-2": lambda q: q.b <= q.a - 2,
    "p=1": lambda q: q.p == 1,
    "p<=p_serrin": lambda q: q.p <= _serrin(q),
    "p_serrin<p<p_critical": lambda q: _serrin(q) < q.p < _critical(q),
    "|p-p_critical|<=tol": lambda q: abs(q.p - _critical(q))
    <= CRITICAL_REL_TOL * abs(_critical(q)),
    "p>p_critical": lambda q: q.p > _critical(q),
}


@dataclass(frozen=True)
class Regime:
    """Classification result: a regime label plus the inequality that fired."""

    kind: str
    witness: str

    def witness_holds(self, params: ProblemParams) -> bool:
        """Re-evaluate the witness inequality against raw parameters."""
        return _WITNESSES[self.witness](params)

    def to_dict(self) -> dict:
        return {"regime": self.kind, "witness": self.witness}


def validate(params: ProblemParams) -> ProblemParams:
    """Check the structural constraints; return params unchanged.

    Raises NonFiniteParameter for a NaN or infinite N, a or b,
    NonIntegerDimension for a fractional N, DimensionTooSmall for N < 3
    and DegenerateWeight for N - 2 + a <= 0.  p is not checked: it is the
    solvers' to refuse, and the ckn grid validates with p = nan.  Anything
    subtler (inadmissible weights, exponent ranges) is a regime question,
    not a validity question.
    """
    _check_dimension(params.N, params.a, params.b)
    _weight_gap(params.N, params.a)
    return params


def require_admissible(params: ProblemParams) -> ProblemParams:
    """validate, then refuse weights with N + b <= 0 or b <= a - 2.

    Raises InadmissibleWeights there: no positive solution exists, so the
    solvers and the closed forms refuse to run.
    """
    validate(params)
    if params.N + params.b <= 0 or params.b <= params.a - 2:
        raise InadmissibleWeights(
            f"N+b = {params.N + params.b}, b-(a-2) = {params.b - params.a + 2}"
        )
    return params


def beta_fs(N: int, a: float) -> float:
    """Symmetry-breaking threshold exponent, defined for a > 0."""
    if a <= 0:
        raise NotInRange(f"a = {a}, threshold defined only for a > 0")
    M = N - 2 + a
    return (M / 2.0) * (1.0 - N / math.sqrt(M * M + 4.0 * (N - 1)))


def derive(params: ProblemParams) -> DerivedExponents:
    """The derived exponents; validate's refusals, and NotInRange for p <= 1."""
    validate(params)
    if params.p <= 1:
        raise NotInRange(f"p = {params.p}, need p > 1")
    N, a, b, p = params.N, params.a, params.b, params.p
    M = N - 2 + a
    sigma = 2.0 + b - a
    gamma = sigma / (p - 1.0)
    fs = (p + 1.0) * beta_fs(N, a) if a > 0 else None
    return DerivedExponents(
        sigma=sigma,
        p_serrin=_serrin(params),
        p_critical=p_critical(N, a, b),
        gamma=gamma,
        lambda1=M - 2.0 * gamma,
        lambda2=gamma * (M - gamma),
        fs_b_threshold=fs,
    )


def classify(params: ProblemParams) -> Regime:
    """Place params in exactly one regime of the existence dichotomy.

    Raises NonFiniteParameter for a NaN or infinite p: no regime contains
    NaN, and the exponents derived at p = inf are limits, not values.
    """
    validate(params)
    N, a, b, p = params.N, params.a, params.b, params.p
    if not math.isfinite(p):
        raise NonFiniteParameter(f"p = {p}, need it finite")
    if N + b <= 0:
        return Regime(INADMISSIBLE_WEIGHTS, "N+b<=0")
    if b <= a - 2:
        return Regime(INADMISSIBLE_WEIGHTS, "b<=a-2")
    if p == 1:
        # no positive weak solution at p = 1 either; report it with the
        # Serrin-side label since the obstruction is of the same weak kind
        return Regime(NO_POSITIVE_SOLUTION_SERRIN, "p=1")
    if p < 1:
        raise NotInRange(f"p = {p}: need p >= 1")
    d = derive(params)
    if p <= d.p_serrin:
        return Regime(NO_POSITIVE_SOLUTION_SERRIN, "p<=p_serrin")
    if _is_critical(p, d.p_critical):
        return Regime(CRITICAL, "|p-p_critical|<=tol")
    if p < d.p_critical:
        return Regime(SUBCRITICAL_LIOUVILLE, "p_serrin<p<p_critical")
    return Regime(SUPERCRITICAL, "p>p_critical")


def balance_residual(N: int, a: float, b: float, q: float) -> float:
    """Signed defect of the dimensional balance (N+b)/q + 1 = (N+a)/2."""
    return (N + b) / q + 1.0 - (N + a) / 2.0


def balance_tolerance(N: int, a: float) -> float:
    """Largest |balance_residual| counted as balanced: BALANCE_REL_TOL * max(1, |(N+a)/2|)."""
    return BALANCE_REL_TOL * max(1.0, abs((N + a) / 2.0))


def fs_region(params: ProblemParams) -> str:
    """Symmetry region of the minimization problem at q = p + 1.

    Only meaningful on the balance curve (which pins p to the critical
    exponent); raises BalanceViolated off it.  Returns one of
    RADIAL_MINIMIZER, SYMMETRY_BREAKING, NOT_APPLICABLE.

    For a > 0 the split is the Felli-Schneider curve b = q beta_fs(N, a):
    above it the radial bubble is not even a local minimizer (Felli and
    Schneider, J. Differential Equations 2003), and on and below it the
    extremals are radial (Dolbeault, Esteban and Loss, Invent. Math. 2016).
    """
    validate(params)
    N, a, b, p = params.N, params.a, params.b, params.p
    q = p + 1.0
    if abs(balance_residual(N, a, b, q)) > balance_tolerance(N, a):
        raise BalanceViolated(
            f"(N+b)/q + 1 = {(N + b) / q + 1.0}, (N+a)/2 = {(N + a) / 2.0}"
        )
    if a > 0:
        return SYMMETRY_BREAKING if b > q * beta_fs(N, a) else RADIAL_MINIMIZER
    if b < 0:
        return RADIAL_MINIMIZER
    return NOT_APPLICABLE
