"""Weighted Rayleigh quotient and its sharp constant on radial profiles.

The quotient E(u) = ||Du||^2_{L^2, weight r^a} / ||u||^2_{L^q, weight r^b}
is finite on the admissible band a - 2 <= 2b/q <= a and scale-free exactly
when the dimensional balance (N+b)/q + 1 = (N+a)/2 holds.  On the balance
manifold q - 1 is the critical source exponent, and in the radial region
the infimum of E is attained by the explicit bubble profile, which turns
the two integrals into Beta functions.  Past the symmetry-breaking
threshold (a > 0, b large) the radial bubble is no longer the minimizer
and best_constant refuses rather than report a wrong constant.

Quadrature is decade-by-decade adaptive Gauss-Kronrod (QUADPACK's 21-point
rule, evaluated on arrays) with a power-law origin stub and a fitted
power-law tail; a tail flatter than 1/r is reported as a divergent norm
instead of being truncated into a finite lie.  best_constant evaluates
the bubble on whole arrays of radii; energy takes a scalar handle and
calls it once per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .closed_forms import bubble_eval, normalized_bubble
from .errors import (
    BalanceViolated,
    DegenerateWeight,
    DimensionTooSmall,
    InadmissibleWeights,
    NonintegrableProfile,
    NotInRange,
    QuadratureMismatch,
    SymmetryBreakingRegion,
)
from .params import (
    BALANCE_REL_TOL,
    SYMMETRY_BREAKING,
    ProblemParams,
    Record,
    balance_residual,
    balance_tolerance,
    fs_region,
    p_critical,
)
from .pohozaev import sphere_area

ADMISSIBLE = "Admissible"
BAND_VIOLATED = "BandViolated"
BALANCE_VIOLATED = "BalanceViolated"

_R_ORIGIN = 1e-8
_DECADE_MAX = 40
_TAIL_REL = 1e-10
_TAIL_FIT_MIN_R = 1e2
_DIVERGENCE_R = 1e6

RadialProfile = Callable[[float], Tuple[float, float]]
ArrayProfile = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CknTriple(Record):
    N: int
    a: float
    b: float
    q: float


@dataclass(frozen=True)
class BalanceReport(Record):
    verdict: str
    band_low_ok: bool
    band_high_ok: bool
    balance_defect: float
    balance_ok: bool
    q_gt_2: bool
    b_gt_a_minus_2: bool
    a_minus_2_gt_minus_N: bool


@dataclass(frozen=True)
class EnergyReport(Record):
    grad_norm_sq: float
    q_norm: float
    rayleigh: float
    closed_form: Optional[float]
    s_estimate: float


def _validate_triple(triple: CknTriple) -> None:
    if triple.N < 3:
        raise DimensionTooSmall(f"N = {triple.N}, need N >= 3")
    if triple.q < 2:
        raise NotInRange(f"q = {triple.q}, need q >= 2")


def check_balance(triple: CknTriple, tol_bal: float = BALANCE_REL_TOL) -> BalanceReport:
    """Verdict on the two structural conditions, balance checked first.

    The report also carries the separate necessary conditions for a
    positive extremal (q > 2 and b > a - 2 > -N) so a caller can see
    which one fails even when the headline verdict is about balance.
    """
    _validate_triple(triple)
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    defect = balance_residual(N, a, b, q)
    balance_ok = abs(defect) <= balance_tolerance(N, a, tol_bal)
    band_low = a - 2.0 <= 2.0 * b / q
    band_high = 2.0 * b / q <= a
    if not balance_ok:
        verdict = BALANCE_VIOLATED
    elif not (band_low and band_high):
        verdict = BAND_VIOLATED
    else:
        verdict = ADMISSIBLE
    return BalanceReport(
        verdict=verdict,
        band_low_ok=band_low,
        band_high_ok=band_high,
        balance_defect=defect,
        balance_ok=balance_ok,
        q_gt_2=q > 2.0,
        b_gt_a_minus_2=b > a - 2.0,
        a_minus_2_gt_minus_N=a - 2.0 > -float(N),
    )


# QUADPACK's qk21 rule (Piessens et al., QUADPACK, 1983): Kronrod abscissae
# on [0, 1], largest first, the odd-indexed ones being the 10-point Gauss
# nodes, with the Kronrod and Gauss weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same rule on [-1, 1] in ascending order; the Gauss nodes sit at [1::2]
_GK21_NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_K21_WEIGHTS = np.array(_WGK[:-1] + tuple(reversed(_WGK)))
_G10_WEIGHTS = np.array(_WG + tuple(reversed(_WG)))

_EPSABS = 1e-300
_EPSREL = 1e-12
_LIMIT = 200  # subintervals per decade
_BLOCK_DECADES = 12  # decades refined together, one integrand call per level


def _gk21(g, lo, hi, extra):
    """K21 value and |K21 - G10| on each [lo, hi], and g at the points extra.

    One call of g covers every node of every interval plus extra.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre[:, None] + half[:, None] * _GK21_NODES
    values = g(np.concatenate((nodes.ravel(), extra)))
    fx = values[: nodes.size].reshape(nodes.shape)
    k21 = half * (fx * _K21_WEIGHTS).sum(axis=1)
    g10 = half * (fx[:, 1::2] * _G10_WEIGHTS).sum(axis=1)
    return k21, np.abs(k21 - g10), values[nodes.size :]


def _refine_decades(g, ends, extra):
    """Adaptive GK21 on each decade [ends[j], ends[j+1]], all decades at once.

    Each decade is bisected until its summed |K21 - G10| is within
    max(_EPSABS, _EPSREL |integral|) or it holds _LIMIT subintervals.  A
    level bisects every subinterval whose error exceeds its length's share
    of its decade's tolerance (the largest ones when the limit is near),
    and evaluates g once over all the new halves.  Returns the decade
    integrals, g at ends, and g at extra.
    """
    n = len(ends) - 1
    lo, hi, owner = ends[:-1], ends[1:], np.arange(n)
    width = hi - lo
    val, err, g_fixed = _gk21(g, lo, hi, np.concatenate((ends, extra)))
    while True:
        total = np.bincount(owner, val, n)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        count = np.bincount(owner, minlength=n)
        open_ = (np.bincount(owner, err, n) > tol) & (count < _LIMIT)
        split = open_[owner] & (err > tol[owner] * (hi - lo) / width[owner])
        if not split.any():
            return total, g_fixed[: n + 1], g_fixed[n + 1 :]
        room = _LIMIT - count
        for d in np.flatnonzero(np.bincount(owner[split], minlength=n) > room):
            mine = np.flatnonzero(split & (owner == d))
            smallest = np.argsort(err[mine], kind="stable")[: len(mine) - room[d]]
            split[mine[smallest]] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err, _ = _gk21(g, new_lo, new_hi, ())
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        owner = np.concatenate((owner[keep], owner[split], owner[split]))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


def _integrate_radial(
    weight_exp: float, f: Callable[[np.ndarray], np.ndarray], label: str
) -> float:
    """int_0^inf r^weight_exp f(r) dr, f >= 0 evaluated on arrays.

    Below _R_ORIGIN the integrand is closed in its fitted local power law.
    Each decade [10^k, 10^(k+1)] from 1e-8 on gets its own adaptive GK21
    quadrature (epsrel 1e-12, at most 200 subintervals), decades being
    refined _BLOCK_DECADES at a time so that f sees one array per
    refinement level.  The upper end stops once the fitted tail power
    predicts a remainder under _TAIL_REL relative, and a tail flatter
    than 1/r past _DIVERGENCE_R raises NonintegrableProfile.  Decades of
    a block past the stop are discarded, so overflow there is silenced;
    a summed decade that is not finite raises NonintegrableProfile.
    """

    def g(r):
        return r**weight_exp * f(r)

    total = None
    for k0 in range(-8, _DECADE_MAX, _BLOCK_DECADES):
        ks = range(k0, min(k0 + _BLOCK_DECADES, _DECADE_MAX))
        ends = np.array([10.0**k for k in ks] + [10.0 ** (ks[-1] + 1)])
        stub = (_R_ORIGIN, 10.0 * _R_ORIGIN) if total is None else ()
        with np.errstate(all="ignore"):
            pieces, g_ends, g_stub = _refine_decades(g, ends, stub)
        if total is None:
            g0, g1 = float(g_stub[0]), float(g_stub[1])
            if g0 > 0.0 and g1 > 0.0:
                slope = math.log10(g1 / g0)
                if slope <= -1.0 + 1e-9:
                    raise NonintegrableProfile(
                        f"{label}: integrand ~ r^{slope:.6f} at the origin"
                    )
                total = g0 * _R_ORIGIN / (slope + 1.0)
            else:
                total = 0.0
            if not math.isfinite(total):
                raise NonintegrableProfile(f"{label}: origin stub is {total}")
        for j, k in enumerate(ks):
            lo, hi = 10.0**k, 10.0 ** (k + 1)
            total += float(pieces[j])
            if not math.isfinite(total):
                raise NonintegrableProfile(
                    f"{label}: decade [{lo:g}, {hi:g}] integrates to {pieces[j]}"
                )
            if hi < _TAIL_FIT_MIN_R:
                continue
            ghi = float(g_ends[j + 1])
            if ghi == 0.0:
                return total
            glo = float(g_ends[j])
            if glo <= 0.0:
                continue
            slope = math.log10(ghi / glo)
            if slope >= -1.0 - 1e-6:
                if hi >= _DIVERGENCE_R:
                    raise NonintegrableProfile(
                        f"{label}: tail integrand ~ r^{slope:.6f} at r = {hi:g}"
                    )
                continue
            remainder = ghi * hi / (-slope - 1.0)
            if remainder <= _TAIL_REL * abs(total):
                return total
    raise NonintegrableProfile(f"{label}: no convergent tail by r = 1e{_DECADE_MAX}")


def _pointwise(profile: RadialProfile) -> ArrayProfile:
    """Array form of a scalar handle, called once per radius.

    A point where the handle overflows (any ArithmeticError) reads nan,
    which raises NonintegrableProfile only if its decade is summed.
    """

    def on_array(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        out = np.empty((r.size, 2))
        for i, x in enumerate(r.tolist()):
            try:
                out[i] = profile(x)
            except ArithmeticError:
                out[i] = math.nan
        return out[:, 0], out[:, 1]

    return on_array


def _quotient(triple: CknTriple, profile: ArrayProfile) -> EnergyReport:
    """Gradient mass, q-mass, q-norm and quotient of an array profile."""
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    omega = sphere_area(N)
    grad = omega * _integrate_radial(
        N - 1.0 + a, lambda r: profile(r)[1] ** 2, "gradient norm"
    )
    qmass = omega * _integrate_radial(
        N - 1.0 + b, lambda r: np.abs(profile(r)[0]) ** q, "decay norm"
    )
    if qmass <= 0.0:
        raise ValueError("profile has zero weighted q-norm")
    q_norm = qmass ** (1.0 / q)
    rayleigh = grad / q_norm**2
    if not rayleigh > 0.0:
        raise ValueError(f"quotient came out nonpositive: {rayleigh}")
    return EnergyReport(
        grad_norm_sq=grad,
        q_norm=q_norm,
        rayleigh=rayleigh,
        closed_form=None,
        s_estimate=rayleigh,
    )


def energy(triple: CknTriple, profile: RadialProfile) -> EnergyReport:
    """Rayleigh quotient of a radial profile handle r -> (v, v').

    Works for any integrable weights; balance is not required (the value
    is then scale-dependent, which is the caller's business).  The handle
    takes scalar radii; it is called point by point.
    """
    _validate_triple(triple)
    return _quotient(triple, _pointwise(profile))


def bubble_energy_closed_form(triple: CknTriple) -> float:
    """Beta-function value of E on the bubble; needs the balance to hold.

    With m = (N-2+a)/sigma both integrals reduce under s = r^sigma:
    the gradient side to m^2 sigma B(m+2, m), the q-side to
    B(m+1, m+1)/sigma, so

        E = m^2 sigma B(m+2, m) omega^(1-2/q) (B(m+1, m+1)/sigma)^(-2/q).
    """
    _validate_triple(triple)
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    if N - 2 + a <= 0:
        raise DegenerateWeight(f"N - 2 + a = {N - 2 + a}, need it positive")
    if N + b <= 0 or b <= a - 2.0:
        raise InadmissibleWeights(f"weights (a, b) = ({a}, {b}) out of range")
    defect = balance_residual(N, a, b, q)
    if abs(defect) > balance_tolerance(N, a):
        raise BalanceViolated(
            f"closed form lives on the balance manifold; defect = {defect}"
        )
    sigma = 2.0 + b - a
    m = (N - 2.0 + a) / sigma
    omega = sphere_area(N)
    grad_part = m * m * sigma * math.exp(
        math.lgamma(m + 2.0) + math.lgamma(m) - math.lgamma(2.0 * m + 2.0)
    )
    q_part = math.exp(2.0 * math.lgamma(m + 1.0) - math.lgamma(2.0 * m + 2.0)) / sigma
    return grad_part * omega ** (1.0 - 2.0 / q) * q_part ** (-2.0 / q)


def best_constant(triple: CknTriple) -> EnergyReport:
    """Sharp constant of the quotient, valid in the radial-minimizer region.

    Evaluates E on the exact bubble by quadrature, attaches the Beta
    closed form, and cross-checks the two to 1e-6 relative (raising
    QuadratureMismatch when they disagree).  Refuses with
    SymmetryBreakingRegion where the radial bubble is not the minimizer.
    """
    report = check_balance(triple)
    if report.verdict != ADMISSIBLE:
        raise BalanceViolated(
            f"best constant needs an admissible triple, verdict was {report.verdict}"
        )
    N, a, b = triple.N, triple.a, triple.b
    if N - 2.0 + a <= 0:
        raise DegenerateWeight(f"N - 2 + a = {N - 2 + a}, need it positive")
    params = ProblemParams(N=N, a=a, b=b, p=p_critical(N, a, b))
    if fs_region(params) == SYMMETRY_BREAKING:
        raise SymmetryBreakingRegion(
            f"(a, b) = ({a}, {b}) lies above the symmetry-breaking threshold; "
            "the radial bubble is not the minimizer there"
        )
    prof = normalized_bubble(params)
    measured = _quotient(triple, lambda r: bubble_eval(prof, r))
    closed = bubble_energy_closed_form(triple)
    if abs(measured.rayleigh - closed) > 1e-6 * abs(closed):
        raise QuadratureMismatch(
            "quadrature and closed form disagree: "
            f"{measured.rayleigh!r} vs {closed!r}"
        )
    return EnergyReport(
        grad_norm_sq=measured.grad_norm_sq,
        q_norm=measured.q_norm,
        rayleigh=measured.rayleigh,
        closed_form=closed,
        s_estimate=measured.rayleigh,
    )
