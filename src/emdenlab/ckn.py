"""Weighted Rayleigh quotient and its sharp constant on radial profiles.

The quotient E(u) = ||Du||^2_{L^2, weight r^a} / ||u||^2_{L^q, weight r^b}
is finite on the admissible band a - 2 <= 2b/q <= a and scale-free exactly
when the dimensional balance (N+b)/q + 1 = (N+a)/2 holds.  On the balance
manifold q - 1 is the critical source exponent, and in the radial region
the infimum of E is attained by the explicit bubble profile, which turns
the two integrals into Beta functions.  Past the symmetry-breaking
threshold (a > 0, b large) the radial bubble is no longer the minimizer
and best_constant refuses rather than report a wrong constant.

There are two quadratures because there are two integrands of different
regularity, not two paths to the same number.

* best_constant integrates the bubble, which it knows in closed form.  In
  t = sigma log(lambda r) both integrands are exp(c1 t - c2 log(1 + e^t))
  times a constant: analytic in a strip and exponentially small at both
  ends, so the plain trapezoid rule converges geometrically (Trefethen
  and Weideman, "The exponentially convergent trapezoidal rule", SIAM
  Review 56, 2014).  Everything stays in logarithms, so the strip
  a - 2 < b < a - 1.5, where the bubble spans about 1/sigma decades of r
  and its amplitude leaves double range, costs no more than any other row.
* energy integrates whatever scalar handle it is given, which may be only
  finitely smooth (a C^2 bump, a cut-off tail); a global trapezoid
  converges only algebraically there.  It keeps adaptive Gauss-Kronrod
  (QUADPACK's 21-point rule, evaluated on arrays), one decade of r at a
  time, with a power-law origin stub and a fitted power-law tail; no
  radius past the decade where the tail stops is evaluated.  A tail
  flatter than 1/r is reported as a divergent norm instead of being
  truncated into a finite lie.  The handle is called once per radius.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .closed_forms import _bubble_constants, _softplus
from .errors import (
    BalanceViolated,
    DegenerateProfile,
    EmdenLabError,
    NonFiniteParameter,
    NonintegrableProfile,
    NormOutOfRange,
    NotInRange,
    QuadratureMismatch,
    SymmetryBreakingRegion,
)
from .params import (
    SYMMETRY_BREAKING,
    ProblemParams,
    Record,
    _check_dimension,
    balance_residual,
    balance_tolerance,
    fs_region,
    p_critical,
    require_admissible,
)
from .pohozaev import sphere_area

ADMISSIBLE = "Admissible"
BAND_VIOLATED = "BandViolated"
BALANCE_VIOLATED = "BalanceViolated"

# energy's decade quadrature
_R_ORIGIN = 1e-8
_DECADE_MAX = 40
_TAIL_REL = 1e-10
_TAIL_FIT_MIN_R = 1e2
_DIVERGENCE_R = 1e6

# best_constant's trapezoid in t: the first half-window, the e-folds both
# ends must sit below the peak, the agreement of successive halvings of h,
# and the most nodes one sum may take
_T_WINDOW = 60.0
_T_DECAY = 80.0
_T_REL = 1e-14
_T_MAX_NODES = 2**20

# natural and binary logs of the largest and smallest normal doubles
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)
_LOG2_MAX, _LOG2_MIN = sys.float_info.max_exp, sys.float_info.min_exp - 1
# energy rescales a norm integral below 2^-970: its quadrature summed
# subnormal integrand values and lost digits (9e-10 relative on the bubble
# times 1e-51, 5e-11 times 1e-50, 1e-14 from 1e-48 up)
_MASS_MIN = sys.float_info.min / sys.float_info.epsilon

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
    """N, a and b as params checks them (N - 2 + a aside), then q finite and q >= 2."""
    _check_dimension(triple.N, triple.a, triple.b)
    if not math.isfinite(triple.q):
        raise NonFiniteParameter(f"q = {triple.q}, need it finite")
    if triple.q < 2:
        raise NotInRange(f"q = {triple.q}, need q >= 2")


def check_balance(triple: CknTriple) -> BalanceReport:
    """Verdict on the two structural conditions, balance checked first.

    The report also carries the separate necessary conditions for a
    positive extremal (q > 2 and b > a - 2 > -N) so a caller can see
    which one fails even when the headline verdict is about balance; a
    triple failing them gets its report, not an error.
    """
    _validate_triple(triple)
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    defect = balance_residual(N, a, b, q)
    balance_ok = abs(defect) <= balance_tolerance(N, a)
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


def _refine(g, lo, hi, val, err) -> float:
    """Integral of g over the decade [lo, hi], refined from its one-interval GK21.

    val and err are the K21 value and |K21 - G10| of that one interval.
    The decade is bisected until its summed |K21 - G10| is within
    max(_EPSABS, _EPSREL |integral|) or it holds _LIMIT subintervals.  A
    level bisects every subinterval whose error exceeds its length's share
    of the tolerance (the largest ones when the limit is near), and
    evaluates g once over all the new halves.  Sums run in array order.
    """
    width = hi - lo
    lo, hi = np.array([lo]), np.array([hi])
    while True:
        total = np.cumsum(val)[-1]
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        if not (np.cumsum(err)[-1] > tol and len(val) < _LIMIT):
            return float(total)
        split = err > tol * (hi - lo) / width
        if not split.any():
            return float(total)
        room = _LIMIT - len(val)
        if split.sum() > room:
            mine = np.flatnonzero(split)
            smallest = np.argsort(err[mine], kind="stable")[: len(mine) - room]
            split[mine[smallest]] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err, _ = _gk21(g, new_lo, new_hi, ())
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


def _tail_stops(total: float, hi: float, g_lo: float, g_hi: float, label: str) -> bool:
    """The tail stop rule at the decade ending in hi, its ends' integrand g_lo, g_hi.

    True once the power law fitted through the decade's ends predicts a
    remainder under _TAIL_REL of total (or g_hi is zero), never below
    _TAIL_FIT_MIN_R.  A tail flatter than 1/r past _DIVERGENCE_R raises
    NonintegrableProfile.
    """
    if hi < _TAIL_FIT_MIN_R:
        return False
    if g_hi == 0.0:
        return True
    if g_lo <= 0.0:
        return False
    slope = math.log10(g_hi / g_lo)
    if slope >= -1.0 - 1e-6:
        if hi >= _DIVERGENCE_R:
            raise NonintegrableProfile(
                f"{label}: tail integrand ~ r^{slope:.6f} at r = {hi:g}"
            )
        return False
    return g_hi * hi / (-slope - 1.0) <= _TAIL_REL * abs(total)


def _integrate_radial(
    weight_exp: float, f: Callable[[np.ndarray], np.ndarray], label: str
) -> float:
    """int_0^inf r^weight_exp f(r) dr, f >= 0 evaluated on arrays.

    Below _R_ORIGIN the integrand is closed in its fitted local power law.
    Then one decade [10^k, 10^(k+1)] at a time from 1e-8 on: its
    one-interval GK21 together with its upper end (one call of f), its
    adaptive refinement (epsrel 1e-12, at most 200 subintervals, one call
    of f per level), its addition to the running sum, and the tail stop
    rule on that sum: the upper end stops once the fitted tail power
    predicts a remainder under _TAIL_REL relative, and a tail flatter than
    1/r past _DIVERGENCE_R raises NonintegrableProfile.  No radius past
    the stopping decade is evaluated; a running sum that is not finite
    raises NonintegrableProfile.  Used by energy only: best_constant has a
    smooth integrand and its own trapezoid (_log_trapezoid).
    """

    def g(r):
        return r**weight_exp * f(r)

    with np.errstate(all="ignore"):
        g0, g1 = g(np.array([_R_ORIGIN, 10.0 * _R_ORIGIN])).tolist()
    if g0 > 0.0 and g1 > 0.0:
        slope = math.log10(g1 / g0)
        if slope <= -1.0 + 1e-9:
            raise NonintegrableProfile(f"{label}: integrand ~ r^{slope:.6f} at the origin")
        total = g0 * _R_ORIGIN / (slope + 1.0)
    else:
        total = 0.0
    if not math.isfinite(total):
        raise NonintegrableProfile(f"{label}: origin stub is {total}")
    g_lo = g0  # the first decade starts at _R_ORIGIN
    for k in range(-8, _DECADE_MAX):
        lo, hi = 10.0**k, 10.0 ** (k + 1)
        with np.errstate(all="ignore"):
            val, err, (g_hi,) = _gk21(g, np.array([lo]), np.array([hi]), np.array([hi]))
            piece = _refine(g, lo, hi, val, err)
        total += piece
        if not math.isfinite(total):
            raise NonintegrableProfile(f"{label}: decade [{lo:g}, {hi:g}] integrates to {piece}")
        if _tail_stops(total, hi, g_lo, float(g_hi), label):
            return total
        g_lo = float(g_hi)
    raise NonintegrableProfile(f"{label}: no convergent tail by r = 1e{_DECADE_MAX}")


def _pointwise(profile: RadialProfile) -> ArrayProfile:
    """Array form of a scalar handle, called once per radius.

    A point where the handle overflows (any ArithmeticError) reads nan;
    a decade summed over such a point raises NonintegrableProfile.
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


def _amplitude_shift(on_array: ArrayProfile, q: float) -> int:
    """k such that |v / 2^k|^q stays inside double range; 0 if |v|^q does.

    k is the binary exponent of the largest finite |v| on a grid of ten
    radii a decade over the span _integrate_radial covers, taken only
    when that |v|^q lies outside 2^(+-256).
    """
    radii = np.logspace(-8, _DECADE_MAX, 10 * (_DECADE_MAX + 8) + 1)
    with np.errstate(all="ignore"):
        v = np.abs(on_array(radii)[0])
    v = v[np.isfinite(v)]  # nan where the handle failed
    peak = float(v.max()) if v.size else 0.0
    if not peak > 0.0 or q * abs(math.log2(peak)) <= 256.0:
        return 0
    return math.frexp(peak)[1]


def energy(triple: CknTriple, profile: RadialProfile) -> EnergyReport:
    """Rayleigh quotient of a radial profile handle r -> (v, v').

    Works for any integrable weights; balance is not required (the value
    is then scale-dependent, which is the caller's business).  The handle
    takes scalar radii; it is called point by point.  The quadrature is
    the decade-wise adaptive GK21 of _integrate_radial, not best_constant's
    trapezoid: a handle may be only finitely smooth (a C^2 bump, say), and
    there a global trapezoid converges only algebraically.  The quotient
    does not change with the amplitude, so a profile whose quadrature
    fails because |v|^q leaves double range, or gives a norm integral
    so small that subnormal values went into it (_MASS_MIN), is
    integrated again divided by a power of two (_amplitude_shift) and its
    norms scaled back; a norm that is then not a double raises
    NormOutOfRange, as in best_constant.  A profile whose quadrature
    succeeds with larger norm integrals is never rescaled.  A zero q-norm or a
    quotient that is not positive raises DegenerateProfile.
    """
    _validate_triple(triple)
    on_array = _pointwise(profile)
    try:
        return _energy(triple, on_array, 0)
    except EmdenLabError:
        shift = _amplitude_shift(on_array, triple.q)
        if not shift:
            raise
    scaled = _pointwise(lambda r: tuple(math.ldexp(x, -shift) for x in profile(r)))
    return _energy(triple, scaled, shift)


def _energy(triple: CknTriple, on_array: ArrayProfile, shift: int) -> EnergyReport:
    """energy of the profile 2^shift * on_array."""
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    omega = sphere_area(N)
    grad = omega * _integrate_radial(
        N - 1.0 + a, lambda r: on_array(r)[1] ** 2, "gradient norm"
    )
    qmass = omega * _integrate_radial(
        N - 1.0 + b, lambda r: np.abs(on_array(r)[0]) ** q, "decay norm"
    )
    if qmass <= 0.0:
        raise DegenerateProfile("profile has zero weighted q-norm")
    for name, mass in (("gradient norm", grad), ("decay norm", qmass)):
        if 0.0 < mass < _MASS_MIN:
            raise NormOutOfRange(f"{name} integral is {mass}, too close to subnormal")
    q_norm = qmass ** (1.0 / q)
    rayleigh = grad / q_norm**2
    if not rayleigh > 0.0:
        raise DegenerateProfile(f"quotient came out nonpositive: {rayleigh}")
    if shift:
        for name, value, k in (("gradient norm", grad, 2 * shift), ("decay norm", q_norm, shift)):
            log2 = math.log2(value) + k
            if not _LOG2_MIN <= log2 < _LOG2_MAX:
                raise NormOutOfRange(
                    f"{name} of the profile is 2^{log2:.1f}, outside double range"
                )
        grad, q_norm = math.ldexp(grad, 2 * shift), math.ldexp(q_norm, shift)
    return EnergyReport(
        grad_norm_sq=grad,
        q_norm=q_norm,
        rayleigh=rayleigh,
        closed_form=None,
        s_estimate=rayleigh,
    )


def bubble_energy_closed_form(triple: CknTriple) -> float:
    """Beta-function value of E on the bubble; needs the balance to hold.

    With m = (N-2+a)/sigma both integrals reduce under s = r^sigma:
    the gradient side to m^2 sigma B(m+2, m), the q-side to
    B(m+1, m+1)/sigma, so

        E = m^2 sigma B(m+2, m) omega^(1-2/q) (B(m+1, m+1)/sigma)^(-2/q).

    The product is formed in logarithms: near b = a - 2 both Beta values
    underflow while E stays of order one.
    """
    _validate_triple(triple)
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    require_admissible(ProblemParams(N, a, b, q - 1.0))
    defect = balance_residual(N, a, b, q)
    if abs(defect) > balance_tolerance(N, a):
        raise BalanceViolated(
            f"closed form lives on the balance manifold; defect = {defect}"
        )
    sigma, m, _ = _bubble_constants(N, a, b)
    log_grad = (
        math.log(m * m * sigma)
        + math.lgamma(m + 2.0)
        + math.lgamma(m)
        - math.lgamma(2.0 * m + 2.0)
    )
    log_q = 2.0 * math.lgamma(m + 1.0) - math.lgamma(2.0 * m + 2.0) - math.log(sigma)
    log_omega = math.log(sphere_area(N))
    return math.exp(log_grad + (1.0 - 2.0 / q) * log_omega - 2.0 / q * log_q)


def _log_bubble_integrand(u, slope: float, decay: float):
    """log g(t*+u) - log g(t*) for log g(t) = slope t - decay log(1 + e^t).

    t* = log(slope/(decay - slope)) is the peak.  Written as
    slope u - decay log1p(p expm1(u)) with p = slope/decay, the two terms
    are of the size of slope u, not of decay log(1 + e^t), which is what
    keeps the terms accurate when sigma is small and decay is large.
    """
    with np.errstate(over="ignore"):
        return slope * u - decay * np.log1p(slope / decay * np.expm1(u))


def _log_trapezoid(slope: float, decay: float, label: str) -> float:
    """log of the integral of exp(slope t - decay log(1 + e^t)) over the real line.

    The integrand grows like e^(slope t) from the left and falls like
    e^((slope - decay) t) to the right, so it is integrable exactly when
    0 < slope < decay; an end that does not decay raises
    NonintegrableProfile.  The window is centred on the peak; its half
    width starts at _T_WINDOW and doubles until both ends sit _T_DECAY
    e-folds below the peak.  The step h halves from 1, each level adding
    only the midpoints, until two successive sums agree to _T_REL.  Terms
    are exp(log g - peak) (_log_bubble_integrand), so nothing over- or
    underflows; a sum that is not finite, or one needing more than
    _T_MAX_NODES nodes, raises NonintegrableProfile.
    """
    if not 0.0 < slope < decay:
        raise NonintegrableProfile(
            f"{label}: integrand ~ e^({slope:.6g} t) as t -> -inf and "
            f"~ e^({slope - decay:.6g} t) as t -> +inf; both ends must decay"
        )
    t_peak = math.log(slope / (decay - slope))
    peak = slope * t_peak - decay * float(_softplus(t_peak))
    half = _T_WINDOW
    while _log_bubble_integrand(np.array([-half, half]), slope, decay).max() > -_T_DECAY:
        half *= 2.0
    h, n = 1.0, 2 * round(half)
    total = np.exp(_log_bubble_integrand(np.linspace(-half, half, n + 1), slope, decay)).sum()
    while True:
        if 2 * n > _T_MAX_NODES:
            raise NonintegrableProfile(
                f"{label}: trapezoid in t on a window of {2 * half:g} "
                f"not settled at h = {h:g}"
            )
        mids = -half + h * (np.arange(n) + 0.5)
        h, n = 0.5 * h, 2 * n
        refined = 0.5 * total + h * np.exp(_log_bubble_integrand(mids, slope, decay)).sum()
        if not math.isfinite(refined):
            raise NonintegrableProfile(f"{label}: trapezoid sum is {refined}")
        if abs(refined - total) <= _T_REL * refined:
            return peak + math.log(refined)
        total = refined


def _bubble_log_norms(triple: CknTriple) -> Tuple[float, float]:
    """log of the gradient mass G and the q-mass Q of the v(0) = 1 bubble.

    With m = (N-2+a)/sigma and g = (N-2+a)/2 the bubble is
    v = A lambda^g (1 + (lambda r)^sigma)^(-m), where
    log A = log(m(m+1) sigma^2)/(p_c - 1) and log lambda = -log A/g make
    log v(0) = 0.  Neither A nor lambda is formed: at small sigma they
    leave double range.  In t = sigma log(lambda r), with s = softplus,

        log r = t/sigma - log lambda,   log v = -m s(t),
        log|v'| = log(m sigma) + log lambda + (sigma-1) t/sigma - (m+1) s(t),

    and dr/r = dt/sigma, so the gradient integrand is
    (N+a) log r + 2 log|v'| - log sigma and the q-mass integrand is
    (N+b) log r + q log v - log sigma.  Each is slope t - decay s(t) plus
    a constant, which is added to the trapezoid's log afterwards.
    """
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    sigma, m, K = _bubble_constants(N, a, b)
    g = (N - 2.0 + a) / 2.0
    log_A = math.log(K) / (p_critical(N, a, b) - 1.0)
    log_lam = -log_A / g
    log_sigma, log_omega = math.log(sigma), math.log(sphere_area(N))
    grad = _log_trapezoid(
        (N + a + 2.0 * (sigma - 1.0)) / sigma, 2.0 * (m + 1.0), "gradient norm"
    )
    grad += log_omega + 2.0 * math.log(m * sigma) - (N + a - 2.0) * log_lam - log_sigma
    qmass = _log_trapezoid((N + b) / sigma, q * m, "decay norm")
    qmass += log_omega - (N + b) * log_lam - log_sigma
    return grad, qmass


def best_constant(triple: CknTriple) -> EnergyReport:
    """Sharp constant of the quotient, valid in the radial-minimizer region.

    Evaluates E on the exact bubble with v(0) = 1 by the trapezoid rule in
    t = sigma log(lambda r), in logarithms throughout (_bubble_log_norms),
    attaches the Beta closed form, and cross-checks the two to 1e-6
    relative (raising QuadratureMismatch when they disagree).  Refuses
    with SymmetryBreakingRegion where the radial bubble is not the
    minimizer, and raises NormOutOfRange when the gradient mass or the
    q-mass of that bubble lies outside double range (as sigma -> 0 their
    logs grow like 1/sigma), since the reported norms could not be
    written down.
    """
    report = check_balance(triple)
    if report.verdict != ADMISSIBLE:
        raise BalanceViolated(
            f"best constant needs an admissible triple, verdict was {report.verdict}"
        )
    N, a, b, q = triple.N, triple.a, triple.b, triple.q
    params = ProblemParams(N=N, a=a, b=b, p=p_critical(N, a, b))
    if fs_region(params) == SYMMETRY_BREAKING:
        raise SymmetryBreakingRegion(
            f"(a, b) = ({a}, {b}) lies above the symmetry-breaking threshold; "
            "the radial bubble is not the minimizer there"
        )
    closed = bubble_energy_closed_form(triple)  # refuses inadmissible weights
    log_grad, log_qmass = _bubble_log_norms(triple)
    for name, value in (("gradient norm", log_grad), ("decay norm", log_qmass)):
        if not _LOG_MIN <= value <= _LOG_MAX:
            raise NormOutOfRange(
                f"{name} of the v(0) = 1 bubble is 10^{value / math.log(10.0):.1f}, "
                "outside double range"
            )
    rayleigh = math.exp(log_grad - 2.0 / q * log_qmass)
    if abs(rayleigh - closed) > 1e-6 * abs(closed):
        raise QuadratureMismatch(
            f"quadrature and closed form disagree: {rayleigh!r} vs {closed!r}"
        )
    return EnergyReport(
        grad_norm_sq=math.exp(log_grad),
        q_norm=math.exp(log_qmass / q),
        rayleigh=rayleigh,
        closed_form=closed,
        s_estimate=rayleigh,
    )
