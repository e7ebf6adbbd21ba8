"""Exact solution families of the radial equation.

Two closed forms anchor everything the solvers do:

* the bubble A*(1 + (lambda r)^sigma)^(-m), an entire positive solution
  that exists exactly at the critical exponent (m = (N-2+a)/sigma), and
* the singular power profile lambda2^(1/(p-1)) * r^(-gamma), a solution on
  the punctured space for every p above the Serrin exponent.

Both are verified by substitution in the test suite before anything relies
on them.  Only the radial families live here: translates of the bubble
solve the equation only in the unweighted case a = b = 0, because the
weights pin the origin.  A third closed form, the first-zero law, is
asymptotic rather than exact: it gives where the unit-height shot first
crosses zero just below the critical exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeUndefinedAtOrigin,
    NonFiniteParameter,
    NonpositiveRadius,
    NotCritical,
    NotInRange,
    NotInSerrinSupercriticalRange,
)
from .params import ProblemParams, _is_critical, derive, require_admissible, validate


def _softplus(t):
    """log(1 + exp(t)), stable for any t."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass(frozen=True)
class BubbleProfile:
    """Entire positive solution at criticality, v = A lam^g (1+(lam r)^sigma)^(-m).

    The dilation exponent g equals (N-2+a)/2, so every lambda_scale > 0
    gives another exact solution of the same equation.
    """

    params: ProblemParams
    m: float
    amplitude: float
    lambda_scale: float

    @property
    def gamma(self) -> float:
        return (self.params.N - 2 + self.params.a) / 2.0


@dataclass(frozen=True)
class SingularProfile:
    """Power solution v = amplitude * r^(-gamma) on the punctured space."""

    params: ProblemParams
    gamma: float
    amplitude: float


def _bubble_constants(N, a, b) -> tuple[float, float, float]:
    """sigma = 2 + b - a, m = (N-2+a)/sigma and K = m(m+1)sigma^2, with A = K^(1/(p-1)).

    Divides by sigma: call it on admissible weights only.
    """
    sigma = 2.0 + b - a
    m = (N - 2 + a) / sigma
    return sigma, m, m * (m + 1.0) * sigma**2


def bubble_amplitude(params: ProblemParams) -> float:
    """Amplitude A = (m(m+1)sigma^2)^(1/(p-1)) making the profile exact.

    An amplitude that overflows or underflows to 0 (small sigma, where
    p - 1 is small) raises NotInRange.
    """
    require_admissible(params)
    derive(params)  # p > 1
    _, _, K = _bubble_constants(params.N, params.a, params.b)
    try:
        amplitude = K ** (1.0 / (params.p - 1.0))
    except OverflowError:
        amplitude = math.inf
    if not 0.0 < amplitude < math.inf:
        raise NotInRange(
            f"p = {params.p}: the bubble's amplitude K^(1/(p-1)), K = {K!r}, "
            "leaves float range"
        )
    return amplitude


def bubble(params: ProblemParams, lambda_scale: float = 1.0) -> BubbleProfile:
    """Construct the bubble; p must sit on the critical exponent."""
    require_admissible(params)
    for name, value in (("p", params.p), ("lambda_scale", lambda_scale)):
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} = {value}, need it finite")
    d = derive(params)
    if not _is_critical(params.p, d.p_critical):
        raise NotCritical(f"p = {params.p}, p_critical = {d.p_critical}")
    if lambda_scale <= 0:
        raise NotInRange(f"lambda_scale = {lambda_scale}, need it positive")
    return BubbleProfile(
        params=params,
        m=_bubble_constants(params.N, params.a, params.b)[1],
        amplitude=bubble_amplitude(params),
        lambda_scale=lambda_scale,
    )


def normalized_bubble(params: ProblemParams) -> BubbleProfile:
    """The dilation with v(0) = 1, matching the unit-height shooting start."""
    prof = bubble(params)
    try:
        lam = prof.amplitude ** (-2.0 / (params.N - 2 + params.a))
    except OverflowError:
        lam = math.inf
    if not lam < math.inf:
        raise NotInRange(
            f"amplitude = {prof.amplitude!r}: the dilation to v(0) = 1 leaves float range"
        )
    return bubble(params, lambda_scale=lam)


def first_zero_law(N: int, a: float, b: float) -> tuple[float, float]:
    """(nu, log C) of the first-zero law r0 ~ C (p_c - p)^(-nu) near p_c.

    Just below the critical exponent the shot with v(0) = 1 first crosses
    zero at r0 ~ C (p_c - p)^(-nu), with nu = 1/(N-2+a) and

        C = [2 A / (m B(m+1, m+1))]^nu,   A = (m (m+1) sigma^2)^m,

    sigma = 2 + b - a, m = (N-2+a)/sigma and B the Beta function.  C itself
    overflows once sigma is small, so the law returns log C, evaluated in
    logarithms with lgamma.

    Derivation (a Melnikov estimate).  Write M = N-2+a and take the
    Emden-Fowler variables t = log r, w = r^g v with g = sigma/(p-1).  The
    equation becomes w'' + lambda1 w' - lambda2 w + |w|^(p-1) w = 0 with
    lambda1 = M - 2g and lambda2 = g (M - g), and the energy
    H = w'^2/2 - lambda2 w^2/2 + |w|^(p+1)/(p+1) obeys dH/dt = -lambda1 w'^2.

    * At p = p_c, g = M/2 and lambda1 = 0: H is conserved and the v(0) = 1
      bubble is a homoclinic orbit of the saddle w = 0.  Its tail is
      v ~ A r^(-M), so w ~ A e^(-g t) as t -> infinity.
    * Below p_c, lambda1 ~ -(2 g^2/sigma) delta with delta = p_c - p, and
      over the one loop the shot makes along the bubble it gains the energy
      dH = (2 g^2/sigma) delta I, with I = int w'^2 dt taken on the bubble.
    * Near the saddle w ~ A e^(-g t) - B e^(g t), whose energy is
      2 g^2 A B, so B = dH/(2 g^2 A), and w first vanishes where
      e^(2 g t0) = A/B = sigma A^2/(delta I).  With 2 g = M this gives
      r0 = e^(t0) = (sigma A^2/I)^(1/M) delta^(-1/M).
    * On the bubble, with s = (lambda r)^sigma, the integral reduces to
      I = (m^2 sigma A/4) [B(m, m) - 4 B(m+1, m+1)] = m sigma A B(m+1, m+1)/2,
      and substituting it gives C above.

    The law is the near-critical counterpart of the asymptotics of
    Atkinson and Peletier (Nonlinear Anal. 10, 1986) and of Brezis and
    Peletier (1989), which it may be compared with.  Its relative error
    shrinks with delta; against lockstep shots it is below 2e-3 at
    delta = 1e-4 on the test suite's six families.
    """
    require_admissible(ProblemParams(N, a, b, math.nan))  # p plays no part
    _, m, K = _bubble_constants(N, a, b)
    log_A = m * math.log(K)
    log_beta = 2.0 * math.lgamma(m + 1.0) - math.lgamma(2.0 * m + 2.0)
    nu = 1.0 / (N - 2.0 + a)
    return nu, nu * (math.log(2.0) + log_A - math.log(m) - log_beta)


def bubble_eval(profile: BubbleProfile, r):
    """Evaluate (v, dv) of the bubble at radius r (scalar or array, r >= 0).

    Works in log space once the inner exponents get large, so radii far
    outside [1e-3, 1e3] stay finite.  dv at r = 0 exists only for
    sigma >= 1.
    """
    p = profile.params
    d = derive(p)
    sigma, m, lam = d.sigma, profile.m, profile.lambda_scale
    g = profile.gamma
    A = profile.amplitude

    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise NonpositiveRadius("bubble_eval needs r >= 0")
    at_origin = r_arr == 0.0
    if np.any(at_origin) and sigma < 1.0:
        raise DerivativeUndefinedAtOrigin(
            f"sigma = {sigma} < 1: dv has no finite limit at r = 0"
        )

    with np.errstate(divide="ignore"):
        log_rho = np.log(lam) + np.log(r_arr)  # -inf at the origin is fine
    t = sigma * log_rho
    sp = _softplus(t)
    log_amp = np.log(A) + g * np.log(lam)
    v = np.exp(log_amp - m * sp)
    with np.errstate(invalid="ignore"):
        dv = -np.exp(
            np.log(A * m * sigma)
            + (g + 1.0) * np.log(lam)
            + (sigma - 1.0) * log_rho
            - (m + 1.0) * sp
        )
    if np.any(at_origin):
        v = np.where(at_origin, A * lam**g, v)
        origin_slope = -A * m * lam ** (g + 1.0) if sigma == 1.0 else 0.0
        dv = np.where(at_origin, origin_slope, dv)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(v), float(dv)
    return v, dv


def bubble_second_derivative(profile: BubbleProfile, r):
    """Closed-form v'' of the bubble for r > 0.

    Kept separate from bubble_eval so residual checks never reconstruct
    the second derivative from the equation they are checking.
    """
    p = profile.params
    d = derive(p)
    sigma, m, lam = d.sigma, profile.m, profile.lambda_scale
    A = profile.amplitude
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise NonpositiveRadius("bubble_second_derivative needs r > 0")
    log_rho = np.log(lam) + np.log(r_arr)
    sp = _softplus(sigma * log_rho)
    base = np.log(A * m * sigma) + (profile.gamma + 2.0) * np.log(lam)
    if sigma == 1.0:
        term1 = 0.0
    else:
        term1 = np.sign(sigma - 1.0) * np.exp(
            base + np.log(abs(sigma - 1.0)) + (sigma - 2.0) * log_rho - (m + 1.0) * sp
        )
    term2 = np.exp(
        base + np.log((m + 1.0) * sigma) + (2.0 * sigma - 2.0) * log_rho - (m + 2.0) * sp
    )
    ddv = -term1 + term2
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(ddv)
    return ddv


def singular_solution(params: ProblemParams) -> SingularProfile:
    """Power solution; exists iff p > p_serrin (so that lambda2 > 0)."""
    require_admissible(params)
    d = derive(params)
    if params.p <= d.p_serrin:
        raise NotInSerrinSupercriticalRange(
            f"p = {params.p} <= p_serrin = {d.p_serrin}"
        )
    return SingularProfile(
        params=params,
        gamma=d.gamma,
        amplitude=d.lambda2 ** (1.0 / (params.p - 1.0)),
    )


def singular_eval(profile: SingularProfile, r):
    """Evaluate (v, dv) of the singular profile at r > 0."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise NonpositiveRadius("singular_eval needs r > 0")
    c, g = profile.amplitude, profile.gamma
    v = c * np.exp(-g * np.log(r_arr))
    dv = -g * v / r_arr
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(v), float(dv)
    return v, dv


def residual(params: ProblemParams, v, dv, ddv, r):
    """ODE residual ddv + (N-1+a)/r dv + r^(b-a) v^p and its relative form.

    The relative form is backward-error style: it divides by the largest
    of the three constituent terms.  An exact solution scores roundoff, an
    unrelated profile scores order one.  (Dividing by the source alone
    would amplify the intrinsic cancellation between the two derivative
    terms by (lambda r)^sigma and report noise at large radii.)  Negative
    v goes through the odd extension sign(v)|v|^p.
    """
    validate(params)
    N, a, b, p = params.N, params.a, params.b, params.p
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise NonpositiveRadius("residual is pointwise in r > 0")
    v = np.asarray(v, dtype=float)
    dv = np.asarray(dv, dtype=float)
    ddv = np.asarray(ddv, dtype=float)
    source = r_arr ** (b - a) * np.sign(v) * np.abs(v) ** p
    friction = (N - 1 + a) / r_arr * dv
    res = ddv + friction + source
    scale = np.maximum(np.abs(ddv), np.maximum(np.abs(friction), np.abs(source)))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(res) / scale
    if np.ndim(res) == 0:
        return float(res), float(rel)
    return res, rel
