"""Exact solution families of the radial equation.

Two closed forms anchor everything the solvers do:

* the bubble A*(1 + (lambda r)^sigma)^(-m), an entire positive solution
  that exists exactly at the critical exponent (m = (N-2+a)/sigma), and
* the singular power profile lambda2^(1/(p-1)) * r^(-gamma), a solution on
  the punctured space for every p above the Serrin exponent.

Both are verified by substitution in the test suite before anything relies
on them.  Only the radial families live here: translates of the bubble
solve the equation only in the unweighted case a = b = 0, because the
weights pin the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeUndefinedAtOrigin,
    NonpositiveRadius,
    NotCritical,
    NotInSerrinSupercriticalRange,
)
from .params import CRITICAL_REL_TOL, ProblemParams, derive, require_admissible, validate

# Switch to log-space evaluation once exponent*log(...) passes this size.
_LOG_GUARD = 500.0


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


def bubble_amplitude(params: ProblemParams) -> float:
    """Amplitude A = (m(m+1)sigma^2)^(1/(p-1)) making the profile exact."""
    require_admissible(params)
    d = derive(params)
    m = (params.N - 2 + params.a) / d.sigma
    return (m * (m + 1.0) * d.sigma**2) ** (1.0 / (params.p - 1.0))


def bubble(params: ProblemParams, lambda_scale: float = 1.0) -> BubbleProfile:
    """Construct the bubble; p must sit on the critical exponent."""
    require_admissible(params)
    d = derive(params)
    if abs(params.p - d.p_critical) > CRITICAL_REL_TOL * abs(d.p_critical):
        raise NotCritical(f"p = {params.p}, p_critical = {d.p_critical}")
    if lambda_scale <= 0:
        raise ValueError(f"lambda_scale = {lambda_scale}, need it positive")
    m = (params.N - 2 + params.a) / d.sigma
    return BubbleProfile(
        params=params,
        m=m,
        amplitude=bubble_amplitude(params),
        lambda_scale=lambda_scale,
    )


def normalized_bubble(params: ProblemParams) -> BubbleProfile:
    """The dilation with v(0) = 1, matching the unit-height shooting start."""
    prof = bubble(params)
    lam = prof.amplitude ** (-2.0 / (params.N - 2 + params.a))
    return bubble(params, lambda_scale=lam)


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
