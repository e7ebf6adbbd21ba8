"""Ball-wise integral identity linking interior mass to boundary flux.

For a radial solution on the ball of radius R the multiplier argument
(x . Du against the equation) collapses to an exact one-dimensional
identity:

    [(N+b)/(p+1) - (N-2+a)/2] * omega * int_0^R r^(N-1+b) v^(p+1) dr
        = boundary_1 + boundary_2 + boundary_3,

with the three boundary terms evaluated at R.  On a genuine solution the
two sides agree; the sign of the interior coefficient is what rules out
positive solutions on balls below the critical exponent, and the residual
is a sharp integration-quality diagnostic (an unrelated profile leaves a
residual of order one).

All quadrature here is a function of the stored trajectory nodes alone, so
a report recomputed from an exported CSV matches the original digit for
digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import NonpositiveSolution, RangeExceeded
from .params import ProblemParams, Record, validate
from .shooting import RadialTrajectory


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class PohozaevReport(Record):
    R: float
    interior_coeff: float
    interior_integral: float
    boundary_1: float
    boundary_2: float
    boundary_3: float
    residual: float
    relative_residual: float


def ball_nonexistence_coeff(params: ProblemParams) -> float:
    """(N+b)/(p+1) - (N-2+a)/2; nonnegative exactly from the critical p down."""
    validate(params)
    return (params.N + params.b) / (params.p + 1.0) - (params.N - 2 + params.a) / 2.0


def weighted_node_integral(
    traj: RadialTrajectory, exponent: float, power: float, R: float
) -> float:
    """int_0^R r^exponent v(r)^power dr from the stored nodes only.

    The bulk is a cubic spline in z = log r of r^(exponent+1) v^power
    integrated exactly; [0, first node] is closed in the leading power
    approximation v ~ v(r1), which costs O(r1^(exponent+1)) relative and is
    negligible for any sane hand-off radius.  Needs exponent > -1 and a
    positive trajectory up to R.
    """
    if exponent <= -1.0:
        raise ValueError(f"exponent = {exponent}: the weight is not integrable at 0")
    r, v = traj.r, traj.v
    if R <= 0:
        raise ValueError(f"R = {R}, need it positive")
    if R > r[-1] * (1 + 1e-12):
        raise RangeExceeded(f"R = {R} beyond the last stored node {r[-1]}")
    up_to = r <= R
    if np.any(v[up_to] <= 0.0):
        raise NonpositiveSolution(f"trajectory not positive on (0, {R}]")
    z = np.log(r)
    g = np.exp((exponent + 1.0) * z) * v**power
    bulk = float(CubicSpline(z, g).integrate(z[0], math.log(R)))
    stub = float(v[0]) ** power * float(r[0]) ** (exponent + 1.0) / (exponent + 1.0)
    return stub + bulk


def evaluate(traj: RadialTrajectory, R: float) -> PohozaevReport:
    """Check the ball identity at radius R on a positive stretch of the shot."""
    params = traj.params
    validate(params)
    N, a, b, p = params.N, params.a, params.b, params.p
    if R <= 0:
        raise ValueError(f"R = {R}, need it positive")
    if R > traj.r[-1] * (1 + 1e-12):
        raise RangeExceeded(f"R = {R} beyond the stored horizon {traj.r[-1]}")
    up_to = traj.r <= R
    if np.any(traj.v[up_to] <= 0.0):
        raise NonpositiveSolution(f"trajectory not positive on (0, {R}]")

    omega = sphere_area(N)
    interior = omega * weighted_node_integral(traj, N - 1.0 + b, p + 1.0, R)
    coeff = ball_nonexistence_coeff(params)
    sv, sdv = traj._node_splines()
    zR = math.log(R)
    vR, dvR = float(sv(zR)), float(sdv(zR))
    shell = omega * R ** (N - 1.0)
    boundary_1 = (N - 2.0 + a) / 2.0 * shell * R**a * vR * dvR
    boundary_2 = shell * R ** (b + 1.0) * vR ** (p + 1.0) / (p + 1.0)
    boundary_3 = shell * R ** (a + 1.0) * dvR**2 / 2.0
    residual = coeff * interior - (boundary_1 + boundary_2 + boundary_3)
    scale = max(
        abs(interior), abs(boundary_1) + abs(boundary_2) + abs(boundary_3), 1e-30
    )
    return PohozaevReport(
        R=R,
        interior_coeff=coeff,
        interior_integral=interior,
        boundary_1=boundary_1,
        boundary_2=boundary_2,
        boundary_3=boundary_3,
        residual=residual,
        relative_residual=abs(residual) / scale,
    )
