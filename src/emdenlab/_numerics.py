"""A bracketing root finder and not-a-knot cubic splines, without scipy.

brent_root is Brent's method (Brent 1973, Algorithms for Minimization
without Derivatives, ch. 4) step for step as scipy.optimize.brentq runs
it: the same interpolation and extrapolation tries, bisection fallbacks and
stopping test, on Python floats, so the two return the same root.

Knots holds the knots z of not-a-knot cubic splines with the tridiagonal
system for their slopes factored once; Knots.spline(y) solves it for one
set of values with two plain sweeps.  The system, its end conditions, the
2- and 3-knot cases and the Hermite coefficients follow
scipy.interpolate.CubicSpline (scipy/interpolate/_cubic.py, BSD-3-Clause,
Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers).
The elimination is LAPACK gtsv's without row interchanges, which the
system's diagonally dominant inner rows do not need, and a spline is
evaluated and integrated term by term as scipy's PPoly does it.  Results
agree with CubicSpline's to round-off.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NotInRange, RootNotFound

# brentq's smallest relative tolerance and its step limit
MIN_RTOL = 4 * sys.float_info.epsilon
_MAX_STEPS = 100


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise RootNotFound(f"the function value at x = {x!r} is NaN")
    return fx


def brent_root(f, a: float, b: float, xtol: float) -> float:
    """A zero of f in [a, b] to within xtol + 4 eps |x|, as scipy's brentq finds it.

    The relative tolerance is brentq's default and smallest, MIN_RTOL.
    f(a) and f(b) must differ in sign; a zero at either end is returned as
    it is.  A nonpositive xtol raises NotInRange; ends of one sign, a NaN
    value of f or no convergence within 100 steps raise RootNotFound.
    """
    if not xtol > 0:
        raise NotInRange(f"xtol = {xtol}, need it positive")
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), MIN_RTOL
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootNotFound(f"f({a!r}) = {fpre!r} and f({b!r}) = {fcur!r} have one sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_STEPS):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RootNotFound(f"no convergence in {_MAX_STEPS} steps, last x = {xcur!r}")


class Knots:
    """Strictly increasing knots z, with the not-a-knot slope system factored.

    The system is CubicSpline's: rows 1..n-2 ask for a continuous second
    derivative, rows 0 and n-1 for a continuous third derivative at the
    second and next-to-last knots.  Its factors, gtsv's multipliers and
    pivots, are kept as Python lists for the sweeps.  Two knots give a
    line and three a parabola, with no system to factor.
    """

    def __init__(self, z):
        z = np.asarray(z, dtype=float)
        if z.ndim != 1 or len(z) < 2:
            raise NotInRange(f"a spline needs at least 2 knots, got {np.size(z)}")
        dz = np.diff(z)
        if not (dz > 0).all():
            raise NotInRange("spline knots must be finite and strictly increasing")
        self.z, self.dz = z, dz
        self.inner = z[1:-1]
        self._factors = None
        if len(z) >= 4:
            diag = np.empty(len(z))
            diag[1:-1] = 2 * (dz[:-1] + dz[1:])
            diag[0], diag[-1] = dz[1], dz[-2]
            upper = np.concatenate(([z[2] - z[0]], dz[:-1]))
            lower = np.concatenate((dz[1:], [z[-1] - z[-3]]))
            pivot = float(diag[0])
            pivots, multipliers = [pivot], [0.0]  # row 0 is not eliminated
            for low, up, d in zip(lower.tolist(), upper.tolist(), diag[1:].tolist()):
                m = low / pivot
                pivot = d - m * up
                multipliers.append(m)
                pivots.append(pivot)
            self._factors = (multipliers, pivots, upper.tolist())

    def slopes(self, slope: np.ndarray) -> np.ndarray:
        """The spline's first derivatives at the knots, from its secant slopes."""
        z, dz = self.z, self.dz
        if self._factors is None:
            if len(z) == 2:
                return np.array([slope[0], slope[0]])
            # the parabola through three points
            mid = (dz[1] * slope[0] + dz[0] * slope[1]) / (dz[0] + dz[1])
            return np.array([2 * slope[0] - mid, mid, 2 * slope[1] - mid])
        rhs = np.empty(len(z))
        rhs[1:-1] = 3 * (dz[1:] * slope[:-1] + dz[:-1] * slope[1:])
        d = z[2] - z[0]
        rhs[0] = ((dz[0] + 2 * d) * dz[1] * slope[0] + dz[0] ** 2 * slope[1]) / d
        d = z[-1] - z[-3]
        rhs[-1] = (dz[-1] ** 2 * slope[-2] + (2 * d + dz[-1]) * dz[-2] * slope[-1]) / d
        multipliers, pivots, upper = self._factors
        x = rhs.tolist()
        acc = x[0]
        for i in range(1, len(x)):
            acc = x[i] = x[i] - multipliers[i] * acc
        acc = x[-1] = x[-1] / pivots[-1]
        for i in range(len(x) - 2, -1, -1):
            acc = x[i] = (x[i] - upper[i] * acc) / pivots[i]
        return np.array(x)

    def spline(self, y) -> Spline:
        """The not-a-knot cubic spline through (z, y)."""
        return Spline(self, np.asarray(y, dtype=float))


class Spline:
    """A not-a-knot cubic spline: values and integrals.

    Piece i is y_i + c2 s + c1 s^2 + c0 s^3 in s = x - z_i, with the Hermite
    coefficients of CubicHermiteSpline; a point outside the knots is
    evaluated on the nearest end piece.
    """

    def __init__(self, knots: Knots, y: np.ndarray):
        if y.shape != knots.z.shape:
            raise NotInRange(f"{len(y)} values for {len(knots.z)} knots")
        dz = knots.dz
        slope = np.diff(y) / dz
        s = knots.slopes(slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dz
        self.knots = knots
        self.c = (t / dz, (slope - s[:-1]) / dz - t, s[:-1], y[:-1])
        self._cumulative = None

    def _piece(self, x):
        """The piece x lies on, the nearest end piece outside the knots, and s."""
        i = np.searchsorted(self.knots.inner, x, side="right")
        return i, x - self.knots.z[i]

    def __call__(self, x):
        """The spline at x, a float or array."""
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        i, s = self._piece(x)
        c0, c1, c2, c3 = (c[i] for c in self.c)
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def _antiderivative(self, i, s):
        """int_0^s of piece i, term by term."""
        c0, c1, c2, c3 = (c[i] for c in self.c)
        s2 = s * s
        return c3 * s + c2 * s2 * 0.5 + c1 * (s2 * s) * (1.0 / 3.0) + c0 * (s2 * s * s) * 0.25

    def integral(self, x: float) -> float:
        """int_{z_0}^x of the spline: whole pieces summed in order, then the last part."""
        if self._cumulative is None:
            whole = self._antiderivative(np.arange(len(self.knots.dz)), self.knots.dz)
            self._cumulative = np.concatenate(([0.0], np.cumsum(whole[:-1])))
        i, s = self._piece(float(x))
        return float(self._cumulative[i] + self._antiderivative(i, s))
