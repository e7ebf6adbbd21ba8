"""Autonomous phase plane in cylinder coordinates.

The substitution w(t) = r^gamma v(r), t = log r turns the radial equation
into the autonomous law

    w'' = -lambda1 w' + lambda2 w - w^p        (odd extension below w = 0),

so the fate of a shot reads off a planar phase portrait: the origin is the
decaying end, (w_star, 0) with w_star = lambda2^(1/(p-1)) is the image of
the singular power profile, and at the critical exponent (lambda1 = 0) the
system is conservative with energy

    H = w'^2/2 - lambda2 w^2/2 + |w|^(p+1)/(p+1),

whose zero level set carries the bubble orbit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveNode, NotInRange
from .params import ProblemParams, _is_critical, derive, require_admissible
from .shooting import RadialTrajectory

# |discriminant| below this is reported as degenerate rather than guessing
# a node/spiral split that roundoff cannot support.
DEGENERATE_TOL = 1e-10


@dataclass(frozen=True)
class CylinderTrajectory:
    """A radial trajectory in (t, w, dw) = (log r, r^gamma v, dw/dt)."""

    params: ProblemParams
    t: np.ndarray
    w: np.ndarray
    dw: np.ndarray


@dataclass(frozen=True)
class FixedPointReport:
    """The interior fixed point (w_star, 0) and its linearization.

    kind is one of center, stable_spiral, stable_node, unstable_spiral,
    unstable_node, degenerate; eigenvalues are the roots of
    mu^2 + lambda1 mu + (p-1) lambda2 = 0.
    """

    w_star: float
    eigenvalues: tuple
    kind: str

    def to_dict(self) -> dict:
        return {
            "w_star": self.w_star,
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
            "kind": self.kind,
        }


def to_cylinder(traj: RadialTrajectory) -> CylinderTrajectory:
    """The trajectory's nodes in cylinder coordinates.

    A terminal node with v exactly 0, a shot's crossing node, is left out;
    every other node must have r > 0 and v > 0, else NonpositiveNode.  The
    arrays are the trajectory's cylinder state: a shot's integrator
    (t, w, w'), a CSV re-read's chain-rule image of its columns
    (RadialTrajectory._cylinder_state).
    """
    r, v = traj.r, traj.v
    n = len(v) - 1 if len(v) and v[-1] == 0.0 else len(v)
    if np.any(r[:n] <= 0) or np.any(v[:n] <= 0):
        raise NonpositiveNode("cylinder map needs r > 0 and v > 0 at every node")
    t, w, dw = traj._cylinder_state()
    return CylinderTrajectory(params=traj.params, t=t[:n], w=w[:n], dw=dw[:n])


def cylinder_rhs(params: ProblemParams, w, dw):
    """Acceleration w'' = -lambda1 w' + lambda2 w - sign(w)|w|^p."""
    d = derive(params)
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    out = -d.lambda1 * dw + d.lambda2 * w - np.sign(w) * np.abs(w) ** params.p
    if np.ndim(out) == 0:
        return float(out)
    return out


def hamiltonian(params: ProblemParams, w, dw):
    """Phase-plane energy; an exact invariant exactly at criticality."""
    d = derive(params)
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    out = (
        0.5 * dw**2
        - 0.5 * d.lambda2 * w**2
        + np.abs(w) ** (params.p + 1.0) / (params.p + 1.0)
    )
    if np.ndim(out) == 0:
        return float(out)
    return out


def fixed_points(params: ProblemParams) -> FixedPointReport:
    """Locate (w_star, 0) and classify its linearization.

    Requires admissible weights and p > p_serrin, so that lambda2 > 0 and
    the fixed point exists; the kind is center exactly when p is critical.
    """
    require_admissible(params)
    d = derive(params)
    if params.p <= d.p_serrin:
        raise NotInRange(
            f"p = {params.p} <= p_serrin = {d.p_serrin}: no interior fixed point"
        )
    p = params.p
    w_star = d.lambda2 ** (1.0 / (p - 1.0))
    product = (p - 1.0) * d.lambda2
    disc = d.lambda1**2 - 4.0 * product
    root = cmath.sqrt(complex(disc))
    eigenvalues = ((-d.lambda1 - root) / 2.0, (-d.lambda1 + root) / 2.0)

    if abs(disc) < DEGENERATE_TOL:
        kind = "degenerate"
    elif disc < 0.0:
        if _is_critical(p, d.p_critical):
            kind = "center"
        else:
            kind = "stable_spiral" if d.lambda1 > 0 else "unstable_spiral"
    else:
        kind = "stable_node" if d.lambda1 > 0 else "unstable_node"
    return FixedPointReport(w_star=w_star, eigenvalues=eigenvalues, kind=kind)
