"""Shooting solver for the radial initial value problem.

The trajectory of height beta solves

    v'' + (N - 1 + a)/r v' + r^(b-a) v^p = 0,   v(0) = beta, v'(0) = 0,

integrated outward until it either crosses zero or reaches the horizon
r_max.  The origin is a singular point of the ODE, so integration starts
from a short power-series hand-off at epsilon0 instead of r = 0.

Outcomes are the data of the existence dichotomy: subcritical trajectories
cross zero at a finite radius, critical and supercritical ones stay
positive (decaying like the bubble or spiralling toward the singular
power profile).  A scaling symmetry ties all heights together,

    v_beta(r) = beta * v_1(beta^((p-1)/sigma) r),

which the threshold search exploits: probing at large beta compresses huge
beta = 1 crossing radii into a modest window, so a fixed horizon loses
almost no resolution near the critical exponent.

Single shots (shoot) and batches (sweep_shoot, and through it
threshold_bisect) run the one DOP853 engine of _dop853: a shot as its
scalar step loop on Python floats, a batch as the lanes of its lockstep.
This module passes it the radial field (_make_rhs for a shot, _lane_rhs
for lanes), the series start and the tolerances (_tolerances), and
finishes every run the same way (_finish): nodes on a log-uniform grid
(_node_grid), sampled from the run's step table, then classified.  The
powers in the two fields round differently (the C library's against
numpy's), so a shot and a lane agree to round-off, amplified only where
the answer is below the absolute tolerance.

threshold_bisect shoots its probes in lockstep rounds.  The first round
holds the bracket's ends, the next four bisection levels and the path the
serial walk would take if the threshold sat where the first-zero law
(closed_forms.first_zero_law) puts the horizon; when the law is right the
whole walk reads its decisions from that one round.  Later rounds, needed
only where the path runs out, shoot four levels each.

No shot needs scipy: the engine's tableau is a table of constants,
crossings are refined by brent_root and node splines are _numerics'
not-a-knot splines.  The module still names scipy's solve_ivp, imported
on its first lookup, for callers that read it.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

import numpy as np

from . import _dop853
from ._numerics import Knots, brent_root
from .closed_forms import first_zero_law
from .errors import (
    BracketInvalid,
    EmdenLabError,
    MalformedTrajectory,
    NonFiniteParameter,
    NonMonotoneThreshold,
    NonpositiveNode,
    NotInRange,
    RangeExceeded,
)
from .params import ProblemParams, Record, derive, p_critical, require_admissible

log = logging.getLogger(__name__)


def __getattr__(name):
    """solve_ivp, imported from scipy when it is first looked up."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The series hand-off never shrinks below this radius.
_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class ShootConfig(Record):
    """Knobs of a single shot.

    epsilon0 = None means "1e-4 * min(1, sigma), then auto-shrunk until the
    next-order series term is below rel_tol".  nodes_per_decade controls the
    stored log-uniform grid; everything downstream that must be reproducible
    from a CSV (the integral identities in particular) uses only these nodes.
    A NaN or infinite knob raises NonFiniteParameter, a finite one out of
    its range NotInRange.
    """

    beta: float = 1.0
    r_max: float = 1e4
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    epsilon0: float | None = None
    nodes_per_decade: int = 160
    delta_fp: float = 0.05
    min_fit_radius: float = 10.0

    def __post_init__(self):
        for name in ("beta", "r_max", "rel_tol", "abs_tol", "epsilon0", "nodes_per_decade",
                     "delta_fp", "min_fit_radius"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise NonFiniteParameter(f"{name} = {value}, need it finite")
        if not self.beta > 0:
            raise NotInRange(f"beta = {self.beta}, need it positive")
        if not self.r_max >= 1.0:
            raise NotInRange(f"r_max = {self.r_max}, need r_max >= 1")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-3:
                raise NotInRange(f"{name} = {tol}, need it in (0, 1e-3]")
        if self.epsilon0 is not None and not 0.0 < self.epsilon0 < 1.0:
            raise NotInRange(f"epsilon0 = {self.epsilon0}, need it in (0, 1)")
        n = self.nodes_per_decade
        if not (n >= 4 and n == int(n)):
            raise NotInRange(
                f"nodes_per_decade = {n}, need a whole number >= 4 for the spline"
            )


@dataclass(frozen=True)
class CrossedZero(Record):
    kind: ClassVar[str] = "crossed_zero"
    r0: float


@dataclass(frozen=True)
class PositiveGlobal(Record):
    kind: ClassVar[str] = "positive_global"
    r_reached: float
    decay_exponent_estimate: float


@dataclass(frozen=True)
class ConvergedToSingular(Record):
    kind: ClassVar[str] = "converged_to_singular"
    r_reached: float
    oscillation_count: int


@dataclass(frozen=True)
class Inconclusive(Record):
    kind: ClassVar[str] = "inconclusive"
    reason: str


ShotOutcome = Union[CrossedZero, PositiveGlobal, ConvergedToSingular, Inconclusive]


@dataclass
class RadialTrajectory:
    """Sampled shot: log-uniform nodes (r, v, dv) plus the classified outcome.

    Nodes satisfy v > 0 except possibly the terminal crossing node, and
    dv < 0 throughout.  A trajectory re-read from CSV carries exactly the
    same node data, so node-based consumers reproduce their reports bit
    for bit.
    """

    params: ProblemParams
    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    outcome: ShotOutcome | None = None
    config: ShootConfig | None = None
    _knots: Knots | None = field(default=None, repr=False)
    _splines: tuple | None = field(default=None, repr=False)
    # pohozaev's integrand splines, by (exponent, power)
    _integrands: dict = field(default_factory=dict, repr=False)

    def _log_knots(self) -> Knots:
        """The knots z = log r that every spline of the trajectory shares, factored once."""
        if self._knots is None:
            self._knots = Knots(np.log(self.r))
        return self._knots

    def _node_splines(self):
        """Splines of v and dv in log r; a terminal v <= 0 node is kept for root bracketing."""
        if self._splines is None:
            knots = self._log_knots()
            self._splines = (knots.spline(self.v), knots.spline(self.dv))
        return self._splines

    def eval(self, r):
        """(v, dv) at arbitrary radii inside [0, r[-1]].

        Between nodes the node splines are used, so a trajectory re-read
        from CSV gives the same values.  Below the first node the
        power-series start is used, which needs the shot's config;
        trajectories loaded from CSV only cover [r[0], r[-1]].
        """
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr < 0) or np.any(r_arr > self.r[-1] * (1 + 1e-12)):
            raise RangeExceeded(
                f"radii must lie in [0, {self.r[-1]}] for this trajectory"
            )
        below = r_arr < self.r[0]
        v = np.empty_like(r_arr)
        dv = np.empty_like(r_arr)
        inside = ~below
        if inside.any():
            sv, sdv = self._node_splines()
            z = np.log(np.minimum(r_arr[inside], self.r[-1]))
            v[inside], dv[inside] = sv(z), sdv(z)
        if below.any():
            if self.config is None:
                raise RangeExceeded(
                    "r below the first stored node needs the original config"
                )
            sigma = derive(self.params).sigma
            vb, dvb = _series_values(self.params, sigma, self.config.beta, r_arr[below])
            v[below], dv[below] = vb, dvb
        if np.isscalar(r) or np.ndim(r) == 0:
            return float(v[0]), float(dv[0])
        return v, dv


def _series_values(params: ProblemParams, sigma: float, beta: float, r):
    """Two-term start v = beta - beta^p r^sigma/(sigma(N+b)), dv its derivative."""
    N, b, p = params.N, params.b, params.p
    r_arr = np.asarray(r, dtype=float)
    v = beta - beta**p * r_arr**sigma / (sigma * (N + b))
    with np.errstate(divide="ignore", invalid="ignore"):
        dv = -(beta**p) * r_arr ** (sigma - 1.0) / (N + b)
    if sigma > 1.0:
        dv = np.where(r_arr == 0.0, 0.0, dv)
    return v, dv


def series_truncation_estimate(params: ProblemParams, beta: float, eps: float) -> float:
    """Relative size of the dropped next-order term, O(eps^(2 sigma)).

    The maximum of the v-correction (against beta) and the dv-correction
    (against the leading dv term); used to auto-shrink the hand-off radius.
    A beta whose powers leave float range raises NotInRange.
    """
    try:
        return _truncation(params, derive(params).sigma, beta, eps)
    except OverflowError:
        raise _start_overflows(params, beta) from None


def _start_overflows(params: ProblemParams, beta: float) -> NotInRange:
    """The refusal of a beta whose powers in the series start leave float range."""
    return NotInRange(f"beta = {beta}: the series start overflows at p = {params.p}")


def _truncation(params: ProblemParams, sigma: float, beta: float, eps: float) -> float:
    """series_truncation_estimate with sigma = 2 + b - a already derived."""
    N, b, p = params.N, params.b, params.p
    corr_v = (
        p
        * beta ** (2.0 * (p - 1.0))
        * eps ** (2.0 * sigma)
        / (2.0 * sigma**2 * (N + b) * (N + b + sigma))
    )
    corr_dv = p * beta ** (p - 1.0) * eps**sigma / (sigma * (N + b + sigma))
    return max(corr_v, corr_dv)


def series_start(params: ProblemParams, config: ShootConfig = ShootConfig()):
    """Hand-off state (r, v, dv) at the series radius.

    Starts from config.epsilon0 (default 1e-4 * min(1, sigma)) and halves it
    until the next-order correction drops below rel_tol, never going under
    1e-12.  Refuses inadmissible weights (require_admissible), a NaN or
    infinite p (NonFiniteParameter), p <= 1 (derive's NotInRange) and a
    beta whose powers in the series leave float range (NotInRange).
    derive runs once per call, however many halvings it takes.
    """
    require_admissible(params)
    if not math.isfinite(params.p):
        raise NonFiniteParameter(f"p = {params.p}, need it finite")
    sigma = derive(params).sigma
    eps = config.epsilon0
    if eps is None:
        eps = 1e-4 * min(1.0, sigma)
    try:
        while eps > _EPS_FLOOR:
            if _truncation(params, sigma, config.beta, eps) <= config.rel_tol:
                break
            eps *= 0.5
        v, dv = _series_values(params, sigma, config.beta, eps)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "series hand-off at eps=%g, truncation estimate %g",
                eps,
                _truncation(params, sigma, config.beta, eps),
            )
    except OverflowError:
        raise _start_overflows(params, config.beta) from None
    return eps, float(v), float(dv)


def _make_rhs(params: ProblemParams):
    """The radial field (r, (v, dv)) -> (dv, dv') of one shot, on Python floats.

    A power that overflows reads inf, as numpy's does, instead of raising.
    """
    N, a, b, p = params.N, params.a, params.b, params.p
    coeff = N - 1.0 + a
    w = b - a

    def rhs(r, y):
        v, dv = y
        try:
            source = r**w * abs(v) ** p
        except OverflowError:
            source = math.inf
        # odd extension keeps the vector field smooth through v = 0
        return (dv, -coeff / r * dv - (source if v >= 0.0 else -source))

    return rhs


def _node_grid(eps: float, r_end: float, nodes_per_decade: int) -> np.ndarray:
    """The stored radii of a shot: log-uniform on [eps, r_end], ends exact."""
    n = max(2, math.ceil(nodes_per_decade * math.log10(r_end / eps)) + 1)
    nodes = np.geomspace(eps, r_end, n)
    nodes[0], nodes[-1] = eps, r_end
    return nodes


def _tolerances(config: ShootConfig) -> tuple[float, float]:
    """(rtol, atol) of a run: rel_tol floored at 100 eps as solve_ivp floors it, abs_tol times beta."""
    return max(config.rel_tol, 100 * _dop853.EPS), config.abs_tol * max(1.0, config.beta)


def _finish(params, config, start, steps, r_end, crossed, stopped) -> RadialTrajectory:
    """The classified trajectory of one DOP853 run from the series start.

    The nodes (_node_grid up to r_end) are sampled from the run's step
    table, with the series start pinned first and, at a crossing, v = 0
    last.  A stopped run is Inconclusive; one stopped before its first
    step has no table to sample and holds the start node alone.
    """
    if len(steps):
        nodes = _node_grid(start[0], r_end, config.nodes_per_decade)
        v, dv = _dop853.dense_nodes(steps, nodes)
    else:
        nodes, v, dv = (np.array([x]) for x in start)
    v[0], dv[0] = start[1], start[2]
    if crossed:
        v[-1] = 0.0
    traj = RadialTrajectory(params=params, r=nodes, v=v, dv=dv, config=config)
    if stopped:
        traj.outcome = Inconclusive(f"integrator stopped at r = {r_end}: {_dop853.TOO_SMALL_STEP}")
    else:
        traj.outcome = classify_trajectory(traj)
    return traj


def shoot(params: ProblemParams, config: ShootConfig = ShootConfig()) -> RadialTrajectory:
    """Integrate one trajectory and classify it.

    DOP853 as a scalar step loop on Python floats (_dop853.scalar_run),
    which shares the lockstep's tableau, initial step, step control,
    crossing rule and node sampler; the field is _make_rhs(params), looked
    up at call time.  The run stops at the first step that starts at
    v >= 0 and ends at v <= 0.  brent_root refines the crossing on that
    step's dense output to a few ulps of r, far below the 1e-8 relative
    contract, but r0 still carries the run's global error.  Near p_c that
    error grows roughly like rel_tol/(p_c - p): at (4, 0, 0, 3 - 1e-8) and
    the default rel_tol, r0 was measured 3.5e-4 off.  The nodes are
    sampled from the run's table of accepted steps (_finish).  A run that
    fails the minimum-step test keeps the nodes it reached and is
    Inconclusive.
    """
    start = series_start(params, config)
    run = _dop853.scalar_run(_make_rhs(params), start, config.r_max, *_tolerances(config))
    return _finish(params, config, start, *run)


def classify_trajectory(traj: RadialTrajectory) -> ShotOutcome:
    """Name the fate of a sampled trajectory.

    Crossing wins if any node reaches v <= 0 (the radius is refined on the
    node spline; shots place an exact v = 0 node there already).  Otherwise
    a positive trajectory needs at least a decade of far field beyond
    min_fit_radius for a stable decay fit; the cylinder picture decides
    between convergence to the singular profile and plain power decay.
    """
    config = traj.config if traj.config is not None else ShootConfig()
    r, v, dv = traj.r, traj.v, traj.dv

    nonpos = np.where(v <= 0.0)[0]
    if nonpos.size:
        i = int(nonpos[0])
        if i == 0:
            return Inconclusive("no positive segment to classify")
        if v[i] == 0.0:
            return CrossedZero(float(r[i]))
        sv, _ = traj._node_splines()
        z0 = brent_root(sv, math.log(r[i - 1]), math.log(r[i]), xtol=1e-15)
        return CrossedZero(float(math.exp(z0)))

    r_end = float(r[-1])
    window = r >= r_end / 10.0
    if r_end < config.min_fit_radius or int(window.sum()) < 8:
        return Inconclusive("horizon too small for a decay fit")

    d = derive(traj.params)
    if traj.params.p > d.p_serrin:
        gamma = d.gamma
        w_star = d.lambda2 ** (1.0 / (traj.params.p - 1.0))
        rg = r**gamma
        w = rg * v
        dw = rg * (gamma * v + r * dv)
        dist = np.hypot(w[window] - w_star, dw[window])
        if float(dist.max()) <= config.delta_fp * w_star:
            s = np.sign(w - w_star)
            flips = int(np.sum(s[1:] * s[:-1] < 0))
            return ConvergedToSingular(r_end, flips // 2)

    z, y = np.log(r[window]), np.log(v[window])
    slope = float(np.polyfit(z, y, 1)[0])
    return PositiveGlobal(r_end, -slope)


# Bisection levels shot per lockstep batch.  Deeper rounds shoot more
# speculative probes than they save in iterations.
_ROUND_DEPTH = 4


def _split(lo: float, hi: float, tol_p: float) -> float | None:
    """The midpoint 0.5 * (lo + hi) the bisection splits (lo, hi) at, or None.

    None once the bracket is no wider than tol_p, or its midpoint rounds
    onto one of its ends (tol_p below the float spacing of the bracket).
    """
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol_p and lo < mid < hi else None


def _bisection_tree(lo: float, hi: float, tol_p: float, depth=_ROUND_DEPTH) -> list:
    """Every midpoint the next depth bisection steps from (lo, hi) may probe (_split)."""
    mid = _split(lo, hi, tol_p)
    if depth == 0 or mid is None:
        return []
    return (
        [mid]
        + _bisection_tree(lo, mid, tol_p, depth - 1)
        + _bisection_tree(mid, hi, tol_p, depth - 1)
    )


def _bisection_path(lo: float, hi: float, tol_p: float, p_pred: float) -> list:
    """The midpoints the serial walk from (lo, hi) probes if the threshold is p_pred.

    One midpoint per level (_split); a midpoint below p_pred is taken to cross.
    """
    path = []
    while (mid := _split(lo, hi, tol_p)) is not None:
        path.append(mid)
        lo, hi = (mid, hi) if mid < p_pred else (lo, mid)
    return path


def _predicted_threshold(N: int, a: float, b: float, config: ShootConfig) -> float:
    """Where the first-zero law puts the crossing threshold of config's shots.

    The shot of height beta crosses at beta^(-(p-1)/sigma) times the unit
    shot's radius, and (p-1)/sigma = 2/(N-2+a) at p_c, so the law puts its
    first zero on the horizon r_max at p_c - delta with
    delta = (C / (r_max beta^(2/(N-2+a))))^(N-2+a).  Where delta leaves
    float range the prediction is p_c; it never raises.
    """
    p_c = p_critical(N, a, b)
    try:
        nu, log_c = first_zero_law(N, a, b)
        log_delta = (log_c - math.log(config.r_max)) / nu - 2.0 * math.log(config.beta)
        delta = math.exp(log_delta)
    except (ArithmeticError, ValueError):
        return p_c
    return p_c - delta if math.isfinite(delta) else p_c


def _require_crossing_prefix(crosses: dict) -> None:
    """NonMonotoneThreshold unless every crossing p lies below every other p."""
    ps = sorted(crosses)
    first_miss = next(i for i, p in enumerate(ps) if not crosses[p])
    above = [p for p in ps[first_miss:] if crosses[p]]
    if above:
        raise NonMonotoneThreshold(
            f"crossing is not monotone in p: p = {above[-1]!r} crosses but "
            f"p = {ps[first_miss]!r} below it does not"
        )


def threshold_bisect(
    N: int,
    a: float,
    b: float,
    p_lo: float,
    p_hi: float,
    tol_p: float = 1e-3,
    config: ShootConfig = ShootConfig(),
) -> float:
    """Bisect the crossing/no-crossing boundary in p.

    The lower endpoint must cross, the upper must not, else BracketInvalid;
    weights the shooter refuses raise its errors, a NaN or infinite tol_p
    raises NonFiniteParameter and a tol_p <= 0 NotInRange.  Probes are shot in
    rounds through sweep_shoot, and the serial walk then reads its
    decisions from them, so the result is the serial bisection's bit for
    bit.  The first round shoots the two ends, every midpoint of the next
    _ROUND_DEPTH bisection levels, and the walk's path to the threshold
    the first-zero law predicts (_predicted_threshold), one midpoint per
    level; a right prediction finishes the walk in this one round.  Each
    later round, shot only where the walk leaves the probes it has, holds
    every midpoint of the next _ROUND_DEPTH levels of the current bracket.
    The answer never depends on the prediction: every decision is read
    from a shot, and a wrong prediction costs only rounds.  An
    inconclusive probe counts as not crossing.  Crossing must be monotone
    in p: every round checks that its crossing probes all lie below its
    other probes, else NonMonotoneThreshold.  Each round (its lane count
    and how many of its probes lie on the predicted path) and each probe
    are logged.  The walk also ends when the bracket's midpoint rounds
    onto one of its ends, so a tol_p below the float spacing still
    terminates.
    """
    if not p_lo < p_hi < math.inf:
        raise BracketInvalid(f"need finite p_lo < p_hi, got [{p_lo}, {p_hi}]")
    if p_lo <= 1.0:
        raise BracketInvalid(f"p_lo = {p_lo}: the shooter requires p > 1")
    if not math.isfinite(tol_p):
        raise NonFiniteParameter(f"tol_p = {tol_p}, need it finite")
    if not tol_p > 0:
        raise NotInRange(f"tol_p = {tol_p}, need it positive")
    require_admissible(ProblemParams(N, a, b, p_lo))
    rounds = 0

    def shoot_round(probes, crosses, on_path=0):
        nonlocal rounds
        rounds += 1
        log.info(
            "threshold round %d: %d lanes, %d on the predicted path",
            rounds, len(probes), on_path,
        )
        outcomes = sweep_shoot([ProblemParams(N, a, b, p) for p in probes], config)
        for p, outcome in zip(probes, outcomes):
            log.info("threshold probe p=%.17g -> %s", p, outcome)
            crosses[p] = isinstance(outcome, CrossedZero)
        return crosses

    probes = [p_lo, p_hi] + _bisection_tree(p_lo, p_hi, tol_p)
    path = _bisection_path(p_lo, p_hi, tol_p, _predicted_threshold(N, a, b, config))
    probes += [p for p in path if p not in probes]
    crosses = shoot_round(probes, {}, len(path))
    if not crosses[p_lo]:
        raise BracketInvalid(f"p_lo = {p_lo} does not cross within the horizon")
    if crosses[p_hi]:
        raise BracketInvalid(f"p_hi = {p_hi} still crosses within the horizon")
    _require_crossing_prefix(crosses)
    while (mid := _split(p_lo, p_hi, tol_p)) is not None:
        if mid not in crosses:
            probes = _bisection_tree(p_lo, p_hi, tol_p)
            crosses = shoot_round(probes, {p_lo: True, p_hi: False})
            _require_crossing_prefix(crosses)
        if crosses[mid]:
            p_lo = mid
        else:
            p_hi = mid
    return 0.5 * (p_lo + p_hi)


class _Field(NamedTuple):
    """The vector field's parameters of some lanes, one contiguous column each."""

    neg_c: np.ndarray  # -(N - 1 + a)
    w: np.ndarray | None  # b - a, or None when every lane has b == a
    p: np.ndarray


def _field(prm, lanes) -> _Field:
    """The _Field of the given lanes; prm's rows are -(N-1+a), b-a and p, a column per lane."""
    neg_c, w, p = prm[:, lanes]
    return _Field(neg_c, w if w.any() else None, p)


def _lane_rhs(r, y, fld, out):
    """The radial vector field of every lane, written into out.

    r^(b-a) is left out when every lane has b == a: r**0 is exactly 1.0,
    so the bits are the same.  The powers are never taken in place:
    numpy's vectorized pow, which can differ from the C library's in the
    last bit, skips a one-element call whose output is its input, and a
    lone lane would then round differently from the same lane in a batch.
    """
    v, dv = y[:, 0], y[:, 1]
    s = np.abs(v) ** fld.p
    # odd extension, signed as where(v >= 0, s, -s), so v = -0.0 gives +s
    np.negative(s, out=s, where=v < 0.0)
    if fld.w is not None:
        s *= r**fld.w
    out[:, 0] = dv
    ddv = out[:, 1]
    np.divide(fld.neg_c, r, out=ddv)
    ddv *= dv
    ddv -= s


def sweep_shoot(
    rows, config: ShootConfig = ShootConfig(), processes: int | None = None
):
    """Shoot a batch of parameter points, preserving input order.

    rows is an iterable of ProblemParams; returns the list of outcomes.
    All rows run together in one process, as the lanes of one
    _dop853.lockstep whose field is _lane_rhs, looked up at call time.
    Each lane it hands back is finished as a shot is (_finish).  A row
    that fails its parameter checks, or whose series start overflows,
    never enters a lane and comes back as Inconclusive("rejected: ...")
    in its place.  processes is still accepted, so existing callers keep
    working, and is ignored.
    """
    rows = list(rows)
    outcomes: list = [None] * len(rows)
    starts = {}
    for i, params in enumerate(rows):
        try:
            starts[i] = series_start(params, config)
        except EmdenLabError as exc:
            outcomes[i] = Inconclusive(f"rejected: {exc}")
    if not starts:
        return outcomes
    ids = list(starts)
    lanes = [rows[i] for i in ids]
    prm = np.array([(-(q.N - 1.0 + q.a), q.b - q.a, q.p) for q in lanes]).T.copy()

    def lane_field(lanes):
        fld = _field(prm, lanes)
        return lambda r, y, out: _lane_rhs(r, y, fld, out)

    runs = _dop853.lockstep(lane_field, list(starts.values()), config.r_max, *_tolerances(config))
    for k, steps, r_end, crossed in runs:
        # a lane that failed the minimum-step test comes back with no steps
        run = (starts[ids[k]], steps, r_end, crossed, not len(steps))
        outcomes[ids[k]] = _finish(lanes[k], config, *run).outcome
    return outcomes


def csv_text(header, columns) -> str:
    """CSV text of equal-length columns, floats in shortest round-trip form, '\n' line ends.

    A table whose columns hold Python floats only is formatted a column at
    a time (repr) and joined a row at a time.  Any other table goes through
    csv.writer, so its strings are quoted as the csv module quotes them.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if all(set(map(type, column)) <= {float} for column in columns):
        lines = list(map(",".join, zip(*(map(repr, column) for column in columns))))
        return buf.getvalue() + "\n".join(lines) + ("\n" if lines else "")
    writer.writerows(
        zip(*([repr(float(x)) if isinstance(x, float) else x for x in column]
              for column in columns))
    )
    return buf.getvalue()


def trajectory_csv(traj: RadialTrajectory) -> str:
    """The nodes as `r,v,dv` CSV text; trajectory_from_csv reads it back exactly."""
    return csv_text(["r", "v", "dv"], [traj.r.tolist(), traj.v.tolist(), traj.dv.tolist()])


def trajectory_to_csv(traj: RadialTrajectory, path) -> None:
    """Write trajectory_csv(traj) to path."""
    with open(path, "w", newline="") as fh:
        fh.write(trajectory_csv(traj))


def trajectory_from_csv(
    path, params: ProblemParams, config: ShootConfig | None = None
) -> RadialTrajectory:
    """Rebuild a trajectory from its CSV; node data round-trips exactly.

    Refuses a header other than r,v,dv, fewer than two nodes, a row that
    is not three numbers and radii that do not strictly increase
    (MalformedTrajectory), a NaN or infinite value (NonFiniteParameter)
    and a radius r <= 0 (NonpositiveNode).  The cells are converted in one
    pass; only a table that fails it is scanned row by row, to name its
    first bad row (the header is row 1).
    """
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    header = table[0] if table else []
    if [h.strip() for h in header] != ["r", "v", "dv"]:
        raise MalformedTrajectory(f"unexpected trajectory header {header!r}")
    body = table[1:]
    try:
        if set(map(len, body)) - {3}:
            raise ValueError("a row without three cells")
        arr = np.array(list(map(float, itertools.chain.from_iterable(body))))
    except ValueError:
        for num, line in enumerate(body, start=2):
            try:
                r, v, dv = map(float, line)
            except ValueError:
                raise MalformedTrajectory(
                    f"row {num} {line!r} is not three numbers r,v,dv"
                ) from None
    arr = arr.reshape(-1, 3)
    if len(arr) < 2:
        raise MalformedTrajectory("trajectory CSV needs at least two nodes")
    if not np.isfinite(arr).all():
        raise NonFiniteParameter("trajectory CSV holds a NaN or infinite value")
    r = arr[:, 0]
    if not r[0] > 0.0:
        raise NonpositiveNode(f"trajectory CSV starts at r = {float(r[0])!r}, need r > 0")
    if not (r[1:] > r[:-1]).all():
        raise MalformedTrajectory("trajectory CSV radii do not strictly increase")
    traj = RadialTrajectory(params=params, r=r, v=arr[:, 1], dv=arr[:, 2], config=config)
    traj.outcome = classify_trajectory(traj)
    return traj
