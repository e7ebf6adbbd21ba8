"""Shooting solver for the radial initial value problem.

The trajectory of height beta solves

    v'' + (N - 1 + a)/r v' + r^(b-a) v^p = 0,   v(0) = beta, v'(0) = 0,

integrated outward until it either crosses zero or reaches the horizon
r_max.  Shots run in the cylinder variables of emden_fowler, w = r^gamma v
and t = log r, where the equation is autonomous:

    w'' = -lambda1 w' + lambda2 w - |w|^(p-1) w.

Outcomes are the data of the existence dichotomy: subcritical trajectories
cross zero at a finite radius, critical and supercritical ones stay
positive (decaying like the bubble or spiralling toward the singular
power profile).  A scaling symmetry ties all heights together,

    v_beta(r) = beta * v_1(beta^((p-1)/sigma) r),

and in t it is a shift, w_beta(t) = w_1(t + log(beta)/gamma): every shot
runs the beta = 1 orbit from the same series start (series_start), and
only its start time depends on beta.  The threshold search exploits the
symmetry: probing at large beta compresses huge beta = 1 crossing radii
into a modest window, so a fixed horizon loses almost no resolution near
the critical exponent.

Single shots (shoot, and the threshold probes of shot_crosses) and
batches (sweep_shoot) run the one DOP853 engine of _dop853: a shot as
its scalar step loop on Python floats, a batch as the lanes of its
lockstep.  This module passes it the cylinder field, the series start
and rel_tol.  For shots the field is source, _CYLINDER, which the engine
compiles into its step loop once, at import; the row's parameters
(_lane_params) are the loop's arguments.  For lanes it is _lane_rhs, on
numpy arrays.  shoot and
sweep_shoot finish every run the same way (_finish): nodes uniform in t
(_node_grid), sampled from the run's step table, written back as
(r, v, dv) and kept as (t, w, w'), then classified.  A probe is a
decision: shot_crosses runs the step loop alone and reads whether it
crossed, with no step table, nodes or trajectory.  The powers in the two
fields round differently (the C library's against numpy's), so a shot
and a lane agree to round-off.

threshold_bisect is a plain bisection in p: it probes the bracket's
ends, then one midpoint per level, one shot_crosses each.

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
import sys
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

import numpy as np

from . import _dop853
from ._numerics import Knots, brent_root
from .errors import (
    BracketInvalid,
    DerivativeUndefinedAtOrigin,
    EmdenLabError,
    MalformedTrajectory,
    NonFiniteParameter,
    NonpositiveNode,
    NotInRange,
    RangeExceeded,
)
from .params import ProblemParams, Record, derive, require_admissible

log = logging.getLogger(__name__)


def __getattr__(name):
    """solve_ivp, imported from scipy when it is first looked up."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the smallest normal float, and its log: the lowest start radius a shot takes
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)


@dataclass(frozen=True)
class ShootConfig(Record):
    """Knobs of a single shot.

    rel_tol bounds every step's error relative to the size of the cylinder
    state (w, w'), with no absolute tolerance (_dop853), and places the
    series start (series_start); it lies in [100 eps, 1e-3], since a step
    error below 100 eps of the state is round-off.  nodes_per_decade sets
    the stored grid, uniform in log r; everything downstream that must be
    reproducible from a CSV (the integral identities in particular) uses
    only these nodes.  A NaN or infinite knob raises NonFiniteParameter, a
    finite one out of its range NotInRange.
    """

    beta: float = 1.0
    r_max: float = 1e4
    rel_tol: float = 1e-12
    nodes_per_decade: int = 160
    delta_fp: float = 0.05
    min_fit_radius: float = 10.0

    def __post_init__(self):
        for name in ("beta", "r_max", "rel_tol", "nodes_per_decade", "delta_fp",
                     "min_fit_radius"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonFiniteParameter(f"{name} = {value}, need it finite")
        if not self.beta > 0:
            raise NotInRange(f"beta = {self.beta}, need it positive")
        if not self.r_max >= 1.0:
            raise NotInRange(f"r_max = {self.r_max}, need r_max >= 1")
        rel_tol_min = 100 * float(_dop853.EPS)
        if not rel_tol_min <= self.rel_tol <= 1e-3:
            raise NotInRange(f"rel_tol = {self.rel_tol}, need it in [{rel_tol_min!r}, 1e-3]")
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
    for bit.  The cylinder state (t, w, w') that classify_trajectory and
    to_cylinder read is a shot's own (_finish); a trajectory read from CSV
    or built by hand gets it from its columns (_cylinder_state).
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
    _cylinder: tuple | None = field(default=None, repr=False)

    def _log_knots(self) -> Knots:
        """The knots z = log r that every spline of the trajectory shares, factored once."""
        if self._knots is None:
            self._knots = Knots(np.log(self.r))
        return self._knots

    def _cylinder_state(self) -> tuple:
        """The cylinder state (t, w, w') at the nodes, computed once.

        A shot's is its integrator's own.  Any other trajectory's is the
        chain-rule image of its columns, t = log r, w = r^gamma v and
        w' = r^gamma (gamma v + r dv).
        """
        if self._cylinder is None:
            gamma = derive(self.params).gamma
            r, v = self.r, self.v
            rg = r**gamma
            self._cylinder = (np.log(r), rg * v, rg * (gamma * v + r * self.dv))
        return self._cylinder

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
        trajectories loaded from CSV only cover [r[0], r[-1]].  A NaN radius
        raises NonFiniteParameter, and dv at r = 0 with sigma < 1
        DerivativeUndefinedAtOrigin.
        """
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.isnan(r_arr).any():
            raise NonFiniteParameter("a radius is NaN, need every radius a number")
        if np.any(r_arr < 0) or np.any(r_arr > self.r[-1] * (1 + 1e-12)):
            raise RangeExceeded(f"radii must lie in [0, {self.r[-1]}] for this trajectory")
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
    """Two-term start v = beta - beta^p r^sigma/(sigma(N+b)), dv its derivative.

    dv at r = 0 with sigma < 1 has no finite limit: DerivativeUndefinedAtOrigin.
    A v or dv that leaves float range (beta^p may overflow) raises NotInRange.
    """
    N, b, p = params.N, params.b, params.p
    r_arr = np.asarray(r, dtype=float)
    at_origin = r_arr == 0.0
    if sigma < 1.0 and at_origin.any():
        raise DerivativeUndefinedAtOrigin(
            f"sigma = {sigma} < 1: dv has no finite limit at r = 0"
        )
    try:
        beta_p = beta**p
    except OverflowError:
        beta_p = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        v = beta - beta_p * r_arr**sigma / (sigma * (N + b))
        dv = -beta_p * r_arr ** (sigma - 1.0) / (N + b)
    if sigma > 1.0:
        dv = np.where(at_origin, 0.0, dv)
    if not (np.isfinite(v).all() and np.isfinite(dv).all()):
        raise NotInRange(
            f"beta = {beta}: the series start leaves float range below the first node"
        )
    return v, dv


def series_start(params: ProblemParams, config: ShootConfig = ShootConfig()):
    """Cylinder start (t0, w, w') of the shot of height config.beta.

    Every shot starts on the beta = 1 orbit, on its two-term series
    v = 1 - z in z = r^sigma/(sigma(N+b)), at z0 = 0.1 sqrt(rel_tol): the
    dropped term, p(N+b)/(2(N+b+sigma)) z0^2, is about a hundredth of
    rel_tol relative to (w, w').  There the beta = 1 orbit is at
    r_s = (z0 sigma(N+b))^(1/sigma), and since beta only shifts time the
    shot starts at t0 = log r_s - log(beta)/gamma.  Refuses inadmissible
    weights (require_admissible), a NaN or infinite p (NonFiniteParameter),
    p <= 1 (derive's NotInRange), and with NotInRange a start radius at or
    beyond r_max or below the smallest normal float, and a start w that
    underflows (p close to 1).
    """
    require_admissible(params)
    if not math.isfinite(params.p):
        raise NonFiniteParameter(f"p = {params.p}, need it finite")
    d = derive(params)
    z0 = 0.1 * math.sqrt(config.rel_tol)
    log_rs = math.log(z0 * d.sigma * (params.N + params.b)) / d.sigma
    t0 = log_rs - math.log(config.beta) / d.gamma
    where = f"beta = {config.beta}: the shot starts at r = exp({t0!r})"
    if not t0 < math.log(config.r_max):
        raise NotInRange(f"{where}, at or beyond r_max = {config.r_max}")
    if t0 < _LOG_TINY:
        raise NotInRange(f"{where}, below the smallest normal float")
    rg = math.exp(d.gamma * log_rs)
    if rg < _TINY:
        raise NotInRange(f"p = {params.p}: the start's w = r^gamma v underflows")
    return t0, rg * (1.0 - z0), rg * (d.gamma * (1.0 - z0) - d.sigma * z0)


def _lane_params(params: ProblemParams) -> tuple[float, float, float]:
    """(-lambda1, lambda2, p - 1): all the cylinder field needs of a row."""
    d = derive(params)
    return -d.lambda1, d.lambda2, params.p - 1.0


# The cylinder field (w', w'') of a shot, y = (w, w'), as _dop853 source with
# _lane_params' parameters.  |w|^(p-1) w is the odd extension, smooth through
# w = 0.  A power that overflows reads inf, as numpy's does in _lane_rhs,
# instead of raising.
_CYLINDER = _dop853.Scalar(("neg_l1", "l2", "q"), """\
try:
    source = abs(y0) ** q * y0
except OverflowError:
    source = math.copysign(math.inf, y0)
f0, f1 = y1, neg_l1 * y1 + l2 * y0 - source
""")


def _node_grid(t0: float, t_end: float, nodes_per_decade: int) -> np.ndarray:
    """The stored times of a shot: uniform on [t0, t_end], nodes_per_decade per ln 10, ends exact."""
    n = max(2, math.ceil(nodes_per_decade * (t_end - t0) / math.log(10.0)) + 1)
    return np.linspace(t0, t_end, n)


def _finish(params, config, start, steps, t_end, crossed, stopped) -> RadialTrajectory:
    """The classified trajectory of one DOP853 run from the series start.

    The nodes (_node_grid up to t_end) are sampled from the run's step
    table, with w = 0 last at a crossing, and written as r = e^t,
    v = r^-gamma w and dv = r^(-gamma-1) (w' - gamma w); a run that
    reaches the horizon ends on r_max exactly.  The trajectory keeps the
    sampled (t, w, w') as its cylinder state, so the classification reads
    the integrator's w' even where dv underflows.  A node radius or value
    that overflows, or a v that underflows where w does not (it would read
    as a crossing), raises NotInRange; dv, which falls fastest, may
    underflow.  A stopped run is Inconclusive and keeps the nodes it
    reached; one stopped before its first step has no table to sample and
    holds the start node alone.
    """
    if len(steps):
        t = _node_grid(start[0], t_end, config.nodes_per_decade)
        w, dw = _dop853.dense_nodes(steps, t)
    else:
        t, w, dw = (np.array([x]) for x in start)
    if crossed:
        w[-1] = 0.0
    gamma = derive(params).gamma
    with np.errstate(over="ignore", under="ignore"):
        r = np.exp(t)
        v = w * np.exp(-gamma * t)
        dv = (dw - gamma * w) * np.exp(-(gamma + 1.0) * t)
    if not (crossed or stopped):
        r[-1] = config.r_max
    if not stopped:
        lost = ~np.isfinite(r) | ~np.isfinite(v) | ~np.isfinite(dv)
        lost |= (np.abs(v) < _TINY) & (w != 0.0)
        if lost.any():
            i = int(np.argmax(lost))
            raise NotInRange(f"the node at r = exp({float(t[i])!r}) leaves float range")
    traj = RadialTrajectory(params, r, v, dv, config=config, _cylinder=(t, w, dw))
    if stopped:
        traj.outcome = Inconclusive(
            f"integrator stopped at r = {math.exp(t_end)}: {_dop853.TOO_SMALL_STEP}"
        )
    else:
        traj.outcome = classify_trajectory(traj)
    return traj


def shoot(params: ProblemParams, config: ShootConfig = ShootConfig()) -> RadialTrajectory:
    """Integrate one trajectory and classify it.

    DOP853 in the cylinder variables (t, w, w') as a scalar step loop on
    Python floats (_dop853.scalar_run), which shares the lockstep's
    tableau, initial step, step control, error norm, crossing rule and
    node sampler; the loop is _CYLINDER's, looked up at call time, run on
    _lane_params(params).
    The run goes from the series start to t = log r_max and stops at the
    first step that starts at w >= 0 and ends at w <= 0.  brent_root
    refines the crossing on that step's dense output to a few ulps of t,
    far below the 1e-8 relative contract, but r0 still carries the run's
    global error.  Near p_c that error grows roughly like rel_tol/(p_c - p).
    The nodes are sampled from the run's table of accepted steps
    (_finish).  A run that fails the minimum-step test keeps the nodes it
    reached and is Inconclusive.
    """
    start = series_start(params, config)
    run = _dop853.scalar_run(
        _CYLINDER, _lane_params(params), start, math.log(config.r_max), config.rel_tol
    )
    return _finish(params, config, start, *run)


def shot_crosses(params: ProblemParams, config: ShootConfig = ShootConfig()) -> bool:
    """Whether shoot(params, config) crosses zero: the decision alone.

    Runs shoot's step loop from the same series start on the same field
    (_dop853.scalar_steps), and reads True iff the run crossed and did not
    stop.  It keeps no accepted step, builds no step table, node,
    trajectory or outcome, and does not refine the crossing.  Parameters
    or a start that series_start refuses (an EmdenLabError) read False,
    and the refusal is logged at DEBUG.  shoot's outcome is CrossedZero
    when this run crossed, except where its nodes leave float range: shoot
    then raises NotInRange, and this reads the run's crossing.
    """
    try:
        start = series_start(params, config)
    except EmdenLabError as exc:
        log.debug("shot p=%.17g refused: %s", params.p, exc)
        return False
    _, _, crossed, stopped = _dop853.scalar_steps(
        _CYLINDER, _lane_params(params), start, math.log(config.r_max), config.rel_tol
    )
    return crossed and not stopped


def classify_trajectory(traj: RadialTrajectory) -> ShotOutcome:
    """Name the fate of a sampled trajectory.

    Crossing wins if any node reaches v <= 0 (the radius is refined on the
    node spline, bracketed by the two nodes' own values, since the spline
    meets the last node only to round-off; shots place an exact v = 0 node
    there already).  Otherwise a positive trajectory needs at least a
    decade of far field beyond min_fit_radius for a stable decay fit;
    above p_serrin the cylinder state (_cylinder_state) decides between
    convergence to the singular profile and plain power decay.  A shot is
    classified from its integrator's (w, w'), a CSV re-read from the
    chain-rule image of its columns.  The two give the same kind unless dv
    underflowed in the columns (a horizon like r_max = 1e300), where the
    re-read's w' is gamma w and it reads PositiveGlobal; the oscillation
    count, which counts sign flips of w - w_star at round-off, may differ
    by a flip or two.
    """
    config = traj.config if traj.config is not None else ShootConfig()
    r, v = traj.r, traj.v

    nonpos = np.where(v <= 0.0)[0]
    if nonpos.size:
        i = int(nonpos[0])
        if i == 0:
            return Inconclusive("no positive segment to classify")
        if v[i] == 0.0:
            return CrossedZero(float(r[i]))
        sv, _ = traj._node_splines()
        z_lo, z_hi = math.log(r[i - 1]), math.log(r[i])
        ends = {z_lo: float(v[i - 1]), z_hi: float(v[i])}
        z0 = brent_root(lambda z: ends[z] if z in ends else sv(z), z_lo, z_hi, xtol=1e-15)
        return CrossedZero(float(math.exp(z0)))

    r_end = float(r[-1])
    window = r >= r_end / 10.0
    if r_end < config.min_fit_radius or int(window.sum()) < 8:
        return Inconclusive("horizon too small for a decay fit")

    d = derive(traj.params)
    if traj.params.p > d.p_serrin:
        w_star = d.lambda2 ** (1.0 / (traj.params.p - 1.0))
        _, w, dw = traj._cylinder_state()
        dist = np.hypot(w[window] - w_star, dw[window])
        if float(dist.max()) <= config.delta_fp * w_star:
            s = np.sign(w - w_star)
            flips = int(np.sum(s[1:] * s[:-1] < 0))
            return ConvergedToSingular(r_end, flips // 2)

    z, y = np.log(r[window]), np.log(v[window])
    slope = float(np.polyfit(z, y, 1)[0])
    return PositiveGlobal(r_end, -slope)


def _split(lo: float, hi: float, tol_p: float) -> float | None:
    """The midpoint 0.5 * (lo + hi) the bisection splits (lo, hi) at, or None.

    None once the bracket is no wider than tol_p, or its midpoint rounds
    onto one of its ends (tol_p below the float spacing of the bracket).
    """
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol_p and lo < mid < hi else None


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
    weights or a start at p_lo that the shooter refuses (series_start)
    raise its errors, a NaN or infinite tol_p raises NonFiniteParameter and
    a tol_p <= 0 NotInRange.  Every probe is one shot_crosses, a decision
    with no trajectory, logged once: the two ends, then one midpoint per
    level (_split).  The bracket keeps the largest crossing probe and the
    smallest one that does not cross, and every midpoint lies strictly
    inside it, so no p is probed twice.  A probe whose run stopped, or one
    the shooter refuses, counts as not crossing; a probe whose nodes would
    leave float range (which shoot refuses) reads its run's crossing.  The
    walk also ends when the bracket's midpoint rounds onto one of its
    ends, so a tol_p below the float spacing still terminates.
    """
    if not p_lo < p_hi < math.inf:
        raise BracketInvalid(f"need finite p_lo < p_hi, got [{p_lo}, {p_hi}]")
    if p_lo <= 1.0:
        raise BracketInvalid(f"p_lo = {p_lo}: the shooter requires p > 1")
    if not math.isfinite(tol_p):
        raise NonFiniteParameter(f"tol_p = {tol_p}, need it finite")
    if not tol_p > 0:
        raise NotInRange(f"tol_p = {tol_p}, need it positive")
    series_start(ProblemParams(N, a, b, p_lo), config)

    def probe(p):
        crosses = shot_crosses(ProblemParams(N, a, b, p), config)
        log.info("threshold probe p=%.17g -> %s", p,
                 "crosses" if crosses else "does not cross")
        return crosses

    if not probe(p_lo):
        raise BracketInvalid(f"p_lo = {p_lo} does not cross within the horizon")
    if probe(p_hi):
        raise BracketInvalid(f"p_hi = {p_hi} still crosses within the horizon")
    while (mid := _split(p_lo, p_hi, tol_p)) is not None:
        if probe(mid):
            p_lo = mid
        else:
            p_hi = mid
    return 0.5 * (p_lo + p_hi)


class _Field(NamedTuple):
    """The cylinder field's parameters of some lanes, one contiguous column each."""

    neg_l1: np.ndarray  # -lambda1
    l2: np.ndarray  # lambda2
    q: np.ndarray  # p - 1


def _lane_rhs(t, y, fld, out):
    """The cylinder field of every lane, written into out.

    The power is never taken in place: numpy's vectorized pow, which can
    differ from the C library's in the last bit, skips a one-element call
    whose output is its input, and a lone lane would then round
    differently from the same lane in a batch.
    """
    w, dw = y[:, 0], y[:, 1]
    s = np.abs(w) ** fld.q
    s *= w
    out[:, 0] = dw
    ddw = out[:, 1]
    np.multiply(fld.neg_l1, dw, out=ddw)
    ddw += fld.l2 * w
    ddw -= s


def sweep_shoot(
    rows, config: ShootConfig = ShootConfig(), processes: int | None = None
):
    """Shoot a batch of parameter points, preserving input order.

    rows is an iterable of ProblemParams; returns the list of outcomes.
    All rows run together in one process, as the lanes of one
    _dop853.lockstep whose field is _lane_rhs, looked up at call time.
    Each lane's run is finished as a shot's is (_finish).  A row
    that fails its parameter or start checks never enters a lane, and a
    lane whose nodes leave float range is not classified; either comes
    back as Inconclusive("rejected: ...") in its place.  processes is
    still accepted, so existing callers keep working, and is ignored.
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
    lanes = [rows[i] for i in starts]
    prm = np.array([_lane_params(q) for q in lanes]).T.copy()

    def lane_field(lanes):
        fld = _Field(*prm[:, lanes])
        return lambda t, y, out: _lane_rhs(t, y, fld, out)

    runs = _dop853.lockstep(
        lane_field, list(starts.values()), math.log(config.r_max), config.rel_tol
    )
    for (i, start), params, run in zip(starts.items(), lanes, runs):
        try:
            outcomes[i] = _finish(params, config, start, *run).outcome
        except EmdenLabError as exc:
            outcomes[i] = Inconclusive(f"rejected: {exc}")
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


def _csv_table(path, refusal) -> list:
    """The rows of a CSV file; refusal if it does not decode or has a field over 128 KiB."""
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise refusal(f"{path} is not readable CSV: {exc}") from None


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

    Refuses a file that does not decode as text or that the csv module
    refuses (a field over its 128 KiB limit), a header other than r,v,dv, fewer
    than two nodes, a row that is not three numbers and radii that do not
    strictly increase (MalformedTrajectory), a NaN or infinite value (NonFiniteParameter)
    and a radius r <= 0 (NonpositiveNode).  The cells are converted in one
    pass; only a table that fails it is scanned row by row, to name its
    first bad row (the header is row 1).
    """
    table = _csv_table(path, MalformedTrajectory)
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
