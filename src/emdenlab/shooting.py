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
threshold_bisect) run one method, DOP853 as scipy's solve_ivp drives it,
with one tableau (_tableau), initial step, step control, crossing rule and
node sampler.  Only the array layout differs.  A shot is a scalar step
loop on Python floats (_scalar_dop853): one lane pays no numpy call
overhead.  A batch is a lockstep that advances every row at once as numpy
arrays, one step per row per iteration, with each row's own step size,
error control, crossing refinement and node sampling.  An iteration
evaluates the field 12 times (the step's stages and the field at its
end); the three dense-output stages of accepted steps are built later in
bulk, for a bounded buffer of held steps at a time, so rejected steps
never pay for them.  A lane that leaves the lockstep is sampled and
classified only after the next such flush (or the last, when the loop
ends), together with every other lane that left since, from one pass over
the step table.  Both sum stages in stage order; the powers in the
field round differently (the C library's against numpy's), so a shot and
a lane agree to round-off, amplified only where the answer is below the
absolute tolerance.

Both sample their stored nodes with one routine (_dense_nodes) from a
table of accepted DOP853 steps in one row layout (_StepLog).

threshold_bisect shoots its probes in lockstep rounds.  The first round
holds the bracket's ends, the next four bisection levels and the path the
serial walk would take if the threshold sat where the first-zero law
(closed_forms.first_zero_law) puts the horizon; when the law is right the
whole walk reads its decisions from that one round.  Later rounds, needed
only where the path runs out, shoot four levels each.

No shot needs scipy: the tableau is a table of constants (_dop853),
crossings are refined by brent_root and node splines are _numerics'
not-a-knot splines.  The module still names scipy's solve_ivp, imported
on its first lookup, for callers that read it.
"""

from __future__ import annotations

import csv
import functools
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


def _pinned_trajectory(params, config, nodes, v, dv, start, crossed):
    """Nodes with the series start pinned first and, at a crossing, v = 0 last."""
    v, dv = np.array(v), np.array(dv)
    v[0], dv[0] = start[1], start[2]
    if crossed:
        v[-1] = 0.0
    return RadialTrajectory(params=params, r=nodes, v=v, dv=dv, config=config)


def shoot(params: ProblemParams, config: ShootConfig = ShootConfig()) -> RadialTrajectory:
    """Integrate one trajectory and classify it.

    DOP853 as a scalar step loop on Python floats (_scalar_dop853), which
    shares the lockstep's tableau, initial step, step control, crossing
    rule and node sampler; the field is _make_rhs(params), looked up at
    call time.  The run stops at the first step that starts at v >= 0 and
    ends at v <= 0; the crossing radius is refined by brent_root on that
    step's dense output, accurate to far better than the 1e-8 relative
    contract.  The nodes are sampled by _dense_nodes from the run's table
    of accepted steps.  A run that fails the minimum-step test keeps the
    nodes it reached and is Inconclusive.
    """
    start = series_start(params, config)
    steps, r_end, crossed, stopped = _scalar_dop853(_make_rhs(params), start, config)
    nodes = _node_grid(start[0], r_end, config.nodes_per_decade)
    v, dv = _dense_nodes(steps, nodes)
    traj = _pinned_trajectory(params, config, nodes, v, dv, start, crossed)
    traj.outcome = _stopped_at(r_end) if stopped else classify_trajectory(traj)
    return traj


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


# DOP853 step for step as scipy's solve_ivp drives it (Hairer, Norsett and
# Wanner, Solving ODEs I, sections II.5 and II.10), for one lane on Python
# floats (_scalar_dop853) or many lanes at once (sweep_shoot).  Sums and
# powers round differently from scipy's, so results match solve_ivp's to
# round-off, not bit for bit.  The coefficients are _dop853's constants.
_STAGES = _dop853.N_STAGES
_STAGES_EXTENDED = _dop853.N_STAGES_EXTENDED
_INTERPOLATOR_POWER = _dop853.INTERPOLATOR_POWER
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_EPS = np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class _Tableau(NamedTuple):
    """DOP853's coefficients, shaped to broadcast over K's (stage, lane, component) axes.

    A_ROWS[s] weighs stage s's predecessors, E53 stacks the fifth- and
    third-order error weights, D_ROWS holds the dense-output weights and C
    the stage nodes.
    """

    A_ROWS: list
    B_COL: np.ndarray
    E53: np.ndarray
    D_ROWS: np.ndarray
    C: np.ndarray


@functools.cache
def _tableau() -> _Tableau:
    """The DOP853 tableau (_dop853.coefficients), shaped once."""
    A, B, C, E3, E5, D = _dop853.coefficients()
    return _Tableau(
        A_ROWS=[A[s, :s, None, None] for s in range(_STAGES_EXTENDED)],
        B_COL=B[:, None, None],
        E53=np.stack([E5, E3])[:, :, None, None],
        D_ROWS=D[:, :, None, None],
        C=C,
    )


# Accepted steps held back before their dense-output stages are built in one
# pass, after which the lanes that left are finished: room for
# _PENDING_ITERATIONS iterations of the whole batch, and at least
# _PENDING_ROWS rows.  Fewer passes save their fixed costs, a larger hold
# costs memory: dichotomy_sweep's 121 lanes ran no faster with twice the
# hold, and threshold_search's 24 no faster than with 256 rows.
_PENDING_ROWS = 256
_PENDING_ITERATIONS = 16


class _Field(NamedTuple):
    """The vector field's parameters of some lanes, one contiguous column each."""

    neg_c: np.ndarray  # -(N - 1 + a)
    w: np.ndarray | None  # b - a, or None when every lane has b == a
    p: np.ndarray


def _field(prm, lanes) -> _Field:
    """The _Field of the given rows; prm's rows are -(N-1+a), b-a and p by row."""
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


def _stage_sum(coeffs, K):
    """sum_j coeffs[..., j, :, :] K[j], added in stage order.

    Each lane's sum is rounded the same whatever the batch around it, so a
    row's outcome does not depend on the other rows (a matrix product
    would block its sums by the batch width).
    """
    return np.add.reduce(coeffs * K[: coeffs.shape[-3]], axis=-3)


def _stage(s, r, y, hc, K, fld, tab):
    """Stage s of every lane into K[s]: the field at r, y + h sum_j A[s, j] K[j]."""
    ys = _stage_sum(tab.A_ROWS[s], K)
    ys *= hc
    ys += y
    _lane_rhs(r, ys, fld, K[s])


def _rms(x):
    return np.sqrt(np.sum(x * x, axis=1)) / 2.0**0.5


def _initial_step(t0, y0, f0, t_bound, rhs, rtol, atol):
    """scipy's select_initial_step for every lane (error estimator order 7).

    rhs(r, y, out) writes the lanes' field at radii r and states y into out.
    """
    interval = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval)
    f1 = np.empty_like(y0)
    rhs(t0 + h0, y0 + h0[:, None] * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0),
    )
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


class _StepLog:
    """Accepted steps of all lanes in one table, each lane's rows in step order.

    A row is (lane, t_old, h, v_old, dv_old, F) with F the 7 x 2
    dense-output coefficients of the step, flattened row by row.  Steps
    reach the table in bulk: the lockstep loop holds each accepted step's
    state and first 13 stages in a _Pending buffer, and its flush builds
    the other three stages and F for every held row at once, in place in
    the table.  A lane that leaves the lockstep keeps its rows until its
    outcome is built (live stays set for it); take hands out the rows of
    many lanes in one pass.  Rows of lanes that are no longer live are
    dropped when the table fills, before it grows.
    """

    WIDTH = 5 + 2 * _INTERPOLATOR_POWER
    CAPACITY = 1024

    def __init__(self):
        self.rows = np.empty((self.CAPACITY, self.WIDTH))
        self.n = 0

    def extend(self, m, live):
        """The next m rows of the table, to be filled by the caller.

        A full table first drops the rows of lanes that are not live, and
        grows by half only if that leaves fewer than m rows free.  Doubling
        ahead of need took dichotomy_sweep's table to 32768 rows (5 MB).
        """
        n = self.n
        if n + m > len(self.rows):
            table = self.rows[:n]
            keep = live[table[:, 0].astype(int)]
            kept = int(np.count_nonzero(keep))
            size = len(self.rows)
            while kept + m > size:
                size += size // 2 + 1
            rows = self.rows if size == len(self.rows) else np.empty((size, self.WIDTH))
            rows[:kept] = table[keep]
            self.rows, n = rows, kept
        self.n = n + m
        return self.rows[n : n + m]

    def take(self, lanes):
        """(lane, its rows in step order) for every lane set in the mask lanes.

        One pass over the table selects the rows, and a stable sort by
        lane keeps each lane's rows in step order.  Every lane must have a
        row.
        """
        lane = self.rows[: self.n, 0]
        at = np.flatnonzero(lanes[lane.astype(int)])
        at = at[np.argsort(lane[at], kind="stable")]
        ids = np.flatnonzero(lanes)
        starts = np.searchsorted(lane[at], ids[1:])
        return zip(ids.tolist(), np.split(self.rows[at], starts))


class _Pending:
    """Accepted steps waiting for their dense output: (lane, t, h, y, K[0..12]).

    K holds the step's 12 stages and the field at its end; room for the
    three dense-output stages is kept behind them.  The lockstep flushes
    when the hold cannot take an iteration's accepted steps and once when
    its loop ends, and samples the lanes that have left right after each
    flush, when all their rows are in the table.
    """

    def __init__(self, size):
        self.lane = np.empty(size, dtype=int)
        self.t = np.empty(size)
        self.h = np.empty(size)
        self.y = np.empty((size, 2))
        self.K = np.empty((_STAGES_EXTENDED, size, 2))
        self.n = 0

    def room(self, m):
        return self.n + m <= len(self.t)

    def push(self, k, lane, t, h, y, K):
        """Hold the steps of lanes k (indices into this iteration's arrays)."""
        rows = slice(self.n, self.n + len(k))
        self.lane[rows] = lane.take(k)
        self.t[rows] = t.take(k)
        self.h[rows] = h.take(k)
        self.y[rows] = y.take(k, axis=0)
        self.K[: _STAGES + 1, rows] = K.take(k, axis=1)  # K[:, k] gathers far slower
        self.n = rows.stop

    def flush(self, prm, log_, live, tab):
        """Build every held step's dense output in one pass into log_.

        The four D-weighted rows of F are summed one at a time, so the
        largest temporary is one (16, rows, 2) stage product.
        """
        n = self.n
        if not n:
            return
        lane, t, h, y = self.lane[:n], self.t[:n], self.h[:n], self.y[:n]
        K = self.K[:, :n]
        fld = _field(prm, lane)
        hc = h[:, None]
        for s in range(_STAGES + 1, len(K)):
            _stage(s, t + tab.C[s] * h, y, hc, K, fld, tab)
        y_new = y + hc * _stage_sum(tab.B_COL, K)  # as the step summed it
        delta = y_new - y
        block = log_.extend(n, live)
        block[:, 0], block[:, 1], block[:, 2], block[:, 3:5] = lane, t, h, y
        F = block[:, 5:].reshape(n, _INTERPOLATOR_POWER, 2)
        F[:, 0] = delta
        F[:, 1] = hc * K[0] - delta
        F[:, 2] = 2 * delta - hc * (K[_STAGES] + K[0])
        for i, row in enumerate(tab.D_ROWS):
            np.multiply(hc, _stage_sum(row, K), out=F[:, 3 + i])
        self.n = 0


def _dense_v(r, step):
    """v at r on one logged step's dense output, as Dop853DenseOutput does it."""
    x = (r - step[1]) / step[2]
    y = 0.0
    for i, f in enumerate(reversed(step[5::2])):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + step[3]


def _crossing(step, r_end: float) -> float:
    """The zero of v on one logged step (a sequence of floats) that ends at r_end."""
    return brent_root(lambda r: _dense_v(r, step), step[1], r_end, xtol=4 * _EPS)


def _dense_nodes(steps, nodes):
    """(v, dv) at sorted nodes from rows of a step table, as OdeSolution does it.

    Rows are (lane, t_old, h, v_old, dv_old, F) as _StepLog holds them;
    a node on a step boundary is read from the earlier step.  Each
    coefficient column is gathered at the nodes' step indices and the two
    components are summed apart, in Dop853DenseOutput's Horner order, so
    every operation is one on arrays of the nodes' shape.  A shot samples
    its nodes once its run ends; a lockstep lane, once its rows are taken
    from the table after it has left.
    """
    seg = np.searchsorted(steps[:, 1], nodes, side="left") - 1
    np.clip(seg, 0, len(steps) - 1, out=seg)
    x = nodes - steps[:, 1][seg]
    x /= steps[:, 2][seg]
    u = 1 - x
    last = steps.shape[1] - 2  # the column of F[-1]'s v
    out = []
    for c in (0, 1):
        y = steps[:, last + c][seg]
        y += 0.0  # as Horner's sum from zero: -0.0 reads +0.0
        y *= x
        for i in range(1, _INTERPOLATOR_POWER):
            y += steps[:, last + c - 2 * i][seg]
            y *= x if i % 2 == 0 else u
        y += steps[:, 3 + c][seg]
        out.append(y)
    return out[0], out[1]


def _stopped_at(r: float) -> Inconclusive:
    """The outcome of a run that failed the minimum-step test at radius r."""
    return Inconclusive(f"integrator stopped at r = {r}: {_TOO_SMALL_STEP}")


@functools.cache
def _scalar_tableau():
    """The DOP853 tableau as Python floats for one lane: (A, B, E5, E3, D, C).

    Each weight list holds (j, weight) pairs in stage order.  A[s], B and
    D[i] are _dop853's sparse rows, the nonzero weights only: for finite
    stages a zero term changes no bit of a sum.  E5 and E3 keep all 13,
    so a non-finite field at a step's end (weight 0) still fails the error
    test, as it does in the lockstep.
    """
    _, _, C, E3, E5, _ = _dop853.coefficients()
    return (
        [sorted(_dop853.A_ROWS.get(s, {}).items()) for s in range(_STAGES_EXTENDED)],
        sorted(_dop853.A_ROWS[_STAGES].items()),
        list(enumerate(E5.tolist())),
        list(enumerate(E3.tolist())),
        [sorted(row.items()) for row in _dop853.D_ROWS],
        C.tolist(),
    )


def _combine(weights, K):
    """sum_j w_j K_j of the (v, dv) pairs K over weights' (j, w_j), in stage order."""
    sv = sdv = 0.0
    for j, w in weights:
        kv, kdv = K[j]
        sv += w * kv
        sdv += w * kdv
    return sv, sdv


def _scalar_dop853(rhs, start, config: ShootConfig):
    """One shot's DOP853 run: (step table, r_end, crossed, stopped).

    The lockstep's iteration for a single lane, written on Python floats:
    the same initial step (_initial_step on one-lane arrays), step
    control, stage sums in stage order, error norm, minimum-step test and
    crossing rule v >= 0 and v_new <= 0, refined by brent_root on the
    step's dense output.  rhs is the field (r, (v, dv)) -> (dv, dv').  The
    table holds every accepted step in _StepLog's row layout, with lane 0.
    r_end is the crossing radius, r_max, or for a stopped run the last
    radius reached.
    """
    A, B, E5, E3, D, C = _scalar_tableau()
    t, v, dv = start
    t_bound = config.r_max
    rtol = max(config.rel_tol, 100 * _EPS)
    atol = config.abs_tol * max(1.0, config.beta)

    def one_lane(r, y, out):
        out[0] = rhs(float(r[0]), (float(y[0, 0]), float(y[0, 1])))

    f = rhs(t, (v, dv))
    with np.errstate(all="ignore"):
        h_abs = _initial_step(
            np.array([t]), np.array([[v, dv]]), np.array([f]), t_bound, one_lane,
            rtol, atol,
        )
    h_abs = float(h_abs[0])
    rows = []
    retry = False
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if not retry:
            h_abs = max(h_abs, min_step)
        if not h_abs >= min_step:  # a NaN step fails too
            return np.array(rows), t, False, True
        t_new = min(t + h_abs, t_bound)
        h = t_new - t

        K = [f]
        for s in range(1, _STAGES):
            sv, sdv = _combine(A[s], K)
            K.append(rhs(t + C[s] * h, (v + h * sv, dv + h * sdv)))
        sv, sdv = _combine(B, K)
        v_new, dv_new = v + h * sv, dv + h * sdv
        f_new = rhs(t + h, (v_new, dv_new))
        K.append(f_new)

        scale_v = atol + max(abs(v), abs(v_new)) * rtol
        scale_dv = atol + max(abs(dv), abs(dv_new)) * rtol
        (e5v, e5dv), (e3v, e3dv) = _combine(E5, K), _combine(E3, K)
        e5v, e5dv, e3v, e3dv = e5v / scale_v, e5dv / scale_dv, e3v / scale_v, e3dv / scale_dv
        err5 = e5v * e5v + e5dv * e5dv
        err3 = e3v * e3v + e3dv * e3dv
        error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2) if err5 else 0.0
        ratio = _SAFETY * error_norm**_ERROR_EXPONENT if error_norm else math.inf
        if not error_norm < 1:
            h_abs = h * max(_MIN_FACTOR, ratio)
            retry = True
            continue
        grow = min(_MAX_FACTOR, ratio)
        h_abs = h * (min(1.0, grow) if retry else grow)
        retry = False

        for s in range(_STAGES + 1, _STAGES_EXTENDED):
            sv, sdv = _combine(A[s], K)
            K.append(rhs(t + C[s] * h, (v + h * sv, dv + h * sdv)))
        delta_v, delta_dv = v_new - v, dv_new - dv
        (k0v, k0dv), (k12v, k12dv) = f, f_new
        F = [
            delta_v, delta_dv,
            h * k0v - delta_v, h * k0dv - delta_dv,
            2 * delta_v - h * (k12v + k0v), 2 * delta_dv - h * (k12dv + k0dv),
        ]
        for weights in D:
            sv, sdv = _combine(weights, K)
            F += (h * sv, h * sdv)
        rows.append((0.0, t, h, v, dv, *F))

        crossed = v >= 0 and v_new <= 0
        t, v, dv, f = t_new, v_new, dv_new, f_new
        if crossed or t_new >= t_bound:
            steps = np.array(rows)
            if not crossed:
                return steps, t_bound, False, False
            return steps, _crossing(rows[-1], t_new), True, False


def sweep_shoot(
    rows, config: ShootConfig = ShootConfig(), processes: int | None = None
):
    """Shoot a batch of parameter points, preserving input order.

    rows is an iterable of ProblemParams; returns the list of outcomes.
    All rows run together in one process, each as a lane of a lockstep
    port of shoot's DOP853 run: every lane keeps its own step size and
    accept/reject decision, and one iteration tries one step on every
    lane with 12 field evaluations (11 stages and the field at the step's
    end).  Accepted steps are held back; their three dense-output stages
    and interpolants are built in bulk when the hold fills and when the
    loop ends, so rejected steps never pay for them.  A lane leaves when
    it crosses zero or reaches r_max; it is then owed its outcome, and
    after the next flush every owed lane is taken from the step table in
    one pass, its crossing refined by brent_root on its last step's dense
    output, sampled on shoot's node grid and classified.  A lane that
    fails the minimum-step test is Inconclusive at once.  A row that
    fails its parameter checks, or whose series start overflows, never
    enters a lane and comes back as Inconclusive("rejected: ...") in its
    place.  processes is still accepted, so existing callers keep
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

    tab = _tableau()
    t_bound = config.r_max
    rtol = max(config.rel_tol, 100 * _EPS)
    atol = config.abs_tol * max(1.0, config.beta)
    lane = np.fromiter(starts, dtype=int)
    prm = np.zeros((3, len(rows)))
    for i in lane:
        prm[:, i] = (-(rows[i].N - 1.0 + rows[i].a), rows[i].b - rows[i].a, rows[i].p)
    fld = _field(prm, lane)
    t = np.array([starts[i][0] for i in lane])
    y = np.array([starts[i][1:] for i in lane])
    f = np.empty_like(y)
    live = np.zeros(len(rows), dtype=bool)
    live[lane] = True
    # lanes that left by crossing or at r_max and wait for their outcome,
    # with the end radius of a crossing's last step (nan at r_max)
    owed = np.zeros(len(rows), dtype=bool)
    crossed_at = np.full(len(rows), np.nan)
    log_ = _StepLog()
    pending = _Pending(max(_PENDING_ROWS, _PENDING_ITERATIONS * len(lane)))

    def settle():
        """Sample and classify every owed lane; all its rows are in the log."""
        for j, steps in log_.take(owed):
            crossed = not math.isnan(crossed_at[j])
            r_end = _crossing(steps[-1].tolist(), float(crossed_at[j])) if crossed else t_bound
            nodes = _node_grid(starts[j][0], r_end, config.nodes_per_decade)
            v, dv = _dense_nodes(steps, nodes)
            traj = _pinned_trajectory(rows[j], config, nodes, v, dv, starts[j], crossed)
            outcomes[j] = classify_trajectory(traj)
        live[owed] = False
        owed[:] = False

    with np.errstate(all="ignore"):
        _lane_rhs(t, y, fld, f)
        h_abs = _initial_step(
            t, y, f, t_bound, lambda r, y, out: _lane_rhs(r, y, fld, out), rtol, atol
        )
        retry = np.zeros(len(lane), dtype=bool)
        while len(lane):
            L = len(lane)
            min_step = 10.0 * (np.nextafter(t, np.inf) - t)
            h_abs = np.where(retry, h_abs, np.maximum(h_abs, min_step))
            failed = ~(h_abs >= min_step)  # a NaN step fails too
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            hc = np.column_stack((h, h))

            K = np.empty((_STAGES + 1, L, 2))
            K[0] = f
            r_stage = t + tab.C[1:_STAGES, None] * h
            for s in range(1, _STAGES):
                _stage(s, r_stage[s - 1], y, hc, K, fld, tab)
            y_new = y + hc * _stage_sum(tab.B_COL, K)
            f_new = K[_STAGES]
            _lane_rhs(t + h, y_new, fld, f_new)

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _stage_sum(tab.E53, K)
            err /= scale
            err *= err
            err5, err3 = np.add.reduce(err, axis=-1)
            error_norm = np.where(
                (err5 == 0) & (err3 == 0),
                0.0,
                h * err5 / np.sqrt((err5 + 0.01 * err3) * 2),
            )
            accept = (error_norm < 1) & ~failed
            ratio = _SAFETY * error_norm**_ERROR_EXPONENT
            grow = np.minimum(_MAX_FACTOR, ratio)  # inf at error_norm = 0
            grow = np.where(retry, np.minimum(1.0, grow), grow)
            h_abs = h * np.where(accept, grow, np.fmax(_MIN_FACTOR, ratio))
            retry = ~accept

            acc = np.flatnonzero(accept)
            if not pending.room(len(acc)):
                pending.flush(prm, log_, live, tab)
                settle()
            pending.push(acc, lane, t, h, y, K)

            crossed = accept & (y[:, 0] >= 0) & (y_new[:, 0] <= 0)
            gone = failed | crossed | (accept & (t_new >= t_bound))
            t = np.where(accept, t_new, t)
            y[acc] = y_new[acc]
            f[acc] = f_new[acc]
            if not gone.any():
                continue
            for k in np.flatnonzero(failed):
                j = int(lane[k])
                live[j] = False
                outcomes[j] = _stopped_at(float(t[k]))
            owed[lane[gone & ~failed]] = True
            crossed_at[lane[crossed]] = t_new[crossed]
            keep = ~gone
            lane, t, y, f, h_abs, retry = (
                a[keep] for a in (lane, t, y, f, h_abs, retry)
            )
            fld = _field(prm, lane)
        pending.flush(prm, log_, live, tab)
        settle()
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
