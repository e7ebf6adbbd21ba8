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

Single shots (shoot) run scipy's DOP853 via solve_ivp.  Batches
(sweep_shoot, and through it threshold_bisect, which shoots four
bisection levels per batch) run a lockstep port of the same DOP853 that
advances every row at once as numpy arrays, one step per row per
iteration, with each row's own step size, error control, crossing
refinement and node sampling.  Its numbers agree with shoot's to
round-off, amplified only where the answer is below the absolute
tolerance.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (
    BracketInvalid,
    EmdenLabError,
    NonFiniteParameter,
    NonMonotoneThreshold,
    RangeExceeded,
)
from .params import ProblemParams, Record, derive, require_admissible

log = logging.getLogger(__name__)

# The series hand-off never shrinks below this radius.
_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class ShootConfig(Record):
    """Knobs of a single shot.

    epsilon0 = None means "1e-4 * min(1, sigma), then auto-shrunk until the
    next-order series term is below rel_tol".  nodes_per_decade controls the
    stored log-uniform grid; everything downstream that must be reproducible
    from a CSV (the integral identities in particular) uses only these nodes.
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
        if self.beta <= 0:
            raise ValueError(f"beta = {self.beta}, need it positive")
        if self.r_max < 1.0:
            raise ValueError(f"r_max = {self.r_max}, need r_max >= 1")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-3:
                raise ValueError(f"{name} = {tol}, need it in (0, 1e-3]")
        if self.epsilon0 is not None and not 0.0 < self.epsilon0 < 1.0:
            raise ValueError(f"epsilon0 = {self.epsilon0}, need it in (0, 1)")
        if self.nodes_per_decade < 4:
            raise ValueError("nodes_per_decade < 4 cannot support the spline")


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
    _splines: object = field(default=None, repr=False)

    def _node_splines(self):
        if self._splines is None:
            # splines in log r; exclude a terminal v <= 0 node from the
            # v-spline domain decision but keep it for root bracketing
            z = np.log(self.r)
            self._splines = (CubicSpline(z, self.v), CubicSpline(z, self.dv))
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
            vb, dvb = _series_values(self.params, self.config.beta, r_arr[below])
            v[below], dv[below] = vb, dvb
        if np.isscalar(r) or np.ndim(r) == 0:
            return float(v[0]), float(dv[0])
        return v, dv


def _series_values(params: ProblemParams, beta: float, r):
    """Two-term start v = beta - beta^p r^sigma/(sigma(N+b)), dv its derivative."""
    d = derive(params)
    N, b, p = params.N, params.b, params.p
    sigma = d.sigma
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
    """
    d = derive(params)
    N, b, p = params.N, params.b, params.p
    sigma = d.sigma
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
    1e-12.  Refuses inadmissible weights (require_admissible) and a NaN or
    infinite p (NonFiniteParameter).
    """
    require_admissible(params)
    if not math.isfinite(params.p):
        raise NonFiniteParameter(f"p = {params.p}, need it finite")
    if params.p <= 1:
        raise ValueError(f"the shooter requires p > 1, got p = {params.p}")
    d = derive(params)
    eps = config.epsilon0
    if eps is None:
        eps = 1e-4 * min(1.0, d.sigma)
    while eps > _EPS_FLOOR:
        est = series_truncation_estimate(params, config.beta, eps)
        if est <= config.rel_tol:
            break
        eps *= 0.5
    log.debug(
        "series hand-off at eps=%g, truncation estimate %g",
        eps,
        series_truncation_estimate(params, config.beta, eps),
    )
    v, dv = _series_values(params, config.beta, eps)
    return eps, float(v), float(dv)


def _make_rhs(params: ProblemParams):
    N, a, b, p = params.N, params.a, params.b, params.p
    coeff = N - 1.0 + a
    w = b - a

    def rhs(r, y):
        v, dv = y
        # odd extension keeps the vector field smooth through v = 0
        source = abs(v) ** p if v >= 0.0 else -(abs(v) ** p)
        return (dv, -coeff / r * dv - r**w * source)

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

    DOP853 with a terminal zero-crossing event; the crossing radius comes
    from scipy's root refinement on the dense output, accurate to far
    better than the 1e-8 relative contract.
    """
    eps, v0, dv0 = series_start(params, config)
    if eps >= config.r_max:
        raise ValueError(f"epsilon0 = {eps} >= r_max = {config.r_max}")

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1

    sol = solve_ivp(
        _make_rhs(params),
        (eps, config.r_max),
        (v0, dv0),
        method="DOP853",
        rtol=config.rel_tol,
        atol=config.abs_tol * max(1.0, config.beta),
        events=crossing,
        dense_output=True,
    )
    crossed = sol.t_events[0].size > 0
    r_end = float(sol.t[-1])
    nodes = _node_grid(eps, r_end, config.nodes_per_decade)
    v, dv = sol.sol(nodes)
    traj = _pinned_trajectory(params, config, nodes, v, dv, (eps, v0, dv0), crossed)
    if sol.status == -1 and not crossed:
        traj.outcome = Inconclusive(f"integrator stopped at r = {r_end}: {sol.message}")
    else:
        traj.outcome = classify_trajectory(traj)
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
        z0 = brentq(sv, math.log(r[i - 1]), math.log(r[i]), xtol=1e-15)
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


def _bisection_tree(lo: float, hi: float, tol_p: float, depth=_ROUND_DEPTH) -> list:
    """Every midpoint the next depth bisection steps from (lo, hi) may probe.

    Midpoints come from the same 0.5 * (lo + hi) recursion as the serial
    walk, and an interval is split only while it is wider than tol_p.
    """
    if depth == 0 or not hi - lo > tol_p:
        return []
    mid = 0.5 * (lo + hi)
    return (
        [mid]
        + _bisection_tree(lo, mid, tol_p, depth - 1)
        + _bisection_tree(mid, hi, tol_p, depth - 1)
    )


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
    weights the shooter refuses raise its errors.  Probes are shot in
    rounds through sweep_shoot: each round shoots every midpoint of the
    next _ROUND_DEPTH bisection levels of the current bracket (the first
    round also the two ends), and the serial walk then reads its decisions
    from them, so the result is the serial bisection's bit for bit.  An
    inconclusive probe counts as not crossing.  Crossing must be monotone
    in p: every round checks that its crossing probes all lie below its
    other probes, else NonMonotoneThreshold.  Each probe is logged.
    """
    if not p_lo < p_hi < math.inf:
        raise BracketInvalid(f"need finite p_lo < p_hi, got [{p_lo}, {p_hi}]")
    if p_lo <= 1.0:
        raise BracketInvalid(f"p_lo = {p_lo}: the shooter requires p > 1")
    if not tol_p > 0:
        raise ValueError(f"tol_p = {tol_p}, need it positive")
    require_admissible(ProblemParams(N, a, b, p_lo))

    def shoot_round(probes, crosses):
        outcomes = sweep_shoot([ProblemParams(N, a, b, p) for p in probes], config)
        for p, outcome in zip(probes, outcomes):
            log.info("threshold probe p=%.17g -> %s", p, outcome)
            crosses[p] = isinstance(outcome, CrossedZero)
        return crosses

    crosses = shoot_round([p_lo, p_hi] + _bisection_tree(p_lo, p_hi, tol_p), {})
    if not crosses[p_lo]:
        raise BracketInvalid(f"p_lo = {p_lo} does not cross within the horizon")
    if crosses[p_hi]:
        raise BracketInvalid(f"p_hi = {p_hi} still crosses within the horizon")
    _require_crossing_prefix(crosses)
    while p_hi - p_lo > tol_p:
        mid = 0.5 * (p_lo + p_hi)
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
# Wanner, Solving ODEs I, sections II.5 and II.10), advanced over many lanes
# at once.  Sums and powers round differently from scipy's, so lane results
# match shoot's to round-off, not bit for bit.
_A, _B, _C = _dop853.A, _dop853.B, _dop853.C
_E3, _E5, _D = _dop853.E3, _dop853.E5, _dop853.D
_STAGES = _dop853.N_STAGES
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_EPS = np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _lane_rhs(r, y, prm, out):
    """The radial vector field of every lane; prm rows are (N-1+a, b-a, p)."""
    v, dv = y[:, 0], y[:, 1]
    s = np.abs(v) ** prm[:, 2]
    out[:, 0] = dv
    out[:, 1] = -prm[:, 0] / r * dv - r ** prm[:, 1] * np.where(v >= 0.0, s, -s)


def _stage_sum(coeffs, K):
    """sum_j coeffs[..., j] K[j], added in stage order.

    Each lane's sum is rounded the same whatever the batch around it, so a
    row's outcome does not depend on the other rows (a matrix product
    would block its sums by the batch width).
    """
    s = coeffs.shape[-1]
    return np.add.reduce(coeffs[..., None, None] * K[:s], axis=-3)


def _rms(x):
    return np.sqrt(np.sum(x * x, axis=1)) / 2.0**0.5


def _initial_step(t0, y0, f0, t_bound, prm, rtol, atol):
    """scipy's select_initial_step for every lane (error estimator order 7)."""
    interval = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval)
    f1 = np.empty_like(y0)
    _lane_rhs(t0 + h0, y0 + h0[:, None] * f0, prm, f1)
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
    dense-output coefficients of the step, flattened row by row.  Rows of
    lanes that have left are dropped when the table fills, before it grows.
    """

    WIDTH = 5 + 2 * _dop853.INTERPOLATOR_POWER

    def __init__(self):
        self.rows = np.empty((1024, self.WIDTH))
        self.n = 0

    def append(self, block, live):
        n, m = self.n, len(block)
        if n + m > len(self.rows):
            table = self.rows[:n]
            kept = table[live[table[:, 0].astype(int)]]
            n = len(kept)
            size = len(self.rows)
            while 2 * (n + m) > size:
                size *= 2
            if size > len(self.rows):
                self.rows = np.empty((size, self.WIDTH))
            self.rows[:n] = kept
        self.rows[n : n + m] = block
        self.n = n + m

    def steps(self, lane):
        table = self.rows[: self.n]
        return table[table[:, 0] == lane]


def _dense_v(r, step):
    """v at r on one logged step's dense output, as Dop853DenseOutput does it."""
    x = (r - step[1]) / step[2]
    y = 0.0
    for i, f in enumerate(reversed(step[5::2])):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + step[3]


def _dense_nodes(steps, nodes):
    """(v, dv) at sorted nodes from a lane's logged steps, as OdeSolution does it."""
    t_old, h = steps[:, 1], steps[:, 2]
    F = steps[:, 5:].reshape(len(steps), -1, 2)
    seg = np.searchsorted(np.append(t_old, nodes[-1]), nodes, side="left") - 1
    seg = np.clip(seg, 0, len(steps) - 1)
    x = ((nodes - t_old[seg]) / h[seg])[:, None]
    y = np.zeros((len(nodes), 2))
    for i in range(F.shape[1]):
        y += F[seg, -1 - i]
        y *= x if i % 2 == 0 else 1 - x
    y += steps[seg, 3:5]
    return y[:, 0], y[:, 1]


def sweep_shoot(
    rows, config: ShootConfig = ShootConfig(), processes: int | None = None
):
    """Shoot a batch of parameter points, preserving input order.

    rows is an iterable of ProblemParams; returns the list of outcomes.
    All rows run together in one process, each as a lane of a lockstep
    port of shoot's DOP853 run: every lane keeps its own step size and
    accept/reject decision, and one iteration tries one step on every
    lane.  A lane leaves when it crosses zero (refined by brentq on that
    step's dense output), reaches r_max or fails the minimum-step test; it
    is then sampled on shoot's node grid and classified.  A row that fails
    its parameter checks never enters a lane and comes back as
    Inconclusive("rejected: ...") in its place.  processes is still
    accepted, so existing callers keep working, and is ignored.
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

    t_bound = config.r_max
    rtol = max(config.rel_tol, 100 * _EPS)
    atol = config.abs_tol * max(1.0, config.beta)
    lane = np.fromiter(starts, dtype=int)
    prm = np.array([(rows[i].N - 1.0 + rows[i].a, rows[i].b - rows[i].a, rows[i].p)
                    for i in lane])
    t = np.array([starts[i][0] for i in lane])
    y = np.array([starts[i][1:] for i in lane])
    f = np.empty_like(y)
    live = np.zeros(len(rows), dtype=bool)
    live[lane] = True
    log_ = _StepLog()

    with np.errstate(all="ignore"):
        _lane_rhs(t, y, prm, f)
        h_abs = _initial_step(t, y, f, t_bound, prm, rtol, atol)
        retry = np.zeros(len(lane), dtype=bool)
        while len(lane):
            L = len(lane)
            min_step = 10.0 * (np.nextafter(t, np.inf) - t)
            h_abs = np.where(retry, h_abs, np.maximum(h_abs, min_step))
            failed = ~(h_abs >= min_step)  # a NaN step fails too
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            hc = h[:, None]

            K = np.empty((_dop853.N_STAGES_EXTENDED, L, 2))
            K[0] = f
            for s in range(1, _STAGES):
                _lane_rhs(t + _C[s] * h, y + _stage_sum(_A[s, :s], K) * hc, prm, K[s])
            y_new = y + hc * _stage_sum(_B, K)
            f_new = K[_STAGES]
            _lane_rhs(t + h, y_new, prm, f_new)

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.sum((_stage_sum(_E5, K) / scale) ** 2, axis=1)
            err3 = np.sum((_stage_sum(_E3, K) / scale) ** 2, axis=1)
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

            # dense output of the step: three more stages, then F
            for s in range(_STAGES + 1, len(K)):
                _lane_rhs(t + _C[s] * h, y + _stage_sum(_A[s, :s], K) * hc, prm, K[s])
            delta = y_new - y
            F = np.empty((_dop853.INTERPOLATOR_POWER, L, 2))
            F[0] = delta
            F[1] = hc * f - delta
            F[2] = 2 * delta - hc * (f_new + f)
            F[3:] = hc * _stage_sum(_D, K)
            F = F.transpose(1, 0, 2).reshape(L, -1)
            block = np.column_stack([lane, t, h, y, F])
            log_.append(block[accept], live)

            crossed = accept & (y[:, 0] >= 0) & (y_new[:, 0] <= 0)
            gone = failed | crossed | (accept & (t_new >= t_bound))
            t = np.where(accept, t_new, t)
            y[accept] = y_new[accept]
            f[accept] = f_new[accept]
            for k in np.flatnonzero(gone):
                j = int(lane[k])
                live[j] = False
                if failed[k]:
                    outcomes[j] = Inconclusive(
                        f"integrator stopped at r = {float(t[k])}: {_TOO_SMALL_STEP}"
                    )
                    continue
                steps = log_.steps(j)
                r_end = t_bound
                if crossed[k]:
                    r_end = brentq(_dense_v, steps[-1, 1], t_new[k], args=(steps[-1],),
                                   xtol=4 * _EPS, rtol=4 * _EPS)
                nodes = _node_grid(starts[j][0], r_end, config.nodes_per_decade)
                v, dv = _dense_nodes(steps, nodes)
                traj = _pinned_trajectory(
                    rows[j], config, nodes, v, dv, starts[j], crossed[k]
                )
                outcomes[j] = classify_trajectory(traj)
            if gone.any():
                keep = ~gone
                lane, t, y, f, h_abs, retry, prm = (
                    a[keep] for a in (lane, t, y, f, h_abs, retry, prm)
                )
    return outcomes


def csv_text(header, rows) -> str:
    """CSV text with floats in shortest round-trip form and '\n' line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows
    )
    return buf.getvalue()


def trajectory_csv(traj: RadialTrajectory) -> str:
    """The nodes as `r,v,dv` CSV text; trajectory_from_csv reads it back exactly."""
    return csv_text(["r", "v", "dv"], zip(traj.r, traj.v, traj.dv))


def trajectory_to_csv(traj: RadialTrajectory, path) -> None:
    """Write trajectory_csv(traj) to path."""
    with open(path, "w", newline="") as fh:
        fh.write(trajectory_csv(traj))


def trajectory_from_csv(
    path, params: ProblemParams, config: ShootConfig | None = None
) -> RadialTrajectory:
    """Rebuild a trajectory from its CSV; node data round-trips exactly."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["r", "v", "dv"]:
            raise ValueError(f"unexpected trajectory header {header!r}")
        for line in reader:
            rows.append((float(line[0]), float(line[1]), float(line[2])))
    if len(rows) < 2:
        raise ValueError("trajectory CSV needs at least two nodes")
    arr = np.asarray(rows, dtype=float)
    traj = RadialTrajectory(
        params=params, r=arr[:, 0], v=arr[:, 1], dv=arr[:, 2], config=config
    )
    traj.outcome = classify_trajectory(traj)
    return traj
