"""The DOP853 tableau, brent_root and the not-a-knot spline against scipy as the oracle.

The package runs without scipy; these tests import it to check that the
constants are scipy's digit for digit, that brent_root finds brentq's
roots and that the splines agree with CubicSpline to round-off.
"""

import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import emdenlab as E
from emdenlab import _dop853
from emdenlab._numerics import Knots, brent_root

SPLINE_RTOL = 1e-13


def test_dop853_tableau_is_scipys_bit_for_bit():
    sizes = (_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED, _dop853.INTERPOLATOR_POWER)
    assert sizes == (dop.N_STAGES, dop.N_STAGES_EXTENDED, dop.INTERPOLATOR_POWER)
    ours = _dop853.coefficients()
    theirs = (dop.A, dop.B, dop.C, dop.E3, dop.E5, dop.D)
    for mine, scipys in zip(ours, theirs):
        assert mine.shape == scipys.shape
        assert np.array_equal(mine, scipys)


def _ulps(x, y):
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


def _criterion_5_rows():
    rows = []
    for N, a, b in [(3, 0.0, 0.0), (3, 0.0, 1.0), (3, 0.5, 1.0), (4, 0.0, 0.0),
                    (4, -0.5, 0.0), (5, 1.0, 2.0)]:
        d = E.derive(E.ProblemParams(N, a, b, (N + 2 + 2 * b - a) / (N - 2 + a)))
        for p in np.linspace(d.p_serrin, d.p_critical + 1.0, 22)[1:-1]:
            rows.append(E.ProblemParams(N, a, b, float(p)))
    return rows


def test_brent_root_is_brentq_on_the_criterion_5_crossings(monkeypatch):
    calls = []

    def recording(f, a, b, xtol):
        root = brent_root(f, a, b, xtol)
        calls.append((brentq(f, a, b, xtol=xtol), root))
        return root

    monkeypatch.setattr(_dop853, "brent_root", recording)
    outcomes = E.sweep_shoot(_criterion_5_rows(), E.ShootConfig(beta=100.0, r_max=1e4))
    crossings = [o.r0 for o in outcomes if isinstance(o, E.CrossedZero)]
    assert len(calls) == len(crossings) == 72
    # the roots are times t = log r
    assert sorted(np.exp([root for _, root in calls])) == sorted(crossings)
    worst = max(_ulps(*pair) for pair in calls)
    print(f"brent_root vs brentq on {len(calls)} crossings: largest difference {worst} ulps")
    assert worst == 0


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 1e3, 0.0, 10.0),
        (lambda x: math.copysign(abs(x - 0.7) ** 0.5, x - 0.7), 0.0, 1.0),
        (lambda x: math.atan(1e6 * (x - 0.123)), 0.0, 1.0),
        (lambda x: x, -1.0, 0.0),
        (lambda x: -x, 0.0, 2.0),
    ],
    ids=["cubic", "cos", "exp", "square-root", "steep-atan", "zero-at-b", "zero-at-a"],
)
@pytest.mark.parametrize("xtol", [2e-12, 1e-15, 5e-324])
def test_brent_root_takes_brentqs_steps(f, a, b, xtol):
    assert brent_root(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)


@pytest.mark.parametrize(
    "f, a, b, kwargs, error",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, E.RootNotFound),
        (lambda x: math.nan, -1.0, 1.0, {}, E.RootNotFound),
        # a triple root: brentq too stops after 100 steps
        (lambda x: (x - 1.0) ** 3, 0.0, 3.0, {}, E.RootNotFound),
        (lambda x: x, -1.0, 1.0, {"xtol": 0.0}, E.NotInRange),
    ],
    ids=["one-sign", "nan", "no-convergence", "zero-xtol"],
)
def test_brent_root_raises_named_errors(f, a, b, kwargs, error):
    with pytest.raises(error):
        brent_root(f, a, b, **{"xtol": 1e-12, **kwargs})


def _largest_spline_difference(z, y, lo=None, hi=None):
    """Largest difference from CubicSpline, over each quantity's scale; a root's relative.

    The quantities are values, the first derivatives at the knots and
    integrals from the first knot.
    """
    knots = Knots(z)
    ours, oracle = knots.spline(y), CubicSpline(z, y)
    x = np.concatenate([z, np.linspace(z[0], z[-1], 997)])
    worst = 0.0
    pairs = [
        (ours(x), oracle(x)),
        (knots.slopes(np.diff(y) / np.diff(z)), oracle(z, 1)),
        ([ours.integral(t) for t in x], [oracle.integrate(z[0], t) for t in x]),
    ]
    for mine, scipys in pairs:
        mine, scipys = np.asarray(mine), np.asarray(scipys, dtype=float)
        scale = np.max(np.abs(scipys))
        worst = max(worst, float(np.max(np.abs(mine - scipys))) / scale)
    if lo is not None:
        root = brent_root(ours, lo, hi, xtol=1e-15)
        oracle_root = brentq(oracle, lo, hi, xtol=1e-15)
        worst = max(worst, abs(root - oracle_root) / abs(oracle_root))
    return worst


def test_spline_is_cubic_spline_on_a_shots_nodes_and_its_csv(tmp_path):
    params = E.ProblemParams(3, 0.0, 0.0, 3.0)
    traj = E.shoot(params, E.ShootConfig(beta=0.5, r_max=20.0))
    E.trajectory_to_csv(traj, tmp_path / "traj.csv")
    again = E.trajectory_from_csv(tmp_path / "traj.csv", params)
    worst = 0.0
    for t in (traj, again):
        z = np.log(t.r)
        k = int(np.argmax(t.v < 0.25))  # v falls through 0.25 in (z[k-1], z[k])
        worst = max(
            worst,
            _largest_spline_difference(z, t.v - 0.25, z[k - 1], z[k]),
            _largest_spline_difference(z, t.dv),
            _largest_spline_difference(z, np.exp(3.0 * z) * t.v**4),
        )
    print(f"spline vs CubicSpline on {len(traj.r)} shot nodes: largest difference {worst:.2e}")
    assert worst <= SPLINE_RTOL


@pytest.mark.parametrize(
    "r, y",
    [
        ([0.5, 2.0], [1.0, -0.5]),
        ([0.1, 0.4, 3.0], [2.0, 0.5, -1.0]),
        ([0.2, 0.3, 1.1, 4.0], [1.5, 1.2, 0.1, -0.7]),
    ],
    ids=["2-knots", "3-knots", "4-knots"],
)
def test_spline_is_cubic_spline_on_a_few_knots(r, y):
    z = np.log(r)
    k = int(np.argmax(np.array(y) < 0))
    worst = _largest_spline_difference(z, np.array(y), z[k - 1], z[k])
    print(f"spline vs CubicSpline on {len(r)} knots: largest difference {worst:.2e}")
    assert worst <= SPLINE_RTOL


def test_a_two_node_csv_crosses_on_its_line(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("r,v,dv\n1.0,1.0,-1.0\n4.0,-1.0,-1.0\n")
    traj = E.trajectory_from_csv(path, E.ProblemParams(3, 0.0, 0.0, 3.0))
    # v is linear in log r between the two nodes
    assert traj.outcome.r0 == pytest.approx(2.0, rel=1e-15)
    assert traj.eval(2.0)[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "z", [[0.0], [0.0, 0.0, 1.0], [1.0, 0.5, 2.0, 3.0], [0.0, math.nan, 2.0]],
    ids=["one-knot", "repeated", "decreasing", "nan"],
)
def test_knots_must_be_at_least_two_and_strictly_increasing(z):
    with pytest.raises(E.NotInRange):
        Knots(z)


def test_spline_refuses_values_of_another_length():
    with pytest.raises(E.NotInRange):
        Knots([0.0, 1.0, 2.0, 3.0]).spline([1.0, 2.0])
