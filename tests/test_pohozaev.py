"""Ball identity: analytic oracles, shot verification, negative control.

The singular power profile admits every term of the identity in closed
form; those expressions are derived here by hand and the report is checked
against them term by term.
"""

import math

import numpy as np
import pytest

import emdenlab as E


def test_sphere_area_closed_forms():
    assert E.sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert E.sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert E.sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15)


def test_interior_coefficient_frozen_values_and_sign():
    assert E.ball_nonexistence_coeff(E.ProblemParams(3, 0.0, 0.0, 3.0)) == 0.25
    assert E.ball_nonexistence_coeff(E.ProblemParams(3, 0.0, 0.0, 7.0)) == -0.125
    assert E.ball_nonexistence_coeff(E.ProblemParams(3, 0.0, 0.0, 5.0)) == 0.0

    rng = np.random.default_rng(29)
    for _ in range(100):
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-(N - 2) + 0.1, 2.0))
        b = float(rng.uniform(a - 1.9, 3.0))
        p = float(rng.uniform(1.1, 12.0))
        params = E.ProblemParams(N, a, b, p)
        coeff = E.ball_nonexistence_coeff(params)
        gap = E.derive(params).p_critical - p
        assert coeff == pytest.approx(0.0, abs=1e-13) or np.sign(coeff) == np.sign(gap)


def _singular_fake_trajectory(params, r_lo, r_hi, n):
    prof = E.singular_solution(params)
    r = np.geomspace(r_lo, r_hi, n)
    v, dv = E.singular_eval(prof, r)
    return E.RadialTrajectory(params, r, v, dv), prof


def test_identity_terms_match_hand_integrals_on_singular_profile():
    # at (3,0,0,7): v = c r^(-1/3) with c = (2/9)^(1/6), and every term of
    # the identity reduces to a multiple of omega R^(1/3):
    #   interior = 3 omega c^8 R^(1/3)          (up to the origin stub)
    #   b1 = -(c^2/6) omega R^(1/3)
    #   b2 =  (c^8/8) omega R^(1/3)
    #   b3 =  (c^2/18) omega R^(1/3)
    # and with c^6 = 2/9 both sides equal -(c^2/12) omega R^(1/3).
    params = E.ProblemParams(3, 0.0, 0.0, 7.0)
    traj, _ = _singular_fake_trajectory(params, 1e-25, 16.0, 6000)
    omega = E.sphere_area(3)
    c = (2.0 / 9.0) ** (1.0 / 6.0)

    # pick node radii exactly so the spline boundary values are exact; stay
    # near the top of the grid where the origin-stub error (r1/R)^(1/3) of
    # the interior integral is far below the tolerances
    for R in (float(traj.r[5700]), float(traj.r[5990])):
        rep = E.ball_identity(traj, R)
        scale = omega * R ** (1.0 / 3.0)
        assert rep.boundary_1 == pytest.approx(-(c**2) / 6.0 * scale, rel=1e-12)
        assert rep.boundary_2 == pytest.approx(c**8 / 8.0 * scale, rel=1e-12)
        assert rep.boundary_3 == pytest.approx(c**2 / 18.0 * scale, rel=1e-12)
        assert rep.interior_integral == pytest.approx(3.0 * c**8 * scale, rel=1e-8)
        assert rep.interior_coeff == -0.125
        assert rep.interior_coeff * rep.interior_integral == pytest.approx(
            -(c**2) / 12.0 * scale, rel=1e-8
        )
        assert rep.relative_residual < 1e-8


def test_identity_holds_on_shot_trajectories():
    for N, a, b, p in ((3, 0.0, 0.0, 3.0), (3, 0.0, 2.0, 6.0)):
        traj = E.shoot(
            E.ProblemParams(N, a, b, p), E.ShootConfig(beta=0.5, r_max=20.0)
        )
        assert isinstance(traj.outcome, E.CrossedZero)
        assert traj.outcome.r0 > 8.0
        for R in (0.5, 1.0, 2.0, 4.0, 8.0):
            rep = E.ball_identity(traj, R)
            assert rep.relative_residual < 1e-6


def test_non_solution_leaves_an_order_one_residual():
    params = E.ProblemParams(3, 0.0, 0.0, 3.0)
    r = np.geomspace(0.1, 10.0, 200)
    flat = E.RadialTrajectory(params, r, np.ones_like(r), np.zeros_like(r))
    rep = E.ball_identity(flat, 5.0)
    assert rep.relative_residual > 0.1


def test_identity_rejects_bad_radii_and_exhausted_positivity():
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(r_max=10.0))
    with pytest.raises(ValueError):
        E.ball_identity(traj, 0.0)
    with pytest.raises(ValueError):
        E.ball_identity(traj, -1.0)
    with pytest.raises(E.RangeExceeded):
        E.ball_identity(traj, 50.0)
    # the ball contains the zero of the shot (the terminal node)
    with pytest.raises(E.NonpositiveSolution):
        E.ball_identity(traj, float(traj.r[-1]))


@pytest.mark.parametrize("R", [0.0, -1.0])
def test_weighted_node_integral_names_a_nonpositive_radius(R):
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(r_max=10.0))
    with pytest.raises(E.NotInRange, match="R = "):
        E.weighted_node_integral(traj, 2.0, 2.0, R)


@pytest.mark.parametrize("exponent", [-1.0, -2.5])
def test_weighted_node_integral_names_a_weight_not_integrable_at_0(exponent):
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(r_max=10.0))
    with pytest.raises(E.NotInRange, match="not integrable"):
        E.weighted_node_integral(traj, exponent, 2.0, 1.0)


@pytest.mark.parametrize(
    "exponent, power",
    [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf), (2.0, -math.inf)],
    ids=["exponent-nan", "power-nan", "exponent-inf", "power-inf", "power-minus-inf"],
)
def test_weighted_node_integral_names_a_non_finite_exponent_or_power(exponent, power):
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(r_max=10.0))
    with pytest.raises(E.NonFiniteParameter):
        E.weighted_node_integral(traj, exponent, power, 1.0)


def test_weighted_node_integral_names_an_integrand_outside_float_range():
    # v = 1e120 near the start: v^4 overflows, while the whole shot crosses
    # near r = 6.9e-120
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(beta=1e120, r_max=1.0))
    with pytest.raises(E.NotInRange, match="leaves float range"):
        E.weighted_node_integral(traj, 2.0, 4.0, 1e-121)
    with pytest.raises(E.NotInRange, match="leaves float range"):
        E.ball_identity(traj, 1e-121)


def test_weighted_node_integral_validation():
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(r_max=10.0))
    with pytest.raises(ValueError):
        E.weighted_node_integral(traj, -1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        E.weighted_node_integral(traj, 2.0, 2.0, 0.0)
    with pytest.raises(E.RangeExceeded):
        E.weighted_node_integral(traj, 2.0, 2.0, 100.0)


def test_weighted_node_integral_on_exact_power_data():
    # v = r^(-1/2) on the nodes: int_0^R r^2 v^4 dr = R exactly
    params = E.ProblemParams(3, 0.0, 0.0, 7.0)
    r = np.geomspace(1e-12, 10.0, 2000)
    v = r**-0.5
    dv = -0.5 * r**-1.5
    traj = E.RadialTrajectory(params, r, v, dv)
    val = E.weighted_node_integral(traj, 2.0, 4.0, 5.0)
    assert val == pytest.approx(5.0, rel=1e-10)


def test_reports_are_the_same_with_the_integrand_kept_between_radii():
    params = E.ProblemParams(3, 0.0, 0.0, 3.0)
    traj = E.shoot(params, E.ShootConfig(beta=0.5, r_max=20.0))
    radii = [0.5, 1.0, 2.0, 4.0, 8.0]
    kept = [E.ball_identity(traj, R) for R in radii]
    fresh = [
        E.ball_identity(E.RadialTrajectory(params, traj.r, traj.v, traj.dv), R)
        for R in radii
    ]
    assert kept == fresh
    assert len(traj._integrands) == 1


def test_report_is_reproducible_from_exported_nodes(tmp_path):
    params = E.ProblemParams(3, 0.0, 0.0, 3.0)
    traj = E.shoot(params, E.ShootConfig(beta=0.5, r_max=20.0))
    path = tmp_path / "nodes.csv"
    E.trajectory_to_csv(traj, path)
    back = E.trajectory_from_csv(path, params)
    for R in (0.5, 2.0, 8.0):
        a_rep = E.ball_identity(traj, R).to_dict()
        b_rep = E.ball_identity(back, R).to_dict()
        assert a_rep == b_rep  # bit-for-bit, not approximately
