"""Cylinder phase plane: change of variables, fixed points, energy law."""

from fractions import Fraction

import numpy as np
import pytest

import emdenlab as E


def test_cylinder_map_is_the_chain_rule():
    params = E.ProblemParams(3, 0.0, 0.0, 7.0)
    gamma = E.derive(params).gamma
    r = np.geomspace(0.5, 20.0, 40)
    v = (1.0 + r) ** -1.0
    dv = -((1.0 + r) ** -2.0)
    cyl = E.to_cylinder(E.RadialTrajectory(params, r, v, dv))
    assert np.array_equal(cyl.t, np.log(r))
    assert np.allclose(cyl.w, r**gamma * v, rtol=1e-15)
    assert np.allclose(cyl.dw, r**gamma * (gamma * v + r * dv), rtol=1e-15)


def test_cylinder_map_rejects_nonpositive_nodes():
    params = E.ProblemParams(3, 0.0, 0.0, 7.0)
    r = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, 0.5, -0.1])
    dv = np.zeros(3)
    with pytest.raises(E.NonpositiveNode):
        E.to_cylinder(E.RadialTrajectory(params, r, v, dv))


def test_cylinder_map_leaves_out_a_terminal_zero():
    # a crossing shot ends on v = 0 exactly; that node alone is left out
    params = E.ProblemParams(3, 0.0, 0.0, 3.0)
    traj = E.shoot(params, E.ShootConfig(r_max=10.0))
    assert traj.v[-1] == 0.0
    cyl = E.to_cylinder(traj)
    # the shot's own state (t, w, w') without its last node; t is the node
    # grid, which log r gives back to round-off
    t, w, dw = traj._cylinder_state()
    assert np.array_equal(cyl.t, t[:-1])
    assert np.array_equal(cyl.w, w[:-1]) and np.array_equal(cyl.dw, dw[:-1])
    assert np.allclose(cyl.t, np.log(traj.r[:-1]), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "params, kind",
    [
        ((3, 0.0, 0.0, 5.0), "center"),
        ((3, 0.0, 0.0, 12.0), "stable_spiral"),
        ((3, 0.0, 0.0, 4.0), "unstable_spiral"),
        ((3, 0.0, -1.9, 2.0), "stable_node"),
        ((3, 0.0, -1.9, 1.12), "unstable_node"),
        # sigma solves 8 s^2 - 8 s + 1 = 0, where the discriminant vanishes
        ((3, 0.0, (2.0 - 2.0**0.5) / 4.0 - 2.0, 2.0), "degenerate"),
        # within CRITICAL_REL_TOL of p_c = 5, where classify says critical
        ((3, 0.0, 0.0, 5.0 + 4.5e-12), "center"),
        ((3, 0.0, 0.0, 5.0 - 4.5e-12), "center"),
    ],
)
def test_fixed_point_kind_catalog(params, kind):
    report = E.fixed_points(E.ProblemParams(*params))
    assert report.kind == kind


def test_fixed_point_frozen_amplitude_and_pure_imaginary_center():
    report = E.fixed_points(E.ProblemParams(3, 0.0, 0.0, 12.0))
    assert report.w_star == pytest.approx(0.840952677603976, rel=1e-14)

    center = E.fixed_points(E.ProblemParams(3, 0.0, 0.0, 5.0))
    for ev in center.eigenvalues:
        assert ev.real == 0.0
        assert abs(ev.imag) == pytest.approx(1.0, rel=1e-14)


def test_fixed_point_requires_serrin_supercritical():
    with pytest.raises(E.NotInRange):
        E.fixed_points(E.ProblemParams(3, 0.0, 0.0, 3.0))
    with pytest.raises(E.NotInRange):
        E.fixed_points(E.ProblemParams(3, 0.0, 0.0, 1.0))


def test_eigenvalues_solve_the_characteristic_polynomial():
    rng = np.random.default_rng(17)
    n_checked = 0
    while n_checked < 40:
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-(N - 2) + 0.1, 2.0))
        b = float(rng.uniform(a - 1.9, 3.0))
        p = float(rng.uniform(1.2, 12.0))
        params = E.ProblemParams(N, a, b, p)
        d = E.derive(params)
        if p <= d.p_serrin:
            continue
        rep = E.fixed_points(params)
        for mu in rep.eigenvalues:
            val = mu**2 + d.lambda1 * mu + (p - 1.0) * d.lambda2
            assert abs(val) < 1e-12 * max(1.0, abs(d.lambda1) ** 2, (p - 1) * d.lambda2)
        n_checked += 1


def test_singular_amplitude_sits_at_the_fixed_point():
    params = E.ProblemParams(3, 0.5, 1.0, 6.0)
    prof = E.singular_solution(params)
    rep = E.fixed_points(params)
    assert prof.amplitude == rep.w_star


def test_energy_at_the_fixed_point_matches_exact_fraction():
    # at (3,0,0,5): w_star^2 = 1/2, H(w_star, 0) = -1/16 + 1/48 = -1/24
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)
    w_star = E.fixed_points(params).w_star
    expected = Fraction(-1, 16) + Fraction(1, 48)
    assert expected == Fraction(-1, 24)
    assert E.hamiltonian(params, w_star, 0.0) == pytest.approx(float(expected), rel=1e-14)


def test_energy_is_conserved_on_the_critical_orbit():
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)
    traj = E.shoot(params, E.ShootConfig(r_max=1e3))
    cyl = E.to_cylinder(traj)
    window = np.abs(cyl.t) <= 3.0
    H = E.hamiltonian(params, cyl.w[window], cyl.dw[window])
    assert np.max(np.abs(H)) < 1e-7


def test_energy_drifts_monotonically_off_criticality():
    # supercritical: lambda1 > 0 dissipates the energy
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 12.0), E.ShootConfig(r_max=1e3))
    cyl = E.to_cylinder(traj)
    H = E.hamiltonian(traj.params, cyl.w, cyl.dw)
    assert H[-1] < H[0]

    # subcritical with lambda1 < 0 pumps it up while the shot stays positive
    params = E.ProblemParams(3, 0.0, 1.0, 4.0)
    traj = E.shoot(params, E.ShootConfig(r_max=100.0))
    keep = traj.v > 0.0
    cyl = E.to_cylinder(
        E.RadialTrajectory(params, traj.r[keep], traj.v[keep], traj.dv[keep])
    )
    H = E.hamiltonian(params, cyl.w, cyl.dw)
    assert H[-1] > H[0]


def test_normalized_bubble_on_the_cylinder():
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)
    traj = E.shoot(params, E.ShootConfig(r_max=1e4))
    cyl = E.to_cylinder(traj)
    # peak of w = sqrt(r) v at r = sqrt(3): w_max = (3/4)^(1/4); the node
    # grid straddles the peak, so allow the quadratic undershoot
    assert np.max(cyl.w) == pytest.approx(0.9306048591020996, rel=1e-6)
    # both cylinder ends decay
    assert cyl.w[0] < 0.05 and cyl.w[-1] < 0.05
    # the far field carries r v -> sqrt(3)
    rv = np.exp(0.5 * cyl.t[-1]) * cyl.w[-1]
    assert rv == pytest.approx(3.0**0.5, rel=1e-6)


def test_cylinder_rhs_signs():
    params = E.ProblemParams(3, 0.0, 0.0, 7.0)
    w_star = E.fixed_points(params).w_star
    assert E.cylinder_rhs(params, w_star, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert E.cylinder_rhs(params, 0.5 * w_star, 0.0) > 0.0
    assert E.cylinder_rhs(params, 1.5 * w_star, 0.0) < 0.0
    # odd extension
    assert E.cylinder_rhs(params, -0.5 * w_star, 0.0) < 0.0
