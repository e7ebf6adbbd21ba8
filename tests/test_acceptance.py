"""Acceptance gate: ten numbered criteria, one test and one verdict each.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Each test prints its measured margin so a failure comes with
the number that broke.
"""

import time

import numpy as np
import pytest

import emdenlab as E
from test_shooting import FIRST_CROSSING_CUBIC, rk4_first_crossing

CRITICAL_TRIPLES = [
    (3, 0.0, 0.0),
    (3, 0.0, 1.0),
    (3, 0.5, 1.0),
    (4, 0.0, 0.0),
    (4, -0.5, 0.0),
    (5, 1.0, 2.0),
]


def _critical_params(N, a, b):
    p = (N + 2 + 2 * b - a) / (N - 2 + a)
    return E.ProblemParams(N, a, b, p)


def test_criterion_01_bubble_residual_on_six_weighted_families():
    t0 = time.perf_counter()
    r = np.geomspace(1e-3, 1e3, 100)
    worst = 0.0
    for N, a, b in CRITICAL_TRIPLES:
        params = _critical_params(N, a, b)
        prof = E.normalized_bubble(params)
        v, dv = E.bubble_eval(prof, r)
        ddv = E.bubble_second_derivative(prof, r)
        _, rel = E.residual(params, v, dv, ddv, r)
        worst = max(worst, float(np.max(rel)))
    wall = time.perf_counter() - t0
    print(f"CRITERION 1 {'PASS' if worst <= 1e-10 else 'FAIL'}: "
          f"max relative residual {worst:.3e} over 6 families, {wall:.2f}s")
    assert worst <= 1e-10
    assert wall < 1.0


def test_criterion_02_critical_shot_reproduces_the_bubble():
    t0 = time.perf_counter()
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 5.0), E.ShootConfig(r_max=50.0))
    r = np.linspace(0.0, 10.0, 201)
    v, _ = traj.eval(r)
    exact = (1.0 + r**2 / 3.0) ** -0.5
    err = float(np.max(np.abs(v - exact) / exact))
    wall = time.perf_counter() - t0
    print(f"CRITERION 2 {'PASS' if err <= 1e-6 else 'FAIL'}: "
          f"max relative error {err:.3e} on [0, 10], {wall:.2f}s")
    assert err <= 1e-6
    assert wall < 1.0


def test_criterion_03_cubic_crossing_radius_vs_independent_oracle():
    oracle = rk4_first_crossing(3, 0.0, 0.0, 3.0)
    assert oracle == pytest.approx(FIRST_CROSSING_CUBIC, abs=1e-7)
    t0 = time.perf_counter()
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(r_max=10.0))
    wall = time.perf_counter() - t0
    assert isinstance(traj.outcome, E.CrossedZero)
    diff = abs(traj.outcome.r0 - oracle)
    print(f"CRITERION 3 {'PASS' if diff <= 1e-3 else 'FAIL'}: "
          f"r0 = {traj.outcome.r0:.10f}, |r0 - oracle| = {diff:.3e}, {wall:.2f}s")
    assert diff <= 1e-3
    assert wall < 1.0


def test_criterion_04_threshold_bisection_recovers_critical_exponents():
    cases = [((3, 0.0, 0.0), 5.0), ((4, 0.0, 0.0), 3.0), ((3, 0.0, 1.0), 7.0)]
    config = E.ShootConfig(beta=100.0, r_max=1e3)
    details = []
    for (N, a, b), expected in cases:
        t0 = time.perf_counter()
        p_star = E.threshold_bisect(
            N, a, b, expected - 1.0, expected + 1.0, tol_p=1e-3, config=config
        )
        wall = time.perf_counter() - t0
        err = abs(p_star - expected)
        details.append(f"({N},{a},{b}): err {err:.2e} in {wall:.2f}s")
        assert err <= 1e-2
        assert wall < 60.0
    print("CRITERION 4 PASS: " + "; ".join(details))


def test_criterion_05_dichotomy_sweep_matches_the_critical_split():
    margin = 1e-2
    rows, criticals = [], []
    for N, a, b in CRITICAL_TRIPLES:
        d = E.derive(_critical_params(N, a, b))
        for p in np.linspace(d.p_serrin, d.p_critical + 1.0, 22)[1:-1]:
            rows.append(E.ProblemParams(N, a, b, float(p)))
            criticals.append(d.p_critical)
    t0 = time.perf_counter()
    outcomes = E.sweep_shoot(rows, E.ShootConfig(beta=100.0, r_max=1e4))
    wall = time.perf_counter() - t0

    violations = []
    for params, p_c, outcome in zip(rows, criticals, outcomes):
        crossed = isinstance(outcome, E.CrossedZero)
        inconclusive = isinstance(outcome, E.Inconclusive)
        if params.p <= p_c - margin and not crossed:
            violations.append((params, outcome))
        if params.p >= p_c and crossed:
            violations.append((params, outcome))
        if inconclusive and abs(params.p - p_c) >= margin:
            violations.append((params, outcome))
    print(f"CRITERION 5 {'PASS' if not violations else 'FAIL'}: "
          f"{len(rows)} shots, {len(violations)} violations, {wall:.1f}s")
    assert violations == []
    assert wall < 600.0


def test_criterion_06_energy_is_flat_along_the_critical_orbit():
    config = E.ShootConfig(rel_tol=1e-12, r_max=3e4)
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)
    traj = E.shoot(params, config)
    cyl = E.to_cylinder(traj)
    window = (cyl.t >= -10.0) & (cyl.t <= 10.0)
    assert int(window.sum()) > 1000
    H = E.hamiltonian(params, cyl.w[window], cyl.dw[window])
    worst = float(np.max(np.abs(H)))
    print(f"CRITERION 6 {'PASS' if worst <= 1e-8 else 'FAIL'}: "
          f"max |H| = {worst:.3e} on t in [-10, 10]")
    assert worst <= 1e-8


def test_criterion_07_ball_identity_on_shots_with_negative_control():
    worst = 0.0
    for N, a, b, p in ((3, 0.0, 0.0, 3.0), (3, 0.0, 2.0, 6.0)):
        traj = E.shoot(
            E.ProblemParams(N, a, b, p), E.ShootConfig(beta=0.5, r_max=20.0)
        )
        for R in (0.5, 1.0, 2.0, 4.0, 8.0):
            rep = E.ball_identity(traj, R)
            worst = max(worst, rep.relative_residual)
    assert worst <= 1e-6

    r = np.geomspace(0.1, 10.0, 200)
    flat = E.RadialTrajectory(
        E.ProblemParams(3, 0.0, 0.0, 3.0), r, np.ones_like(r), np.zeros_like(r)
    )
    control = E.ball_identity(flat, 5.0).relative_residual
    print(f"CRITERION 7 PASS: max relative residual {worst:.3e}; "
          f"negative control {control:.2f}")
    assert control > 1e-1


def test_criterion_08_singular_amplitude_equals_the_fixed_point():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    checked = 0
    while checked < 1000:
        N = int(rng.integers(3, 8))
        a = float(rng.uniform(-(N - 2) + 0.05, 3.0))
        b = float(rng.uniform(a - 1.95, 4.0))
        p = float(rng.uniform(1.05, 15.0))
        params = E.ProblemParams(N, a, b, p)
        if N + b <= 0 or p <= E.derive(params).p_serrin:
            continue
        amp = E.singular_solution(params).amplitude
        w_star = E.fixed_points(params).w_star
        worst = max(worst, abs(amp - w_star) / w_star)
        checked += 1
    print(f"CRITERION 8 {'PASS' if worst <= 1e-12 else 'FAIL'}: "
          f"max relative gap {worst:.3e} over {checked} supercritical points")
    assert worst <= 1e-12


def test_criterion_09_rayleigh_quotient_matches_beta_closed_form():
    for N, a, b, q in ((3, 0.0, 0.0, 6.0), (4, 0.0, 0.0, 4.0)):
        triple = E.CknTriple(N, a, b, q)
        closed = E.bubble_energy_closed_form(triple)
        prof = E.normalized_bubble(_critical_params(N, a, b))
        rep = E.energy(triple, lambda r: E.bubble_eval(prof, r))
        assert rep.rayleigh == pytest.approx(closed, rel=1e-6)

    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)
    dil = []
    for lam in (0.1, 1.0, 10.0):  # three decades of dilation
        prof = E.bubble(params, lambda_scale=lam)
        dil.append(E.energy(triple, lambda r: E.bubble_eval(prof, r)).rayleigh)
    dil_spread = (max(dil) - min(dil)) / max(dil)
    base_prof = E.normalized_bubble(params)
    amp = []
    for c in (0.1, 1.0, 10.0):  # three decades of amplitude
        amp.append(
            E.energy(
                triple,
                lambda r, c=c: tuple(c * x for x in E.bubble_eval(base_prof, r)),
            ).rayleigh
        )
    amp_spread = (max(amp) - min(amp)) / max(amp)
    ok = dil_spread <= 1e-8 and amp_spread <= 1e-8
    print(f"CRITERION 9 {'PASS' if ok else 'FAIL'}: dilation spread "
          f"{dil_spread:.3e}, amplitude spread {amp_spread:.3e}")
    assert dil_spread <= 1e-8
    assert amp_spread <= 1e-8


def test_criterion_10_classification_witnesses_and_boundary_probes():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        N = int(rng.integers(3, 8))
        a = float(rng.uniform(-(N - 2) + 1e-3, 3.0))
        b = float(rng.uniform(a - 3.0, 4.0))
        p = float(rng.uniform(1.0, 14.0))
        params = E.ProblemParams(N, a, b, p)
        if not E.classify(params).witness_holds(params):
            failures += 1
    wall = time.perf_counter() - t0

    for N, a, b in CRITICAL_TRIPLES:
        p_c = E.derive(_critical_params(N, a, b)).p_critical
        below = E.classify(E.ProblemParams(N, a, b, p_c - 1e-6))
        above = E.classify(E.ProblemParams(N, a, b, p_c + 1e-6))
        assert below.kind == E.SUBCRITICAL_LIOUVILLE
        assert above.kind == E.SUPERCRITICAL
        exact = E.classify(E.ProblemParams(N, a, b, p_c))
        assert exact.kind == E.CRITICAL
    print(f"CRITERION 10 {'PASS' if failures == 0 else 'FAIL'}: "
          f"{failures} witness failures in 10000 points, {wall:.2f}s; "
          f"boundary probes split correctly at all 6 families")
    assert failures == 0
