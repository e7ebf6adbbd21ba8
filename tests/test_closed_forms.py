"""Explicit profile families checked against symbolic substitution."""

import math
import time

import mpmath
import numpy as np
import pytest
import sympy as sp

import emdenlab as E

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


@pytest.mark.parametrize("N, a, b", CRITICAL_TRIPLES)
@pytest.mark.parametrize("lam", [sp.Integer(1), sp.Rational(2, 3)])
def test_bubble_is_an_exact_symbolic_solution(N, a, b, lam):
    aq = sp.nsimplify(a)
    bq = sp.nsimplify(b)
    M = N - 2 + aq
    sigma = 2 + bq - aq
    p = (N + 2 + 2 * bq - aq) / M
    m = M / sigma
    A = (m * (m + 1) * sigma**2) ** (1 / (p - 1))
    r = sp.symbols("r", positive=True)
    v = A * lam ** (M / 2) * (1 + (lam * r) ** sigma) ** (-m)
    res = sp.diff(v, r, 2) + (N - 1 + aq) / r * sp.diff(v, r) + r ** (bq - aq) * v**p
    assert sp.simplify(res) == 0


@pytest.mark.parametrize("N, a, b, p", [(3, 0.0, 0.0, 7.0), (3, 0.5, 1.0, 5.0)])
def test_singular_profile_is_an_exact_symbolic_solution(N, a, b, p):
    aq = sp.nsimplify(a)
    bq = sp.nsimplify(b)
    pq = sp.nsimplify(p)
    M = N - 2 + aq
    gamma = (2 + bq - aq) / (pq - 1)
    c = (gamma * (M - gamma)) ** (1 / (pq - 1))
    r = sp.symbols("r", positive=True)
    v = c * r**-gamma
    res = sp.diff(v, r, 2) + (N - 1 + aq) / r * sp.diff(v, r) + r ** (bq - aq) * v**pq
    assert sp.simplify(res) == 0


def test_bubble_amplitude_frozen_values():
    assert E.bubble_amplitude(E.ProblemParams(3, 0.0, 0.0, 5.0)) == pytest.approx(
        3.0**0.25, rel=1e-15
    )
    assert E.bubble_amplitude(E.ProblemParams(4, 0.0, 0.0, 3.0)) == pytest.approx(
        8.0**0.5, rel=1e-15
    )
    # M = 4, sigma = 3, m = 4/3: A = (4/3 * 7/3 * 9)^(2/3) = 28^(2/3)
    assert E.bubble_amplitude(E.ProblemParams(5, 1.0, 2.0, 2.5)) == pytest.approx(
        28.0 ** (2.0 / 3.0), rel=1e-15
    )


def test_normalized_bubble_matches_textbook_profile():
    profile = E.normalized_bubble(_critical_params(3, 0.0, 0.0))
    r = np.geomspace(1e-3, 1e3, 200)
    v, dv = E.bubble_eval(profile, r)
    expected = (1.0 + r**2 / 3.0) ** -0.5
    assert np.max(np.abs(v - expected) / expected) < 1e-14
    v0, dv0 = E.bubble_eval(profile, 0.0)
    assert v0 == pytest.approx(1.0, rel=1e-14)
    assert dv0 == 0.0
    # derivative of the explicit formula
    expected_dv = -(r / 3.0) * (1.0 + r**2 / 3.0) ** -1.5
    assert np.max(np.abs(dv - expected_dv) / np.abs(expected_dv)) < 1e-13


def test_bubble_eval_is_finite_at_extreme_radii():
    for N, a, b in CRITICAL_TRIPLES:
        profile = E.normalized_bubble(_critical_params(N, a, b))
        # no overflow even where the power-law tail underflows to zero
        for r in (1e-200, 1e200):
            v, dv = E.bubble_eval(profile, r)
            assert np.isfinite(v) and np.isfinite(dv)
        for r in (1e-30, 1e30):
            v, _ = E.bubble_eval(profile, r)
            assert v > 0.0


def test_bubble_origin_derivative_depends_on_tail_power():
    # sigma > 1: dv(0) = 0
    prof = E.normalized_bubble(_critical_params(3, 0.0, 0.0))
    assert E.bubble_eval(prof, 0.0)[1] == 0.0
    # sigma = 1: finite negative slope at the origin
    params = _critical_params(3, 0.0, -1.0)
    prof = E.normalized_bubble(params)
    _, dv0 = E.bubble_eval(prof, 0.0)
    assert np.isfinite(dv0) and dv0 < 0.0
    # sigma < 1: the one-sided derivative blows up
    params = _critical_params(3, 0.0, -1.5)
    prof = E.normalized_bubble(params)
    with pytest.raises(E.DerivativeUndefinedAtOrigin):
        E.bubble_eval(prof, 0.0)


def test_bubble_rejects_noncritical_exponent():
    with pytest.raises(E.NotCritical):
        E.bubble(E.ProblemParams(3, 0.0, 0.0, 4.0))


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_bubble_refuses_a_non_finite_power(p):
    # |nan - p_c| > tol is false, so NaN used to pass the NotCritical check
    with pytest.raises(E.NonFiniteParameter):
        E.bubble(E.ProblemParams(3, 0.0, 0.0, p))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_bubble_refuses_a_non_finite_dilation(lam):
    # nan <= 0 is false, so NaN used to pass the lambda_scale check
    with pytest.raises(E.NonFiniteParameter):
        E.bubble(_critical_params(3, 0.0, 0.0), lambda_scale=lam)


@pytest.mark.parametrize(
    "N, a, b, match",
    [(7, 2.9390709647512576, 0.9607210425423728, "amplitude"),  # A about 1e328
     (3, -0.9, -2.8999, "amplitude"),  # A underflows to 0
     (3, -0.9, -2.9 + 0.000578, "dilation")],  # A = 1.6e-173, A^(-20) overflows
    ids=["amplitude-overflows", "amplitude-underflows", "dilation-overflows"],
)
def test_bubble_names_an_amplitude_outside_float_range(N, a, b, match):
    # a small sigma puts p close to 1, and K^(1/(p-1)) leaves float range
    with pytest.raises(E.NotInRange, match=match):
        E.normalized_bubble(_critical_params(N, a, b))


@pytest.mark.parametrize("lam", [0.0, -2.0])
def test_bubble_names_a_nonpositive_dilation(lam):
    with pytest.raises(E.NotInRange, match="lambda_scale"):
        E.bubble(_critical_params(3, 0.0, 0.0), lambda_scale=lam)


def test_singular_solution_requires_serrin_supercritical():
    with pytest.raises(E.NotInSerrinSupercriticalRange):
        E.singular_solution(E.ProblemParams(3, 0.0, 0.0, 3.0))
    with pytest.raises(E.NotInSerrinSupercriticalRange):
        E.singular_solution(E.ProblemParams(3, 0.0, 0.0, 2.0))


def test_singular_eval_matches_power_law():
    params = E.ProblemParams(3, 0.0, 0.0, 7.0)
    prof = E.singular_solution(params)
    gamma = E.derive(params).gamma
    c = (gamma * (1.0 - gamma)) ** (1.0 / 6.0)
    r = np.geomspace(1e-6, 1e6, 50)
    v, dv = E.singular_eval(prof, r)
    assert np.allclose(v, c * r**-gamma, rtol=1e-14)
    assert np.allclose(dv, -gamma * c * r ** (-gamma - 1.0), rtol=1e-14)
    with pytest.raises(E.NonpositiveRadius):
        E.singular_eval(prof, 0.0)


def test_residual_flags_true_and_false_solutions():
    params = _critical_params(3, 0.5, 1.0)
    prof = E.normalized_bubble(params)
    r = np.geomspace(1e-3, 1e3, 300)
    v, dv = E.bubble_eval(prof, r)
    ddv = E.bubble_second_derivative(prof, r)
    _, rel = E.residual(params, v, dv, ddv, r)
    assert np.max(rel) < 1e-12

    # an unrelated profile of the same general shape scores badly
    fake_v = (1.0 + r) ** -1.0
    fake_dv = -((1.0 + r) ** -2.0)
    fake_ddv = 2.0 * (1.0 + r) ** -3.0
    _, rel_fake = E.residual(params, fake_v, fake_dv, fake_ddv, r)
    assert np.max(rel_fake) > 0.1

    with pytest.raises(E.NonpositiveRadius):
        E.residual(params, v[:1], dv[:1], ddv[:1], np.array([0.0]))


def test_bubble_second_derivative_against_finite_differences():
    rng = np.random.default_rng(5)
    for N, a, b in CRITICAL_TRIPLES:
        prof = E.normalized_bubble(_critical_params(N, a, b))
        r = np.sort(rng.uniform(0.2, 20.0, 12))
        # h ~ eps^(1/4): balances truncation against cancellation in the stencil
        h = 1e-3 * r
        vp, _ = E.bubble_eval(prof, r + h)
        vm, _ = E.bubble_eval(prof, r - h)
        v0, _ = E.bubble_eval(prof, r)
        fd = (vp - 2.0 * v0 + vm) / h**2
        ddv = E.bubble_second_derivative(prof, r)
        scale = max(1.0, float(np.max(np.abs(ddv))))
        assert np.max(np.abs(ddv - fd)) < 1e-5 * scale


def test_lambda_scale_moves_mass_without_changing_the_family():
    params = _critical_params(4, 0.0, 0.0)
    wide = E.bubble(params, lambda_scale=0.5)
    narrow = E.bubble(params, lambda_scale=2.0)
    r = np.geomspace(1e-2, 1e2, 100)
    # dilation covariance: v_lam(r) = lam^(M/2) v_1(lam r)
    base = E.bubble(params, lambda_scale=1.0)
    half_m = 0.5 * (params.N - 2 + params.a)
    for prof, lam in ((wide, 0.5), (narrow, 2.0)):
        v, _ = E.bubble_eval(prof, r)
        v1, _ = E.bubble_eval(base, lam * r)
        assert np.allclose(v, lam**half_m * v1, rtol=1e-13)


# Families of the first-zero law's oracle: one per radial shape, sigma < 1
# and sigma > 2 included.
LAW_FAMILIES = [
    (3, 0.0, 0.0),
    (4, 0.0, 0.0),
    (3, 0.5, 1.0),
    (5, 1.0, 2.0),
    (3, 0.0, 1.0),
    (6, -1.5, -1.0),
]
LAW_DELTAS = [1e-3, 3e-4, 1e-4]


def _melnikov_constant(N, a, b):
    """C = (sigma A^2 / I)^(1/M) with I = int w'^2 dt by mpmath.quad, no Beta function.

    The v(0) = 1 bubble is v = (1 + s)^(-m) with s = r^sigma/(m (m+1) sigma^2),
    its tail coefficient A = (m (m+1) sigma^2)^m, and in t = log r its
    Emden-Fowler form w = r^(M/2) v has w' = w M (1 - s) / (2 (1 + s)).
    """
    with mpmath.workdps(30):
        M = mpmath.mpf(N - 2) + a
        sigma = 2 + mpmath.mpf(b) - a
        m = M / sigma
        k = m * (m + 1) * sigma**2

        def dw(t):
            s = mpmath.exp(sigma * t) / k
            w = mpmath.exp(M * t / 2) * (1 + s) ** (-m)
            return w * M * (1 - s) / (2 * (1 + s))

        peak = mpmath.log(k) / sigma  # s = 1
        integral = mpmath.quad(lambda t: dw(t) ** 2, [-mpmath.inf, peak, mpmath.inf])
        return float((sigma * k ** (2 * m) / integral) ** (1 / M))


def test_first_zero_law_matches_long_shots_and_the_melnikov_integral():
    for N, a, b in LAW_FAMILIES:
        nu, log_c = E.first_zero_law(N, a, b)
        assert nu == 1.0 / (N - 2 + a)
        assert math.exp(log_c) == pytest.approx(_melnikov_constant(N, a, b), rel=1e-13)
    assert math.exp(E.first_zero_law(3, 0.0, 0.0)[1]) == pytest.approx(17.6425, abs=1e-4)
    assert math.exp(E.first_zero_law(4, 0.0, 0.0)[1]) == pytest.approx(4 * 6**0.5, rel=1e-14)

    rows = [
        E.ProblemParams(N, a, b, E.params.p_critical(N, a, b) - delta)
        for N, a, b in LAW_FAMILIES
        for delta in LAW_DELTAS
    ]
    t0 = time.perf_counter()
    outcomes = E.sweep_shoot(rows, E.ShootConfig(beta=1.0, r_max=1e14))
    print(f"first-zero law batch: {len(rows)} shots in {time.perf_counter() - t0:.3f} s")
    for i, (N, a, b) in enumerate(LAW_FAMILIES):
        nu, log_c = E.first_zero_law(N, a, b)
        gaps = []
        for row, outcome in zip(rows[3 * i : 3 * i + 3], outcomes[3 * i : 3 * i + 3]):
            assert isinstance(outcome, E.CrossedZero), (row, outcome)
            delta = E.params.p_critical(N, a, b) - row.p
            gaps.append(abs(outcome.r0 * delta**nu / math.exp(log_c) - 1.0))
        # the law is asymptotic: its error shrinks as p approaches p_c
        assert gaps[0] > gaps[1] > gaps[2], ((N, a, b), gaps)
        assert gaps[2] <= 2e-3, ((N, a, b), gaps)
