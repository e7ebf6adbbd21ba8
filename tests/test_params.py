"""Derived exponents, regime classification, and the witness contract."""

import math

import numpy as np
import pytest

import emdenlab as E


def test_derived_exponents_unweighted_critical_case():
    d = E.derive(E.ProblemParams(3, 0.0, 0.0, 5.0))
    assert d.sigma == 2.0
    assert d.p_serrin == 3.0
    assert d.p_critical == 5.0
    assert d.gamma == 0.5
    assert d.lambda1 == 0.0
    assert d.lambda2 == 0.25
    assert d.fs_b_threshold is None


def test_derived_exponents_weighted_case_hand_arithmetic():
    # M = 1.5, sigma = 2.5, p_serrin = 4/1.5, p_critical = 6.5/1.5
    d = E.derive(E.ProblemParams(3, 0.5, 1.0, 3.0))
    assert d.sigma == pytest.approx(2.5, rel=1e-15)
    assert d.p_serrin == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert d.p_critical == pytest.approx(13.0 / 3.0, rel=1e-15)
    assert d.gamma == pytest.approx(1.25, rel=1e-15)
    assert d.lambda1 == pytest.approx(-1.0, rel=1e-15)
    assert d.lambda2 == pytest.approx(1.25 * 0.25, rel=1e-15)
    assert d.fs_b_threshold == pytest.approx(4.0 * E.beta_fs(3, 0.5), rel=1e-15)


def test_gamma_ties_sigma_to_the_source_power():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-(N - 2) + 0.1, 2.0))
        b = float(rng.uniform(a - 1.9, 3.0))
        p = float(rng.uniform(1.1, 9.0))
        d = E.derive(E.ProblemParams(N, a, b, p))
        assert d.gamma * (p - 1.0) == pytest.approx(d.sigma, rel=1e-12)
        assert d.lambda1 == pytest.approx(N - 2 + a - 2 * d.gamma, rel=1e-12, abs=1e-12)
        assert d.lambda2 == pytest.approx(d.gamma * (N - 2 + a - d.gamma), rel=1e-12, abs=1e-12)


def test_validate_rejects_small_dimension_and_degenerate_weight():
    with pytest.raises(E.DimensionTooSmall):
        E.validate(E.ProblemParams(2, 0.0, 0.0, 2.0))
    with pytest.raises(E.DegenerateWeight):
        E.validate(E.ProblemParams(3, -1.0, 0.0, 2.0))
    with pytest.raises(E.DegenerateWeight):
        E.validate(E.ProblemParams(3, -1.5, 0.0, 2.0))


@pytest.mark.parametrize(
    "N, a, b",
    [
        (math.nan, 0.0, 0.0),
        (math.inf, 0.0, 0.0),
        (3, math.nan, 0.0),
        (3, -math.inf, 0.0),
        (3, 0.0, math.nan),
        (3, 0.0, math.inf),
    ],
)
def test_validate_refuses_non_finite_parameters(N, a, b):
    with pytest.raises(E.NonFiniteParameter):
        E.validate(E.ProblemParams(N, a, b, 3.0))


def test_validate_leaves_p_to_the_solvers():
    # ckn grid rows validate (N, a, b) with p = nan as a placeholder
    params = E.ProblemParams(3, 0.0, 0.0, math.nan)
    assert E.validate(params) is params


def test_classify_refuses_a_nan_power():
    # every comparison with NaN is False, so it used to fall through to
    # "supercritical" with a witness that does not hold
    with pytest.raises(E.NonFiniteParameter):
        E.classify(E.ProblemParams(3, 0.0, 0.0, math.nan))


@pytest.mark.parametrize("p", [math.inf, -math.inf])
def test_classify_refuses_an_infinite_power(p):
    # p = inf used to read "supercritical", with exponents taken at the limit
    with pytest.raises(E.NonFiniteParameter):
        E.classify(E.ProblemParams(3, 0.0, 0.0, p))


def test_derive_requires_p_above_one():
    with pytest.raises(ValueError):
        E.derive(E.ProblemParams(3, 0.0, 0.0, 1.0))


def test_beta_fs_frozen_value_and_range():
    # (M/2)(1 - N/sqrt(M^2 + 4(N-1))) at N = 3, a = 0.5
    assert E.beta_fs(3, 0.5) == pytest.approx(0.04721807150127272, rel=1e-14)
    with pytest.raises(E.NotInRange):
        E.beta_fs(3, 0.0)
    with pytest.raises(E.NotInRange):
        E.beta_fs(4, -0.25)
    # threshold is positive and vanishes as a -> 0+
    assert 0 < E.beta_fs(3, 1e-9) < 1e-9
    rng = np.random.default_rng(11)
    for _ in range(30):
        N = int(rng.integers(3, 8))
        a = float(rng.uniform(1e-6, 4.0))
        val = E.beta_fs(N, a)
        assert 0.0 < val < (N - 2 + a) / 2.0


@pytest.mark.parametrize(
    "params, kind, witness",
    [
        ((3, 0.0, -4.0, 2.0), E.INADMISSIBLE_WEIGHTS, "N+b<=0"),
        ((3, 0.0, -2.5, 2.0), E.INADMISSIBLE_WEIGHTS, "b<=a-2"),
        ((3, 0.0, 0.0, 1.0), E.NO_POSITIVE_SOLUTION_SERRIN, "p=1"),
        ((3, 0.0, 0.0, 2.5), E.NO_POSITIVE_SOLUTION_SERRIN, "p<=p_serrin"),
        ((3, 0.0, 0.0, 3.0), E.NO_POSITIVE_SOLUTION_SERRIN, "p<=p_serrin"),
        ((3, 0.0, 0.0, 4.0), E.SUBCRITICAL_LIOUVILLE, "p_serrin<p<p_critical"),
        ((3, 0.0, 0.0, 5.0), E.CRITICAL, "|p-p_critical|<=tol"),
        ((3, 0.0, 0.0, 7.0), E.SUPERCRITICAL, "p>p_critical"),
        ((3, 0.5, 1.0, 13.0 / 3.0), E.CRITICAL, "|p-p_critical|<=tol"),
    ],
)
def test_classify_regime_table(params, kind, witness):
    regime = E.classify(E.ProblemParams(*params))
    assert regime.kind == kind
    assert regime.witness == witness
    assert regime.witness_holds(E.ProblemParams(*params))


def test_classify_rejects_p_below_one():
    with pytest.raises(E.NotInRange, match="need p >= 1"):
        E.classify(E.ProblemParams(3, 0.0, 0.0, 0.5))


def test_classify_critical_tolerance_is_tight():
    pc = 5.0
    assert E.classify(E.ProblemParams(3, 0.0, 0.0, pc + 1e-6)).kind == E.SUPERCRITICAL
    assert E.classify(E.ProblemParams(3, 0.0, 0.0, pc - 1e-6)).kind == E.SUBCRITICAL_LIOUVILLE
    assert E.classify(E.ProblemParams(3, 0.0, 0.0, pc * (1 + 1e-13))).kind == E.CRITICAL


def test_witness_reevaluates_true_on_random_points():
    rng = np.random.default_rng(20260815)
    for _ in range(300):
        N = int(rng.integers(3, 8))
        a = float(rng.uniform(-(N - 2) + 1e-3, 3.0))
        b = float(rng.uniform(a - 3.0, 4.0))
        p = float(rng.uniform(1.0, 14.0))
        params = E.ProblemParams(N, a, b, p)
        assert E.classify(params).witness_holds(params)


def test_balance_residual_examples():
    assert E.balance_residual(3, 0.0, 0.0, 6.0) == 0.0
    assert E.balance_residual(3, 0.0, 1.0, 6.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_balance_holds_exactly_at_the_critical_exponent():
    rng = np.random.default_rng(3)
    for _ in range(60):
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-(N - 2) + 0.1, 2.0))
        b = float(rng.uniform(a - 1.9, 3.0))
        if N + b <= 0:
            continue
        pc = (N + 2 + 2 * b - a) / (N - 2 + a)
        assert abs(E.balance_residual(N, a, b, pc + 1.0)) < 1e-12


@pytest.mark.parametrize(
    "params, region",
    [
        # b above / below q * beta_fs on the balance curve, a > 0
        ((3, 0.5, 1.0, 13.0 / 3.0), E.SYMMETRY_BREAKING),
        ((3, 0.5, 0.1, 2.0 * 3.1 / 1.5 - 1.0), E.RADIAL_MINIMIZER),
        # a <= 0: radial for b < 0, no statement otherwise
        ((3, -0.5, -1.75, 4.0), E.RADIAL_MINIMIZER),
        ((3, 0.0, 0.0, 5.0), E.NOT_APPLICABLE),
    ],
)
def test_fs_region_table(params, region):
    assert E.fs_region(E.ProblemParams(*params)) == region


def test_fs_region_refuses_off_the_balance_curve():
    with pytest.raises(E.BalanceViolated):
        E.fs_region(E.ProblemParams(3, 0.0, 0.0, 4.0))


def test_fs_threshold_consistency_between_derive_and_fs_region():
    # crossing b through (p+1) beta_fs flips the region
    N, a = 3, 0.5
    beta = E.beta_fs(N, a)
    for shift, region in ((0.9, E.RADIAL_MINIMIZER), (1.1, E.SYMMETRY_BREAKING)):
        # solve b = shift * q(b) * beta with q = 2(N+b)/M
        M = N - 2 + a
        # b (1 - 2 shift beta / M) = 2 N shift beta / M
        b = (2 * N * shift * beta / M) / (1.0 - 2.0 * shift * beta / M)
        q = 2.0 * (N + b) / M
        assert math.isclose(E.balance_residual(N, a, b, q), 0.0, abs_tol=1e-12)
        assert E.fs_region(E.ProblemParams(N, a, b, q - 1.0)) == region


# Entry points that check the standing rules, on (N, a, b, p) or on a ckn triple.
_SHORT = E.ShootConfig(r_max=10.0)
ON_PARAMS = {
    "derive": E.derive,
    "series_start": E.series_start,
    "shoot": lambda params: E.shoot(params, _SHORT),
    "bubble": E.bubble,
    "first_zero_law": lambda params: E.first_zero_law(params.N, params.a, params.b),
    "fixed_points": E.fixed_points,
}
ON_TRIPLE = {
    "bubble_energy_closed_form": E.bubble_energy_closed_form,
    "best_constant": E.best_constant,
}
P_RULE = ("derive", "series_start", "shoot", "bubble", "fixed_points")
WEIGHT_RULES = tuple(ON_PARAMS) + tuple(ON_TRIPLE)
# derive checks N - 2 + a > 0, but not b > a - 2 or N + b > 0
ADMISSIBILITY = (
    "series_start", "shoot", "bubble", "first_zero_law", "fixed_points",
    "bubble_energy_closed_form",
)


@pytest.mark.parametrize(
    "params, triple, checked_by, error",
    [
        pytest.param((3, 0.0, 0.0, 1.0), None, P_RULE, E.NotInRange, id="p=1"),
        pytest.param((3, 0.0, 0.0, 0.5), None, P_RULE, E.NotInRange, id="p=0.5"),
        pytest.param(
            (2, 0.0, 0.0, 3.0), (2, 0.0, 0.0, 4.0), WEIGHT_RULES, E.DimensionTooSmall,
            id="N=2",
        ),
        pytest.param(
            (3.5, 0.0, 0.0, 3.0), (3.5, 0.0, 0.0, 4.0), WEIGHT_RULES,
            E.NonIntegerDimension, id="N=3.5",
        ),
        # the triple is balanced and in band, so best_constant reaches the weights
        pytest.param(
            (3, -1.0, 0.0, 3.0), (3, -1.0, -3.0, 4.0), WEIGHT_RULES, E.DegenerateWeight,
            id="N-2+a=0",
        ),
        pytest.param(
            (3, 0.0, -2.0, 3.0), (3, 0.0, -2.0, 2.0), ADMISSIBILITY + ("best_constant",),
            E.InadmissibleWeights, id="b=a-2",
        ),
        # no balanced triple has N + b = 0 and N - 2 + a > 0
        pytest.param(
            (3, 0.0, -3.0, 3.0), (3, 0.0, -3.0, 4.0), ADMISSIBILITY,
            E.InadmissibleWeights, id="N+b=0",
        ),
        pytest.param(
            (3, math.nan, 0.0, 3.0), (3, math.nan, 0.0, 4.0), WEIGHT_RULES,
            E.NonFiniteParameter, id="a=nan",
        ),
    ],
)
def test_one_refusal_per_rule(params, triple, checked_by, error):
    params = E.ProblemParams(*params)
    raised = {}
    for name in checked_by:
        arg = params if name in ON_PARAMS else E.CknTriple(*triple)
        try:
            (ON_PARAMS | ON_TRIPLE)[name](arg)
        except Exception as exc:  # noqa: BLE001 - the class is what is checked
            raised[name] = type(exc).__name__
        else:
            raised[name] = None
    assert raised == {name: error.__name__ for name in checked_by}
    (outcome,) = E.sweep_shoot([params], _SHORT)
    assert isinstance(outcome, E.Inconclusive) and outcome.reason.startswith("rejected:")
    if error in (E.DegenerateWeight, E.InadmissibleWeights):
        # check_balance reports these weights (a_minus_2_gt_minus_N, b_gt_a_minus_2)
        assert isinstance(E.check_balance(E.CknTriple(*triple)), E.BalanceReport)
