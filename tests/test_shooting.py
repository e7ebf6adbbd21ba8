"""Shooting integrator: series start, crossing detection, classification.

The first-crossing radius for the cubic unweighted case is checked against
a self-contained fixed-step RK4 integrator written here, so the production
solver and the oracle share no code beyond the arithmetic of the ODE.
"""

import math
import os

import numpy as np
import pytest

import emdenlab as E

UNWEIGHTED_CUBIC = E.ProblemParams(3, 0.0, 0.0, 3.0)

# frozen output of the RK4 oracle below (h = 5e-4); kept as a regression pin
FIRST_CROSSING_CUBIC = 6.896848619376454


def rk4_first_crossing(N, a, b, p, beta=1.0, eps=1e-3, h=5e-4):
    """Fixed-step RK4 from the two-term series start; secant-free refinement.

    Returns the radius where v first hits zero, located by bisection on a
    single RK4 step from the last positive node.
    """
    sigma = 2.0 + b - a

    def rhs(r, y):
        v, dv = y
        return np.array([dv, -(N - 1 + a) / r * dv - r ** (b - a) * abs(v) ** p])

    def step(r, y, hh):
        k1 = rhs(r, y)
        k2 = rhs(r + hh / 2, y + hh / 2 * k1)
        k3 = rhs(r + hh / 2, y + hh / 2 * k2)
        k4 = rhs(r + hh, y + hh * k3)
        return y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    r = eps
    y = np.array(
        [
            beta - beta**p * eps**sigma / (sigma * (N + b)),
            -(beta**p) * eps ** (sigma - 1.0) / (N + b),
        ]
    )
    for _ in range(10_000_000):
        y_next = step(r, y, h)
        if y_next[0] <= 0.0:
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if step(r, y, mid)[0] > 0.0:
                    lo = mid
                else:
                    hi = mid
            return r + 0.5 * (lo + hi)
        r += h
        y = y_next
    raise AssertionError("oracle never crossed")


def test_series_start_frozen_values_without_shrinking():
    config = E.ShootConfig(rel_tol=1e-3, epsilon0=1e-3)
    eps, v, dv = E.series_start(UNWEIGHTED_CUBIC, config)
    assert eps == 1e-3
    assert v == 1.0 - 1e-6 / 6.0
    assert dv == -1e-3 / 3.0


def test_series_start_shrinks_until_truncation_is_resolved():
    config = E.ShootConfig(rel_tol=1e-10, epsilon0=1e-2)
    eps, _, _ = E.series_start(UNWEIGHTED_CUBIC, config)
    assert eps == pytest.approx(9.765625e-06, rel=1e-15)  # 1e-2 / 2**10
    assert E.series_truncation_estimate(UNWEIGHTED_CUBIC, 1.0, eps) <= 1e-10


def test_series_truncation_estimate_scales_like_sigma_power():
    est1 = E.series_truncation_estimate(UNWEIGHTED_CUBIC, 1.0, 1e-2)
    est2 = E.series_truncation_estimate(UNWEIGHTED_CUBIC, 1.0, 1e-3)
    # dv correction dominates at small eps: scales like eps^sigma
    assert est1 / est2 == pytest.approx(100.0, rel=1e-6)


def test_first_crossing_matches_independent_rk4_oracle():
    oracle = rk4_first_crossing(3, 0.0, 0.0, 3.0)
    assert oracle == pytest.approx(FIRST_CROSSING_CUBIC, abs=1e-7)
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    assert isinstance(traj.outcome, E.CrossedZero)
    assert traj.outcome.r0 == pytest.approx(oracle, abs=1e-6)


def test_crossing_radius_scales_with_shooting_height():
    # for p = 3, sigma = 2: v_beta(r) = beta v_1(beta r)
    base = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    tall = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(beta=2.0, r_max=10.0))
    assert tall.outcome.r0 == pytest.approx(base.outcome.r0 / 2.0, rel=1e-7)
    mid_r = 0.4 * base.outcome.r0
    v1, _ = base.eval(mid_r)
    v2, _ = tall.eval(mid_r / 2.0)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-7)


def test_flux_identity_ties_derivative_to_source_integral():
    # r^(N-1+a) dv(R) = -integral_0^R s^(N-1+b) v^p ds for every R
    params = E.ProblemParams(3, 0.0, 1.0, 4.0)
    traj = E.shoot(params, E.ShootConfig(r_max=100.0))
    assert isinstance(traj.outcome, E.CrossedZero)
    for frac in (0.3, 0.5, 0.8):
        R = frac * traj.outcome.r0
        _, dv = traj.eval(R)
        lhs = R ** (params.N - 1 + params.a) * dv
        rhs = -E.weighted_node_integral(traj, params.N - 1 + params.b, params.p, R)
        assert lhs == pytest.approx(rhs, rel=2e-8)


def test_critical_shot_reproduces_the_explicit_bubble():
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)
    traj = E.shoot(params, E.ShootConfig(r_max=50.0))
    r = np.linspace(0.05, 10.0, 117)
    v, _ = traj.eval(r)
    expected = (1.0 + r**2 / 3.0) ** -0.5
    assert np.max(np.abs(v - expected) / expected) < 1e-8
    assert isinstance(traj.outcome, E.PositiveGlobal)

    # far-field slope approaches the tail power M = 1 only once the fit
    # window is deep in the tail
    far = E.shoot(params, E.ShootConfig(r_max=1e4))
    assert far.outcome.decay_exponent_estimate == pytest.approx(1.0, abs=1e-3)


def test_supercritical_shot_converges_to_singular_profile():
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 12.0), E.ShootConfig(r_max=1e4))
    assert isinstance(traj.outcome, E.ConvergedToSingular)
    assert traj.outcome.oscillation_count >= 1


def test_slightly_supercritical_shot_stays_positive():
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 6.0), E.ShootConfig(r_max=1e4))
    assert not isinstance(traj.outcome, (E.CrossedZero, E.Inconclusive))


def test_short_horizon_is_reported_not_guessed():
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 5.0), E.ShootConfig(r_max=2.0))
    assert isinstance(traj.outcome, E.Inconclusive)
    assert "horizon" in traj.outcome.reason


def test_classification_of_synthetic_trajectories():
    params_sub = E.ProblemParams(3, 0.0, 0.0, 4.0)

    # pure power decay, too shallow for the singular profile
    r = np.geomspace(1e-2, 1e3, 400)
    v = 0.7 * r**-1.3
    dv = -1.3 * 0.7 * r**-2.3
    out = E.classify_trajectory(E.RadialTrajectory(params_sub, r, v, dv))
    assert isinstance(out, E.PositiveGlobal)
    assert out.decay_exponent_estimate == pytest.approx(1.3, abs=1e-10)

    # a profile pinned just off the cylinder fixed point: converged, and
    # the constant sign offset means zero oscillations
    params_super = E.ProblemParams(3, 0.0, 0.0, 7.0)
    prof = E.singular_solution(params_super)
    r = np.geomspace(0.1, 100.0, 300)
    v, dv = E.singular_eval(prof, r)
    out = E.classify_trajectory(
        E.RadialTrajectory(params_super, r, 1.000001 * v, 1.000001 * dv)
    )
    assert isinstance(out, E.ConvergedToSingular)
    assert out.oscillation_count == 0

    # a linear profile crossing zero: root refined on the node spline
    r = np.geomspace(0.1, 6.0, 400)
    v = 1.0 - r / 5.0
    dv = np.full_like(r, -0.2)
    out = E.classify_trajectory(E.RadialTrajectory(params_sub, r, v, dv))
    assert isinstance(out, E.CrossedZero)
    assert out.r0 == pytest.approx(5.0, rel=1e-6)

    # an exact terminal zero is taken verbatim
    r = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([0.9, 0.5, 0.2, 0.0])
    dv = np.array([-0.3, -0.3, -0.3, -0.3])
    out = E.classify_trajectory(E.RadialTrajectory(params_sub, r, v, dv))
    assert isinstance(out, E.CrossedZero)
    assert out.r0 == 4.0


def test_threshold_bisect_brackets_the_dividing_exponent():
    config = E.ShootConfig(beta=100.0, r_max=300.0)
    p_star = E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, tol_p=0.05, config=config)
    assert abs(p_star - 5.0) <= 0.05


def test_threshold_bisect_rejects_bad_brackets():
    config = E.ShootConfig(beta=100.0, r_max=300.0)
    with pytest.raises(E.BracketInvalid):
        E.threshold_bisect(3, 0.0, 0.0, 5.5, 4.5, tol_p=0.05, config=config)
    with pytest.raises(E.BracketInvalid):
        E.threshold_bisect(3, 0.0, 0.0, 0.5, 5.5, tol_p=0.05, config=config)
    with pytest.raises(E.BracketInvalid):
        # lower end does not cross
        E.threshold_bisect(3, 0.0, 0.0, 5.5, 6.5, tol_p=0.05, config=config)
    with pytest.raises(E.BracketInvalid):
        # upper end still crosses
        E.threshold_bisect(3, 0.0, 0.0, 3.0, 4.5, tol_p=0.05, config=config)


def serial_threshold(N, a, b, p_lo, p_hi, tol_p, config):
    """Reference bisection: one shoot per probe, each waiting on the last."""

    def crosses(p):
        outcome = E.shoot(E.ProblemParams(N, a, b, p), config).outcome
        return isinstance(outcome, E.CrossedZero)

    assert crosses(p_lo) and not crosses(p_hi)
    while p_hi - p_lo > tol_p:
        mid = 0.5 * (p_lo + p_hi)
        if crosses(mid):
            p_lo = mid
        else:
            p_hi = mid
    return 0.5 * (p_lo + p_hi)


@pytest.mark.parametrize(
    "N, a, b, p_lo, p_hi",
    [(3, 0.0, 0.0, 4.5, 5.5), (3, 0.0, 0.0, 4.0, 6.0), (4, 0.0, 0.0, 2.0, 4.0),
     (3, 0.0, 1.0, 6.0, 8.0)],
)
def test_threshold_bisect_matches_serial_bisection_bit_for_bit(N, a, b, p_lo, p_hi):
    config = E.ShootConfig(beta=100.0, r_max=300.0)
    got = E.threshold_bisect(N, a, b, p_lo, p_hi, tol_p=1e-2, config=config)
    assert got == serial_threshold(N, a, b, p_lo, p_hi, 1e-2, config)


@pytest.mark.parametrize(
    "N, a, b, error",
    [
        (2, 0.0, 0.0, E.DimensionTooSmall),
        (3.5, 0.0, 0.0, E.NonIntegerDimension),
        (3, -1.0, 0.0, E.DegenerateWeight),
        (3, 0.0, -2.5, E.InadmissibleWeights),  # b <= a - 2
        (3, 0.0, -4.0, E.InadmissibleWeights),  # N + b <= 0
        (3, math.nan, 0.0, E.NonFiniteParameter),
    ],
)
def test_threshold_bisect_refuses_bad_weights_like_a_shot(N, a, b, error):
    config = E.ShootConfig(beta=100.0, r_max=300.0)
    with pytest.raises(error):
        E.shoot(E.ProblemParams(N, a, b, 4.5), config)
    with pytest.raises(error):
        E.threshold_bisect(N, a, b, 4.5, 5.5, tol_p=0.05, config=config)


@pytest.mark.parametrize(
    "p_lo, p_hi", [(math.nan, 5.5), (4.5, math.inf), (4.5, math.nan)]
)
def test_threshold_bisect_refuses_non_finite_brackets(p_lo, p_hi):
    with pytest.raises(E.BracketInvalid):
        E.threshold_bisect(3, 0.0, 0.0, p_lo, p_hi, tol_p=0.05)


def _fake_sweep(crosses, calls):
    def sweep_shoot(rows, config):
        calls.append([row.p for row in rows])
        return [
            E.CrossedZero(1.0) if crosses(row.p) else E.Inconclusive("stub")
            for row in rows
        ]

    return sweep_shoot


def test_threshold_bisect_shoots_four_levels_per_batch(monkeypatch, caplog):
    # Inconclusive counts as not crossing; every probe is logged once.
    from emdenlab import shooting

    calls = []
    monkeypatch.setattr(shooting, "sweep_shoot", _fake_sweep(lambda p: p < 5.0, calls))
    with caplog.at_level("INFO", logger="emdenlab.shooting"):
        p_star = E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, tol_p=0.05)
    # serial bisection: 5.0 fails, then 4.75, 4.875, 4.9375 and 4.96875 cross
    assert p_star == 0.5 * (4.96875 + 5.0)
    # width 1 to 0.05 takes 5 halvings: 2 ends + 15 midpoints, then 1
    assert [len(batch) for batch in calls] == [17, 1]
    assert calls[0][:3] == [4.5, 5.5, 5.0]
    probes = [r for r in caplog.records if r.msg.startswith("threshold probe")]
    assert len(probes) == 18


def test_threshold_bisect_refuses_a_crossing_above_a_non_crossing(monkeypatch):
    from emdenlab import shooting

    calls = []
    crosses = lambda p: p < 4.8 or 5.2 < p < 5.3  # noqa: E731
    monkeypatch.setattr(shooting, "sweep_shoot", _fake_sweep(crosses, calls))
    with pytest.raises(E.NonMonotoneThreshold, match=r"5\.25.*4\.8125") as info:
        E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, tol_p=0.05)
    assert isinstance(info.value, E.BracketInvalid)
    assert len(calls) == 1


def test_sweep_preserves_order_and_isolates_bad_rows():
    rows = [
        E.ProblemParams(3, 0.0, 0.0, 3.0),
        E.ProblemParams(2, 0.0, 0.0, 3.0),  # rejected: dimension too small
        E.ProblemParams(3, 0.0, 0.0, 5.0),
    ]
    outcomes = E.sweep_shoot(rows, E.ShootConfig(r_max=100.0), processes=2)
    assert len(outcomes) == 3
    assert isinstance(outcomes[0], E.CrossedZero)
    assert isinstance(outcomes[1], E.Inconclusive)
    assert outcomes[1].reason.startswith("rejected:")
    assert isinstance(outcomes[2], E.PositiveGlobal)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_series_start_refuses_a_non_finite_power(p):
    with pytest.raises(E.NonFiniteParameter):
        E.series_start(E.ProblemParams(3, 0.0, 0.0, p))


def test_lockstep_lane_with_a_nan_state_fails_instead_of_spinning(monkeypatch):
    from emdenlab import shooting

    series_start = shooting.series_start

    def nan_start(params, config):
        eps, v, dv = series_start(params, config)
        return (eps, math.nan, math.nan) if params.p == 5.0 else (eps, v, dv)

    monkeypatch.setattr(shooting, "series_start", nan_start)
    rows = [E.ProblemParams(3, 0.0, 0.0, 5.0), UNWEIGHTED_CUBIC]
    stuck, crossed = E.sweep_shoot(rows, E.ShootConfig(r_max=100.0))
    assert isinstance(stuck, E.Inconclusive)
    assert stuck.reason.startswith("integrator stopped at r = ")
    assert isinstance(crossed, E.CrossedZero)


def test_batched_sweep_matches_single_shots():
    # the criterion-5 grid plus the cubic row, each row also shot alone
    rows = []
    for N, a, b in [(3, 0.0, 0.0), (3, 0.0, 1.0), (3, 0.5, 1.0),
                    (4, 0.0, 0.0), (4, -0.5, 0.0), (5, 1.0, 2.0)]:
        d = E.derive(E.ProblemParams(N, a, b, 2.0))
        for p in np.linspace(d.p_serrin, d.p_critical + 1.0, 22)[1:-1]:
            rows.append(E.ProblemParams(N, a, b, float(p)))
    rows.append(UNWEIGHTED_CUBIC)
    config = E.ShootConfig(beta=100.0, r_max=1e4)
    atol = config.abs_tol * config.beta

    batched = E.sweep_shoot(rows, config)
    assert len(batched) == len(rows)
    for params, got in zip(rows, batched):
        ref_traj = E.shoot(params, config)
        ref = ref_traj.outcome
        assert got.kind == ref.kind, params
        if isinstance(ref, E.CrossedZero):
            assert got.r0 == pytest.approx(ref.r0, rel=1e-8, abs=0)
        if isinstance(ref, (E.PositiveGlobal, E.ConvergedToSingular)):
            assert got.r_reached == pytest.approx(ref.r_reached, rel=1e-8, abs=0)
        if isinstance(ref, E.PositiveGlobal):
            # The integrator holds v only to atol, so the slope of log v
            # over the one-decade fit window is known to about atol/v there;
            # at p = p_c the far field is that small and both paths read
            # round-off.
            window = ref_traj.r >= ref_traj.r[-1] / 10.0
            d_ref = ref.decay_exponent_estimate
            tol = 1e-8 * abs(d_ref) + atol / ref_traj.v[window].min()
            assert abs(got.decay_exponent_estimate - d_ref) <= tol
        if isinstance(ref, E.ConvergedToSingular):
            assert got.oscillation_count == ref.oscillation_count


def test_batched_step_failure_reads_like_a_single_shot(monkeypatch):
    # A field that turns to NaN from r = 2 on makes DOP853 reject and shrink
    # its step below the spacing of floats just short of r = 2, on both paths.
    from emdenlab import shooting

    make_rhs, lane_rhs = shooting._make_rhs, shooting._lane_rhs

    def nan_make_rhs(params):
        rhs = make_rhs(params)
        return lambda r, y: rhs(r, y) if r < 2.0 else (math.nan, math.nan)

    def nan_lane_rhs(r, y, prm, out):
        lane_rhs(r, y, prm, out)
        out[r >= 2.0] = math.nan

    monkeypatch.setattr(shooting, "_make_rhs", nan_make_rhs)
    monkeypatch.setattr(shooting, "_lane_rhs", nan_lane_rhs)
    config = E.ShootConfig(r_max=100.0)
    ref = E.shoot(UNWEIGHTED_CUBIC, config).outcome
    bad_row = E.ProblemParams(2, 0.0, 0.0, 3.0)
    got, rejected = E.sweep_shoot([UNWEIGHTED_CUBIC, bad_row], config)

    def split(reason):
        where, message = reason.split(": ", 1)
        return float(where.removeprefix("integrator stopped at r = ")), message

    assert isinstance(ref, E.Inconclusive) and isinstance(got, E.Inconclusive)
    r_ref, message = split(ref.reason)
    r_got, got_message = split(got.reason)
    assert got_message == message
    assert message == "Required step size is less than spacing between numbers."
    assert r_got == pytest.approx(r_ref, rel=1e-12) and r_got < 2.0
    assert rejected.reason.startswith("rejected:")


def test_csv_round_trip_is_exact(tmp_path):
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    path = tmp_path / "traj.csv"
    E.trajectory_to_csv(traj, path)
    back = E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)
    assert np.array_equal(back.r, traj.r)
    assert np.array_equal(back.v, traj.v)
    assert np.array_equal(back.dv, traj.dv)
    assert isinstance(back.outcome, E.CrossedZero)
    assert back.outcome.r0 == traj.outcome.r0
    path2 = tmp_path / "traj2.csv"
    E.trajectory_to_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1.0,1.0,0.0\n2.0,0.5,-0.1\n")
    with pytest.raises(ValueError):
        E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)
    path.write_text("r,v,dv\n1.0,1.0,0.0\n")
    with pytest.raises(ValueError):
        E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)


def test_config_validation():
    with pytest.raises(ValueError):
        E.ShootConfig(beta=0.0)
    with pytest.raises(ValueError):
        E.ShootConfig(r_max=0.5)
    with pytest.raises(ValueError):
        E.ShootConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        E.ShootConfig(rel_tol=1e-2)
    with pytest.raises(ValueError):
        E.ShootConfig(epsilon0=2.0)
    with pytest.raises(ValueError):
        E.ShootConfig(nodes_per_decade=2)


def test_shoot_rejects_inadmissible_weights():
    with pytest.raises(E.EmdenLabError):
        E.shoot(E.ProblemParams(3, 0.0, -2.5, 3.0))
    with pytest.raises(E.EmdenLabError):
        E.shoot(E.ProblemParams(3, 0.0, -4.0, 3.0))


def test_eval_range_and_series_fallback(tmp_path):
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    with pytest.raises(E.RangeExceeded):
        traj.eval(traj.r[-1] * 2.0)
    with pytest.raises(E.RangeExceeded):
        traj.eval(-1.0)
    # below the first node the series start takes over smoothly
    r_small = traj.r[0] / 2.0
    v, dv = traj.eval(r_small)
    assert v == pytest.approx(1.0, abs=1e-7)
    assert dv == pytest.approx(-r_small / 3.0, rel=1e-6)
    # a CSV-loaded trajectory has no config, so no series fallback
    path = tmp_path / "t.csv"
    E.trajectory_to_csv(traj, path)
    back = E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)
    with pytest.raises(E.RangeExceeded):
        back.eval(r_small)


def test_outcome_serialization_shapes():
    assert E.CrossedZero(2.5).to_dict() == {"kind": "crossed_zero", "r0": 2.5}
    assert E.Inconclusive("x").to_dict() == {"kind": "inconclusive", "reason": "x"}
    d = E.PositiveGlobal(10.0, 1.0).to_dict()
    assert d["kind"] == "positive_global"
    d = E.ConvergedToSingular(10.0, 3).to_dict()
    assert d["kind"] == "converged_to_singular" and d["oscillation_count"] == 3
