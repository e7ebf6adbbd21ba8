"""Shooting integrator: series start, crossing detection, classification.

The first-crossing radius for the cubic unweighted case is checked against
a self-contained fixed-step RK4 integrator written here, so the production
solver and the oracle share no code beyond the arithmetic of the ODE.
"""

import csv
import io
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emdenlab as E
from emdenlab import _dop853

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


def test_series_start_frozen_cylinder_values():
    # the cubic has sigma = 2, gamma = 1 and N + b = 3; rel_tol = 1e-6 puts
    # the start at z0 = 1e-4, r_s = sqrt(6e-4), on v = 1 - z
    t0, w, dw = E.series_start(UNWEIGHTED_CUBIC, E.ShootConfig(rel_tol=1e-6))
    r_s = 6e-4**0.5
    assert t0 == pytest.approx(math.log(r_s), rel=1e-15)
    assert w == pytest.approx(r_s * (1.0 - 1e-4), rel=1e-15)
    # w' = r^gamma (gamma v + r v') = r_s (1 - z0 - 2 z0)
    assert dw == pytest.approx(r_s * (1.0 - 3e-4), rel=1e-15)
    # the height only shifts the start in time, by log(beta)/gamma
    t4, w4, dw4 = E.series_start(UNWEIGHTED_CUBIC, E.ShootConfig(rel_tol=1e-6, beta=4.0))
    assert (w4, dw4) == (w, dw)
    assert t4 == pytest.approx(t0 - math.log(4.0), rel=1e-15)


@pytest.mark.parametrize(
    "params",
    [UNWEIGHTED_CUBIC, E.ProblemParams(3, 0.0, 0.0, 30.0), E.ProblemParams(3, 0.0, -1.9, 1.15),
     E.ProblemParams(5, 1.0, 2.0, 1.5)],
)
@pytest.mark.parametrize("rel_tol", [1e-12, 1e-6])
def test_series_start_drops_a_term_below_rel_tol(params, rel_tol):
    # the next series term, v = 1 - z + c z^2 with c = p(N+b)/(2(N+b+sigma)),
    # against the start's (w, w') in the max-norm the integrator uses
    N, b, p = params.N, params.b, params.p
    d = E.derive(params)
    t0, w, dw = E.series_start(params, E.ShootConfig(rel_tol=rel_tol))
    z0 = 0.1 * rel_tol**0.5
    c = p * (N + b) / (2.0 * (N + b + d.sigma))
    rg = math.exp(d.gamma * t0)
    dropped = rg * c * z0**2 * max(1.0, d.gamma + 2.0 * d.sigma)
    assert dropped <= rel_tol * max(abs(w), abs(dw))
    assert math.exp(t0) ** d.sigma / (d.sigma * (N + b)) == pytest.approx(z0, rel=1e-12)


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

    # a last node just below zero: the spline meets it only to round-off
    # (it reads +5.6e-17 there), so the root is bracketed by the node values
    r = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, 1.0, -1.1276520631335964e-308])
    out = E.classify_trajectory(E.RadialTrajectory(params_sub, r, v, np.zeros(3)))
    assert isinstance(out, E.CrossedZero)
    assert out.r0 == pytest.approx(3.0, rel=1e-15)


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


def _serial_walk(lo, hi, tol_p, crosses):
    """The midpoints a serial bisection of (lo, hi) probes, in order, and its answer."""
    walk = []
    while hi - lo > tol_p and lo < (mid := 0.5 * (lo + hi)) < hi:
        walk.append(mid)
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    return walk, 0.5 * (lo + hi)


def serial_threshold(N, a, b, p_lo, p_hi, tol_p, config):
    """Reference bisection: one shot per probe, each waiting on the last."""

    def crosses(p):
        return isinstance(E.shoot(E.ProblemParams(N, a, b, p), config).outcome, E.CrossedZero)

    assert crosses(p_lo) and not crosses(p_hi)
    return _serial_walk(p_lo, p_hi, tol_p, crosses)[1]


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


def _stub_shots(mp, crosses):
    """Stub the threshold probe (shot_crosses) to decide crosses(p); the p of each probe, in order."""
    from emdenlab import shooting

    shots = []

    def shot_crosses(params, config):
        shots.append(params.p)
        return crosses(params.p)

    mp.setattr(shooting, "shot_crosses", shot_crosses)
    return shots


def test_threshold_bisect_shoots_the_ends_and_the_predicted_path_in_one_batch(
    monkeypatch, caplog
):
    # every probe is one shot_crosses, logged once
    shots = _stub_shots(monkeypatch, lambda p: p < 5.0)
    with caplog.at_level("INFO", logger="emdenlab.shooting"):
        p_star = E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, tol_p=0.05)
    # serial bisection: 5.0 fails, then 4.75, 4.875, 4.9375 and 4.96875 cross
    assert p_star == 0.5 * (4.96875 + 5.0)
    # width 1 to 0.05 takes 5 halvings: the 2 ends, then 5 midpoints, and
    # no other shot
    assert shots == [4.5, 5.5, 5.0, 4.75, 4.875, 4.9375, 4.96875]
    probes = [r for r in caplog.records if r.msg.startswith("threshold probe")]
    assert len(probes) == 7


def _counting(shots):
    """shooting.shot_crosses, recording the p of every probe."""
    from emdenlab import shooting

    real = shooting.shot_crosses

    def counted(params, config):
        shots.append(params.p)
        return real(params, config)

    return counted


def test_threshold_bisect_walks_the_predicted_path_in_one_round(monkeypatch):
    # README bracket at the default config: beta = 1, r_max = 1e4, where
    # p_h sits 1.8e-3 below p_c
    from emdenlab import shooting

    config = E.ShootConfig()
    shots = []
    monkeypatch.setattr(shooting, "shot_crosses", _counting(shots))
    p_star = E.threshold_bisect(3, 0.0, 0.0, 4.0, 6.0, tol_p=1e-5, config=config)
    walk, answer = _serial_walk(4.0, 6.0, 1e-5, lambda p: p < p_star)
    assert answer == p_star and len(walk) == 18
    assert shots == [4.0, 6.0, *walk]  # 2 ends + 18 midpoints
    monkeypatch.undo()
    assert p_star == serial_threshold(3, 0.0, 0.0, 4.0, 6.0, 1e-5, config)


def test_threshold_bisect_probes_the_ends_and_one_midpoint_per_level(monkeypatch):
    # a short horizon far below p_c (the first-zero law puts its threshold
    # at 3.236, p_star is 3.5623): the 2 ends, then one midpoint per level
    from emdenlab import shooting

    config = E.ShootConfig(beta=1.0, r_max=10.0)
    shots = []
    monkeypatch.setattr(shooting, "shot_crosses", _counting(shots))
    p_star = E.threshold_bisect(3, 0.0, 0.0, 2.0, 6.0, tol_p=1e-4, config=config)
    assert p_star.hex() == "0x1.c7fb000000000p+1"
    walk, answer = _serial_walk(2.0, 6.0, 1e-4, lambda p: p < p_star)
    assert answer == p_star and len(walk) == 16
    assert shots == [2.0, 6.0, *walk]


def test_threshold_bisect_names_a_refused_start_at_p_lo():
    # beta = 1e-100 puts the start beyond r_max: the shooter's refusal,
    # not a BracketInvalid that blames the bracket
    config = E.ShootConfig(beta=1e-100)
    with pytest.raises(E.NotInRange, match="at or beyond r_max") as shot:
        E.shoot(E.ProblemParams(3, 0.0, 0.0, 4.5), config)
    with pytest.raises(E.NotInRange) as bisect:
        E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, config=config)
    assert str(bisect.value) == str(shot.value)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    theta=st.floats(4.5, 9.0),
    below=st.floats(1e-9, 3.0),
    above=st.floats(0.0, 3.0),
    tol_p=st.sampled_from([1.0, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-20]),
)
def test_threshold_bisect_is_the_serial_walk_whatever_the_prediction(
    theta, below, above, tol_p
):
    p_lo, p_hi = theta - below, theta + above
    walk, answer = _serial_walk(p_lo, p_hi, tol_p, lambda p: p < theta)
    with pytest.MonkeyPatch.context() as mp:
        shots = _stub_shots(mp, lambda p: p < theta)
        got = E.threshold_bisect(3, 0.0, 0.0, p_lo, p_hi, tol_p=tol_p)
    assert got == answer
    assert shots == [p_lo, p_hi, *walk]


def test_threshold_bisect_stops_at_the_float_spacing_of_the_bracket(monkeypatch):
    # Below the spacing of floats the midpoint rounds onto an end, and the
    # bracket stops shrinking; the walk must end there instead of spinning.
    shots = _stub_shots(monkeypatch, lambda p: p < 5.0)

    def spinning(signum, frame):
        raise TimeoutError("threshold_bisect did not return")

    previous = signal.signal(signal.SIGALRM, spinning)
    signal.alarm(10)
    try:
        p_star = E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, tol_p=1e-20)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert p_star in (np.nextafter(5.0, 0.0), 5.0)
    # no probe is a midpoint that rounded onto an end of its bracket
    assert shots[:2] == [4.5, 5.5]
    assert len(set(shots)) == len(shots)


def test_a_stopped_probe_and_a_refused_one_do_not_cross(monkeypatch):
    from emdenlab import shooting

    config = E.ShootConfig(r_max=100.0)
    assert E.shot_crosses(UNWEIGHTED_CUBIC, config)  # crosses near r = 6.9
    # refused starts and parameters read False, as shoot raises on them
    for params, refused in [
        (E.ProblemParams(2, 0.0, 0.0, 3.0), config),  # dimension too small
        (E.ProblemParams(3, 0.0, 0.0, math.nan), config),
        (UNWEIGHTED_CUBIC, E.ShootConfig(beta=1e-100)),  # starts beyond r_max
    ]:
        with pytest.raises(E.EmdenLabError):
            E.shoot(params, refused)
        assert E.shot_crosses(params, refused) is False
    # a field that turns NaN from r = 2 on stops the run short of the crossing
    monkeypatch.setattr(shooting, "_CYLINDER", _nan_cylinder(f"x >= {math.log(2.0)!r}"))
    assert isinstance(E.shoot(UNWEIGHTED_CUBIC, config).outcome, E.Inconclusive)
    assert E.shot_crosses(UNWEIGHTED_CUBIC, config) is False
    # and one stopped before its first step
    nan_at_start(monkeypatch)
    assert E.shot_crosses(UNWEIGHTED_CUBIC, config) is False


def test_a_probe_reads_the_crossing_of_a_run_whose_nodes_shoot_refuses():
    # at beta = 1e-310 every v = r^-gamma w is subnormal: shoot refuses the
    # nodes, while the run in (t, w, w') crosses like any other
    from emdenlab import shooting

    params = E.ProblemParams(3, 0.0, 0.0, 1.5)
    config = E.ShootConfig(beta=1e-310, r_max=1e300)
    with pytest.raises(E.NotInRange, match="leaves float range"):
        E.shoot(params, config)
    start = E.series_start(params, config)
    _, _, crossed, stopped = _dop853.scalar_run(
        shooting._CYLINDER, shooting._lane_params(params), start, math.log(config.r_max),
        config.rel_tol,
    )
    assert crossed and not stopped
    assert E.shot_crosses(params, config) is True


def test_a_bisection_builds_no_step_table_and_no_trajectory(monkeypatch):
    from emdenlab import shooting

    config = E.ShootConfig(beta=100.0, r_max=1e3)
    expected = E.threshold_bisect(3, 0.0, 1.0, 6.0, 8.0, tol_p=1e-3, config=config)

    def refuse(*args, **kwargs):
        raise AssertionError("a threshold probe built a step-table row or a trajectory")

    monkeypatch.setattr(shooting._CYLINDER, "row", refuse)
    monkeypatch.setattr(shooting, "_finish", refuse)
    monkeypatch.setattr(shooting, "RadialTrajectory", refuse)
    p_star = E.threshold_bisect(3, 0.0, 1.0, 6.0, 8.0, tol_p=1e-3, config=config)
    assert float.hex(p_star) == float.hex(expected)
    with pytest.raises(AssertionError, match="step-table row"):
        E.shoot(UNWEIGHTED_CUBIC, config)


@pytest.mark.parametrize(
    "name",
    ["beta", "r_max", "rel_tol", "nodes_per_decade", "delta_fp", "min_fit_radius"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_a_non_finite_height_or_horizon(name, value):
    with pytest.raises(E.NonFiniteParameter):
        E.ShootConfig(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("beta", 0.0), ("beta", -1.0), ("r_max", 0.5), ("rel_tol", 0.0), ("rel_tol", 1e-2),
     ("rel_tol", 1e-15), ("nodes_per_decade", 2), ("nodes_per_decade", 10.5)],
)
def test_config_names_a_value_out_of_range(name, value):
    with pytest.raises(E.NotInRange, match=name):
        E.ShootConfig(**{name: value})


@pytest.mark.parametrize("tol_p", [0.0, -1e-3])
def test_threshold_bisect_names_a_nonpositive_tolerance(tol_p):
    with pytest.raises(E.NotInRange, match="tol_p"):
        E.threshold_bisect(3, 0.0, 0.0, 4.5, 5.5, tol_p=tol_p)


def test_sweep_preserves_order_and_isolates_bad_rows():
    rows = [
        E.ProblemParams(3, 0.0, 0.0, 3.0),
        E.ProblemParams(2, 0.0, 0.0, 3.0),  # rejected: dimension too small
        E.ProblemParams(3, 0.0, 0.0, 5.0),
        E.ProblemParams(3, 0.0, 0.0, 1.0),  # rejected: p <= 1
    ]
    outcomes = E.sweep_shoot(rows, E.ShootConfig(r_max=100.0), processes=2)
    assert len(outcomes) == 4
    assert isinstance(outcomes[0], E.CrossedZero)
    assert isinstance(outcomes[1], E.Inconclusive)
    assert outcomes[1].reason.startswith("rejected:")
    assert isinstance(outcomes[2], E.PositiveGlobal)
    assert isinstance(outcomes[3], E.Inconclusive)
    assert outcomes[3].reason.startswith("rejected:")


# A height is a shift in time: p = 30 at beta = 1e7 starts at t = -241,
# and the cubic crosses at r0 / beta.
HUGE_BETA = E.ShootConfig(beta=1e7, r_max=1.0)
STEEP = E.ProblemParams(3, 0.0, 0.0, 30.0)


def test_a_huge_height_is_a_shift_in_time_and_does_not_stall(monkeypatch):
    # a componentwise relative norm stalled here once w' -> 0 at the fixed
    # point: 2e6 field calls and still at t = -199 of [-241, 0]
    runs = _captured_runs(monkeypatch)
    traj = E.shoot(STEEP, HUGE_BETA)
    [(steps, t_end, crossed, stopped)] = runs
    assert len(steps) < 1000 and t_end == 0.0 and not (crossed or stopped)
    assert traj.outcome == E.Inconclusive("horizon too small for a decay fit")
    far = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(beta=1e100))
    assert far.outcome.r0 == pytest.approx(FIRST_CROSSING_CUBIC / 1e100, rel=1e-9)


def test_a_supercritical_shot_reaches_a_horizon_of_1e300(monkeypatch):
    # in r the run read a NaN dense output near r = 1e97 and raised RootNotFound
    runs = _captured_runs(monkeypatch)
    params = E.ProblemParams(3, 0.0, 0.0, 12.0)
    traj = E.shoot(params, E.ShootConfig(r_max=1e300))
    assert len(runs[0][0]) < 1000
    assert traj.outcome.r_reached == 1e300 == traj.r[-1]
    # the orbit sits on the fixed point: r^gamma v is the singular amplitude
    d = E.derive(params)
    w_star = d.lambda2 ** (1.0 / (params.p - 1.0))
    assert traj.r[-1] ** d.gamma * traj.v[-1] == pytest.approx(w_star, rel=1e-9)


def test_a_node_value_that_underflows_is_named_not_read_as_a_crossing():
    # the critical (5, 1, 2) shot decays like r^-4: far out v leaves float
    # range where w = r^gamma v does not, and a zero v would read as a crossing
    row = E.ProblemParams(5, 1.0, 2.0, 2.5)
    config = E.ShootConfig(r_max=1e300)
    with pytest.raises(E.NotInRange, match="leaves float range"):
        E.shoot(row, config)
    lane, cubic = E.sweep_shoot([row, UNWEIGHTED_CUBIC], config)
    assert lane.reason.startswith("rejected: the node at r = exp(")
    assert isinstance(cubic, E.CrossedZero)


def test_series_start_names_a_start_outside_float_range():
    with pytest.raises(E.NotInRange, match="at or beyond r_max = 10000.0"):
        E.series_start(UNWEIGHTED_CUBIC, E.ShootConfig(beta=1e-100))
    # sigma = 0.01 puts the beta = 1 start near r = 1e-900
    with pytest.raises(E.NotInRange, match="below the smallest normal float"):
        E.series_start(E.ProblemParams(3, 0.0, -1.99, 1.005))
    # r_s^gamma = (z0 sigma (N+b))^(1/(p-1)) underflows as p -> 1
    with pytest.raises(E.NotInRange, match="underflows"):
        E.series_start(E.ProblemParams(3, 0.0, 0.0, 1.001))


def test_sweep_shoots_every_row_at_a_huge_height():
    rows = [UNWEIGHTED_CUBIC, STEEP, UNWEIGHTED_CUBIC]
    crossed, steep, again = E.sweep_shoot(rows, HUGE_BETA)
    assert steep == E.shoot(STEEP, HUGE_BETA).outcome
    assert crossed == again == E.sweep_shoot([UNWEIGHTED_CUBIC], HUGE_BETA)[0]
    assert crossed.r0 == pytest.approx(FIRST_CROSSING_CUBIC / 1e7, rel=1e-6)


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


def _criterion5_rows():
    rows = []
    for N, a, b in [(3, 0.0, 0.0), (3, 0.0, 1.0), (3, 0.5, 1.0),
                    (4, 0.0, 0.0), (4, -0.5, 0.0), (5, 1.0, 2.0)]:
        d = E.derive(E.ProblemParams(N, a, b, 2.0))
        for p in np.linspace(d.p_serrin, d.p_critical + 1.0, 22)[1:-1]:
            rows.append(E.ProblemParams(N, a, b, float(p)))
    return rows


def test_a_tiny_hold_and_table_change_no_outcome(monkeypatch):
    # With a tiny hold, flushes fall between a lane's steps and the step
    # table is built from many blocks; a NaN-state lane stops among the others.
    from emdenlab import shooting

    series_start = shooting.series_start
    nan_row = E.ProblemParams(6, 0.0, 0.0, 2.0)

    def nan_start(params, config):
        eps, v, dv = series_start(params, config)
        return (eps, math.nan, math.nan) if params == nan_row else (eps, v, dv)

    monkeypatch.setattr(shooting, "series_start", nan_start)
    rows = _criterion5_rows()
    rows.insert(50, nan_row)
    config = E.ShootConfig(beta=100.0, r_max=1e4)
    ref = E.sweep_shoot(rows, config)
    monkeypatch.setattr(_dop853, "_PENDING_ROWS", 1)
    monkeypatch.setattr(_dop853, "_PENDING_ITERATIONS", 1)
    got = E.sweep_shoot(rows, config)
    assert ref[50].reason.startswith("integrator stopped at r = ")
    assert {o.kind for o in ref} == {"crossed_zero", "positive_global",
                                     "converged_to_singular", "inconclusive"}
    assert [o.to_dict() for o in got] == [o.to_dict() for o in ref]


def test_batched_sweep_matches_single_shots():
    # the criterion-5 grid plus the cubic row, each row also shot alone
    rows = _criterion5_rows() + [UNWEIGHTED_CUBIC]
    config = E.ShootConfig(beta=100.0, r_max=1e4)

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
            # The integrator holds w = r^gamma v to rel_tol of its size.  At
            # p = p_c the orbit is homoclinic in the cylinder: an error near
            # its peak grows along the unstable direction as fast as the
            # orbit decays along the stable one, so its share of the fit
            # window is rel_tol (w_peak / w_far)^2, and both paths read
            # round-off there.
            window = ref_traj.r >= ref_traj.r[-1] / 10.0
            w = ref_traj.r ** E.derive(params).gamma * ref_traj.v
            d_ref = ref.decay_exponent_estimate
            tol = 1e-8 * abs(d_ref) + config.rel_tol * (w.max() / w[window].min()) ** 2
            assert abs(got.decay_exponent_estimate - d_ref) <= tol
        if isinstance(ref, E.ConvergedToSingular):
            assert got.oscillation_count == ref.oscillation_count


def _captured_runs(monkeypatch):
    """Keep every shot's DOP853 run (step table, r_end, crossed, stopped) in a list."""
    runs = []
    run = _dop853.scalar_run

    def capturing(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(_dop853, "scalar_run", capturing)
    return runs


SHOT_KINDS = pytest.mark.parametrize(
    "p, kind",
    [(3.0, E.CrossedZero), (5.0, E.PositiveGlobal), (12.0, E.ConvergedToSingular)],
    ids=["crossing", "positive", "singular"],
)


@SHOT_KINDS
def test_shot_nodes_are_the_dense_output_of_its_run(monkeypatch, p, kind):
    params = E.ProblemParams(3, 0.0, 0.0, p)
    runs = _captured_runs(monkeypatch)
    config = E.ShootConfig(r_max=10.0 if p == 3.0 else 1000.0)
    traj = E.shoot(params, config)
    assert isinstance(traj.outcome, kind)
    [(steps, t_end, crossed, stopped)] = runs
    assert (crossed, stopped) == (kind is E.CrossedZero, False)
    assert traj.r[-1] == (math.exp(t_end) if crossed else config.r_max)
    assert steps.shape[1] == _dop853.ROW_WIDTH
    assert (steps[:, 0] == 0).all() and (np.diff(steps[:, 1]) > 0).all()
    # nodes uniform in t = log r from the start, 160 per decade
    t = np.linspace(steps[0, 1], t_end, len(traj.r))
    assert t[1] - t[0] <= math.log(10.0) / 160
    assert np.array_equal(traj.r[:-1], np.exp(t[:-1]))
    w, dw = _dop853.dense_nodes(steps, t)
    # written back as v = r^-gamma w and dv = r^(-gamma-1) (w' - gamma w),
    # with a crossing's zero last
    gamma = E.derive(params).gamma
    last = len(traj.r) - 1 if crossed else len(traj.r)
    assert np.array_equal(traj.v[:last], (w * np.exp(-gamma * t))[:last])
    assert np.array_equal(traj.dv, (dw - gamma * w) * np.exp(-(gamma + 1.0) * t))
    # and kept as the shot's cylinder state
    t_kept, w_kept, dw_kept = traj._cylinder_state()
    assert np.array_equal(t_kept, t) and np.array_equal(dw_kept, dw)
    assert np.array_equal(w_kept[:last], w[:last])


def test_a_far_supercritical_shot_reads_its_fixed_point():
    # At r_max = 1e300, dv underflows to 0 on thousands of nodes, and its
    # chain-rule image w' = gamma w read as power decay at rate gamma.  The
    # integrator's own w' sits on (w_star, 0).
    traj = E.shoot(E.ProblemParams(3, 0.0, 0.0, 12.0), E.ShootConfig(r_max=1e300))
    assert (traj.dv == 0.0).sum() > 1000
    assert isinstance(traj.outcome, E.ConvergedToSingular)


# scipy floors rtol at 100 eps
RTOL_FLOOR = 100 * np.finfo(float).eps


def _scipy_oracle(params, config):
    """scipy's DOP853 on the shot's cylinder field, from its start, at scipy's smallest rtol."""
    from scipy.integrate import solve_ivp

    from emdenlab import shooting

    def crossing(t, y):
        return y[0]

    crossing.terminal, crossing.direction = True, -1
    t0, w0, dw0 = E.series_start(params, config)
    args = shooting._lane_params(params)
    return solve_ivp(
        lambda t, y: shooting._CYLINDER.field(t, *y, *args), (t0, math.log(config.r_max)),
        (w0, dw0),
        method="DOP853", rtol=RTOL_FLOOR, atol=RTOL_FLOOR * max(abs(w0), abs(dw0)),
        events=crossing, dense_output=True,
    )


@SHOT_KINDS
def test_shot_agrees_with_scipy_dop853(p, kind):
    # the same tableau with this engine's norm at rel_tol 1e-12, against
    # scipy's driver at rtol 2.2e-14
    params = E.ProblemParams(3, 0.0, 0.0, p)
    config = E.ShootConfig(r_max=10.0 if p == 3.0 else 1000.0)
    traj = E.shoot(params, config)
    assert isinstance(traj.outcome, kind)
    sol = _scipy_oracle(params, config)
    assert traj.r[-1] == pytest.approx(math.exp(sol.t[-1]), rel=1e-10, abs=0)
    if kind is E.CrossedZero:
        assert traj.outcome.r0 == pytest.approx(math.exp(sol.t_events[0][0]), rel=1e-10, abs=0)
    # in the cylinder, within 1e-10 of the orbit's size
    gamma = E.derive(params).gamma
    t = np.log(traj.r)
    w, dw = sol.sol(t)
    last = len(t) - 1 if kind is E.CrossedZero else len(t)
    size = np.abs(w).max()
    assert np.abs(traj.r**gamma * traj.v - w)[:last].max() <= 1e-10 * size
    assert np.abs(traj.r ** (gamma + 1.0) * traj.dv - (dw - gamma * w)).max() <= 1e-10 * size


# mpmath's first zero of the cubic shot from height 1 (50 digits)
R_CUBIC_MPMATH = 6.896848619376960


def test_lanes_cross_where_scipy_does_on_the_criterion_5_grid():
    # in r, with an absolute tolerance, the worst of these 72 was 3.1e-10
    rows = _criterion5_rows()
    config = E.ShootConfig(beta=100.0, r_max=1e4)
    outcomes = E.sweep_shoot(rows + [UNWEIGHTED_CUBIC], config)
    worst = 0.0
    for row, outcome in zip(rows, outcomes):
        if isinstance(outcome, E.CrossedZero):
            r0 = math.exp(_scipy_oracle(row, config).t_events[0][0])
            worst = max(worst, abs(outcome.r0 - r0) / r0)
    assert sum(isinstance(o, E.CrossedZero) for o in outcomes[:-1]) == 72
    print(f"worst relative gap to scipy on 72 crossings: {worst:.2e}")
    assert worst <= 1e-10
    for beta, r0 in ((1.0, E.shoot(UNWEIGHTED_CUBIC).outcome.r0), (100.0, outcomes[-1].r0)):
        assert abs(beta * r0 - R_CUBIC_MPMATH) <= 5e-12


def _z_oracle(params):
    """First zero of the height-1 shot, integrated by scipy in z = r^sigma/(sigma(N+b)).

    There the equation reads sigma z v'' + (N+b)(v' + v^p) = 0, with no
    power of r to leave float range; it starts at z = 1e-8 from three
    series terms, whose truncation is below 1e-15.
    """
    from scipy.integrate import solve_ivp

    N, b, p = params.N, params.b, params.p
    sigma = E.derive(params).sigma
    c = p * (N + b) / (2.0 * (N + b + sigma))
    z = 1e-8

    def field(z, y):
        v, dv = y
        return (dv, -(N + b) * (dv + math.copysign(abs(v) ** p, v)) / (sigma * z))

    def crossing(z, y):
        return y[0]

    crossing.terminal, crossing.direction = True, -1
    sol = solve_ivp(field, (z, 1e6), (1.0 - z + c * z * z, -1.0 + 2.0 * c * z),
                    method="DOP853", rtol=RTOL_FLOOR, atol=1e-16, events=crossing)
    return (sigma * (N + b) * sol.t_events[0][0]) ** (1.0 / sigma)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.5, 0.8])
def test_shots_near_the_edge_b_to_a_minus_2(sigma):
    # b = a - 2 + sigma; a series hand-off floored at r = 1e-12 made
    # sigma = 0.1 cross at 25.93 instead of 15.107, and sigma = 0.05 read
    # "no positive segment"
    b = sigma - 2.0
    d = E.derive(E.ProblemParams(3, 0.0, b, 2.0))
    sub = E.ProblemParams(3, 0.0, b, 0.5 * (d.p_serrin + d.p_critical))
    sup = E.ProblemParams(3, 0.0, b, 1.5 * d.p_critical - 0.5 * d.p_serrin)
    oracle = _z_oracle(sub)
    for beta in (1.0, 4.0, 100.0):
        config = E.ShootConfig(beta=beta, r_max=1e12)
        crossed = E.shoot(sub, config).outcome
        scale = beta ** (-(sub.p - 1.0) / sigma)
        assert isinstance(crossed, E.CrossedZero), (beta, crossed)
        assert abs(crossed.r0 - oracle * scale) <= 1e-8 * oracle * scale
        if beta == 1.0:
            r0 = crossed.r0
        assert crossed.r0 == pytest.approx(r0 * scale, rel=1e-9, abs=0)
        assert isinstance(E.shoot(sup, config).outcome, E.ConvergedToSingular)


def test_a_field_that_overflows_on_a_trial_step_is_rejected_not_raised():
    # r^400 |v|^3 leaves float range on trial steps that overshoot r = 1;
    # a Python float power raises there, where numpy's lanes read inf
    params = E.ProblemParams(3, 0.0, 400.0, 3.0)
    config = E.ShootConfig()
    shot = E.shoot(params, config).outcome
    [lane] = E.sweep_shoot([params], config)
    assert isinstance(shot, E.CrossedZero) and isinstance(lane, E.CrossedZero)
    assert shot.r0 == pytest.approx(lane.r0, rel=1e-8, abs=0)


def test_shoot_runs_without_solve_ivp(monkeypatch):
    from emdenlab import shooting

    def refuse(*args, **kwargs):
        raise AssertionError("shoot called solve_ivp")

    monkeypatch.setattr(shooting, "solve_ivp", refuse)
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    assert traj.outcome.r0 == pytest.approx(FIRST_CROSSING_CUBIC, abs=1e-6)


def test_module_still_names_scipy_solve_ivp():
    # bench/tracing.py wraps shooting.solve_ivp when it installs
    from scipy.integrate import solve_ivp

    from emdenlab import shooting

    assert shooting.solve_ivp is solve_ivp


def _dense_nodes_per_coefficient(steps, nodes):
    """The step-table sampler as it was: one gather per coefficient."""
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


def test_row_gather_sampler_matches_the_per_coefficient_loop(monkeypatch):
    runs = _captured_runs(monkeypatch)
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    steps = runs[0][0]
    # the shot's nodes, then every step boundary and the crossing itself
    for nodes in (traj.r, np.append(steps[:, 1], traj.r[-1])):
        got = _dop853.dense_nodes(steps, nodes)
        ref = _dense_nodes_per_coefficient(steps, nodes)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def _nan_cylinder(when):
    """shooting's cylinder field as engine source, NaN where the condition `when` holds.

    `when` is a Python expression in the field's names (x, y0, y1 and the
    parameters); the field is compiled into the step loop, so a test
    changes it by changing its source.
    """
    from emdenlab import shooting

    cylinder = shooting._CYLINDER
    nan = f"if {when}:\n    f0 = f1 = math.nan\n"
    return _dop853.Scalar(cylinder.params, cylinder.source + nan)


def nan_at_start(monkeypatch, q=None):
    """Make the field NaN for shots and for the lanes whose p - 1 is q (every lane if None).

    The first step then fails the minimum-step test, and the run has no
    step table to sample.
    """
    from emdenlab import shooting

    lane_rhs = shooting._lane_rhs
    monkeypatch.setattr(shooting, "_CYLINDER", _nan_cylinder("True"))

    def nan_lane_rhs(t, y, fld, out):
        lane_rhs(t, y, fld, out)
        out[slice(None) if q is None else fld.q == q] = math.nan

    monkeypatch.setattr(shooting, "_lane_rhs", nan_lane_rhs)


def test_a_shot_stopped_before_its_first_step_reads_like_the_lane(monkeypatch):
    params = E.ProblemParams(3, 0.0, -1.9, 1.15)
    config = E.ShootConfig()
    t0, w0, dw0 = E.series_start(params, config)
    nan_at_start(monkeypatch, q=params.p - 1.0)
    traj = E.shoot(params, config)
    lane, other = E.sweep_shoot([params, UNWEIGHTED_CUBIC], config)
    assert isinstance(traj.outcome, E.Inconclusive)
    assert traj.outcome == lane
    assert traj.outcome.reason == (
        f"integrator stopped at r = {math.exp(t0)}: {_dop853.TOO_SMALL_STEP}"
    )
    assert isinstance(other, E.CrossedZero)
    # the trajectory holds the start node alone, written as (r, v, dv)
    gamma = E.derive(params).gamma
    assert traj.r.tolist() == [math.exp(t0)]
    assert traj.v[0] == pytest.approx(1.0 - 1e-7, rel=1e-12)  # 1 - z0
    assert traj.dv[0] == pytest.approx(math.exp(-(gamma + 1.0) * t0) * (dw0 - gamma * w0))


def test_batched_step_failure_reads_like_a_single_shot(monkeypatch):
    # A field that turns to NaN from r = 2 on makes DOP853 reject and shrink
    # its step below the spacing of floats just short of r = 2, on both paths.
    from emdenlab import shooting

    lane_rhs = shooting._lane_rhs

    def nan_lane_rhs(t, y, fld, out):
        lane_rhs(t, y, fld, out)
        out[t >= math.log(2.0)] = math.nan

    monkeypatch.setattr(shooting, "_CYLINDER", _nan_cylinder(f"x >= {math.log(2.0)!r}"))
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
    # a crossing shot, and a supercritical one: the shot is classified from
    # its integrator's (w, w'), the re-read from the chain-rule image of its
    # columns, and both must give the same kind
    for params, r_max, kind in [(UNWEIGHTED_CUBIC, 10.0, E.CrossedZero),
                                (E.ProblemParams(3, 0.0, 0.0, 12.0), 1e3, E.ConvergedToSingular)]:
        traj = E.shoot(params, E.ShootConfig(r_max=r_max))
        path = tmp_path / "traj.csv"
        E.trajectory_to_csv(traj, path)
        back = E.trajectory_from_csv(path, params)
        assert np.array_equal(back.r, traj.r)
        assert np.array_equal(back.v, traj.v)
        assert np.array_equal(back.dv, traj.dv)
        assert isinstance(traj.outcome, kind) and isinstance(back.outcome, kind)
        if kind is E.CrossedZero:
            assert back.outcome.r0 == traj.outcome.r0
        path2 = tmp_path / "traj2.csv"
        E.trajectory_to_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def _csv_module_text(header, rows):
    """What csv_text wrote before it worked a column at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                     for row in rows)
    return buf.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    floats=st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=6),
    cells=st.lists(
        st.tuples(st.floats(), st.one_of(st.text(), st.integers(), st.just(""))),
        max_size=6,
    ),
)
def test_csv_text_writes_the_bytes_of_the_csv_module(floats, cells):
    # float tables (subnormals, -0.0, nan and inf included) and mixed ones,
    # whose strings may need quoting
    from emdenlab.shooting import csv_text

    for header, rows in ((["r", "v", "dv"], floats), (["s", "flag"], cells)):
        columns = [list(column) for column in zip(*rows)] or [[] for _ in header]
        assert csv_text(header, columns) == _csv_module_text(header, rows)


def test_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1.0,1.0,0.0\n2.0,0.5,-0.1\n")
    with pytest.raises(ValueError):
        E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)
    path.write_text("r,v,dv\n1.0,1.0,0.0\n")
    with pytest.raises(ValueError):
        E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)


@pytest.mark.parametrize(
    "nodes, error",
    [
        (None, "MalformedTrajectory"),
        ("1.0,1.0,0.0\n2.0,0.5\n", "MalformedTrajectory"),
        ("1.0,1.0,0.0\n2.0,0.5,-0.1,7.0\n", "MalformedTrajectory"),
        ("1.0,1.0,0.0\n\n2.0,0.5,-0.1\n", "MalformedTrajectory"),
        ("1.0,1.0,0.0\n2.0,half,-0.1\n", "MalformedTrajectory"),
        ("2.0,1.0,0.0\n1.0,0.5,-0.1\n", "MalformedTrajectory"),
        ("1.0,1.0,0.0\n1.0,0.5,-0.1\n", "MalformedTrajectory"),
        ("1.0,1.0,0.0\nnan,0.5,-0.1\n", "NonFiniteParameter"),
        ("1.0,nan,0.0\n2.0,0.5,-0.1\n", "NonFiniteParameter"),
        ("1.0,1.0,0.0\n2.0,0.5,-inf\n", "NonFiniteParameter"),
        ("0.0,1.0,0.0\n2.0,0.5,-0.1\n", "NonpositiveNode"),
        ("-1.0,1.0,0.0\n2.0,0.5,-0.1\n", "NonpositiveNode"),
        (b"1.0,1.0,0.0\n2.0,0.5,\xff\n", "MalformedTrajectory"),
        ("1.0,1.0,0.0\n2.0,0.5," + "1" * ((1 << 17) + 1) + "\n", "MalformedTrajectory"),
    ],
    ids=["empty_file", "two_columns", "four_columns", "blank_row", "non_numeric",
         "decreasing_r", "repeated_r", "nan_r", "nan_v", "infinite_dv", "zero_r",
         "negative_r", "not_utf8", "field_over_csv_limit"],
)
def test_csv_refuses_malformed_nodes_with_a_named_error(tmp_path, nodes, error):
    path = tmp_path / "bad.csv"
    if isinstance(nodes, bytes):
        path.write_bytes(b"r,v,dv\n" + nodes)
    else:
        path.write_text("" if nodes is None else "r,v,dv\n" + nodes)
    with pytest.raises(E.EmdenLabError) as info:
        E.trajectory_from_csv(path, UNWEIGHTED_CUBIC)
    assert type(info.value).__name__ == error


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
        E.ShootConfig(nodes_per_decade=2)


def test_shoot_rejects_inadmissible_weights():
    with pytest.raises(E.EmdenLabError):
        E.shoot(E.ProblemParams(3, 0.0, -2.5, 3.0))
    with pytest.raises(E.EmdenLabError):
        E.shoot(E.ProblemParams(3, 0.0, -4.0, 3.0))


@pytest.mark.parametrize(
    "b, dv0",
    [(-1.5, None), (-1.0, -0.5), (0.0, 0.0)],
    ids=["sigma-below-1", "sigma-1", "sigma-above-1"],
)
def test_eval_at_the_origin_names_a_slope_without_a_limit(b, dv0):
    # sigma = 2 + b - a; dv = -beta^p r^(sigma-1)/(N+b) near the origin
    traj = E.shoot(E.ProblemParams(3, 0.0, b, 3.0), E.ShootConfig(r_max=10.0))
    if dv0 is None:
        with pytest.raises(E.DerivativeUndefinedAtOrigin):
            traj.eval(0.0)
        with pytest.raises(E.DerivativeUndefinedAtOrigin):
            traj.eval([traj.r[0] / 2.0, 0.0])
        assert math.isfinite(traj.eval(traj.r[0] / 2.0)[1])
    else:
        assert traj.eval(0.0) == (1.0, dv0)


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


def test_eval_below_the_first_node_names_a_series_outside_float_range():
    # beta^p = 1e360 overflows, though the nodes themselves are finite
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(beta=1e120, r_max=1.0))
    assert isinstance(traj.outcome, E.CrossedZero)
    with pytest.raises(E.NotInRange, match="beta = 1e\\+120"):
        traj.eval(traj.r[0] / 2.0)
    # sigma = 0.5 < 1: dv = -beta^p r^(sigma-1)/(N+b) overflows at a tiny radius
    traj = E.shoot(E.ProblemParams(3, 0.0, -1.5, 3.0), E.ShootConfig(beta=1e50, r_max=10.0))
    with pytest.raises(E.NotInRange, match="series start"):
        traj.eval(5e-324)


@pytest.mark.parametrize("r", [math.nan, [1.0, math.nan], np.array([[math.nan]])],
                         ids=["scalar", "list", "array"])
def test_eval_names_a_nan_radius(r):
    traj = E.shoot(UNWEIGHTED_CUBIC, E.ShootConfig(r_max=10.0))
    with pytest.raises(E.NonFiniteParameter, match="NaN"):
        traj.eval(r)


def test_outcome_serialization_shapes():
    assert E.CrossedZero(2.5).to_dict() == {"kind": "crossed_zero", "r0": 2.5}
    assert E.Inconclusive("x").to_dict() == {"kind": "inconclusive", "reason": "x"}
    d = E.PositiveGlobal(10.0, 1.0).to_dict()
    assert d["kind"] == "positive_global"
    d = E.ConvergedToSingular(10.0, 3).to_dict()
    assert d["kind"] == "converged_to_singular" and d["oscillation_count"] == 3
