"""Property-based tests over random admissible parameters.

hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast.
"""

import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import emdenlab as E

# A short horizon keeps every lockstep batch to a few hundred iterations.
SMALL = E.ShootConfig(r_max=20.0)


@st.composite
def admissible_rows(draw):
    """(N, a, b, p) with N - 2 + a > 0 and b > a - 2, often with b == a."""
    N = draw(st.sampled_from([3, 4, 5]))
    a = draw(st.floats(-0.5, 1.5))
    b = a + draw(st.one_of(st.just(0.0), st.floats(-1.5, 3.0)))
    p = draw(st.floats(1.1, 8.0, exclude_min=True, exclude_max=True))
    return E.ProblemParams(N, a, b, p)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(rows=st.lists(admissible_rows(), min_size=2, max_size=4), data=st.data())
def test_a_row_shoots_the_same_alone_shuffled_and_beside_any_neighbour(rows, data):
    # The lockstep engine sums each lane's stages in stage order and builds
    # dense output for whatever rows are pending, so nothing a row computes
    # may depend on the rest of its batch.
    alone = [E.sweep_shoot([row], SMALL)[0].to_dict() for row in rows]

    order = data.draw(st.permutations(range(len(rows))))
    shuffled = E.sweep_shoot([rows[i] for i in order], SMALL)
    assert [shuffled[order.index(i)].to_dict() for i in range(len(rows))] == alone

    # a neighbour with other weights and p beside every row
    neighbour = E.ProblemParams(3, 0.0, 0.5, 3.0)
    beside = E.sweep_shoot([neighbour, *rows], SMALL)[1:]
    assert [outcome.to_dict() for outcome in beside] == alone


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    row=admissible_rows(),
    beta=st.sampled_from([1.0, 100.0]),
    r_max=st.sampled_from([20.0, 1e3]),
)
def test_a_single_shot_and_a_one_lane_sweep_agree(row, beta, r_max):
    # shoot runs DOP853 on Python floats, sweep_shoot on numpy lanes: the
    # same steps, with powers that may round differently in the last bit
    config = E.ShootConfig(beta=beta, r_max=r_max)
    shot = E.shoot(row, config).outcome
    [lane] = E.sweep_shoot([row], config)
    assert lane.kind == shot.kind
    if isinstance(shot, E.CrossedZero):
        assert abs(lane.r0 - shot.r0) <= 1e-8 * shot.r0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    row=admissible_rows(),
    beta=st.sampled_from([1.0, 100.0]),
    r_max=st.sampled_from([20.0, 1e3]),
)
def test_a_threshold_probe_decides_as_the_shot_does(row, beta, r_max):
    # shot_crosses runs the shot's step loop without its step table, nodes
    # or trajectory; its decision is the shot's outcome kind
    config = E.ShootConfig(beta=beta, r_max=r_max)
    shot = E.shoot(row, config)
    assert E.shot_crosses(row, config) == isinstance(shot.outcome, E.CrossedZero)


@st.composite
def crossing_rows(draw):
    """(N, a, b, p) with sigma = 2 + b - a >= 0.05 and p a fraction f of the way to p_c.

    p_c - 1 = 2 sigma / (N - 2 + a), so gamma = (N - 2 + a) / (2 f); the
    height-1 shot crosses within r_max = 1e12.
    """
    N = draw(st.sampled_from([3, 4, 5]))
    M = draw(st.floats(0.5, 3.0))  # N - 2 + a
    sigma = draw(st.floats(0.05, 2.0))
    f = draw(st.floats(0.2, 0.8))
    p = 1.0 + 2.0 * f * sigma / M
    # below p - 1 = 0.05 the start's r^gamma leaves float range at small sigma
    assume(p - 1.0 >= 0.05)
    a = M + 2.0 - N
    return E.ProblemParams(N, a, a - 2.0 + sigma, p)


FAR = E.ShootConfig(r_max=1e12)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(row=crossing_rows(), beta=st.floats(1.0, 1e4))
def test_the_height_is_a_shift_in_time(row, beta):
    # r0(beta) = r0(1) beta^(-(p-1)/sigma): the cylinder start is the same
    # for every height, and only its time moves
    sigma = E.derive(row).sigma
    [one, tall] = [E.shoot(row, E.ShootConfig(beta=b, r_max=1e12)).outcome
                   for b in (1.0, beta)]
    assert isinstance(one, E.CrossedZero), (row, one)
    law = one.r0 * beta ** (-(row.p - 1.0) / sigma)
    assert abs(tall.r0 - law) <= 1e-9 * law


@settings(derandomize=True, max_examples=30, deadline=None)
@given(row=crossing_rows(), shift=st.sampled_from([1, 2]))
def test_the_shot_depends_on_n_plus_a_b_minus_a_and_p_alone(row, shift):
    # (N, a, b) and (N + k, a - k, b - k) give one radial equation
    N, a, b, p = row.N + shift, row.a - shift, row.b - shift, row.p
    [one, other] = [E.shoot(q, FAR).outcome for q in (row, E.ProblemParams(N, a, b, p))]
    assert isinstance(one, E.CrossedZero), (row, one)
    assert abs(other.r0 - one.r0) <= 1e-12 * one.r0


@st.composite
def threshold_brackets(draw):
    """(N, a, b, p_lo, p_hi): admissible weights drawn as (N + a, b - a), and a bracket around p_c.

    p_c - 1 = 2 sigma / (N - 2 + a) with sigma = 2 + b - a; p_lo lies a
    fraction f of the way from 1 to p_c, where the height-1 shot crosses
    within r_max = 1e12, and p_hi above p_c, where it stays positive.
    """
    N = draw(st.sampled_from([3, 4, 5]))
    M = draw(st.floats(0.5, 3.0))  # N - 2 + a
    sigma = draw(st.floats(0.2, 2.0))
    f = draw(st.floats(0.4, 0.8))
    g = draw(st.floats(0.05, 0.5))
    a = M + 2.0 - N
    p_c = 1.0 + 2.0 * sigma / M
    return N, a, a - 2.0 + sigma, 1.0 + f * (p_c - 1.0), p_c + g * (p_c - 1.0)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(bracket=threshold_brackets(), tol_p=st.sampled_from([1e-2, 1e-3]))
def test_threshold_bisect_is_the_serial_walk_on_shoot(bracket, tol_p):
    # every probe decides as one shot at a time does, so the answer is the
    # serial bisection's on shoot
    N, a, b, lo, hi = bracket

    def crosses(p):
        return isinstance(E.shoot(E.ProblemParams(N, a, b, p), FAR).outcome, E.CrossedZero)

    assert crosses(lo) and not crosses(hi)
    p_star = E.threshold_bisect(N, a, b, lo, hi, tol_p=tol_p, config=FAR)
    while hi - lo > tol_p and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    assert p_star == 0.5 * (lo + hi)


# ---------------------------------------------------------------- CSV round trip

_SUBNORMAL = sys.float_info.min


def _column_values():
    """Moderate floats, signed zeros and subnormals, each drawn often."""
    return st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _SUBNORMAL, -_SUBNORMAL]),
        st.floats(-_SUBNORMAL, _SUBNORMAL, allow_subnormal=True),
    )


@st.composite
def node_columns(draw):
    """(r, v, dv): strictly increasing radii in [1e-3, 1e3] and drawn v and dv columns."""
    r = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40, unique=True)))
    n = len(r)
    v = draw(st.lists(_column_values(), min_size=n, max_size=n))
    dv = draw(st.lists(_column_values(), min_size=n, max_size=n))
    return r, v, dv


def _bits(column):
    return [float.hex(float(x)) for x in column]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(columns=node_columns())
def test_a_csv_round_trip_is_exact_to_the_bit(columns):
    # every float is written in its shortest round-trip form, so the re-read
    # holds the same bits: the sign of a zero and every subnormal included
    r, v, dv = (np.array(c) for c in columns)
    params = E.ProblemParams(3, 0.0, 0.0, 3.0)
    traj = E.RadialTrajectory(params, r, v, dv)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "trajectory.csv")
        E.trajectory_to_csv(traj, path)
        back = E.trajectory_from_csv(path, params)
    for got, want in ((back.r, r), (back.v, v), (back.dv, dv)):
        assert _bits(got) == _bits(want)


# -------------------------------------------------------------- the regimes

REGIMES = (E.params.INADMISSIBLE_WEIGHTS, E.params.NO_POSITIVE_SOLUTION_SERRIN,
           E.params.CRITICAL, E.params.SUBCRITICAL_LIOUVILLE, E.params.SUPERCRITICAL)


def _regimes_by_formula(N, a, b, p):
    """Which of REGIMES hold at (N, a, b, p), each re-derived from the paper's formulas."""
    M = N - 2.0 + a
    p_serrin = (N + b) / M
    p_c = (N + 2.0 + 2.0 * b - a) / M
    inadmissible = N + b <= 0 or b <= a - 2
    serrin = not inadmissible and (p == 1 or p <= p_serrin)
    rest = not (inadmissible or serrin)
    critical = rest and abs(p - p_c) <= 1e-12 * abs(p_c)
    below = rest and not critical and p < p_c
    above = rest and not critical and p > p_c
    return [inadmissible, serrin, critical, below, above]


def _check_regime(params):
    regime = E.classify(params)
    holds = _regimes_by_formula(params.N, params.a, params.b, params.p)
    assert sum(holds) == 1, (params, holds)  # a partition: exactly one regime
    assert regime.kind == REGIMES[holds.index(True)], (params, regime)
    assert regime.witness_holds(params), (params, regime)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    N=st.sampled_from([3, 4, 5, 6]),
    a=st.floats(-0.9, 3.0),
    b=st.floats(-8.0, 8.0),
    p=st.one_of(st.just(1.0), st.floats(1.0, 20.0)),
)
def test_classify_is_a_partition_that_agrees_with_the_formulas(N, a, b, p):
    _check_regime(E.ProblemParams(N, a, b, p))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    N=st.sampled_from([3, 4, 5, 6]),
    a=st.floats(-0.9, 3.0),
    sigma=st.floats(1e-3, 4.0),  # b - a + 2
)
def test_the_witness_holds_at_p_serrin_at_p_c_and_next_to_them(N, a, sigma):
    b = a - 2.0 + sigma
    assume(b > a - 2 and N + b > 0)
    d = E.derive(E.ProblemParams(N, a, b, 2.0))
    for edge in (d.p_serrin, d.p_critical):
        for p in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            _check_regime(E.ProblemParams(N, a, b, p))
