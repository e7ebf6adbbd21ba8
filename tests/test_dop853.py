"""The DOP853 engine on its own, against exact solutions.

Lanes of v'' = -omega^2 v from (t, v, v') = (0, 1, 0) are cos(omega t),
which first crosses zero at pi / (2 omega).
"""

import ast
import math

import numpy as np
import pytest

from emdenlab import _dop853

OMEGAS = [0.5, 1.0, 3.0, 10.0]
START = (0.0, 1.0, 0.0)
RTOL = 1e-10


# v'' = -w2 v as engine source; an oscillator's args are (omega^2,)
OSCILLATOR = _dop853.Scalar(("w2",), "f0, f1 = y1, -w2 * y0\n")


def _oscillator(omega):
    return OSCILLATOR, (omega * omega,)


def _oscillator_lanes(omegas):
    omegas = np.asarray(omegas)

    def lane_field(lanes):
        w2 = omegas[lanes] ** 2

        def rhs(t, y, out):
            out[:, 0] = y[:, 1]
            np.multiply(-w2, y[:, 0], out=out[:, 1])

        return rhs

    return lane_field


def _lockstep(omegas, t_bound):
    """The runs (steps, t_end, crossed, stopped) of one lockstep over the omegas."""
    return _dop853.lockstep(
        _oscillator_lanes(omegas), [START] * len(omegas), t_bound, RTOL
    )


def test_both_drivers_find_the_exact_crossings():
    lanes = _lockstep(OMEGAS, 10.0)
    assert len(lanes) == len(OMEGAS)
    for k, omega in enumerate(OMEGAS):
        exact = math.pi / (2 * omega)
        steps, t_end, crossed, stopped = _dop853.scalar_run(
            *_oscillator(omega), START, 10.0, RTOL
        )
        assert crossed and not stopped
        assert t_end == pytest.approx(exact, rel=1e-9, abs=0)
        lane_steps, lane_end, lane_crossed, lane_stopped = lanes[k]
        # the first steps agree bit for bit; later step sizes may part at
        # round-off, and the crossings agree to round-off
        assert lane_crossed is True and lane_stopped is False
        assert type(lane_end) is type(t_end) is float
        assert lane_end == pytest.approx(t_end, rel=1e-13, abs=0)
        assert (lane_steps[:, 0] == k).all() and (steps[:, 0] == 0).all()
        assert np.array_equal(lane_steps[:2, 1:], steps[:2, 1:])
        # the dense output between the steps is cos(omega t) on both
        nodes = np.linspace(0.0, t_end, 50)
        for table in (steps, lane_steps):
            v, dv = _dop853.dense_nodes(table, nodes)
            assert np.allclose(v, np.cos(omega * nodes), rtol=0, atol=1e-8)
            assert np.allclose(dv, -omega * np.sin(omega * nodes), rtol=0, atol=1e-8 * omega)


def test_a_run_that_does_not_cross_ends_at_its_bound():
    # cos(0.5 t) stays positive up to t = 3 < pi; cos(3 t) crosses at pi / 6
    lanes = _lockstep([0.5, 3.0], 3.0)
    steps, t_end, crossed, stopped = _dop853.scalar_run(
        *_oscillator(0.5), START, 3.0, RTOL
    )
    assert (t_end, crossed, stopped) == (3.0, False, False)
    assert lanes[0][1:] == (3.0, False, False)
    assert lanes[1][1] == pytest.approx(math.pi / 6, rel=1e-9) and lanes[1][2]


def test_a_lane_that_fails_the_minimum_step_test_before_its_first_step_has_no_rows():
    # a field that is NaN everywhere makes every trial step fail its error test
    def lane_field(lanes):
        def rhs(t, y, out):
            out[:] = y[:, ::-1]
            out[:, 1] *= -1.0
            out[lanes == 1] = math.nan

        return rhs

    (steps0, _, crossed0, stopped0), (steps, t_end, crossed, stopped) = _dop853.lockstep(
        lane_field, [START, START], 10.0, RTOL
    )
    assert steps.shape == (0, _dop853.ROW_WIDTH)
    assert (t_end, crossed, stopped) == (0.0, False, True)
    # the other lane runs to its crossing as if alone
    assert crossed0 and not stopped0 and (steps0[:, 0] == 0).all()


def test_both_drivers_stop_alike_where_the_field_turns_nan():
    # past t = 1 the field is NaN: steps shrink onto t = 1 until they fail
    # the minimum-step test, and the rows reached are kept
    def lane_field(lanes):
        nan_after = np.where(lanes == 1, 1.0, np.inf)

        def rhs(t, y, out):
            out[:, 0] = y[:, 1]
            np.negative(y[:, 0], out=out[:, 1])
            out[t > nan_after] = math.nan

        return rhs

    steps, t_end, crossed, stopped = _dop853.scalar_run(NAN_AFTER_ONE, (), START, 10.0, RTOL)
    assert (crossed, stopped) == (False, True)
    assert 1.0 - 1e-12 < t_end <= 1.0
    _, (lane_steps, lane_end, lane_crossed, lane_stopped) = _dop853.lockstep(
        lane_field, [START, START], 10.0, RTOL
    )
    assert (lane_end, lane_crossed, lane_stopped) == (t_end, False, True)
    assert (lane_steps[:, 0] == 1).all() and len(lane_steps) > 2
    assert np.array_equal(lane_steps[:2, 1:], steps[:2, 1:])


def test_the_engine_imports_no_physics():
    with open(_dop853.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy", "._numerics"}


def test_a_lane_settling_on_a_fixed_point_does_not_stall():
    # y0'' = -y0' - 4 (y0 - 1) spirals into (1, 0): y1 -> 0 while y0 -> 1.
    # Scaled per component with no absolute floor, y1's error budget would
    # shrink with y1 down to the round-off of y0 - 1, and the step with it;
    # the state's max-norm keeps both components' errors relative to y0.
    # Stability alone caps h |lambda| near 6, about 330 steps on [0, 1000].
    spiral = _dop853.Scalar((), "f0, f1 = y1, -y1 - 4.0 * (y0 - 1.0)\n")

    def lane_field(lanes):
        def rhs(t, y, out):
            out[:, 0] = y[:, 1]
            out[:, 1] = -y[:, 1] - 4.0 * (y[:, 0] - 1.0)

        return rhs

    start = (0.0, 2.0, 0.0)
    steps, t_end, crossed, stopped = _dop853.scalar_run(spiral, (), start, 1e3, RTOL)
    [(lane_steps, *lane_run)] = _dop853.lockstep(lane_field, [start], 1e3, RTOL)
    assert (t_end, crossed, stopped) == (1e3, False, False)
    assert lane_run == [1e3, False, False]
    assert len(steps) < 1000 and len(lane_steps) < 1000
    v, dv = _dop853.dense_nodes(steps, np.array([1e3]))
    assert v[0] == pytest.approx(1.0, abs=10 * RTOL) and abs(dv[0]) < 10 * RTOL


def _reference_run(scalar, args, start, t_bound, rtol):
    """scalar_run as a loop over the tableau's (j, weight) pairs, one stage sum at a time.

    Each sum starts from 0.0 and adds w_j K_j in stage order.  A's rows,
    B and D's rows keep their nonzero weights, E5 and E3 all 13.  The
    field is called at every stage, where scalar_run splices its source.
    """
    d = _dop853

    def field(t, y):
        return scalar.field(t, *y, *args)

    A = [sorted(d.A_ROWS.get(s, {}).items()) for s in range(d.N_STAGES_EXTENDED)]
    _, _, C, E3, E5, _ = d.coefficients()
    E5, E3 = list(enumerate(E5.tolist())), list(enumerate(E3.tolist()))
    D = [sorted(row.items()) for row in d.D_ROWS]

    def combine(weights, K):
        s0 = s1 = 0.0
        for j, w in weights:
            k0, k1 = K[j]
            s0 += w * k0
            s1 += w * k1
        return s0, s1

    def stage(s, t, h, v, dv, K):
        sv, sdv = combine(A[s], K)
        K.append(field(t + C[s] * h, (v + h * sv, dv + h * sdv)))

    def one_lane(t, y, out):
        out[0] = field(float(t[0]), (float(y[0, 0]), float(y[0, 1])))

    t, v, dv = start
    f = field(t, (v, dv))
    with np.errstate(all="ignore"):
        h_abs = d._initial_step(
            np.array([t]), np.array([[v, dv]]), np.array([f]), t_bound, one_lane, rtol
        )
    h_abs = float(h_abs[0])
    rows = []
    retry = False
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if not retry:
            h_abs = max(h_abs, min_step)
        if not h_abs >= min_step:
            return np.reshape(rows, (-1, d.ROW_WIDTH)), t, False, True
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        K = [f]
        for s in range(1, d.N_STAGES):
            stage(s, t, h, v, dv, K)
        sv, sdv = combine(A[d.N_STAGES], K)
        v_new, dv_new = v + h * sv, dv + h * sdv
        f_new = field(t + h, (v_new, dv_new))
        K.append(f_new)

        scale = rtol * max(abs(v), abs(dv), abs(v_new), abs(dv_new))
        (e5v, e5dv), (e3v, e3dv) = combine(E5, K), combine(E3, K)
        e5v, e5dv, e3v, e3dv = e5v / scale, e5dv / scale, e3v / scale, e3dv / scale
        err5 = e5v * e5v + e5dv * e5dv
        err3 = e3v * e3v + e3dv * e3dv
        error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2) if err5 else 0.0
        ratio = d._SAFETY * error_norm**d._ERROR_EXPONENT if error_norm else math.inf
        if not error_norm < 1:
            h_abs = h * max(d._MIN_FACTOR, ratio)
            retry = True
            continue
        grow = min(d._MAX_FACTOR, ratio)
        h_abs = h * (min(1.0, grow) if retry else grow)
        retry = False

        for s in range(d.N_STAGES + 1, d.N_STAGES_EXTENDED):
            stage(s, t, h, v, dv, K)
        delta_v, delta_dv = v_new - v, dv_new - dv
        (k0v, k0dv), (k12v, k12dv) = f, f_new
        F = [
            delta_v, delta_dv,
            h * k0v - delta_v, h * k0dv - delta_dv,
            2 * delta_v - h * (k12v + k0v), 2 * delta_dv - h * (k12dv + k0dv),
        ]
        for weights in D:
            sv, sdv = combine(weights, K)
            F += (h * sv, h * sdv)
        rows.append((0.0, t, h, v, dv, *F))

        crossed = v >= 0 and v_new <= 0
        t, v, dv, f = t_new, v_new, dv_new, f_new
        if crossed or t >= t_bound:
            t_end = d._crossing(rows[-1], t) if crossed else t_bound
            return np.array(rows), t_end, crossed, False


# past t = 1 the field is NaN
NAN_AFTER_ONE = _dop853.Scalar((), "f0, f1 = (math.nan, math.nan) if x > 1.0 else (y1, -y0)\n")
# v'' = cos t - v: each stage reads its own time
FORCED = _dop853.Scalar((), "f0, f1 = y1, math.cos(x) - y0\n")


def _cylinder_runs():
    """(scalar, args, start, t_bound, rtol) of the criterion-5 shots at beta = 100, r_max = 1e4."""
    from emdenlab import shooting
    from test_shooting import _criterion5_rows

    config = shooting.ShootConfig(beta=100.0, r_max=1e4)
    for params in _criterion5_rows():
        start = shooting.series_start(params, config)
        yield (shooting._CYLINDER, shooting._lane_params(params), start,
               math.log(config.r_max), config.rel_tol)


@pytest.mark.parametrize(
    "runs",
    [
        pytest.param(lambda: [(*_oscillator(w), START, 10.0, RTOL) for w in OMEGAS],
                     id="oscillators"),
        pytest.param(lambda: [(*_oscillator(0.5), START, 3.0, RTOL)], id="ends-at-bound"),
        pytest.param(lambda: [(NAN_AFTER_ONE, (), START, 10.0, RTOL)], id="stopped"),
        pytest.param(lambda: [(FORCED, (), START, 10.0, RTOL)], id="time-dependent"),
        pytest.param(_cylinder_runs, id="criterion5-cylinder"),
    ],
)
def test_the_straight_line_step_is_the_loop_over_the_tableau_bit_for_bit(runs):
    for run in runs():
        steps, t_end, crossed, stopped = _dop853.scalar_run(*run)
        ref_steps, ref_end, ref_crossed, ref_stopped = _reference_run(*run)
        assert len(steps) > 2
        assert np.array_equal(steps, ref_steps)
        assert (t_end, crossed, stopped) == (ref_end, ref_crossed, ref_stopped)
