"""DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, sections II.5 and
II.10): the one integrator.

A run integrates y' = field(t, y), y = (y0, y1), from a start (t, y0, y1)
up to t_bound.  It stops at the first accepted step that starts at y0 >= 0
and ends at y0 <= 0; a run whose nodes are sampled refines that crossing
by brent_root on the step's dense output.  The field is passed in;
nothing here knows the equation.  Two drivers share the tableau, initial
step, step control, error norm, crossing rule and step-table layout
(ROW_WIDTH, sampled by dense_nodes).  The scalar driver takes its field
as source (Scalar): the whole step loop on Python floats, with the
field's statements spliced into every stage, is one function compiled
from the tableau and that source (_scalar_source), so one lane pays
neither numpy's call overhead nor a call per stage.  The same source
gives the callable field (for the initial step) and the step-table row.
scalar_steps runs the loop, keeping each accepted step only when asked
and building no dense output, so a caller that asks only whether a run
crossed pays for none.  scalar_run keeps the steps, builds that run's
step table (Scalar.row) and refines its crossing.  lockstep advances
many lanes as numpy arrays, one step per lane per iteration, each with
its own step size, and returns every lane's run at the end.  An
iteration evaluates the field 12 times; the three dense-output stages of
accepted steps are built later (the lockstep's in bulk, a bounded buffer
at a time), so rejected steps never pay for them.  scalar_run and
lockstep return a run as (steps, t_end, crossed, stopped) and sum stages
in stage order, so the two agree to round-off beyond the rounding of the
field itself.

The error norm is relative to the size of the state (section II.4): a
step's error is scaled by rtol times the largest of |y0|, |y1|, |y0_new|
and |y1_new|, with no absolute tolerance, so a component that tends to
zero while the other does not cannot stall the run, and a state that
starts tiny keeps its relative accuracy.  A state that is zero in both
components has no scale.  With this norm a run is no longer solve_ivp's
step for step; the tableau still equals scipy's.

The decimal literals are those of scipy/integrate/_ivp/dop853_coefficients.py
(BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
Developers), copied digit for digit, so every double equals scipy's.  E3 is
built from B by the same three subtractions.  The sparse tables hold the
nonzero entries only, as {column: weight}; coefficients() expands them
into scipy's dense arrays.  The lockstep's tableau is built once, at
import, as arrays; the scalar driver's is source compiled with its field,
once per Scalar.
"""

import math

import numpy as np

from ._numerics import brent_root

N_STAGES = 12  # stages of a step
N_STAGES_EXTENDED = 16  # with the field at the step's end and 3 dense-output stages
INTERPOLATOR_POWER = 7

# the stage nodes
C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
)

# the rows of the extended 16 x 16 matrix A; B is its row 12
A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {
        0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2,
    },
    3: {
        0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2,
    },
    4: {
        0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    5: {
        0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    6: {
        0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2,
    },
    7: {
        0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    8: {
        0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1,
    },
    9: {
        0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    10: {
        0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
    },
    11: {
        0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    12: {
        0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
    },
    13: {
        0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
    },
    14: {
        0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    15: {
        0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138,
    },
}

# E3 is B less these weights, with a zero weight for the field at the step's end
E3_FROM_B = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}

# the fifth-order error weights of the 13 stages
E5_WEIGHTS = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}

# the dense output's last four coefficients; the first three come from the step
D_ROWS = (
    {
        0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1,
    },
    {
        0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2,
    },
    {
        0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2,
    },
    {
        0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3,
    },
)


def _matrix(rows, shape):
    out = np.zeros(shape)
    for i, row in rows:
        out[i, list(row)] = list(row.values())
    return out


def coefficients():
    """(A, B, C, E3, E5, D) as arrays, shaped as scipy's dop853_coefficients holds them."""
    A = _matrix(A_ROWS.items(), (N_STAGES_EXTENDED, N_STAGES_EXTENDED))
    B = A[N_STAGES, :N_STAGES]
    E3 = np.zeros(N_STAGES + 1)
    E3[:-1] = B
    for j, weight in E3_FROM_B.items():
        E3[j] -= weight
    E5 = _matrix([(0, E5_WEIGHTS)], (1, N_STAGES + 1))[0]
    D = _matrix(enumerate(D_ROWS), (INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
    return A, B, np.array(C), E3, E5, D


# The tableau for many lanes, shaped to broadcast over K's (stage, lane,
# component) axes: _A_LANES[s] weighs stage s's predecessors, and _E53_LANES
# stacks the fifth- and third-order error weights.
_A, _B, _C_LANES, _E3, _E5, _D = coefficients()
_A_LANES = [_A[s, :s, None, None] for s in range(N_STAGES_EXTENDED)]
_B_LANES = _B[:, None, None]
_E53_LANES = np.stack([_E5, _E3])[:, :, None, None]
_D_LANES = _D[:, :, None, None]


# step control, as scipy's DOP853 has it
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _scalar_source(params, source):
    """The one-lane driver of a field as straight-line code, as the Fortran DOP853 writes it.

    field(x, y0, y1, *args) returns the field (f0, f1).  loop(t, v, dv,
    k0v, k0dv, h_abs, t_bound, rtol, keep, *args) is scalar_steps' loop
    from the state (t, v, dv), the field (k0v, k0dv) there and the first
    step h_abs.  row(t, h, v, dv, v_new, dv_new, K, *args) is an accepted
    step's row of the step table, built as _Pending.flush builds it.  The
    field's source is spliced into each stage, with no call.  A sum is
    0.0 plus its terms in stage order, a weight its repr (the same
    double).  A zero weight changes no bit of a sum of finite stages, so
    only E5 and E3 keep theirs: a non-finite field at a step's end (weight
    0) still fails the error test, as it does in the lockstep.
    """
    args = "".join(f", {name}" for name in params)
    body = source.strip("\n").splitlines()
    reads_x = "x" in compile(source, "<field>", "exec").co_names

    def total(weights, c):  # weights as {j: w_j}
        return " + ".join(["0.0", *(f"{w!r} * k{j}{c}" for j, w in sorted(weights.items()))])

    def evaluate(k, x, y0, y1, pad):
        """Lines that set k{k}v, k{k}dv to the field at (x, y0, y1)."""
        lines = [f"x = {x}"] if reads_x else []
        lines += [f"y0 = {y0}", f"y1 = {y1}", *body, f"k{k}v, k{k}dv = f0, f1"]
        return [pad + line for line in lines]

    def stages(first, last, pad):
        return [line for s in range(first, last) for line in evaluate(
            s, f"t + {C[s]!r} * h", f"v + h * ({total(A_ROWS[s], 'v')})",
            f"dv + h * ({total(A_ROWS[s], 'dv')})", pad)]

    K = ", ".join(f"k{j}v, k{j}dv" for j in range(N_STAGES + 1))
    B = A_ROWS[N_STAGES]
    e5v, e5dv, e3v, e3dv = (total(dict(enumerate(e.tolist())), c)
                            for e in (_E5, _E3) for c in ("v", "dv"))
    dense = [f"h * ({total(row, c)})" for row in D_ROWS for c in ("v", "dv")]
    return "\n".join([
        f"def field(x, y0, y1{args}):",
        *("    " + line for line in body),
        "    return f0, f1",
        f"def loop(t, v, dv, k0v, k0dv, h_abs, t_bound, rtol, keep{args}):",
        "    accepted = [] if keep else None",
        "    retry = False",
        "    while True:",
        "        min_step = 10.0 * (math.nextafter(t, math.inf) - t)",
        "        if not retry:",
        "            h_abs = max(h_abs, min_step)",
        "        if not h_abs >= min_step:  # a NaN step fails too",
        "            return accepted, t, False, True",
        "        t_new = min(t + h_abs, t_bound)",
        "        h = t_new - t",
        *stages(1, N_STAGES, " " * 8),
        f"        v_new = v + h * ({total(B, 'v')})",
        f"        dv_new = dv + h * ({total(B, 'dv')})",
        *evaluate(N_STAGES, "t + h", "v_new", "dv_new", " " * 8),
        "        scale = rtol * max(abs(v), abs(dv), abs(v_new), abs(dv_new))",
        f"        e5v, e5dv = ({e5v}) / scale, ({e5dv}) / scale",
        f"        e3v, e3dv = ({e3v}) / scale, ({e3dv}) / scale",
        "        err5 = e5v * e5v + e5dv * e5dv",
        "        err3 = e3v * e3v + e3dv * e3dv",
        "        error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2) if err5 else 0.0",
        f"        ratio = {_SAFETY!r} * error_norm ** {_ERROR_EXPONENT!r}"
        " if error_norm else math.inf",
        "        if not error_norm < 1:",
        f"            h_abs = h * max({_MIN_FACTOR!r}, ratio)",
        "            retry = True",
        "            continue",
        f"        grow = min({_MAX_FACTOR!r}, ratio)",
        "        h_abs = h * (min(1.0, grow) if retry else grow)",
        "        retry = False",
        "        if keep:",
        f"            accepted.append((t, h, v, dv, v_new, dv_new, ({K})))",
        "        crossed = v >= 0 and v_new <= 0",
        f"        t, v, dv, k0v, k0dv = t_new, v_new, dv_new, k{N_STAGES}v, k{N_STAGES}dv",
        "        if crossed or t >= t_bound:",
        "            return accepted, t, crossed, False",
        f"def row(t, h, v, dv, v_new, dv_new, K{args}):",
        f"    {K} = K",
        *stages(N_STAGES + 1, N_STAGES_EXTENDED, "    "),
        "    delta_v, delta_dv = v_new - v, dv_new - dv",
        "    return (0.0, t, h, v, dv, delta_v, delta_dv, h * k0v - delta_v, h * k0dv - delta_dv,"
        f" 2 * delta_v - h * (k12v + k0v), 2 * delta_dv - h * (k12dv + k0dv), {', '.join(dense)})",
    ])


class Scalar:
    """The one-lane driver of a field y' = f(x, y), compiled once from its source.

    source is unindented Python statements that set f0 and f1 from the
    state y0, y1, the time x and the parameters named in params; they may
    read the math module.  Every name they bind is a local of the step
    loop, beside its own (t, h, v, dv, the stages k<j>v, k<j>dv, ...), so
    a temporary must not reuse one of those.  field, loop and row are
    _scalar_source's, each taking the parameters' values last, in params
    order; scalar_steps and scalar_run drive them.
    """

    def __init__(self, params, source):
        self.params, self.source = tuple(params), source
        namespace = {"math": math}
        exec(compile(_scalar_source(self.params, source), f"<{__name__} scalar>", "exec"),
             namespace)
        self.field, self.loop, self.row = namespace["field"], namespace["loop"], namespace["row"]


# Accepted steps held back before their dense-output stages are built in one
# pass: room for _PENDING_ITERATIONS iterations of the whole batch, and at
# least _PENDING_ROWS rows.  Fewer passes save their fixed costs, a larger hold
# costs memory: dichotomy_sweep's 121 lanes ran no faster with twice the hold.
_PENDING_ROWS = 256
_PENDING_ITERATIONS = 16

# A row of the step table is (lane, t_old, h, y0_old, y1_old, F), F the 7 x 2
# dense-output coefficients of the step, flattened row by row.
ROW_WIDTH = 5 + 2 * INTERPOLATOR_POWER


def _stage_sum(coeffs, K):
    """sum_j coeffs[..., j, :, :] K[j], added in stage order.

    Each lane's sum is rounded the same whatever the batch around it, so a
    lane's run does not depend on the other lanes (a matrix product would
    block its sums by the batch width).
    """
    return np.add.reduce(coeffs * K[: coeffs.shape[-3]], axis=-3)


def _stage(s, t, y, hc, K, rhs):
    """Stage s of every lane into K[s]: the field at t, y + h sum_j A[s, j] K[j]."""
    ys = _stage_sum(_A_LANES[s], K)
    ys *= hc
    ys += y
    rhs(t, ys, K[s])


def _rms(x):
    return np.sqrt(np.sum(x * x, axis=1)) / 2.0**0.5


def _initial_step(t0, y0, f0, t_bound, rhs, rtol):
    """scipy's select_initial_step for every lane (error estimator order 7), in this norm.

    rhs(t, y, out) writes the lanes' field at times t and states y into out;
    a lane's scale is rtol times its state's larger component.
    """
    interval = t_bound - t0
    scale = rtol * np.abs(y0).max(axis=1, keepdims=True)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval)
    f1 = np.empty_like(y0)
    rhs(t0 + h0, y0 + h0[:, None] * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0),
    )
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


class _Pending:
    """Accepted steps waiting for their dense output: (lane, t, h, y, K[0..12]).

    K holds the step's 12 stages and the field at its end; room for the
    three dense-output stages is kept behind them.  The lockstep flushes
    when the hold cannot take an iteration's accepted steps and once when
    its loop ends; each flush appends one block of step-table rows, each
    lane's rows in step order.
    """

    def __init__(self, size):
        self.lane = np.empty(size, dtype=int)
        self.t = np.empty(size)
        self.h = np.empty(size)
        self.y = np.empty((size, 2))
        self.K = np.empty((N_STAGES_EXTENDED, size, 2))
        self.n = 0

    def room(self, m):
        return self.n + m <= len(self.t)

    def push(self, k, lane, t, h, y, K):
        """Hold the steps of lanes k (indices into this iteration's arrays)."""
        rows = slice(self.n, self.n + len(k))
        self.lane[rows] = lane.take(k)
        self.t[rows] = t.take(k)
        self.h[rows] = h.take(k)
        self.y[rows] = y.take(k, axis=0)
        self.K[: N_STAGES + 1, rows] = K.take(k, axis=1)  # K[:, k] gathers far slower
        self.n = rows.stop

    def flush(self, lane_field, blocks):
        """Build every held step's dense output in one pass, as one block appended to blocks.

        The four D-weighted rows of F are summed one at a time, so the
        largest temporary is one (16, rows, 2) stage product.
        """
        n = self.n
        if not n:
            return
        lane, t, h, y = self.lane[:n], self.t[:n], self.h[:n], self.y[:n]
        K = self.K[:, :n]
        rhs = lane_field(lane)
        hc = h[:, None]
        for s in range(N_STAGES + 1, len(K)):
            _stage(s, t + _C_LANES[s] * h, y, hc, K, rhs)
        y_new = y + hc * _stage_sum(_B_LANES, K)  # as the step summed it
        delta = y_new - y
        block = np.empty((n, ROW_WIDTH))
        blocks.append(block)
        block[:, 0], block[:, 1], block[:, 2], block[:, 3:5] = lane, t, h, y
        F = block[:, 5:].reshape(n, INTERPOLATOR_POWER, 2)
        F[:, 0] = delta
        F[:, 1] = hc * K[0] - delta
        F[:, 2] = 2 * delta - hc * (K[N_STAGES] + K[0])
        for i, row in enumerate(_D_LANES):
            np.multiply(hc, _stage_sum(row, K), out=F[:, 3 + i])
        self.n = 0


def _dense_v(t, step):
    """y0 at t on one logged step's dense output, as Dop853DenseOutput does it."""
    x = (t - step[1]) / step[2]
    y = 0.0
    for i, f in enumerate(reversed(step[5::2])):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + step[3]


def _crossing(step, t_end: float) -> float:
    """The zero of y0 on one logged step (a sequence of floats) that ends at t_end."""
    return brent_root(lambda t: _dense_v(t, step), step[1], t_end, xtol=4 * EPS)


def dense_nodes(steps, nodes):
    """(y0, y1) at sorted nodes from rows of a step table, as OdeSolution does it.

    Rows are (lane, t_old, h, y0_old, y1_old, F), ROW_WIDTH wide; a node
    on a step boundary is read from the earlier step.  Each coefficient
    column is gathered at the nodes' step indices and the two components
    are summed apart, in Dop853DenseOutput's Horner order, so every
    operation is one on arrays of the nodes' shape.  steps needs at least
    one row.
    """
    seg = np.searchsorted(steps[:, 1], nodes, side="left") - 1
    np.clip(seg, 0, len(steps) - 1, out=seg)
    x = nodes - steps[:, 1][seg]
    x /= steps[:, 2][seg]
    u = 1 - x
    last = steps.shape[1] - 2  # the column of F[-1]'s y0
    out = []
    for c in (0, 1):
        y = steps[:, last + c][seg]
        y += 0.0  # as Horner's sum from zero: -0.0 reads +0.0
        y *= x
        for i in range(1, INTERPOLATOR_POWER):
            y += steps[:, last + c - 2 * i][seg]
            y *= x if i % 2 == 0 else u
        y += steps[:, 3 + c][seg]
        out.append(y)
    return out[0], out[1]


def scalar_steps(scalar, args, start, t_bound, rtol, keep=False):
    """One run of a Scalar on Python floats: (accepted, t, crossed, stopped).

    The lockstep's iteration for a single lane: the same initial step
    (_initial_step on one-lane arrays, with scalar.field), then
    scalar.loop, with the same step control, stage sums in stage order,
    error norm, minimum-step test and crossing rule.  args are the
    values of scalar.params, and start is (t, y0, y1).  With keep,
    accepted holds every accepted step as (t, h, y0, y1, y0_new, y1_new,
    K), K its 13 stages flattened as (k0v, k0dv, k1v, ...), and is empty
    when the run stops before its first step; without, it is None.  t is
    where the run ended: the end of the crossing step, t_bound, or, for a
    run that failed the minimum-step test (stopped), the last t it
    reached.  No dense output is built.
    """
    t, v, dv = start
    f = scalar.field(t, v, dv, *args)

    def one_lane(t, y, out):
        out[0] = scalar.field(float(t[0]), float(y[0, 0]), float(y[0, 1]), *args)

    with np.errstate(all="ignore"):
        h_abs = _initial_step(
            np.array([t]), np.array([[v, dv]]), np.array([f]), t_bound, one_lane, rtol
        )
    return scalar.loop(t, v, dv, *f, float(h_abs[0]), t_bound, rtol, keep, *args)


def scalar_run(scalar, args, start, t_bound, rtol):
    """scalar_steps' run with its step table: (steps, t_end, crossed, stopped).

    steps holds every accepted step as a row of the step table
    (ROW_WIDTH, built by scalar.row), with lane 0; it has no rows when
    the run stops before its first step.  t_end is the crossing refined
    on the last row's dense output, t_bound, or, for a stopped run, the
    last t it reached.  Only a caller that samples nodes needs this; a
    caller that only asks whether the run crossed reads scalar_steps.
    """
    accepted, t, crossed, stopped = scalar_steps(scalar, args, start, t_bound, rtol, keep=True)
    rows = [scalar.row(*step, *args) for step in accepted]
    t_end = _crossing(rows[-1], t) if crossed else t
    return np.reshape(rows, (-1, ROW_WIDTH)), t_end, crossed, stopped


def lockstep(lane_field, starts, t_bound, rtol):
    """Run every start as a lane of one lockstep: one run per lane, in lane order.

    starts holds one (t, y0, y1) per lane, and a lane is its index into
    starts.  lane_field(lanes) returns the field rhs(t, y, out) of the
    given lanes, which writes (y0', y1') of each row of y into out.  One
    iteration tries one step on every lane still in the lockstep; a lane
    leaves when it crosses, reaches t_bound or fails the minimum-step test.
    A lane's run is (steps, t_end, crossed, stopped) as scalar_run returns
    it: its rows of the step table in step order, and t_end the refined
    crossing, t_bound, or, for a stopped lane, the last t it reached.
    """
    starts = np.reshape(starts, (-1, 3))
    n_lanes = len(starts)
    lane = np.arange(n_lanes)
    t, y = starts[:, 0].copy(), starts[:, 1:].copy()
    rhs = lane_field(lane)
    f = np.empty_like(y)
    ends = [None] * n_lanes  # (the last t, crossed, stopped) of each lane that left
    blocks = [np.empty((0, ROW_WIDTH))]  # the step table, a block per flush; none may come
    pending = _Pending(max(_PENDING_ROWS, _PENDING_ITERATIONS * n_lanes))

    with np.errstate(all="ignore"):
        rhs(t, y, f)
        h_abs = _initial_step(t, y, f, t_bound, rhs, rtol)
        retry = np.zeros(n_lanes, dtype=bool)
        while len(lane):
            min_step = 10.0 * (np.nextafter(t, np.inf) - t)
            h_abs = np.where(retry, h_abs, np.maximum(h_abs, min_step))
            failed = ~(h_abs >= min_step)  # a NaN step fails too
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            hc = np.column_stack((h, h))

            K = np.empty((N_STAGES + 1, len(lane), 2))
            K[0] = f
            t_stage = t + _C_LANES[1:N_STAGES, None] * h
            for s in range(1, N_STAGES):
                _stage(s, t_stage[s - 1], y, hc, K, rhs)
            y_new = y + hc * _stage_sum(_B_LANES, K)
            f_new = K[N_STAGES]
            rhs(t + h, y_new, f_new)

            scale = np.maximum(np.abs(y), np.abs(y_new)).max(axis=1, keepdims=True)
            scale *= rtol
            err = _stage_sum(_E53_LANES, K)
            err /= scale
            err *= err
            err5, err3 = np.add.reduce(err, axis=-1)
            error_norm = np.where(
                (err5 == 0) & (err3 == 0),
                0.0,
                h * err5 / np.sqrt((err5 + 0.01 * err3) * 2),
            )
            accept = (error_norm < 1) & ~failed
            ratio = _SAFETY * error_norm**_ERROR_EXPONENT
            grow = np.minimum(_MAX_FACTOR, ratio)  # inf at error_norm = 0
            grow = np.where(retry, np.minimum(1.0, grow), grow)
            h_abs = h * np.where(accept, grow, np.fmax(_MIN_FACTOR, ratio))
            retry = ~accept

            acc = np.flatnonzero(accept)
            if not pending.room(len(acc)):
                pending.flush(lane_field, blocks)
            pending.push(acc, lane, t, h, y, K)

            crossed = accept & (y[:, 0] >= 0) & (y_new[:, 0] <= 0)
            gone = failed | crossed | (accept & (t_new >= t_bound))
            t = np.where(accept, t_new, t)
            y[acc] = y_new[acc]
            f[acc] = f_new[acc]
            if not gone.any():
                continue
            for k in np.flatnonzero(gone):
                ends[lane[k]] = float(t[k]), bool(crossed[k]), bool(failed[k])
            keep = ~gone
            lane, t, y, f, h_abs, retry = (a[keep] for a in (lane, t, y, f, h_abs, retry))
            rhs = lane_field(lane)
        pending.flush(lane_field, blocks)

    # one stable sort by lane keeps each lane's rows in step order
    table = np.concatenate(blocks)
    table = table[np.argsort(table[:, 0], kind="stable")]
    by_lane = np.split(table, np.searchsorted(table[:, 0], np.arange(1, n_lanes)))
    runs = []
    for steps, (t_end, crossed, stopped) in zip(by_lane, ends):
        if crossed:
            t_end = _crossing(steps[-1].tolist(), t_end)
        runs.append((steps, t_end, crossed, stopped))
    return runs
