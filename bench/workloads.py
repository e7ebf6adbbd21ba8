"""The four workloads: seeded inputs, one user-visible call, and its checks.

Each workload draws its inputs from ``numpy.random.default_rng([seed, k])``
with its own stream k, so one seed always gives the same inputs, and the
library sees nothing but those inputs.  A workload offers a cyclic list of
operations: ``call(i)`` is what the benchmark times, ``check(i, result,
report)`` compares the output with an oracle outside the timed region,
and ``units(i)`` is the work the call completes.

Oracles are independent of the code under test where one exists: the
critical and Serrin exponents and the symmetry-breaking curve are
re-derived here from their formulas, and the crossing radius of the cubic
shot is a fixed-step RK4 value.

Every workload also carries a few anchor operations whose inputs do not
depend on the seed.  Their errors against the oracles are what
``oracle_err_ratio`` reports: the same code gives the same figure at every
seed, and a looser tolerance moves it by orders of magnitude.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

# First zero of the N = 3, a = b = 0, p = 3 shot from v(0) = 1, computed by
# the fixed-step RK4 reference integrator of the test suite.  By scaling,
# the shot from height beta crosses at R_CUBIC / beta.
R_CUBIC = 6.896848619376454

# The six weighted families of the acceptance criteria.
CRITICAL_TRIPLES = [
    (3, 0.0, 0.0),
    (3, 0.0, 1.0),
    (3, 0.5, 1.0),
    (4, 0.0, 0.0),
    (4, -0.5, 0.0),
    (5, 1.0, 2.0),
]


def p_serrin(N, a, b):
    return (N + b) / (N - 2.0 + a)


def p_critical(N, a, b):
    return (N + 2.0 + 2.0 * b - a) / (N - 2.0 + a)


def _stratified(rng, k: int, n: int, lo: float, hi: float) -> float:
    """A uniform draw from the k-th of n equal cells of [lo, hi)."""
    return lo + (k + float(rng.uniform())) * (hi - lo) / n


class Report:
    """Attempted and failed operations, and the worst error against each gate.

    ``worst`` covers every checked output, ``anchor_worst`` the outputs of
    the anchor operations only.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, float] = {}
        self.anchor_worst: dict[str, float] = {}
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20 and what not in self.failures:
                self.failures.append(what)

    def error(self, check: str, err: float, gate: float, anchor: bool = False) -> bool:
        ratio = err / gate
        for worst in (self.worst, self.anchor_worst) if anchor else (self.worst,):
            if not ratio <= worst.get(check, 0.0):
                worst[check] = ratio
        return ratio <= 1.0

    @property
    def oracle_err_ratio(self) -> float:
        """Worst error over gate on the anchor operations; NaN if none was checked.

        The worst over the seeded inputs moves by a factor of ten from seed
        to seed (ckn_grid); it is kept in ``worst`` for the results file.
        """
        return max(self.anchor_worst.values(), default=float("nan"))


class Workload:
    name = ""
    unit = ""
    pooled = False

    def __len__(self) -> int:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result, report: Report) -> None:
        raise NotImplementedError

    def units(self, i: int) -> int:
        return 1

    def label(self, i: int) -> str:
        return self.name

    def warm_up(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------- dichotomy sweep


class DichotomySweep(Workload):
    """Criterion 5: 6 families x 20 values of p on (p_serrin, p_c + 1), pooled.

    p is jittered inside each of the 20 grid cells.  One anchor row, the
    cubic shot, rides along with a known crossing radius, so the pooled
    batch is checked against an oracle number as well as the dichotomy.
    It is the workload's only error measurement.
    """

    name = "dichotomy_sweep"
    unit = "shot"
    pooled = True
    MARGIN = 1e-2
    CUBIC_GATE = 1e-3

    def __init__(self, E, seed: int, tiny: bool):
        self.E = E
        rng = np.random.default_rng([seed, 1])
        per_family = 3 if tiny else 20
        self.rows = []
        self.p_c = []
        for N, a, b in CRITICAL_TRIPLES:
            ps, pc = p_serrin(N, a, b), p_critical(N, a, b)
            h = (pc + 1.0 - ps) / (per_family + 1)
            for k in range(1, per_family + 1):
                p = ps + (k + rng.uniform(-0.45, 0.45)) * h
                self.rows.append(E.ProblemParams(N, a, b, float(p)))
                self.p_c.append(pc)
        self.rows.append(E.ProblemParams(3, 0.0, 0.0, 3.0))
        self.p_c.append(None)
        self.beta = 100.0
        self.config = E.ShootConfig(beta=self.beta, r_max=1e4)
        self.processes = len(os.sched_getaffinity(0))

    def __len__(self):
        return 1

    def units(self, i):
        return len(self.rows)

    def call(self, i, processes=None):
        return self.E.shooting.sweep_shoot(
            self.rows, self.config, processes=processes or self.processes
        )

    def warm_up(self):
        self.E.shooting.shoot(self.rows[0], self.config)

    def check(self, i, outcomes, report):
        E = self.E
        if len(outcomes) != len(self.rows):
            report.op(False, f"{len(outcomes)} outcomes for {len(self.rows)} rows")
            return
        for params, pc, outcome in zip(self.rows, self.p_c, outcomes):
            crossed = isinstance(outcome, E.CrossedZero)
            if pc is None:
                ok = crossed and report.error(
                    "cubic_r0", abs(self.beta * outcome.r0 - R_CUBIC), self.CUBIC_GATE,
                    anchor=True,
                )
                report.op(ok, f"anchor {params}: {outcome}")
                continue
            ok = True
            if params.p <= pc - self.MARGIN and not crossed:
                ok = False
            if params.p >= pc and crossed:
                ok = False
            if isinstance(outcome, E.Inconclusive) and abs(params.p - pc) >= self.MARGIN:
                ok = False
            report.op(ok, f"criterion 5 violated at {params}: {outcome}")


# ----------------------------------------------------------- threshold search


class ThresholdSearch(Workload):
    """Criterion 4: bisect p_c for three families from seeded brackets.

    Every bracket has width 2 and sits at a seeded offset around p_c, so
    each bisection takes the same 11 halvings and 13 shots.  Three anchor
    bisections, one per family, start from p_c - 0.8.
    """

    name = "threshold_search"
    unit = "bisection"
    FAMILIES = [(3, 0.0, 0.0), (4, 0.0, 0.0), (3, 0.0, 1.0)]
    GATE = 1e-2
    TOL_P = 1e-3

    def __init__(self, E, seed: int, tiny: bool):
        self.E = E
        rng = np.random.default_rng([seed, 2])
        per_family = 1 if tiny else 8
        self.cases = []
        for k in range(per_family):
            for N, a, b in self.FAMILIES:
                pc = p_critical(N, a, b)
                lo = pc - _stratified(rng, k, per_family, 0.55, 1.45)
                self.cases.append((N, a, b, lo, lo + 2.0, pc))
        self.n_seeded = len(self.cases)
        for N, a, b in self.FAMILIES:
            pc = p_critical(N, a, b)
            self.cases.append((N, a, b, pc - 0.8, pc + 1.2, pc))
        self.config = E.ShootConfig(beta=100.0, r_max=1e3)

    def __len__(self):
        return len(self.cases)

    def call(self, i):
        N, a, b, lo, hi, _ = self.cases[i]
        return self.E.shooting.threshold_bisect(
            N, a, b, lo, hi, tol_p=self.TOL_P, config=self.config
        )

    def warm_up(self):
        N, a, b, lo, _, _ = self.cases[0]
        self.E.shooting.shoot(self.E.ProblemParams(N, a, b, lo), self.config)

    def check(self, i, p_star, report):
        N, a, b, lo, hi, pc = self.cases[i]
        ok = report.error("p_star", abs(p_star - pc), self.GATE, anchor=i >= self.n_seeded)
        report.op(ok, f"threshold ({N},{a},{b}) in [{lo}, {hi}]: {p_star} vs {pc}")


# ------------------------------------------------------------------ ckn grid


def b_symmetry_breaking(N, a):
    """b above which (a, b) on the balance curve breaks symmetry (a > 0).

    fs_region breaks symmetry when b > q beta_fs with q = 2(N+b)/(N-2+a);
    solved for b.
    """
    M = N - 2.0 + a
    beta = (M / 2.0) * (1.0 - N / math.sqrt(M * M + 4.0 * (N - 1)))
    return 2.0 * N * beta / (M - 2.0 * beta)


class CknGrid(Workload):
    """``ckn --grid`` rows at N = 3, run as cmd_ckn's loop runs them.

    Value rows fill the admissible band a - 1.5 <= b <= min(3a, b_sb(a))
    on a jittered 8 x 6 grid, and each must give the closed-form value.
    The rest of the band, the strip a - 2 < b < a - 1.5, is the workload
    ``ckn_band_edge``.  Symmetry-breaking rows must make best_constant
    refuse; band rows give no value; rows with b < a - 2 must raise
    NotInRange.  Four anchor value rows at fixed (a, b) follow the seeded
    ones.
    """

    name = "ckn_grid"
    unit = "row"
    N = 3
    GATE = 1e-6
    ANCHORS = [(-0.25, -1.25), (0.0, -1.0), (0.5, -0.5), (1.0, 0.0)]
    REFUSAL_ROWS = True

    def value_band(self, a):
        """(lo, hi) of b for the value rows at a, kept off the symmetry-breaking edge."""
        hi = min(3.0 * a, b_symmetry_breaking(self.N, a)) if a > 0 else 3.0 * a
        return a - 1.5, a - 1.5 + (hi - a + 1.5) * 0.95

    def __init__(self, E, seed: int, tiny: bool):
        self.E = E
        rng = np.random.default_rng([seed, 3])
        n_a, n_t, n_edge = (2, 2, 1) if tiny else (8, 6, 4)
        if not self.REFUSAL_ROWS:
            n_edge = 0
        a_lo, a_hi = -0.4, 2.6
        rows = []
        for i in range(n_a):
            for j in range(n_t):
                a = _stratified(rng, i, n_a, a_lo, a_hi)
                lo, hi = self.value_band(a)
                rows.append((a, _stratified(rng, j, n_t, lo, hi), "value"))
        for k in range(n_edge):
            a = _stratified(rng, k, n_edge, 0.6, 2.4)
            bsb = b_symmetry_breaking(self.N, a)
            rows.append((a, bsb + rng.uniform(0.15, 0.85) * (3.0 * a - bsb), "symmetry_breaking"))
            a = _stratified(rng, k, n_edge, -0.6, -0.1)
            rows.append((a, 3.0 * a + rng.uniform(0.1, 1.0), "band"))
            a = _stratified(rng, k, n_edge, 0.0, 2.0)
            rows.append((a, a - 2.0 - rng.uniform(0.1, 0.8), "not_in_range"))
        self.rows = [(float(a), float(b), kind) for a, b, kind in rows]
        order = rng.permutation(len(self.rows))
        self.rows = [self.rows[k] for k in order]
        self.n_seeded = len(self.rows)
        self.rows += [(a, b, "value") for a, b in self.ANCHORS]

    def __len__(self):
        return len(self.rows)

    def call(self, i):
        E = self.E
        a, b, _ = self.rows[i]
        N = self.N
        q = 2.0 * (N + b) / (N - 2.0 + a)
        triple = E.CknTriple(N, a, b, q)
        try:
            flag = E.params.fs_region(E.ProblemParams(N, a, b, q - 1.0))
            verdict = E.ckn.check_balance(triple).verdict
        except E.EmdenLabError as exc:
            return ("raised", None, None, exc)
        if verdict != E.ADMISSIBLE:
            return ("no_value", flag, verdict, None)
        # cmd_ckn skips symmetry-breaking rows; here best_constant must refuse them
        try:
            return ("value", flag, verdict, E.ckn.best_constant(triple))
        except E.SymmetryBreakingRegion as exc:
            return ("refused", flag, verdict, exc)

    def warm_up(self):
        self.call(self.n_seeded)  # the first anchor row

    def check(self, i, result, report):
        E = self.E
        a, b, kind = self.rows[i]
        outcome, flag, verdict, value = result
        what = f"ckn row ({a}, {b}) [{kind}]: {outcome} {flag} {verdict} {value!r}"
        if kind == "value":
            ok = (
                outcome == "value"
                and flag == E.RADIAL_MINIMIZER
                and value.closed_form is not None
                and report.error(
                    "quadrature_vs_closed_form",
                    abs(value.rayleigh - value.closed_form) / abs(value.closed_form),
                    self.GATE,
                    anchor=i >= self.n_seeded,
                )
            )
        elif kind == "symmetry_breaking":
            ok = outcome == "refused" and flag == E.SYMMETRY_BREAKING
        elif kind == "band":
            expected_flag = E.RADIAL_MINIMIZER if b < 0 else E.NOT_APPLICABLE
            ok = outcome == "no_value" and verdict == E.BAND_VIOLATED and flag == expected_flag
        else:
            ok = outcome == "raised" and isinstance(value, E.NotInRange)
        report.op(ok, what)


class CknBandEdge(CknGrid):
    """Value rows in the strip a - 2 < b < a - 1.5 of the admissible band.

    Every row there is admissible, radial and has a finite closed form, so
    each must give the closed-form value, checked as in ckn_grid.  Today
    best_constant raises NonintegrableProfile, OverflowError or its
    cross-check's RuntimeError on many of them (15 of 49 at seed 1):
    the bubble's tail starts beyond the decades the quadrature tries.  The
    workload reports those failures and exits 1; it is kept out of
    BENCHMARK.json's workloads, which must pass, until ckn is fixed.
    """

    name = "ckn_band_edge"
    ANCHORS = [(0.0, -1.8)]
    REFUSAL_ROWS = False

    def value_band(self, a):
        return a - 2.0, a - 1.5


# --------------------------------------------------------------- cli session


def _regime(N, a, b, p):
    """Regime label re-derived from the exponent formulas (p > 1, N - 2 + a > 0)."""
    if N + b <= 0 or b <= a - 2:
        return "inadmissible_weights"
    if p <= p_serrin(N, a, b):
        return "no_positive_solution_serrin"
    if p < p_critical(N, a, b):
        return "subcritical_liouville"
    return "supercritical"


class CliSession(Workload):
    """``cli.main`` in process, each call writing into its own --out directory.

    A session is classify, shoot, pohozaev, pohozaev --traj on the CSV the
    previous call wrote, bubble, phase, and a second classify.  With seven
    calls the median falls inside one kind of call instead of between the
    three fast and the three slow kinds.  Several seeded sessions and one
    anchor session with fixed arguments cycle; every repeat of a call must
    write the same bytes as its first run.
    """

    name = "cli_session"
    unit = "invocation"
    STEPS = ("classify", "shoot", "pohozaev", "pohozaev_traj", "bubble", "phase", "classify")

    def __init__(self, E, seed: int, tiny: bool, out_dir: str):
        self.E = E
        self.out_dir = out_dir
        rng = np.random.default_rng([seed, 4])
        self.sessions = []
        n = 1 if tiny else 4
        families = rng.permutation(len(CRITICAL_TRIPLES))
        for k in range(n):
            points = []
            for _ in range(2):
                N = int(rng.integers(3, 7))
                a = float(rng.uniform(-(N - 2) + 0.1, 2.0))
                b = float(rng.uniform(a - 2.5, 3.0))
                points.append((N, a, b, float(rng.uniform(1.1, 12.0))))
            self._add_session(
                points,
                beta_shoot=_stratified(rng, k, n, 0.5, 2.0),
                beta_poh=_stratified(rng, k, n, 0.4, 0.6),
                family=CRITICAL_TRIPLES[int(families[k])],
                p_phase=_stratified(rng, k, n, 10.0, 14.0),
            )
        self.n_seeded = len(self.sessions)
        self._add_session(
            [(3, 0.0, 0.0, 4.0), (4, 0.5, 1.0, 10.0)],
            beta_shoot=1.0, beta_poh=0.5, family=CRITICAL_TRIPLES[0], p_phase=12.0,
        )
        self.first_run: dict[int, tuple] = {}
        self.last_payload: dict[int, tuple] = {}
        self.bytes_by_call: dict[int, int] = {}

    def _add_session(self, points, beta_shoot, beta_poh, family, p_phase):
        k = len(self.sessions)
        fN, fa, fb = family
        cubic = ["--N", "3", "--a", "0", "--b", "0", "--p", "3"]
        poh = [
            "pohozaev", *cubic, "--beta", repr(beta_poh), "--rmax", "20",
            "--radii", "0.5,1,2,4,8",
        ]
        dirs = [os.path.join(self.out_dir, f"session{k}", f"{j}-{step}")
                for j, step in enumerate(self.STEPS)]
        argvs = [
            ["classify", "--N", str(points[0][0]), "--a", repr(points[0][1]),
             "--b", repr(points[0][2]), "--p", repr(points[0][3])],
            ["shoot", *cubic, "--beta", repr(beta_shoot), "--rmax", repr(10.0 / beta_shoot),
             "--emit-plot"],
            poh,
            [*poh, "--traj", os.path.join(dirs[2], "trajectory.csv")],
            ["bubble", "--N", str(fN), "--a", repr(fa), "--b", repr(fb), "--samples", "100",
             "--emit-plot"],
            ["phase", "--N", "3", "--a", "0", "--b", "0", "--p", repr(p_phase),
             "--rmax", "1000", "--emit-plot"],
            ["classify", "--N", str(points[1][0]), "--a", repr(points[1][1]),
             "--b", repr(points[1][2]), "--p", repr(points[1][3])],
        ]
        argvs = [[*argv, "--out", out] for argv, out in zip(argvs, dirs)]
        expect = {
            0: _regime(*points[0]),
            1: beta_shoot,
            5: _w_star(3, 0.0, 0.0, p_phase),
            6: _regime(*points[1]),
        }
        self.sessions.append((argvs, dirs, expect))

    @property
    def bytes_written(self) -> int:
        """Data bytes one pass over every session writes; manifests left out."""
        return sum(self.bytes_by_call.values())

    def __len__(self):
        return len(self.sessions) * len(self.STEPS)

    def label(self, i):
        return self.STEPS[i % len(self.STEPS)]

    def call(self, i):
        argv = self.sessions[i // len(self.STEPS)][0][i % len(self.STEPS)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.E.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def warm_up(self):
        for j in range(len(self.STEPS)):
            self.call(j)

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def check(self, i, result, report):
        code, stdout, stderr = result
        k, j = divmod(i, len(self.STEPS))
        _, dirs, expect = self.sessions[k]
        step = self.STEPS[j]
        out_dir = dirs[j]
        what = f"cli {step} (session {k}): exit {code} {stderr.strip()}"
        if code != 0:
            report.op(False, what)
            return
        files = _read_outputs(out_dir)
        self.bytes_by_call[i] = sum(
            len(data) for name, data in files.items() if name != "manifest.json"
        )
        anchor = k >= self.n_seeded
        baseline = self.first_run.setdefault(i, (stdout, files))
        ok = baseline == (stdout, files)
        if not ok:
            what += " output differs from its first run"
        payload = json.loads(stdout)
        if step == "classify":
            ok = ok and payload["regime"] == expect[j]
        elif step == "shoot":
            outcome = payload["outcome"]
            ok = (
                ok
                and outcome["kind"] == "crossed_zero"
                and report.error(
                    "cubic_r0", abs(expect[j] * outcome["r0"] - R_CUBIC), 1e-3, anchor
                )
            )
        elif step == "pohozaev":
            worst = max(rep["relative_residual"] for rep in payload["reports"])
            ok = ok and report.error("pohozaev_residual", worst, 1e-6, anchor)
            self.last_payload[k] = (payload, files["pohozaev.csv"])
        elif step == "pohozaev_traj":
            in_memory, csv_bytes = self.last_payload.get(k, (None, None))
            ok = (
                ok
                and in_memory is not None
                and payload["reports"] == in_memory["reports"]
                and files["pohozaev.csv"] == csv_bytes
            )
        elif step == "bubble":
            ok = ok and report.error(
                "bubble_residual", payload["max_rel_residual"], 1e-10, anchor
            )
        elif step == "phase":
            w_star = payload["fixed_point"]["w_star"]
            ok = ok and report.error(
                "w_star", abs(w_star - expect[j]) / expect[j], 1e-12, anchor
            )
        report.op(ok, what)


def _w_star(N, a, b, p):
    sigma = 2.0 + b - a
    gamma = sigma / (p - 1.0)
    lambda2 = gamma * (N - 2.0 + a - gamma)
    return lambda2 ** (1.0 / (p - 1.0))


def _read_outputs(out_dir: str) -> dict:
    """Every file of one --out directory; the manifest without its wall time."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        files[name] = data
    return files


WORKLOADS = {
    cls.name: cls for cls in (DichotomySweep, ThresholdSearch, CknGrid, CliSession)
}

# Workloads that show a known defect of emdenlab: they fail until it is fixed.
FINDINGS = {CknBandEdge.name: CknBandEdge}
