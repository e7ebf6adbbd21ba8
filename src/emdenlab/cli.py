"""Batch command-line front end.

Every library module is exposed as one subcommand.  A cmd_* function only
computes: it returns an Output (its data files as text, the manifest echo
and the exit code).  main() is the one place that prints the primary
payload (JSON or CSV) to standard output and, when --out is given, creates
the directory, writes the data files and adds a manifest.json describing
the run.  Numeric text uses the shortest round-trip representation, so
identical flags produce byte-identical data files; the manifest's
wall_time_s is the one intentionally nondeterministic field.

Exit codes: 0 success, 2 invalid parameters, 3 inconclusive numerics,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .ckn import (
    ADMISSIBLE,
    CknTriple,
    best_constant,
    check_balance,
)
from .closed_forms import (
    bubble,
    bubble_eval,
    bubble_second_derivative,
    normalized_bubble,
    residual,
)
from .emden_fowler import fixed_points, hamiltonian, to_cylinder
from .errors import EmdenLabError
from .params import (
    INADMISSIBLE_WEIGHTS,
    SYMMETRY_BREAKING,
    ProblemParams,
    classify,
    derive,
    fs_region,
    p_critical,
    validate,
)
from .pohozaev import evaluate as ball_identity
from .shooting import (
    Inconclusive,
    RadialTrajectory,
    ShootConfig,
    csv_text,
    shoot,
    sweep_shoot,
    threshold_bisect,
    trajectory_csv,
    trajectory_from_csv,
)


class Output(NamedTuple):
    """What a subcommand produced; main() prints, writes and records it.

    files maps each data file's name to its text, primary file first: that
    one is also the stdout payload.  params and config are echoed in the
    manifest; code is the exit code.
    """

    files: dict
    params: dict
    config: dict
    code: int = 0


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _shot_code(traj: RadialTrajectory) -> int:
    return 3 if isinstance(traj.outcome, Inconclusive) else 0


def _config_from(args) -> ShootConfig:
    return ShootConfig(
        beta=args.beta,
        r_max=args.rmax,
        rel_tol=args.rtol,
        abs_tol=args.atol,
        epsilon0=args.eps0,
        nodes_per_decade=args.nodes_per_decade,
    )


def _read_grid(path: str, n_columns: int):
    """Numeric rows from a CSV grid file; one optional header row allowed."""
    rows = []
    header_seen = False
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line or not "".join(line).strip():
                continue
            if line[0].lstrip().startswith("#"):
                continue
            try:
                values = [float(tok) for tok in line[:n_columns]]
            except ValueError:
                if rows or header_seen:
                    raise ValueError(f"non-numeric row {line!r} in {path}")
                header_seen = True
                continue
            if len(line) < n_columns:
                raise ValueError(f"row {line!r} has fewer than {n_columns} columns")
            rows.append(values)
    if not rows:
        raise ValueError(f"no parameter rows found in {path}")
    return rows


def cmd_classify(args) -> Output:
    params = ProblemParams(args.N, args.a, args.b, args.p)
    regime = classify(params)
    payload = {"params": dataclasses.asdict(params)}
    payload.update(regime.to_dict())
    if regime.kind != INADMISSIBLE_WEIGHTS and params.p > 1:
        payload.update(derive(params).to_dict())
    return Output({"classify.json": _json_text(payload)}, payload["params"], {})


def cmd_shoot(args) -> Output:
    params = ProblemParams(args.N, args.a, args.b, args.p)
    config = _config_from(args)
    traj = shoot(params, config)
    payload = {
        "params": dataclasses.asdict(params),
        "config": config.to_dict(),
        "outcome": traj.outcome.to_dict(),
        "nodes": int(len(traj.r)),
    }
    files = {"shoot.json": _json_text(payload), "trajectory.csv": trajectory_csv(traj)}
    return Output(files, payload["params"], payload["config"], _shot_code(traj))


def cmd_threshold(args) -> Output:
    config = _config_from(args)
    p_star = threshold_bisect(
        args.N, args.a, args.b, args.p_lo, args.p_hi, tol_p=args.tol, config=config
    )
    d = derive(ProblemParams(args.N, args.a, args.b, p_star))
    payload = {
        "p_star": p_star,
        "p_critical": d.p_critical,
        "abs_error": abs(p_star - d.p_critical),
        "tol_p": args.tol,
        "bracket": [args.p_lo, args.p_hi],
        "params": {"N": args.N, "a": args.a, "b": args.b},
    }
    files = {"threshold.json": _json_text(payload)}
    return Output(files, payload["params"], config.to_dict())


def cmd_bubble(args) -> Output:
    if args.samples < 2:
        raise ValueError(f"--samples = {args.samples}, need at least 2")
    if not 0 < args.rmin < args.rmax:
        raise ValueError(f"need 0 < --rmin < --rmax, got [{args.rmin}, {args.rmax}]")
    N, a, b = args.N, args.a, args.b
    params = ProblemParams(N, a, b, p_critical(N, a, b) if args.p is None else args.p)
    if args.lambda_scale is not None:
        prof = bubble(params, args.lambda_scale)
    else:
        prof = normalized_bubble(params)
    r = np.geomspace(args.rmin, args.rmax, args.samples)
    v, dv = bubble_eval(prof, r)
    ddv = bubble_second_derivative(prof, r)
    _, rel = residual(params, v, dv, ddv, r)
    payload = {
        "params": dataclasses.asdict(params),
        "m": prof.m,
        "gamma": prof.gamma,
        "amplitude": prof.amplitude,
        "lambda_scale": prof.lambda_scale,
        "samples": int(args.samples),
        "max_rel_residual": float(np.max(rel)),
    }
    files = {
        "bubble.json": _json_text(payload),
        "bubble.csv": csv_text(["r", "v", "dv"], zip(r, v, dv)),
    }
    config = {"rmin": args.rmin, "rmax": args.rmax, "samples": args.samples}
    return Output(files, payload["params"], config)


def cmd_pohozaev(args) -> Output:
    params = ProblemParams(args.N, args.a, args.b, args.p)
    radii = [float(tok) for tok in args.radii.split(",") if tok.strip()]
    if not radii:
        raise ValueError("--radii parsed to an empty list")
    config = {"radii": radii, "traj": os.path.basename(args.traj) if args.traj else None}
    if args.traj is not None:
        traj = trajectory_from_csv(args.traj, params)
    else:
        shot_config = _config_from(args)
        traj = shoot(params, shot_config)
        config.update(shot_config.to_dict())
    reports = [ball_identity(traj, R) for R in radii]
    payload = {
        "params": dataclasses.asdict(params),
        "interior_coeff": reports[0].interior_coeff,
        "reports": [rep.to_dict() for rep in reports],
    }
    header = ["R", "interior", "boundary1", "boundary2", "boundary3",
              "residual", "relative_residual"]
    rows = (
        [rep.R, rep.interior_integral, rep.boundary_1, rep.boundary_2,
         rep.boundary_3, rep.residual, rep.relative_residual]
        for rep in reports
    )
    files = {"pohozaev.json": _json_text(payload), "pohozaev.csv": csv_text(header, rows)}
    if args.traj is None:
        files["trajectory.csv"] = trajectory_csv(traj)
    return Output(files, payload["params"], config)


def cmd_phase(args) -> Output:
    params = ProblemParams(args.N, args.a, args.b, args.p)
    config = _config_from(args)
    traj = shoot(params, config)
    # a crossing shot ends on one nonpositive node; the cylinder map
    # needs v > 0, so drop it
    keep = len(traj.v) - 1 if traj.v[-1] <= 0.0 else len(traj.v)
    trimmed = RadialTrajectory(
        params=params,
        r=traj.r[:keep],
        v=traj.v[:keep],
        dv=traj.dv[:keep],
        outcome=traj.outcome,
        config=config,
    )
    cyl = to_cylinder(trimmed)
    d = derive(params)
    H = hamiltonian(params, cyl.w, cyl.dw)
    report = fixed_points(params) if params.p > d.p_serrin else None
    payload = {
        "params": dataclasses.asdict(params),
        "outcome": traj.outcome.to_dict(),
        "lambda1": d.lambda1,
        "lambda2": d.lambda2,
        "hamiltonian_first": float(H[0]),
        "hamiltonian_last": float(H[-1]),
        "fixed_point": report.to_dict() if report is not None else None,
    }
    files = {
        "phase.json": _json_text(payload),
        "cylinder.csv": csv_text(["t", "w", "dw"], zip(cyl.t, cyl.w, cyl.dw)),
    }
    return Output(files, payload["params"], config.to_dict(), _shot_code(traj))


def _ckn_row(N: int, a: float, b: float) -> list:
    """One ckn grid row; a row that raises gets s = nan and its error's name as flag."""
    q = s = float("nan")
    try:
        # N and N - 2 + a, before the balance divides by the latter
        validate(ProblemParams(N, a, b, q))
        # per row, q is pinned by the dimensional balance
        q = 2.0 * (N + b) / (N - 2.0 + a)
        triple = CknTriple(N, a, b, q)
        flag = fs_region(ProblemParams(N, a, b, q - 1.0))
        if check_balance(triple).verdict == ADMISSIBLE and flag != SYMMETRY_BREAKING:
            s = best_constant(triple).s_estimate
    except EmdenLabError as exc:
        flag = type(exc).__name__
    return [a, b, q, s, flag]


def cmd_ckn(args) -> Output:
    if args.grid is not None:
        rows = [_ckn_row(args.N, a, b) for a, b in _read_grid(args.grid, 2)]
        files = {"ckn_grid.csv": csv_text(["a", "b", "q", "s_estimate", "fs_flag"], rows)}
        params = {"N": args.N, "grid": os.path.basename(args.grid)}
        return Output(files, params, {"rows": len(rows)})
    if args.a is None or args.b is None or args.q is None:
        raise ValueError("ckn needs either --grid or all of --a, --b, --q")
    triple = CknTriple(args.N, args.a, args.b, args.q)
    report = best_constant(triple)
    payload = {"triple": triple.to_dict(), "balance": check_balance(triple).to_dict()}
    payload.update(report.to_dict())
    return Output({"ckn.json": _json_text(payload)}, payload["triple"], {})


_SWEEP_COLUMNS = [
    "N",
    "a",
    "b",
    "p",
    "kind",
    "r0",
    "r_reached",
    "decay_exponent_estimate",
    "oscillation_count",
    "reason",
]


def cmd_sweep(args) -> Output:
    raw = _read_grid(args.grid, 4)
    # a fractional N is kept as given, so the shooter rejects that row
    rows = [
        ProblemParams(int(N) if N.is_integer() else N, a, b, p) for N, a, b, p in raw
    ]
    config = _config_from(args)
    outcomes = sweep_shoot(rows, config)
    cells = (
        dataclasses.asdict(params) | outcome.to_dict()
        for params, outcome in zip(rows, outcomes)
    )
    table = ([row.get(name, "") for name in _SWEEP_COLUMNS] for row in cells)
    files = {"sweep.csv": csv_text(_SWEEP_COLUMNS, table)}
    params = {"grid": os.path.basename(args.grid), "rows": len(rows)}
    return Output(files, params, config.to_dict())


def _profile_plot(title: str, data: str) -> str:
    return f"""\
# gnuplot: {title}
set datafile separator ","
set logscale x
set xlabel "r"
set ylabel "v"
set grid
plot "{data}" skip 1 using 1:2 with lines title "v(r)", \\
     "{data}" skip 1 using 1:3 with lines title "v'(r)"
"""


# gnuplot scripts that --emit-plot writes next to the data, by subcommand
_PLOTS = {
    "shoot": _profile_plot("radial shot profile", "trajectory.csv"),
    "bubble": _profile_plot("exact critical profile", "bubble.csv"),
    "phase": """\
# gnuplot: cylinder phase portrait
set datafile separator ","
set xlabel "w"
set ylabel "dw/dt"
set grid
plot "cylinder.csv" skip 1 using 2:3 with lines title "orbit"
""",
    "sweep": """\
# gnuplot: crossing radius against the source exponent
set datafile separator ","
set xlabel "p"
set ylabel "r0"
set logscale y
set grid
plot "sweep.csv" skip 1 using 4:6 with points pt 7 title "crossing radius"
""",
}


def _write_out(args, output: Output, t0: float) -> None:
    """Create --out and write the data files, the plot script and manifest.json."""
    files = dict(output.files)
    if getattr(args, "emit_plot", False):
        files[f"{args.command}.gp"] = _PLOTS[args.command]
    os.makedirs(args.out, exist_ok=True)

    def write(name: str, text: str) -> None:
        with open(os.path.join(args.out, name), "w", newline="") as fh:
            fh.write(text)

    for name, text in files.items():
        write(name, text)
    manifest = {
        "subcommand": args.command,
        "params": output.params,
        "config": output.config,
        "outputs": sorted(files),
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - t0,
    }
    write("manifest.json", _json_text(manifest))


# ------------------------------------------------------------------ parser


def _add_problem_flags(sp, with_p=True) -> None:
    sp.add_argument("--N", type=int, required=True, help="space dimension (>= 3)")
    sp.add_argument("--a", type=float, required=True, help="gradient weight exponent")
    sp.add_argument("--b", type=float, required=True, help="source weight exponent")
    if with_p:
        sp.add_argument("--p", type=float, required=True, help="source power")


def _add_shoot_flags(sp, beta=1.0, rmax=1e4) -> None:
    sp.add_argument("--beta", type=float, default=beta, help="starting height v(0)")
    sp.add_argument("--rmax", type=float, default=rmax, help="integration horizon")
    sp.add_argument("--rtol", type=float, default=1e-10, help="integrator rel tolerance")
    sp.add_argument("--atol", type=float, default=1e-12, help="integrator abs tolerance")
    sp.add_argument("--eps0", type=float, default=None, help="series hand-off radius")
    sp.add_argument(
        "--nodes-per-decade", type=int, default=160, help="stored node density"
    )


def _add_out_flags(sp, plot=False) -> None:
    sp.add_argument("--out", default=None, help="directory for data files + manifest")
    if plot:
        sp.add_argument(
            "--emit-plot",
            action="store_true",
            help="also write a gnuplot script next to the CSVs (needs --out)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdenlab",
        description=(
            "numerical laboratory for the weighted radial source equation "
            "div(|x|^a grad u) + |x|^b u^p = 0"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="regime of the existence dichotomy")
    _add_problem_flags(sp)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("shoot", help="integrate one radial trajectory")
    _add_problem_flags(sp)
    _add_shoot_flags(sp)
    _add_out_flags(sp, plot=True)
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("threshold", help="bisect the crossing threshold in p")
    _add_problem_flags(sp, with_p=False)
    sp.add_argument("--p-lo", type=float, required=True, help="crossing endpoint")
    sp.add_argument("--p-hi", type=float, required=True, help="non-crossing endpoint")
    sp.add_argument("--tol", type=float, default=1e-3, help="bracket width target")
    _add_shoot_flags(sp, beta=100.0, rmax=1e3)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("bubble", help="exact critical profile and its residual")
    _add_problem_flags(sp, with_p=False)
    sp.add_argument("--p", type=float, default=None, help="must equal the critical power")
    sp.add_argument("--samples", type=int, default=100, help="sample count")
    sp.add_argument("--rmin", type=float, default=1e-3, help="first sample radius")
    sp.add_argument("--rmax", type=float, default=1e3, help="last sample radius")
    sp.add_argument("--lambda-scale", type=float, default=None, help="dilation; default normalizes v(0) = 1")
    _add_out_flags(sp, plot=True)
    sp.set_defaults(func=cmd_bubble)

    sp = sub.add_parser("pohozaev", help="ball integral identity along a shot")
    _add_problem_flags(sp)
    sp.add_argument("--radii", required=True, help="comma-separated evaluation radii")
    sp.add_argument("--traj", default=None, help="reuse a trajectory CSV instead of shooting")
    _add_shoot_flags(sp)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_pohozaev)

    sp = sub.add_parser("phase", help="cylinder-frame orbit and fixed point")
    _add_problem_flags(sp)
    _add_shoot_flags(sp)
    _add_out_flags(sp, plot=True)
    sp.set_defaults(func=cmd_phase)

    sp = sub.add_parser("ckn", help="weighted Rayleigh quotient best constant")
    sp.add_argument("--N", type=int, required=True, help="space dimension (>= 3)")
    sp.add_argument("--a", type=float, default=None, help="gradient weight exponent")
    sp.add_argument("--b", type=float, default=None, help="norm weight exponent")
    sp.add_argument("--q", type=float, default=None, help="norm exponent")
    sp.add_argument("--grid", default=None, help="CSV of a,b rows; q is set by balance")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_ckn)

    sp = sub.add_parser("sweep", help="batch of shots from a grid file")
    sp.add_argument("--grid", required=True, help="CSV of N,a,b,p rows")
    _add_shoot_flags(sp)
    _add_out_flags(sp, plot=True)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: print its primary payload, then write --out if given."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        output = args.func(args)
        sys.stdout.write(next(iter(output.files.values())))
        if args.out is not None:
            _write_out(args, output, t0)
        return output.code
    except ValueError as exc:  # EmdenLabError included
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
