"""Digests of the data files a fixed list of CLI calls writes.

Runs every subcommand in-process on fixed inputs, each with its own --out
directory, and prints one line per data file, "<sha256>  <call>/<file>",
plus "exit <code>  <call>" per call (argparse's exit code for a call it
refuses).  manifest.json is digested without its wall_time_s, the one
field meant to differ between runs.  Two trees write byte-identical files
exactly when their listings are equal:

    python scripts/cli_digests.py > after.txt
    python scripts/cli_digests.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

--keep DIR leaves the files in DIR for a closer look.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

CUBIC = ["--N", "3", "--a", "0", "--b", "0"]

# (name, argv): pohozaev-traj reads the trajectory pohozaev wrote
CALLS = [
    ("classify-sub", ["classify", *CUBIC, "--p", "3"]),
    ("classify-weighted", ["classify", "--N", "4", "--a", "0.5", "--b", "1", "--p", "10"]),
    ("shoot-crossing", ["shoot", *CUBIC, "--p", "3", "--rmax", "10", "--emit-plot"]),
    ("shoot-weighted", ["shoot", "--N", "3", "--a", "0.5", "--b", "1", "--p", "4",
                        "--beta", "100"]),
    ("shoot-positive", ["shoot", *CUBIC, "--p", "5", "--rmax", "50"]),
    ("shoot-singular", ["shoot", *CUBIC, "--p", "12", "--rmax", "1000"]),
    # dv underflows on its far nodes; the integrator's w' reads the fixed point
    ("shoot-far-singular", ["shoot", *CUBIC, "--p", "12", "--rmax", "1e300"]),
    ("shoot-inconclusive", ["shoot", *CUBIC, "--p", "5", "--rmax", "2"]),
    # sigma = 2 + b - a = 0.1, near the edge b -> a - 2: crosses at 15.107
    ("shoot-small-sigma", ["shoot", "--N", "3", "--a", "0", "--b", "-1.9", "--p", "1.15",
                           "--rmax", "1e12"]),
    ("threshold", ["threshold", *CUBIC, "--p-lo", "4.5", "--p-hi", "5.5"]),
    ("bubble", ["bubble", *CUBIC, "--emit-plot"]),
    ("bubble-scaled", ["bubble", "--N", "4", "--a", "0.5", "--b", "1",
                       "--lambda-scale", "2.5", "--samples", "50"]),
    ("pohozaev", ["pohozaev", *CUBIC, "--p", "3", "--beta", "0.5", "--rmax", "20",
                  "--radii", "0.5,1,2,4,8"]),
    ("pohozaev-traj", ["pohozaev", *CUBIC, "--p", "3", "--radii", "0.5,1,2,4,8",
                       "--traj", "{pohozaev}/trajectory.csv"]),
    ("phase-super", ["phase", *CUBIC, "--p", "12", "--rmax", "1000", "--emit-plot"]),
    ("phase-sub", ["phase", *CUBIC, "--p", "2.5", "--rmax", "100"]),
    ("ckn", ["ckn", "--N", "3", "--a", "0", "--b", "0", "--q", "6"]),
    ("ckn-grid", ["ckn", "--N", "3", "--grid", "{grids}/ckn.csv"]),
    ("sweep", ["sweep", "--grid", "{grids}/sweep.csv", "--rmax", "100", "--emit-plot"]),
    # sweep.csv holds every lane's floats in repr, so these two pin the lockstep
    ("sweep-criterion5", ["sweep", "--grid", "{grids}/criterion5.csv", "--beta", "100",
                          "--rmax", "1e4"]),
    ("threshold-weighted", ["threshold", "--N", "3", "--a", "0.5", "--b", "1",
                            "--p-lo", "3.5", "--p-hi", "5"]),
    # negative values in exponent notation, each a separate token
    ("classify-negative-exponent", ["classify", "--N", "3", "--a", "-5e-1", "--b", "-1e-1",
                                    "--p", "3"]),
    # a short horizon far below p_c: p_star is 3.5623, where the first-zero
    # law puts this horizon's threshold at 3.236; the 2 ends and 16 midpoints
    ("threshold-missed", ["threshold", *CUBIC, "--p-lo", "2", "--p-hi", "6", "--tol", "1e-4",
                          "--beta", "1", "--rmax", "10"]),
    # probes within 1e-6 of p_c = 13/3, where a decision turns on a run's last bits
    ("threshold-weighted-fine", ["threshold", "--N", "3", "--a", "0.5", "--b", "1",
                                 "--p-lo", "4.3", "--p-hi", "4.4", "--tol", "1e-6"]),
    # sigma = 0.0217: the bubble's amplitude, about 1e328, leaves float range (exit 2)
    ("bubble-small-sigma", ["bubble", "--N", "7", "--a", "2.9390709647512576",
                            "--b", "0.9607210425423728"]),
    # v = 1e120 near the start: r^3 v^4 leaves float range on the nodes (exit 2)
    ("pohozaev-huge-beta", ["pohozaev", *CUBIC, "--p", "3", "--beta", "1e120", "--rmax", "1",
                            "--radii", "1e-121"]),
]

GRIDS = {
    # values, a refusal below the band, NaN, symmetry breaking, bad balance
    "ckn.csv": "a,b\n0,0\n0.5,1\n-0.5,-1\n1,-1.5\nnan,0\n0,inf\n2,5.5\n0,-2.5\n",
    # crossing, positive, a fractional and a too-small N, NaN, p <= 1
    "sweep.csv": "N,a,b,p\n3,0,0,3\n3,0,0,5\n3.5,0,0,3\n2,0,0,3\n3,nan,0,3\n3,0,0,1\n"
                 "4,0.5,1,4\n",
}


def _criterion5_grid() -> str:
    """The N,a,b,p rows of acceptance criterion 5: 20 values of p across p_c per family."""
    import numpy as np

    from emdenlab import ProblemParams, derive

    lines = ["N,a,b,p"]
    for N, a, b in [(3, 0.0, 0.0), (3, 0.0, 1.0), (3, 0.5, 1.0),
                    (4, 0.0, 0.0), (4, -0.5, 0.0), (5, 1.0, 2.0)]:
        d = derive(ProblemParams(N, a, b, 2.0))
        for p in np.linspace(d.p_serrin, d.p_critical + 1.0, 22)[1:-1]:
            lines.append(f"{N},{a!r},{b!r},{float(p)!r}")
    return "\n".join(lines) + "\n"


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_time_s", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(root: str) -> list[str]:
    """Run CALLS with their outputs under root; the listing lines."""
    from emdenlab import cli

    grids = os.path.join(root, "grids")
    os.makedirs(grids, exist_ok=True)
    for name, text in {**GRIDS, "criterion5.csv": _criterion5_grid()}.items():
        with open(os.path.join(grids, name), "w", newline="") as fh:
            fh.write(text)
    dirs = {"grids": grids}
    lines = []
    for name, argv in CALLS:
        out = dirs[name] = os.path.join(root, name)
        argv = [arg.format(**dirs) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([*argv, "--out", out])
            except SystemExit as exc:  # argparse refused the call
                code = exc.code
        lines.append(f"exit {code}  {name}")
        if os.path.isdir(out):
            lines += [f"{_digest(os.path.join(out, f))}  {name}/{f}"
                      for f in sorted(os.listdir(out))]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the emdenlab package (default: this repo's)")
    parser.add_argument("--keep", default=None, help="write the files here and keep them")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.keep is not None:
        lines = run(os.path.abspath(args.keep))
    else:
        with tempfile.TemporaryDirectory() as root:
            lines = run(root)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
