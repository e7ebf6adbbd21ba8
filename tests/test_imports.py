"""The package never loads scipy: not on import, not in any computation or CLI call."""

import json
import os
import subprocess
import sys

import emdenlab as E

CONFIG = E.ShootConfig(r_max=100.0)
SHOT = E.ProblemParams(3, 0.0, 0.0, 3.0)
SWEEP = [E.ProblemParams(3, 0.0, 0.0, 3.0), E.ProblemParams(3, 0.5, 1.0, 4.0)]

CHILD = """
import contextlib, io, json, os, sys, tempfile
import emdenlab as E
from emdenlab import cli, pohozaev

E.classify(E.ProblemParams(3, 0.0, 0.0, 3.0))
E.best_constant(E.CknTriple(3, 0.0, 0.0, 6.0))
prof = E.bubble(E.ProblemParams(3, 0.0, 0.0, 5.0))
r = [0.5, 1.0, 2.0]
v, dv = E.bubble_eval(prof, r)
E.residual(prof.params, v, dv, E.bubble_second_derivative(prof, r), r)

config = E.ShootConfig(r_max=100.0)
shot = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), config)
sweep = E.sweep_shoot(
    [E.ProblemParams(3, 0.0, 0.0, 3.0), E.ProblemParams(3, 0.5, 1.0, 4.0)], config
)
E.threshold_bisect(3, 0.0, 0.0, 4.0, 6.0, tol_p=0.1,
                   config=E.ShootConfig(beta=100.0, r_max=1e3))
ball = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), E.ShootConfig(beta=0.5, r_max=20.0))
pohozaev.evaluate(ball, 2.0)
ball.eval([1e-6, 1.0, 5.0])
cubic = ["--N", "3", "--a", "0", "--b", "0"]
with tempfile.TemporaryDirectory() as root:
    E.trajectory_to_csv(ball, os.path.join(root, "ball.csv"))
    E.trajectory_from_csv(os.path.join(root, "ball.csv"), ball.params).eval(1.0)
    poh = ["pohozaev", *cubic, "--p", "3", "--beta", "0.5", "--rmax", "20",
           "--radii", "0.5,1,2,4,8"]
    session = [
        ["classify", *cubic, "--p", "3"],
        ["shoot", *cubic, "--p", "3", "--rmax", "10", "--emit-plot"],
        poh,
        [*poh, "--traj", os.path.join(root, "2", "trajectory.csv")],
        ["bubble", *cubic, "--samples", "100", "--emit-plot"],
        ["phase", *cubic, "--p", "12", "--rmax", "1000", "--emit-plot"],
        ["classify", "--N", "4", "--a", "0.5", "--b", "1", "--p", "10"],
    ]
    codes = []
    for k, argv in enumerate(session):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([*argv, "--out", os.path.join(root, str(k))]))
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "codes": codes,
    "shot": [shot.outcome.to_dict(), shot.v.tolist()],
    "sweep": [outcome.to_dict() for outcome in sweep],
}))
"""


def test_import_and_ckn_path_load_no_scipy_solver_and_shots_agree():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["loaded"] == []
    assert child["codes"] == [0] * 7
    # a fresh process computes what this one does
    shot = E.shoot(SHOT, CONFIG)
    assert child["shot"] == [shot.outcome.to_dict(), shot.v.tolist()]
    assert child["sweep"] == [outcome.to_dict() for outcome in E.sweep_shoot(SWEEP, CONFIG)]
