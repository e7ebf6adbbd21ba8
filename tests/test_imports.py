"""The package loads scipy only where a computation needs it."""

import json
import os
import subprocess
import sys

import emdenlab as E

SCIPY_PARTS = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
CONFIG = E.ShootConfig(r_max=100.0)
SHOT = E.ProblemParams(3, 0.0, 0.0, 3.0)
SWEEP = [E.ProblemParams(3, 0.0, 0.0, 3.0), E.ProblemParams(3, 0.5, 1.0, 4.0)]

CHILD = f"""
import json, sys
import emdenlab as E
import emdenlab.cli

E.classify(E.ProblemParams(3, 0.0, 0.0, 3.0))
E.best_constant(E.CknTriple(3, 0.0, 0.0, 6.0))
prof = E.bubble(E.ProblemParams(3, 0.0, 0.0, 5.0))
r = [0.5, 1.0, 2.0]
v, dv = E.bubble_eval(prof, r)
E.residual(prof.params, v, dv, E.bubble_second_derivative(prof, r), r)
loaded = sorted(m for m in sys.modules if m.startswith({SCIPY_PARTS!r}))

config = E.ShootConfig(r_max=100.0)
shot = E.shoot(E.ProblemParams(3, 0.0, 0.0, 3.0), config)
sweep = E.sweep_shoot(
    [E.ProblemParams(3, 0.0, 0.0, 3.0), E.ProblemParams(3, 0.5, 1.0, 4.0)], config
)
print(json.dumps({{
    "loaded": loaded,
    "shot": [shot.outcome.to_dict(), shot.v.tolist()],
    "sweep": [outcome.to_dict() for outcome in sweep],
}}))
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
    # scipy loaded on first use computes what it computes when loaded up front
    shot = E.shoot(SHOT, CONFIG)
    assert child["shot"] == [shot.outcome.to_dict(), shot.v.tolist()]
    assert child["sweep"] == [outcome.to_dict() for outcome in E.sweep_shoot(SWEEP, CONFIG)]
