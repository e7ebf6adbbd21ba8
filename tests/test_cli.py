"""Command-line contract: payloads, exit codes, files, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import emdenlab as E
from emdenlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_payload_and_exit_code(capsys):
    code, out, err = run(
        capsys, "classify", "--N", "3", "--a", "0", "--b", "0", "--p", "5"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["regime"] == E.CRITICAL
    assert payload["witness"] == "|p-p_critical|<=tol"
    assert payload["p_critical"] == 5.0
    assert payload["params"] == {"N": 3, "a": 0.0, "b": 0.0, "p": 5.0}


def test_invalid_parameters_exit_2_with_named_error(capsys):
    code, out, err = run(
        capsys, "classify", "--N", "2", "--a", "0", "--b", "0", "--p", "3"
    )
    assert code == 2
    assert "DimensionTooSmall" in err


def test_shoot_finds_the_cubic_crossing(capsys, tmp_path):
    out_dir = tmp_path / "shot"
    code, out, _ = run(
        capsys,
        "shoot", "--N", "3", "--a", "0", "--b", "0", "--p", "3",
        "--rmax", "10", "--out", str(out_dir), "--emit-plot",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"]["kind"] == "crossed_zero"
    assert payload["outcome"]["r0"] == pytest.approx(6.8968, abs=1e-3)
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "shoot.json").exists()
    assert (out_dir / "shoot.gp").read_text().startswith("# gnuplot")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "shoot"
    assert manifest["tool_version"] == E.__version__
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert set(manifest["outputs"]) == {"trajectory.csv", "shoot.json", "shoot.gp"}


def test_shoot_inconclusive_exits_3(capsys):
    code, out, _ = run(
        capsys,
        "shoot", "--N", "3", "--a", "0", "--b", "0", "--p", "5", "--rmax", "2",
    )
    assert code == 3
    assert json.loads(out)["outcome"]["kind"] == "inconclusive"


def test_threshold_brackets_the_critical_exponent(capsys):
    code, out, _ = run(
        capsys,
        "threshold", "--N", "3", "--a", "0", "--b", "0",
        "--p-lo", "4", "--p-hi", "6", "--tol", "1e-2",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["p_star"] - 5.0) <= 1e-2
    assert payload["p_critical"] == 5.0
    assert payload["abs_error"] <= 1e-2


def test_threshold_refuses_a_nan_weight(capsys):
    code, out, err = run(
        capsys,
        "threshold", "--N", "3", "--a", "nan", "--b", "0",
        "--p-lo", "4", "--p-hi", "6", "--tol", "1e-2",
    )
    assert code == 2 and out == ""
    assert "NonFiniteParameter" in err


def test_threshold_names_a_start_beyond_the_horizon(capsys):
    # the shooter's refusal at p_lo, as shoot reports it, not BracketInvalid
    code, out, err = run(
        capsys,
        "threshold", "--N", "3", "--a", "0", "--b", "0",
        "--p-lo", "4.5", "--p-hi", "5.5", "--beta", "1e-100",
    )
    assert code == 2 and out == ""
    assert "NotInRange" in err and "at or beyond r_max" in err


def test_classify_refuses_a_nan_power(capsys):
    code, out, err = run(
        capsys, "classify", "--N", "3", "--a", "0", "--b", "0", "--p", "nan"
    )
    assert code == 2 and out == ""
    assert "NonFiniteParameter" in err


@pytest.mark.parametrize("p", ["inf", "-inf"])
def test_classify_refuses_an_infinite_power(capsys, p):
    # it used to exit 0 and print "p": Infinity, which is not JSON
    code, out, err = run(capsys, "classify", "--N", "3", "--a", "0", "--b", "0", f"--p={p}")
    assert code == 2 and out == ""
    assert "Infinity" not in out
    assert "NonFiniteParameter" in err


@pytest.mark.parametrize("flag", ["--beta", "--rmax"])
@pytest.mark.parametrize("subcommand", ["shoot", "sweep", "threshold"])
def test_nan_config_exits_2_instead_of_hanging(tmp_path, subcommand, flag):
    # run in a child process, so a regression that hangs fails the test
    grid = tmp_path / "grid.csv"
    grid.write_text("N,a,b,p\n3,0,0,3\n")
    argv = {
        "shoot": ["--N", "3", "--a", "0", "--b", "0", "--p", "3"],
        "sweep": ["--grid", str(grid)],
        "threshold": ["--N", "3", "--a", "0", "--b", "0", "--p-lo", "4", "--p-hi", "6"],
    }[subcommand]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "emdenlab.cli", subcommand, *argv, flag, "nan"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "NonFiniteParameter" in proc.stderr


def test_bubble_defaults_to_critical_and_reports_residual(capsys):
    code, out, _ = run(
        capsys, "bubble", "--N", "4", "--a", "0", "--b", "0", "--samples", "100"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["p"] == 3.0
    assert payload["max_rel_residual"] <= 1e-10
    assert payload["samples"] == 100


def test_bubble_rejects_noncritical_p(capsys):
    code, _, err = run(
        capsys, "bubble", "--N", "4", "--a", "0", "--b", "0", "--p", "4"
    )
    assert code == 2
    assert "NotCritical" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bubble", "--p", "nan"],
        ["bubble", "--lambda-scale", "nan"],
        ["bubble", "--lambda-scale", "inf"],
        ["bubble", "--rmax", "inf"],
        ["bubble", "--rmin", "nan"],
        ["pohozaev", "--p", "3", "--rmax", "10", "--radii", "1,nan"],
        ["threshold", "--p-lo", "4", "--p-hi", "6", "--tol", "inf"],
        ["ckn", "--q", "nan"],
        ["ckn", "--q", "inf"],
        ["ckn", "--a", "nan", "--q", "6"],
        ["shoot", "--p", "3", "--rtol", "nan"],
        ["shoot", "--p", "3", "--rmax", "nan"],
    ],
)
def test_non_finite_flags_exit_2_with_a_named_error(capsys, argv):
    # each used to exit 0 with NaN or Infinity in the JSON, or 2 with
    # scipy's "Integral bounds not in order"; --tol inf skipped the bisection
    command, *flags = argv
    code, out, err = run(capsys, command, "--N", "3", "--a", "0", "--b", "0", *flags)
    assert code == 2 and out == ""
    assert "NaN" not in out and "Infinity" not in out
    assert err.startswith("NonFiniteParameter: ")


def _flags(*types):
    """(subcommand, flag) for every option of the parser whose type is one of types."""
    from emdenlab.cli import build_parser

    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0])
        for name, sp in sub.choices.items()
        for action in sp._actions
        if action.type in types
    ]


# valid flags of each subcommand; the flag under test is appended, and wins
_VALID_FLAGS = {
    "classify": ["--p", "3"],
    "shoot": ["--p", "3", "--rmax", "10"],
    "threshold": ["--p-lo", "4", "--p-hi", "6"],
    "bubble": [],
    "pohozaev": ["--p", "3", "--rmax", "10", "--radii", "1"],
    "phase": ["--p", "3", "--rmax", "10"],
    "ckn": ["--q", "6"],
    "sweep": [],
}


def _valid_argv(command, tmp_path):
    if command == "sweep":
        grid = tmp_path / "grid.csv"
        grid.write_text("N,a,b,p\n3,0,0,3\n")
        return ["--grid", str(grid)]
    return ["--N", "3", "--a", "0", "--b", "0", *_VALID_FLAGS[command]]


def _assert_named_refusal(code, out, err):
    from emdenlab import errors

    assert code == 2 and out == ""
    name = err.split(":", 1)[0]
    assert issubclass(getattr(errors, name), errors.EmdenLabError), err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _flags(float))
def test_every_float_flag_refuses_non_finite_values(capsys, tmp_path, command, flag, value):
    argv = _valid_argv(command, tmp_path)
    _assert_named_refusal(*run(capsys, command, *argv, flag, value))


# one finite value out of range per flag, by flag, or by (subcommand, flag)
_OUT_OF_RANGE = {
    "--N": "2",
    "--a": "-5",  # N - 2 + a < 0
    "--b": "-2.5",  # b < a - 2
    "--p": "0.5",
    "--beta": "0",
    "--rmax": "0.5",
    "--rtol": "0",
    "--nodes-per-decade": "3",
    "--p-lo": "0.5",
    "--p-hi": "3",  # below --p-lo 4
    "--tol": "0",
    "--samples": "1",
    "--rmin": "0",
    "--lambda-scale": "0",
    "--q": "1",
    "--radii": "-1",
    ("bubble", "--rmax"): "1e-4",  # below the default --rmin
}

# classify answers every finite b, inadmissible ones with a regime
_NUMERIC_FLAGS = [
    site for site in _flags(int, float) + [("pohozaev", "--radii")]
    if site != ("classify", "--b")
]


@pytest.mark.parametrize("command, flag", _NUMERIC_FLAGS)
def test_every_numeric_flag_refuses_a_value_out_of_range(capsys, tmp_path, command, flag):
    value = _OUT_OF_RANGE.get((command, flag), _OUT_OF_RANGE[flag])
    argv = _valid_argv(command, tmp_path)
    _assert_named_refusal(*run(capsys, command, *argv, flag, value))


def test_classify_names_inadmissible_weights_as_a_regime(capsys):
    code, out, _ = run(capsys, "classify", "--N", "3", "--a", "0", "--b", "-2.5", "--p", "3")
    assert code == 0
    assert json.loads(out)["regime"] == E.INADMISSIBLE_WEIGHTS


def test_negative_values_in_exponent_notation_are_flag_values(capsys, monkeypatch):
    # argparse alone reads -5e-1 as an option string: "expected one argument"
    argv = ["classify", "--N", "3", "--a", "-5e-1", "--b", "-1e-1", "--p", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["params"] == {"N": 3, "a": -0.5, "b": -0.1, "p": 3.0}
    monkeypatch.setattr(sys, "argv", ["emdenlab", *argv])
    assert main() == code and capsys.readouterr().out == out
    code, out, err = run(capsys, "shoot", "--N", "3", "--a", "0", "--b", "0", "--p", "3",
                         "--beta", "-1e-3")
    assert code == 2 and out == "" and err.startswith("NotInRange: ")


def test_a_list_starting_with_a_negative_number_is_a_flag_value(capsys):
    # argparse alone reads -1,2 as an option string: "expected one argument"
    code, out, err = run(capsys, "pohozaev", "--N", "3", "--a", "0", "--b", "0", "--p", "3",
                         "--rmax", "10", "--radii", "-1,2")
    assert code == 2 and out == ""
    assert err.startswith("NotInRange: ")


def test_bubble_with_a_degenerate_weight_exits_2_with_a_named_error(capsys):
    # N - 2 + a = 0 used to end in a ZeroDivisionError traceback from p_critical
    code, out, err = run(capsys, "bubble", "--N", "3", "--a", "-1", "--b", "0")
    assert code == 2 and out == ""
    assert err.startswith("DegenerateWeight: ")


def test_bubble_names_the_dimension_before_the_weight(capsys):
    # N = 2, a = 0 breaks N >= 3 and N - 2 + a > 0; the first is named, as
    # with --a 0.5 and in every library entry point
    code, out, err = run(capsys, "bubble", "--N", "2", "--a", "0", "--b", "0")
    assert code == 2 and out == ""
    assert err.startswith("DimensionTooSmall: ")


def test_pohozaev_round_trip_reuses_the_exported_trajectory(capsys, tmp_path):
    first = tmp_path / "one"
    argv = [
        "pohozaev", "--N", "3", "--a", "0", "--b", "0", "--p", "3",
        "--beta", "0.5", "--rmax", "20", "--radii", "0.5,1,2,4,8",
    ]
    code, out_one, _ = run(capsys, *argv, "--out", str(first))
    assert code == 0
    for rep in json.loads(out_one)["reports"]:
        assert rep["relative_residual"] < 1e-6

    second = tmp_path / "two"
    code, out_two, _ = run(
        capsys, *argv, "--traj", str(first / "trajectory.csv"), "--out", str(second)
    )
    assert code == 0
    assert (first / "pohozaev.csv").read_bytes() == (second / "pohozaev.csv").read_bytes()
    assert json.loads(out_one)["reports"] == json.loads(out_two)["reports"]


@pytest.mark.parametrize(
    "nodes, error",
    [
        ("0.5,1.0,0.0\n1.0,0.9\n", "MalformedTrajectory"),
        ("1.0,0.9,-0.1\n0.5,1.0,0.0\n", "MalformedTrajectory"),
        ("0.5,nan,0.0\n1.0,0.9,-0.1\n", "NonFiniteParameter"),
        ("0.0,1.0,0.0\n1.0,0.9,-0.1\n", "NonpositiveNode"),
    ],
    ids=["two_columns", "decreasing_r", "nan_v", "zero_r"],
)
def test_pohozaev_refuses_a_malformed_trajectory_file(capsys, tmp_path, nodes, error):
    path = tmp_path / "bad.csv"
    path.write_text("r,v,dv\n" + nodes)
    code, out, err = run(
        capsys, "pohozaev", "--N", "3", "--a", "0", "--b", "0", "--p", "3",
        "--radii", "0.75", "--traj", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith(f"{error}: ")


def test_repeat_runs_are_byte_identical_except_wall_time(capsys, tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        code, _, _ = run(
            capsys,
            "shoot", "--N", "3", "--a", "0.5", "--b", "1", "--p", "4",
            "--rmax", "50", "--out", str(d),
        )
        assert code == 0
    a, b = dirs
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "shoot.json").read_bytes() == (b / "shoot.json").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb


def test_phase_reports_the_fixed_point(capsys, tmp_path):
    out_dir = tmp_path / "phase"
    code, out, _ = run(
        capsys,
        "phase", "--N", "3", "--a", "0", "--b", "0", "--p", "12",
        "--rmax", "1000", "--out", str(out_dir),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fixed_point"]["kind"] == "stable_spiral"
    assert payload["fixed_point"]["w_star"] == pytest.approx(0.840952677603976, rel=1e-12)
    header = (out_dir / "cylinder.csv").read_text().splitlines()[0]
    assert header == "t,w,dw"


def test_phase_below_serrin_has_no_fixed_point(capsys):
    code, out, _ = run(
        capsys,
        "phase", "--N", "3", "--a", "0", "--b", "0", "--p", "2.5", "--rmax", "100",
    )
    assert code == 0
    assert json.loads(out)["fixed_point"] is None


def test_ckn_single_point_matches_the_closed_form(capsys):
    code, out, _ = run(
        capsys, "ckn", "--N", "3", "--a", "0", "--b", "0", "--q", "6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["balance"]["verdict"] == "Admissible"
    assert payload["closed_form"] == pytest.approx(5.477904089531332, rel=1e-12)
    assert payload["s_estimate"] == pytest.approx(payload["closed_form"], rel=1e-6)


def test_ckn_refuses_symmetry_breaking_point(capsys):
    code, _, err = run(
        capsys, "ckn", "--N", "3", "--a", "0.5", "--b", "1", "--q", str(16.0 / 3.0)
    )
    assert code == 2
    assert "SymmetryBreakingRegion" in err


def test_ckn_grid_emits_nan_rows_instead_of_dying(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("a,b\n0,0\n0.5,1\n-0.5,-1\n")
    code, out, _ = run(capsys, "ckn", "--N", "3", "--grid", str(grid))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,q,s_estimate,fs_flag"
    assert len(lines) == 4
    cells = [line.split(",") for line in lines[1:]]
    # admissible unweighted row carries the constant
    assert float(cells[0][3]) == pytest.approx(5.477904089531332, rel=1e-6)
    # symmetry-breaking row and band-violated row both report nan
    assert math.isnan(float(cells[1][3]))
    assert cells[1][4] == E.SYMMETRY_BREAKING
    assert math.isnan(float(cells[2][3]))


def test_ckn_grid_isolates_rows_that_raise(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    # 1,-2.9 balances at q = 0.1 < 2; -1,0 has N - 2 + a = 0
    grid.write_text("a,b\n0,0\n1,-2.9\n-1,0\n-0.5,-1.75\n")
    code, out, _ = run(capsys, "ckn", "--N", "3", "--grid", str(grid))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,q,s_estimate,fs_flag"
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == 4
    assert float(cells[0][3]) == pytest.approx(5.477904089531332, rel=1e-6)
    assert float(cells[1][2]) == pytest.approx(0.1, rel=1e-12)
    assert math.isnan(float(cells[1][3])) and cells[1][4] == "NotInRange"
    assert math.isnan(float(cells[2][2])) and math.isnan(float(cells[2][3]))
    assert cells[2][4] == "DegenerateWeight"
    assert float(cells[3][3]) == pytest.approx(1.6247750707401007, rel=1e-6)


def test_ckn_quadrature_mismatch_is_a_named_error(capsys, tmp_path, monkeypatch):
    true_form = E.ckn.bubble_energy_closed_form
    monkeypatch.setattr(
        E.ckn, "bubble_energy_closed_form", lambda t: 1.01 * true_form(t)
    )
    code, _, err = run(
        capsys, "ckn", "--N", "3", "--a", "0", "--b", "0", "--q", "6"
    )
    assert code == 2
    assert "QuadratureMismatch" in err
    grid = tmp_path / "grid.csv"
    grid.write_text("a,b\n0,0\n")
    code, out, _ = run(capsys, "ckn", "--N", "3", "--grid", str(grid))
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert math.isnan(float(cells[3])) and cells[4] == "QuadratureMismatch"


def test_ckn_grid_names_non_finite_rows(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("a,b\nnan,0\n0,inf\n0,0\n")
    code, out, _ = run(capsys, "ckn", "--N", "3", "--grid", str(grid))
    assert code == 0
    cells = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(cells) == 3
    for row in cells[:2]:
        assert math.isnan(float(row[3])) and row[4] == "NonFiniteParameter"
    assert float(cells[2][3]) == pytest.approx(5.477904089531332, rel=1e-6)


def test_sweep_preserves_grid_order_and_survives_bad_rows(capsys, tmp_path):
    grid = tmp_path / "sweep_grid.csv"
    grid.write_text(
        "N,a,b,p\n"
        "3,0,0,3\n"
        "2,0,0,3\n"  # rejected row: dimension too small
        "3,0,0,5\n"
    )
    code, out, _ = run(
        capsys, "sweep", "--grid", str(grid), "--rmax", "100"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:5] == ["N", "a", "b", "p", "kind"]
    kinds = [line.split(",")[4] for line in lines[1:]]
    assert kinds == ["crossed_zero", "inconclusive", "positive_global"]
    assert "rejected:" in lines[2]


def test_sweep_rejects_a_row_with_p_at_most_1_and_finishes(capsys, tmp_path):
    # such a row used to abort the whole sweep with exit 2 and no output
    grid = tmp_path / "sweep_grid.csv"
    grid.write_text("N,a,b,p\n3,0,0,3\n3,0,0,0.5\n")
    code, out, _ = run(capsys, "sweep", "--grid", str(grid), "--rmax", "10")
    assert code == 0
    good, bad = out.strip().splitlines()[1:]
    assert good.split(",")[4] == "crossed_zero"
    assert bad.split(",")[4] == "inconclusive" and "rejected:" in bad


def test_sweep_at_a_huge_height_shoots_every_row(capsys, tmp_path):
    # the height is a shift in time: p = 30 at beta = 1e7, once refused
    # for a series start beyond float range, reaches its fixed point
    grid = tmp_path / "sweep_grid.csv"
    grid.write_text("N,a,b,p\n3,0,0,3\n3,0,0,30\n")
    code, out, _ = run(
        capsys, "sweep", "--grid", str(grid), "--beta", "1e7", "--rmax", "1e4"
    )
    assert code == 0
    cubic, steep = (line.split(",") for line in out.strip().splitlines()[1:])
    assert cubic[4] == "crossed_zero"
    assert float(cubic[5]) == pytest.approx(6.896848619376960e-7, rel=1e-9)
    assert steep[4] == "converged_to_singular"


CUBIC_ARGS = ["--N", "3", "--a", "0", "--b", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["shoot", *CUBIC_ARGS, "--p", "3", "--beta", "1e-100"],
        ["classify", *CUBIC_ARGS, "--p", "0.5"],
        ["bubble", *CUBIC_ARGS, "--lambda-scale", "0"],
        ["pohozaev", *CUBIC_ARGS, "--p", "3", "--rmax", "10", "--radii", "1,0"],
    ],
    ids=["shoot-start-beyond-horizon", "classify-p-below-1", "bubble-zero-dilation",
         "pohozaev-zero-radius"],
)
def test_values_out_of_range_exit_2_with_not_in_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("NotInRange: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bubble", "--N", "7", "--a", "2.9390709647512576", "--b", "0.9607210425423728"],
        ["pohozaev", *CUBIC_ARGS, "--p", "3", "--beta", "1e120", "--rmax", "1",
         "--radii", "1e-121"],
        ["pohozaev", *CUBIC_ARGS, "--p", "3", "--beta", "1e120", "--rmax", "1",
         "--radii", "1e-122"],
        ["shoot", *CUBIC_ARGS, "--p", "1.0000001"],
        ["threshold", *CUBIC_ARGS, "--p-lo", "1.0000001", "--p-hi", "6"],
    ],
    ids=["bubble-small-sigma", "pohozaev-huge-beta", "pohozaev-huge-beta-near-start",
         "shoot-p-near-1", "threshold-p-lo-near-1"],
)
def test_edge_inputs_exit_0_2_or_3_never_1(capsys, tmp_path, argv):
    # each of these once raised a bare OverflowError (exit 1) or a numpy warning;
    # an answer, a named refusal or Inconclusive is the contract
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code in (0, 2, 3)
    if code == 2:
        assert out == "" and issubclass(getattr(E.errors, err.split(":")[0]), E.EmdenLabError)


def test_sweep_rejects_a_non_integer_dimension_instead_of_rounding(capsys, tmp_path):
    grid = tmp_path / "sweep_grid.csv"
    grid.write_text("N,a,b,p\n3.6,0,0,3\n3,0,0,3\n")
    code, out, _ = run(capsys, "sweep", "--grid", str(grid), "--rmax", "100")
    assert code == 0
    lines = out.strip().splitlines()
    first, second = (line.split(",") for line in lines[1:])
    assert first[0] == "3.6"
    assert first[4] == "inconclusive"
    assert "rejected:" in lines[1]
    assert second[0] == "3" and second[4] == "crossed_zero"


def test_sweep_rejects_non_finite_rows_and_finishes(capsys, tmp_path):
    grid = tmp_path / "sweep_grid.csv"
    grid.write_text("N,a,b,p\n3,nan,0,3\n3,0,0,nan\n3,0,0,inf\n3,0,0,3\n")
    code, out, _ = run(capsys, "sweep", "--grid", str(grid), "--rmax", "100")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert [line.split(",")[4] for line in lines] == [
        "inconclusive", "inconclusive", "inconclusive", "crossed_zero"
    ]
    assert all("rejected:" in line for line in lines[:3])


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sweep", "--rmax", "100"], "N,a,b,p\nthis,is,not,data\n3,0,0,3\n"),
        (["ckn", "--N", "3"], "a,b\nnot,data\n0,0\n"),
    ],
)
def test_grid_allows_at_most_one_header_row(capsys, tmp_path, argv, text):
    grid = tmp_path / "grid.csv"
    grid.write_text(text)
    code, out, err = run(capsys, *argv, "--grid", str(grid))
    assert code == 2
    assert out == ""
    assert "non-numeric row" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sweep", "--rmax", "100"], "3,0,0,x\n3,0,0,3\n"),
        (["ckn", "--N", "3"], "0,x\n0,0\n"),
    ],
    ids=["sweep", "ckn"],
)
def test_grid_refuses_a_first_row_that_holds_a_number(capsys, tmp_path, argv, text):
    # such a row is data, not a header; it used to be dropped without a word
    grid = tmp_path / "grid.csv"
    grid.write_text(text)
    code, out, err = run(capsys, *argv, "--grid", str(grid))
    assert code == 2 and out == ""
    assert err.startswith("MalformedGrid: non-numeric row ")


_STOPPED_AT_ONCE = ["--N", "3", "--a", "0", "--b", "-1.9", "--p", "1.15"]


@pytest.mark.parametrize("command", ["shoot", "phase"])
def test_a_shot_stopped_before_its_first_step_exits_3(capsys, monkeypatch, command):
    # a field that is NaN from the start fails the first step's minimum-step
    # test; it used to end in an IndexError traceback from the node sampler
    from test_shooting import nan_at_start

    t0, _, _ = E.series_start(E.ProblemParams(3, 0.0, -1.9, 1.15))
    nan_at_start(monkeypatch)
    code, out, _ = run(capsys, command, *_STOPPED_AT_ONCE)
    assert code == 3
    reason = json.loads(out)["outcome"]["reason"]
    assert reason.startswith(f"integrator stopped at r = {math.exp(t0)}: ")


def test_pohozaev_on_a_shot_stopped_before_its_first_step_names_its_error(capsys, monkeypatch):
    from test_shooting import nan_at_start

    nan_at_start(monkeypatch)
    code, out, err = run(capsys, "pohozaev", *_STOPPED_AT_ONCE, "--radii", "1,2")
    assert code == 2 and out == ""
    assert err.startswith("RangeExceeded: ")


@pytest.mark.parametrize("reuse", [False, True], ids=["shot", "traj"])
def test_pohozaev_on_an_inconclusive_shot_exits_3(capsys, tmp_path, reuse):
    # the critical shot to r_max = 2 is too short for a decay fit; shoot
    # exits 3 on it, and pohozaev used to exit 0
    argv = ["pohozaev", *CUBIC_ARGS, "--p", "5", "--rmax", "2", "--radii", "1"]
    code, out, _ = run(capsys, "shoot", *CUBIC_ARGS, "--p", "5", "--rmax", "2",
                       "--out", str(tmp_path / "shot"))
    assert code == 3
    if reuse:
        argv += ["--traj", str(tmp_path / "shot" / "trajectory.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and err == ""
    assert json.loads(out)["reports"][0]["R"] == 1.0


_UNWEIGHTED = ["--N", "3", "--a", "0", "--b", "0"]


@pytest.mark.parametrize(
    "argv, primary, code",
    [
        (["classify", *_UNWEIGHTED, "--p", "5"], "classify.json", 0),
        (["shoot", *_UNWEIGHTED, "--p", "3", "--rmax", "10"], "shoot.json", 0),
        (["shoot", *_UNWEIGHTED, "--p", "5", "--rmax", "2"], "shoot.json", 3),
        (
            ["threshold", *_UNWEIGHTED, "--p-lo", "4", "--p-hi", "6", "--tol", "1e-2"],
            "threshold.json",
            0,
        ),
        (["bubble", "--N", "4", "--a", "0", "--b", "0", "--samples", "20"], "bubble.json", 0),
        (
            ["pohozaev", *_UNWEIGHTED, "--p", "3", "--beta", "0.5", "--rmax", "20",
             "--radii", "1,2"],
            "pohozaev.json",
            0,
        ),
        (["phase", *_UNWEIGHTED, "--p", "12", "--rmax", "1000"], "phase.json", 0),
        (["ckn", *_UNWEIGHTED, "--q", "6"], "ckn.json", 0),
        (["ckn", "--N", "3", "--grid", "{grid}"], "ckn_grid.csv", 0),
        (["sweep", "--grid", "{sweep_grid}", "--rmax", "100"], "sweep.csv", 0),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_every_subcommand_keeps_the_output_contract(capsys, tmp_path, argv, primary, code):
    (tmp_path / "grid.csv").write_text("a,b\n0,0\n1,-2.9\n")
    (tmp_path / "sweep_grid.csv").write_text("N,a,b,p\n3,0,0,3\n2,0,0,3\n")
    argv = [
        tok.format(grid=tmp_path / "grid.csv", sweep_grid=tmp_path / "sweep_grid.csv")
        for tok in argv
    ]

    def outputs(out_dir):
        """Data files on disk, checked against the manifest's list."""
        on_disk = {path.name for path in out_dir.iterdir()} - {"manifest.json"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == argv[0]
        assert manifest["outputs"] == sorted(on_disk)
        return on_disk

    plain = tmp_path / "plain"
    got, out, err = run(capsys, *argv, "--out", str(plain))
    assert (got, err) == (code, "")
    files = outputs(plain)
    assert primary in files
    assert (plain / primary).read_bytes() == out.encode()

    if argv[0] not in ("shoot", "bubble", "phase", "sweep"):  # no --emit-plot
        return
    plot = tmp_path / "plot"
    assert run(capsys, *argv, "--emit-plot", "--out", str(plot))[0] == code
    assert outputs(plot) == files | {f"{argv[0]}.gp"}
    assert (plot / f"{argv[0]}.gp").read_text().startswith("# gnuplot")


def test_main_calls_share_one_parser_and_dispatch_at_call_time(capsys, monkeypatch):
    from emdenlab import cli

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    argv = ["classify", "--N", "3", "--a", "0", "--b", "0", "--p", "5"]
    assert run(capsys, *argv)[0] == 0
    first = run(capsys, *argv)
    assert built == [1]

    seen = []

    def fake_shoot(args):
        seen.append(args.p)
        return cli.Output({"shoot.json": "{}\n"}, {}, {}, 0)

    monkeypatch.setattr(cli, "cmd_shoot", fake_shoot)
    shot = run(capsys, "shoot", "--N", "3", "--a", "0", "--b", "0", "--p", "3")
    assert shot == (0, "{}\n", "")
    assert seen == [3.0] and built == [1]
    assert run(capsys, *argv) == first


# the sweep, ckn and pohozaev calls that read a file, at {file}
SWEEP_GRID = ["sweep", "--rmax", "10", "--grid", "{file}"]
CKN_GRID = ["ckn", "--N", "3", "--grid", "{file}"]
POHOZAEV_TRAJ = ["pohozaev", *CUBIC_ARGS, "--p", "3", "--radii", "1", "--traj", "{file}"]
# a CSV field one byte over the csv module's 128 KiB limit
OVERSIZED = "3" * ((1 << 17) + 1)

# one id per refusal site: (file text or bytes, or None, argv, error name)
NAMED_REFUSALS = {
    "grid-non-numeric-row": ("N,a,b,p\n3,0,0,3\nthree,0,0,3\n", SWEEP_GRID, "MalformedGrid"),
    "grid-short-row": ("N,a,b,p\n3,0,0\n", SWEEP_GRID, "MalformedGrid"),
    "grid-without-rows": ("N,a,b,p\n# nothing\n", SWEEP_GRID, "MalformedGrid"),
    "grid-not-utf8": (b"N,a,b,p\n3,0,0,\xff\n", SWEEP_GRID, "MalformedGrid"),
    "grid-field-over-csv-limit": (f"N,a,b,p\n3,0,0,{OVERSIZED}\n", SWEEP_GRID, "MalformedGrid"),
    # a sweep grid read as a,b rows would take each row's (N, a) for (a, b)
    "grid-more-cells-than-columns": ("N,a,b,p\n3,0,0,3\n", CKN_GRID, "MalformedGrid"),
    "traj-not-utf8": (b"r,v,dv\n1.0,1.0,0.0\n2.0,0.5,\xff\n", POHOZAEV_TRAJ,
                      "MalformedTrajectory"),
    "traj-field-over-csv-limit": (f"r,v,dv\n1.0,1.0,0.0\n2.0,0.5,{OVERSIZED}\n",
                                  POHOZAEV_TRAJ, "MalformedTrajectory"),
    "bubble-one-sample": (None, ["bubble", *CUBIC_ARGS, "--samples", "1"], "NotInRange"),
    "bubble-rmin-above-rmax": (
        None, ["bubble", *CUBIC_ARGS, "--rmin", "2", "--rmax", "1"], "NotInRange"
    ),
    "pohozaev-empty-radii": (
        None, ["pohozaev", *CUBIC_ARGS, "--p", "3", "--radii", " , "], "MalformedOption"
    ),
    "pohozaev-non-numeric-radii": (
        None, ["pohozaev", *CUBIC_ARGS, "--p", "3", "--radii", "1,two"], "MalformedOption"
    ),
    "ckn-without-grid-or-triple": (
        None, ["ckn", "--N", "3", "--a", "0", "--b", "0"], "MalformedOption"
    ),
}


@pytest.mark.parametrize("site", list(NAMED_REFUSALS))
def test_cli_refusals_exit_2_with_a_named_error(capsys, tmp_path, site):
    # each used to raise a bare ValueError, a UnicodeDecodeError or a csv.Error,
    # or, for the wide grid, to read wrong rows
    text, argv, name = NAMED_REFUSALS[site]
    if text is not None:
        path = tmp_path / "input.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = [arg.format(file=path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"{name}: ")


def test_a_bare_value_error_is_an_internal_error_not_exit_2(capsys, monkeypatch):
    # exit 2 means bad input; a fault inside the program must not read as one
    from emdenlab import cli

    def broken(args):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    with pytest.raises(ValueError, match="an internal fault"):
        main(["classify", *CUBIC_ARGS, "--p", "3"])


def test_io_failure_exits_4(capsys):
    code, _, err = run(
        capsys,
        "classify", "--N", "3", "--a", "0", "--b", "0", "--p", "5",
        "--out", "/dev/null/not_a_dir",
    )
    assert code == 4
    assert err != ""


def test_unknown_flags_trip_argparse(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["classify", "--bogus", "1"])
    assert exc_info.value.code == 2


def test_missing_subcommand_trips_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_ckn_grid_names_a_norm_outside_double_range(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("a,b\n2.4275882562467754,0.4279581335187795\n0,0\n")
    code, out, _ = run(capsys, "ckn", "--N", "3", "--grid", str(grid))
    assert code == 0
    cells = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert math.isnan(float(cells[0][3])) and cells[0][4] == "NormOutOfRange"
    assert float(cells[1][3]) == pytest.approx(5.477904089531332, rel=1e-13)
