"""Command-line contract: payloads, exit codes, files, determinism."""

import json
import math

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
