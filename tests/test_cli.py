import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from effdim import balance
from effdim.balance import g_feasibility, g_optimal, g_sir
from effdim.cli import main
from effdim.model import LinearGaussianProblem, save_problem
from effdim.filters import simulate, trajectory_to_json

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def run_cli(*args):
    return main(list(args))


def test_effdim_isotropic(tmp_path, capsys):
    out = tmp_path / "eff.json"
    code = run_cli("--command", "effdim", "--m", "100", "--q", "1",
                   "--r", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["steady_state"]["eff_dim"] == pytest.approx(10 * GOLDEN,
                                                           abs=1e-5)
    assert doc["config"]["seeds"] is None
    assert "eff_dim" in capsys.readouterr().out


def test_effdim_zero_q(tmp_path):
    out = tmp_path / "eff.json"
    code = run_cli("--command", "effdim", "--m", "4", "--q", "0",
                   "--r", "1", "--dare-tol", "1e-8", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["steady_state"]["eff_dim"] < 1e-3


def test_effdim_csv_format(tmp_path):
    out = tmp_path / "eff.csv"
    code = run_cli("--command", "effdim", "--m", "5", "--q", "1", "--r", "1",
                   "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].split(",")[0] == "eff_dim"
    assert float(lines[2].split(",")[0]) == pytest.approx(np.sqrt(5) * GOLDEN,
                                                          abs=1e-6)


def test_effdim_malformed_json_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [[1.0]], "Q": [[1.0]], "H": [[1.0]], '
                   '"mu0": [0.0], "Sigma0": [[1.0]]}')
    code = run_cli("--command", "effdim", "--problem", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "missing key: R" in err


def test_effdim_unparseable_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_cli("--command", "effdim", "--problem", str(bad)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_effdim_missing_problem_spec(capsys):
    assert run_cli("--command", "effdim") == 2
    assert "input error" in capsys.readouterr().err


def test_effdim_dare_failure_exit_code(tmp_path, capsys):
    problem = LinearGaussianProblem(A=2.0 * np.eye(2), Q=np.eye(2),
                                    H=np.zeros((1, 2)), R=np.eye(1),
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    path = tmp_path / "unstable.json"
    save_problem(problem, path)
    code = run_cli("--command", "effdim", "--problem", str(path),
                   "--dare-max-iter", "100")
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "residual" in err


def test_bounds_command(tmp_path):
    out = tmp_path / "bounds.json"
    code = run_cli("--command", "bounds", "--m", "3", "--q", "1", "--r", "1",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    # the bound is tight at the isotropic anchor; spec slack is 1e-8
    assert (doc["bounds"]["eff_dim_upper"]
            >= doc["steady_state"]["eff_dim"] - 1e-8)
    assert doc["bounds"]["eta"] == pytest.approx((np.sqrt(5) + 1) / 2,
                                                 abs=1e-9)


def test_map_feasibility_boundary(tmp_path):
    out = tmp_path / "map.json"
    code = run_cli("--command", "map", "--kind", "feasibility",
                   "--dims", "5,10,100", "--grid-points", "60",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert {ls["m"] for ls in doc["level_sets"]} == {5, 10, 100}
    for ls in doc["level_sets"]:
        level = 1.0 / np.sqrt(ls["m"])
        for q, r in ls["points"]:
            assert abs(g_feasibility(q, r) - level) <= 1e-6
            # analytic boundary r = 1/sqrt(m) + 1/(q m)
            assert r == pytest.approx(level + level ** 2 / q, rel=1e-5)


def test_map_optimal_rays(tmp_path):
    out = tmp_path / "map.json"
    code = run_cli("--command", "map", "--kind", "optimal", "--dims", "100",
                   "--grid-points", "50", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["level_sets"]
    for ls in doc["level_sets"]:
        pts = np.asarray(ls["points"])
        slope, intercept = np.polyfit(pts[:, 1], pts[:, 0], 1)
        residual = np.max(np.abs(pts[:, 0] - (slope * pts[:, 1] + intercept)))
        assert residual < 1e-8
        assert abs(intercept) < 1e-8


def test_map_sir_region_inside_optimal(tmp_path):
    out_s = tmp_path / "sir.json"
    out_o = tmp_path / "opt.json"
    for kind, out in (("sir", out_s), ("optimal", out_o)):
        assert run_cli("--command", "map", "--kind", kind, "--dims", "100",
                       "--grid-points", "40", "--out", str(out)) == 0
    sir = np.asarray(json.loads(out_s.read_text())["values"])
    opt = np.asarray(json.loads(out_o.read_text())["values"])
    inside = sir <= 0.1
    assert inside.any()
    assert np.all(opt[inside] <= 0.1)


def test_map_csv_grid(tmp_path):
    out = tmp_path / "map.csv"
    code = run_cli("--command", "map", "--kind", "sir", "--grid-points", "12",
                   "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "q,r,g"
    q, r, g = (float(t) for t in lines[2].split(","))
    assert g == pytest.approx(g_sir(q, r), rel=1e-12)


def test_maxdim_command(tmp_path):
    out = tmp_path / "maxdim.json"
    code = run_cli("--command", "maxdim", "--kind", "optimal",
                   "--grid-min", "1", "--grid-max", "100",
                   "--grid-points", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["m_max"][0] == pytest.approx(10.47, abs=0.01)
    assert doc["m_max"][-1] == pytest.approx(1.04e4, rel=0.01)


def test_filter_command_outputs(tmp_path):
    stem = tmp_path / "run"
    code = run_cli("--command", "filter", "--m", "2", "--q", "1", "--r", "1",
                   "--kind", "optimal", "--particles", "64", "--steps", "5",
                   "--seeds", "1,2", "--out", str(stem))
    assert code == 0
    csv_lines = (tmp_path / "run.csv").read_text().splitlines()
    assert csv_lines[1] == "seed,step,ess,max_weight,var_log_w,mean_error_norm"
    assert len(csv_lines) == 2 + 2 * 5
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["config"]["seeds"] == [1, 2]
    assert len(doc["runs"]) == 2
    for run in doc["runs"]:
        assert 1.0 <= run["final_ess"] <= 64.0


def test_filter_requires_seeds(capsys):
    code = run_cli("--command", "filter", "--m", "1", "--q", "1", "--r", "1",
                   "--kind", "sir")
    assert code == 2
    assert "--seeds is required" in capsys.readouterr().err


def test_smooth_command_with_trajectory_file(tmp_path):
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    ppath = tmp_path / "problem.json"
    save_problem(problem, ppath)
    traj = simulate(problem, 1, seed=5)
    tpath = tmp_path / "traj.json"
    tpath.write_text(trajectory_to_json(traj))
    stem = tmp_path / "smooth"
    code = run_cli("--command", "smooth", "--problem", str(ppath),
                   "--trajectory", str(tpath), "--out", str(stem))
    assert code == 0
    doc = json.loads((tmp_path / "smooth.json").read_text())
    assert doc["n_data"] == 1
    assert "holds" in doc["smoother_condition"]
    lines = (tmp_path / "smooth.csv").read_text().splitlines()
    assert lines[1] == "step,x0"
    assert len(lines) == 2 + 2  # x^0 and x^1
    # scalar weak mode solves [[2,-1],[-1,2]] x = (0, z)
    z = traj.observations[0, 0]
    x1 = float(lines[3].split(",")[1])
    assert x1 == pytest.approx(2.0 * z / 3.0, abs=1e-10)


def test_smooth_command_simulates_without_trajectory(tmp_path):
    stem = tmp_path / "smooth"
    code = run_cli("--command", "smooth", "--m", "2", "--q", "0.5",
                   "--r", "1", "--steps", "4", "--seeds", "9",
                   "--out", str(stem))
    assert code == 0
    doc = json.loads((tmp_path / "smooth.json").read_text())
    assert doc["n_data"] == 4
    assert doc["trajectory_source"]["simulated_with_seed"] == 9


def test_collapse_sweep_eps(tmp_path):
    stem = tmp_path / "sweep"
    code = run_cli("--command", "collapse-sweep", "--kind", "sir", "--m", "20",
                   "--grid-min", "0.1", "--grid-max", "10",
                   "--grid-points", "3", "--particles", "100", "--steps", "3",
                   "--seeds", "1,2,3", "--out", str(stem))
    assert code == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert len(doc["cells"]) == 3
    for cell in doc["cells"]:
        assert 0.0 <= cell["collapse_fraction"] <= 1.0
        assert cell["sigma_frob"] > 0
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[1] == "eps,m,q,r,collapse_fraction,sigma_frob"
    assert len(csv_lines) == 2 + 3


def test_filter_two_particles_degenerate_but_legal(tmp_path):
    stem = tmp_path / "tiny"
    code = run_cli("--command", "filter", "--m", "1", "--q", "1", "--r", "1",
                   "--kind", "sir", "--particles", "2", "--steps", "3",
                   "--seeds", "1", "--out", str(stem))
    assert code == 0
    doc = json.loads((tmp_path / "tiny.json").read_text())
    assert doc["runs"][0]["steps_completed"] == 3


def test_map_strong_kind(tmp_path):
    out = tmp_path / "strong.json"
    code = run_cli("--command", "map", "--kind", "strong", "--dims", "100",
                   "--grid-min", "0.01", "--grid-max", "100",
                   "--grid-points", "30", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    for s0, r in doc["level_sets"][0]["points"]:
        assert s0 * r / (s0 + r) == pytest.approx(0.1, abs=1e-6)


def test_collapse_sweep_m_axis(tmp_path):
    stem = tmp_path / "sweep"
    code = run_cli("--command", "collapse-sweep", "--kind", "optimal",
                   "--sweep", "m", "--dims", "1,4", "--q", "1", "--r", "1",
                   "--particles", "50", "--steps", "2", "--seeds", "1",
                   "--out", str(stem))
    assert code == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert [cell["m"] for cell in doc["cells"]] == [1, 4]


def test_reproducibility_byte_identical(tmp_path):
    args = ("--command", "filter", "--m", "2", "--q", "1", "--r", "0.5",
            "--kind", "sir", "--particles", "50", "--steps", "4",
            "--seeds", "7,8")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    for ext in (".csv", ".json"):
        blob_a = (tmp_path / ("a" + ext)).read_bytes()
        blob_b = (tmp_path / ("b" + ext)).read_bytes()
        # the config echoes the differing --out stem; normalize it away
        assert blob_a.replace(b'"a"', b'"X"').replace(b"/a", b"/X") \
            == blob_b.replace(b'"b"', b'"X"').replace(b"/b", b"/X")


def test_console_entry_point(tmp_path):
    out = tmp_path / "eff.json"
    proc = subprocess.run(
        [sys.executable, "-m", "effdim", "--command", "effdim", "--m", "5",
         "--q", "1", "--r", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def _no_csv(*_args, **_kwargs):
    raise AssertionError("csv rendered although json was requested")


def test_map_default_format_renders_no_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(balance, "map_to_csv", _no_csv)
    out = tmp_path / "map.json"
    assert run_cli("--command", "map", "--grid-points", "12",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["kind"] == "feasibility"


def test_maxdim_default_format_renders_no_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(balance, "curve_to_csv", _no_csv)
    out = tmp_path / "maxdim.json"
    assert run_cli("--command", "maxdim", "--kind", "sir", "--grid-points",
                   "4", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["m_max"]) == 4


@pytest.mark.parametrize("argv", [
    ["--command", "map", "--grid-min", "0"],
    ["--command", "map", "--grid-min", "10", "--grid-max", "1"],
    ["--command", "map", "--grid-points", "1"],
    ["--command", "map", "--grid-max", "nan"],
    ["--command", "map", "--balance-constant", "0"],
    ["--command", "maxdim", "--kind", "sir", "--grid-min", "0"],
    ["--command", "maxdim", "--kind", "optimal", "--balance-constant", "-1"],
    ["--command", "collapse-sweep", "--kind", "sir", "--m", "2",
     "--seeds", "1", "--grid-min", "0"],
], ids=["map-grid-min-0", "map-grid-reversed", "map-grid-points-1",
        "map-grid-max-nan", "map-constant-0", "maxdim-grid-min-0",
        "maxdim-constant-negative", "sweep-eps-grid-min-0"])
def test_bad_balance_input_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "input error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_map_negative_dims_exits_2(tmp_path, capsys):
    out = tmp_path / "map.json"
    assert run_cli("--command", "map", "--dims", "-4", "--grid-points", "5",
                   "--out", str(out)) == 2
    assert "dims must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_map_zero_dims_exits_2_without_warning(tmp_path, capsys):
    out = tmp_path / "map.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("--command", "map", "--dims", "5,0",
                       "--grid-points", "5", "--out", str(out)) == 2
    assert "dims must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims", ["0", "-2", "3,0"])
def test_collapse_sweep_m_axis_bad_dims_exits_2(dims, tmp_path, capsys):
    stem = tmp_path / "sweep"
    assert run_cli("--command", "collapse-sweep", "--kind", "sir",
                   "--sweep", "m", "--dims", dims, "--q", "1", "--r", "1",
                   "--seeds", "1", "--out", str(stem)) == 2
    assert "dims must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_ISO = ["--m", "2", "--q", "1", "--r", "1", "--seeds", "1"]


@pytest.mark.parametrize("argv", [
    ["--command", "filter", "--kind", "sir", *_ISO, "--particles", "0"],
    ["--command", "filter", "--kind", "sir", *_ISO, "--steps", "-1"],
    ["--command", "filter", "--kind", "optimal", *_ISO,
     "--resample-every", "0"],
    ["--command", "collapse-sweep", "--kind", "sir", *_ISO,
     "--grid-points", "2", "--particles", "1"],
    ["--command", "smooth", *_ISO, "--steps", "0"],
], ids=["filter-particles-0", "filter-steps-negative",
        "filter-resample-every-0", "sweep-particles-1", "smooth-steps-0"])
def test_bad_run_input_exits_2(argv, tmp_path, capsys):
    stem = tmp_path / "run"
    assert run_cli(*argv, "--out", str(stem)) == 2
    assert "input error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["effdim", "bounds", "smooth"])
@pytest.mark.parametrize("flag", [
    ["--dare-tol", "0"], ["--dare-tol=-1e-10"], ["--dare-tol", "nan"],
    ["--dare-tol", "inf"], ["--dare-max-iter", "0"],
    ["--dare-max-iter", "-5"],
], ids=["tol-0", "tol-negative", "tol-nan", "tol-inf", "max-iter-0",
        "max-iter-negative"])
def test_bad_dare_flags_exit_2(command, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("--command", command, *_ISO, *flag,
                   "--out", str(out)) == 2
    assert "--dare-" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
