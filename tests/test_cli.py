import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effdim import (balance, bounds, cli, filters, kalman, model,
                    smoothing)
from effdim.balance import g_feasibility, g_optimal, g_sir
from effdim.cli import _render, main
from effdim.model import LinearGaussianProblem, SymMatrix, save_problem
from effdim.filters import simulate
from util import batch_widths, random_problem, trajectory_to_json

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
    assert doc["steady_state"]["residual"] >= 0.0
    assert "dare_equation_residual" not in doc  # the residual appears once
    assert doc["config"]["seeds"] is None
    out_text = capsys.readouterr().out
    assert "eff_dim" in out_text
    assert out_text.splitlines()[-1].count("residual") == 1


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


# a diagonal problem whose G = H'R^-1 H overflows: the sweep that takes
# over from the doubling cycles between two iterates
_OVERFLOWING_DIAGONAL = LinearGaussianProblem(
    A=np.diag([4.0e39, 1.1e-220]), Q=np.diag([2.1e48, 7.0e-73]),
    H=np.diag([-5.7e34, -1.2e151]), R=np.diag([7.5e-215, 1.7e-155]),
    mu0=np.zeros(2), Sigma0=np.diag([5.1e-63, 2.2e-204]))


@pytest.mark.parametrize("command", ["effdim", "bounds"])
def test_overflowing_diagonal_dare_exits_3_within_a_second(command, tmp_path,
                                                           capsys):
    path = tmp_path / "problem.json"
    save_problem(_OVERFLOWING_DIAGONAL, path)
    start = time.perf_counter()
    code = run_cli("--command", command, "--problem", str(path))
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "DARE iteration cycles with period 2 after 2 sweeps" in \
        capsys.readouterr().err
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["effdim", "bounds"])
@pytest.mark.parametrize("m,c", [(2, "1e250"), (3, "1e-250")])
def test_effdim_at_the_ends_of_the_float_range(command, m, c, tmp_path):
    # the DARE and its bounds scale with q = r = c; the rel 6e-14 is the
    # doubling's stop, as at q = r = 1
    out = tmp_path / "out.json"
    assert run_cli("--command", command, "--m", str(m), "--q", c, "--r", c,
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    want = math.sqrt(m) * kalman.isotropic_steady_p(float(c), float(c))
    eff_dim = doc["steady_state"]["eff_dim"]
    assert eff_dim == pytest.approx(want, rel=1e-13, abs=0.0)
    if command == "bounds":
        assert doc["bounds"]["eff_dim_upper"] >= eff_dim


def test_filter_error_norms_stay_finite_where_the_errors_are(tmp_path):
    # seed 3's step-1 error is about (9.1e306, -2.7e148): its norm and
    # its rms are finite although its squares overflow
    eye = np.eye(2)
    problem = LinearGaussianProblem(
        A=np.diag([1e158, 0.5]), Q=eye, H=1e-300 * eye, R=1e16 * eye,
        mu0=np.zeros(2), Sigma0=1e300 * eye)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    stem = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("--command", "filter", "--kind", "sir", "--problem",
                       str(path), "--particles", "200", "--steps", "3",
                       "--seeds", "3", "--out", str(stem)) == 0
        [run] = filters.run_filters(problem, "sir", 3, 200, [3])
    errors = run.means - run.trajectory.truth[1:len(run.means) + 1]
    assert np.isfinite(errors).all() and np.abs(errors).max() > 1e306
    [summary] = json.loads((tmp_path / "run.json").read_text())["runs"]
    assert summary["mean_rmse"] == pytest.approx(
        math.hypot(*errors.ravel()) / math.sqrt(errors.size), rel=1e-15)
    row = (tmp_path / "run.csv").read_text().splitlines()[2].split(",")
    assert float(row[-1]) == pytest.approx(math.hypot(*errors[0]),
                                           rel=1e-15)


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
    # the covariance is inv([[2,-1],[-1,2]]) = [[2,1],[1,2]] / 3
    assert doc["frob_cov"] == pytest.approx(np.sqrt(10.0) / 3.0, rel=1e-12)
    assert "frob_cov_is_lower_bound" not in doc
    assert "holds" in doc["smoother_condition"]
    lines = (tmp_path / "smooth.csv").read_text().splitlines()
    assert lines[1] == "step,x0"
    assert len(lines) == 2 + 2  # x^0 and x^1
    # scalar weak mode solves [[2,-1],[-1,2]] x = (0, z)
    z = traj.observations[0, 0]
    x1 = float(lines[3].split(",")[1])
    assert x1 == pytest.approx(2.0 * z / 3.0, abs=1e-10)


@pytest.mark.parametrize("observations", [
    [[1.0, 2.0, 3.0]], [], [[1.0, float("nan")]]],
    ids=["wide", "empty", "nan"])
def test_smooth_rejects_malformed_trajectory(observations, tmp_path, capsys):
    ppath = tmp_path / "problem.json"
    save_problem(LinearGaussianProblem.isotropic(2, 1.0, 1.0), ppath)
    tpath = tmp_path / "traj.json"
    tpath.write_text(json.dumps({"truth": [[0.0, 0.0]],
                                 "observations": observations, "seed": 1}))
    stem = tmp_path / "smooth"
    assert run_cli("--command", "smooth", "--problem", str(ppath),
                   "--trajectory", str(tpath), "--out", str(stem)) == 2
    assert "input error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json",
                                                          "traj.json"]


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


@pytest.mark.parametrize("command", ["effdim", "bounds"])
def test_m300_output_does_not_depend_on_the_blas_threads(command):
    # ||P||_F of a 300 x 300 P: a sum of more squares than OpenBLAS's dot
    # keeps on one thread
    argv = [sys.executable, "-m", "effdim", "--command", command,
            "--m", "300", "--q", "1e-2", "--r", "1", "--format", "csv"]
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    threaded = subprocess.run(argv, capture_output=True, text=True,
                              check=True, env=env)
    serial = subprocess.run(argv, capture_output=True, text=True, check=True,
                            env={**env, "OPENBLAS_NUM_THREADS": "1"})
    assert threaded.stdout == serial.stdout


def _no_csv(*_args, **_kwargs):
    raise AssertionError("csv rendered although json was requested")


def test_map_default_format_renders_no_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_map_csv_lines", _no_csv)
    out = tmp_path / "map.json"
    assert run_cli("--command", "map", "--grid-points", "12",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["kind"] == "feasibility"


def test_maxdim_default_format_renders_no_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_curve_csv_lines", _no_csv)
    out = tmp_path / "maxdim.json"
    assert run_cli("--command", "maxdim", "--kind", "sir", "--grid-points",
                   "4", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["m_max"]) == 4


def test_map_and_maxdim_documents(tmp_path, capsys):
    grid = ["--grid-min", "1e-2", "--grid-max", "1e2", "--grid-points", "10"]
    argv = ["--command", "map", "--kind", "feasibility", *grid,
            "--dims", "10"]
    assert run_cli(*argv, "--format", "csv",
                   "--out", str(tmp_path / "map.csv")) == 0
    lines = (tmp_path / "map.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "q,r,g"
    assert len(lines) == 2 + 100
    q, r, g = (float(tok) for tok in lines[2].split(","))
    assert g == pytest.approx(g_feasibility(q, r), rel=1e-15)
    assert run_cli(*argv, "--out", str(tmp_path / "map.json")) == 0
    doc = json.loads((tmp_path / "map.json").read_text())
    assert doc["kind"] == "feasibility"
    assert doc["level_sets"][0]["m"] == 10
    assert run_cli("--command", "maxdim", "--kind", "sir", *grid,
                   "--format", "csv", "--out",
                   str(tmp_path / "maxdim.csv")) == 0
    lines = (tmp_path / "maxdim.csv").read_text().splitlines()
    assert lines[1] == "eps,m_max"
    assert len(lines) == 2 + 10
    capsys.readouterr()


_SMOOTH = ["--command", "smooth", "--m", "2", "--q", "1", "--r", "1",
           "--seeds", "1", "--steps", "3"]


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
    [*_SMOOTH, "--balance-constant", "0"],
    [*_SMOOTH, "--balance-constant", "nan"],
    [*_SMOOTH, "--balance-constant", "inf"],
], ids=["map-grid-min-0", "map-grid-reversed", "map-grid-points-1",
        "map-grid-max-nan", "map-constant-0", "maxdim-grid-min-0",
        "maxdim-constant-negative", "sweep-eps-grid-min-0",
        "smooth-constant-0", "smooth-constant-nan", "smooth-constant-inf"])
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


@pytest.mark.parametrize("m", ["0", "-2"])
def test_eps_sweep_rejects_m_below_1(m, tmp_path, capsys):
    stem = tmp_path / "sweep"
    assert run_cli("--command", "collapse-sweep", "--kind", "sir", "--m", m,
                   "--particles", "5", "--steps", "2", "--seeds", "1",
                   "--out", str(stem)) == 2
    assert capsys.readouterr().err == "effdim: input error: --m must be >= 1\n"
    assert not list(tmp_path.iterdir())


_ISO = ["--m", "2", "--q", "1", "--r", "1", "--seeds", "1"]


@pytest.mark.parametrize("dims", ["1", "5,10,100"])
def test_collapse_sweep_overflowing_noise_exits_2(dims, tmp_path, capsys):
    stem = tmp_path / "sweep"
    assert run_cli("--command", "collapse-sweep", "--kind", "sir",
                   "--sweep", "m", "--dims", dims, "--q", "1e308",
                   "--r", "1e308", "--seeds", "1", "--particles", "10",
                   "--steps", "2", "--out", str(stem)) == 2
    err = capsys.readouterr().err
    assert "Q has entries too large to symmetrize without overflow" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--command", "filter", "--kind", "sir", *_ISO, "--particles", "0"],
    ["--command", "filter", "--kind", "sir", *_ISO, "--steps", "-1"],
    ["--command", "filter", "--kind", "optimal", *_ISO,
     "--resample-every", "0"],
    ["--command", "collapse-sweep", "--kind", "sir", *_ISO,
     "--grid-points", "2", "--particles", "1"],
    ["--command", "smooth", *_ISO, "--steps", "0"],
    ["--command", "collapse-sweep", "--kind", "sir", "--sweep", "m",
     "--q", "1", "--r", "0", "--seeds", "1"],
    ["--command", "collapse-sweep", "--kind", "sir", "--m", "2", "--r", "0",
     "--seeds", "1", "--grid-points", "2"],
    ["--command", "filter", "--kind", "sir", "--m", "2", "--q", "1",
     "--r", "1", "--seeds", "-1"],
    ["--command", "collapse-sweep", "--kind", "sir", "--m", "2",
     "--grid-points", "2", "--seeds", "2,-1"],
], ids=["filter-particles-0", "filter-steps-negative",
        "filter-resample-every-0", "sweep-particles-1", "smooth-steps-0",
        "sweep-m-r-0", "sweep-eps-r-0", "filter-seed-negative",
        "sweep-seed-negative"])
def test_bad_run_input_exits_2(argv, tmp_path, capsys):
    stem = tmp_path / "run"
    assert run_cli(*argv, "--out", str(stem)) == 2
    assert "input error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _filter_argv(seeds="1"):
    return ["--command", "filter", "--kind", "sir", "--m", "2", "--q", "1",
            "--r", "1", "--particles", "10", "--steps", "2", "--seeds", seeds]


def _sweep_argv(seeds="1"):
    return ["--command", "collapse-sweep", "--kind", "optimal", "--m", "2",
            "--grid-points", "2", "--particles", "10", "--steps", "2",
            "--seeds", seeds]


@pytest.mark.parametrize("argv, message", [
    (_filter_argv("1,-2"), "--seeds must be non-negative integers"),
    (_sweep_argv("-3"), "--seeds must be non-negative integers"),
    (_filter_argv() + ["--collapse-threshold", "nan"],
     "--collapse-threshold must be finite"),
    (_filter_argv() + ["--collapse-threshold=-inf"],
     "--collapse-threshold must be finite"),
    (_sweep_argv() + ["--collapse-threshold", "nan"],
     "--collapse-threshold must be finite"),
], ids=["filter-seeds", "sweep-seeds", "filter-threshold-nan",
        "filter-threshold-minus-inf", "sweep-threshold-nan"])
def test_bad_seeds_and_threshold_name_their_flag(argv, message, tmp_path,
                                                 capsys):
    assert run_cli(*argv, "--out", str(tmp_path / "run")) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# m = 66 and N = 1000 put each seed in a batch of its own, and the
# batches of the isotropic (diagonal) problem run on threads
@pytest.mark.parametrize("kind,m,particles,steps", [
    ("sir", 3, 80, 6), ("optimal", 3, 80, 6), ("sir", 66, 1000, 3),
    ("optimal", 66, 1000, 3),
], ids=["sir", "optimal", "sir-threaded", "optimal-threaded"])
def test_filter_seeds_together_equal_single_seed_runs(kind, m, particles,
                                                      steps, tmp_path):
    common = ["--command", "filter", "--m", str(m), "--q", "0.5", "--r", "1",
              "--kind", kind, "--particles", str(particles),
              "--steps", str(steps), "--resample-every", "3"]
    rows = {}
    for seeds in ("1,2,3", "1", "2", "3"):
        stem = tmp_path / seeds.replace(",", "_")
        assert run_cli(*common, "--seeds", seeds, "--out", str(stem)) == 0
        rows[seeds] = (tmp_path / (stem.name + ".csv")).read_text() \
            .splitlines()[2:]
    assert len(rows["1,2,3"]) == 3 * steps
    assert rows["1,2,3"] == rows["1"] + rows["2"] + rows["3"]


def test_filter_numerical_failure_exits_3(tmp_path, capsys):
    # a valid problem whose HQH'+R is too ill-conditioned to invert
    eye = np.eye(2)
    path = tmp_path / "problem.json"
    save_problem(LinearGaussianProblem(A=eye, Q=np.diag([1e20, 1.0]), H=eye,
                                       R=eye, mu0=np.zeros(2), Sigma0=eye),
                 path)
    assert run_cli("--command", "filter", "--problem", str(path),
                   "--kind", "optimal", "--particles", "10", "--steps", "2",
                   "--seeds", "1", "--out", str(tmp_path / "run")) == 3
    assert "numerical error: singular HQH'+R" in capsys.readouterr().err
    assert not list(tmp_path.glob("run*"))


def test_collapse_sweep_records_a_numerical_failure_per_cell(tmp_path,
                                                             monkeypatch):
    step_plan = filters.step_plan

    def failing(problem, kind, sigma_frob=None):
        if problem.m == 2:
            raise np.linalg.LinAlgError("singular HQH'+R")
        return step_plan(problem, kind, sigma_frob)

    monkeypatch.setattr(filters, "step_plan", failing)
    stem = tmp_path / "sweep"
    assert run_cli("--command", "collapse-sweep", "--kind", "optimal",
                   "--sweep", "m", "--dims", "1,2,3", "--q", "1",
                   "--r", "1", "--particles", "10", "--steps", "2",
                   "--seeds", "1,2", "--out", str(stem)) == 0
    cells = json.loads((tmp_path / "sweep.json").read_text())["cells"]
    assert cells[1]["runs"] == [{"seed": 1, "error": "singular HQH'+R"},
                                {"seed": 2, "error": "singular HQH'+R"}]
    for cell in (cells[0], cells[2]):
        assert [run["seed"] for run in cell["runs"]] == [1, 2]
        assert "error" not in cell["runs"][0]


# per command, one library call it makes and the rest of its argv
_POLICY_CALLS = {
    "effdim": (kalman, "solve_dare", _ISO),
    "bounds": (bounds, "p_upper_bound", _ISO),
    "map": (balance, "build_map", ["--grid-points", "5"]),
    "maxdim": (balance, "build_max_dim_curve",
               ["--kind", "sir", "--grid-points", "5"]),
    "filter": (filters, "run_filters", ["--kind", "sir", *_ISO]),
    "smooth": (filters, "simulate", _ISO),
    "collapse-sweep": (filters, "run_plans",
                       ["--kind", "sir", *_ISO, "--grid-points", "2"]),
}


@pytest.mark.parametrize("error,code,label", [
    (ValueError, 2, "input"), (np.linalg.LinAlgError, 3, "numerical")])
@pytest.mark.parametrize("command", sorted(_POLICY_CALLS))
def test_main_maps_a_library_error_to_its_exit_code(command, error, code,
                                                    label, tmp_path,
                                                    monkeypatch, capsys):
    # a ValueError is bad input and a LinAlgError (a ValueError subclass)
    # a numerical failure, whichever command's call raised it
    module, name, argv = _POLICY_CALLS[command]

    def failing(*_args, **_kwargs):
        raise error("boom")

    monkeypatch.setattr(module, name, failing)
    assert run_cli("--command", command, *argv,
                   "--out", str(tmp_path / "out")) == code
    assert capsys.readouterr().err == f"effdim: {label} error: boom\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--command", "effdim"],
    ["--command", "filter", "--kind", "sir", "--particles", "5",
     "--steps", "2", "--seeds", "1"],
    ["--command", "smooth", "--steps", "2", "--seeds", "1"],
], ids=["effdim", "filter", "smooth"])
def test_a_covariance_psd_factor_rejects_is_an_invalid_problem(argv, tmp_path,
                                                               capsys):
    path = tmp_path / "problem.json"
    save_problem(LinearGaussianProblem(
        A=[[0.5]], Q=[[-1.00000000005e-10]], H=[[1.0]], R=[[1.0]], mu0=[0.0],
        Sigma0=[[1.0]]), path)
    assert run_cli(*argv, "--problem", str(path),
                   "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "effdim: input error: invalid problem: Q not positive semi-definite\n")
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]


_SWEEP_RUN = ["--particles", "30", "--steps", "4"]
_WIDE_SIGMA0 = {"sir": 2e-10 * 1.7e308 / 1.5, "optimal": 2e-10 * 1.7e308 / 0.75}


def _eps_sweep_cases(kind) -> dict:
    """Eps sweeps whose cells run as rows of shared batches."""
    iso = ["--m", "4", "--grid-min", "0.1", "--grid-max", "10",
           "--grid-points", "5"]
    return {
        "plain": [*iso, *_SWEEP_RUN, "--seeds", "1,2,3"],
        "resample-every-3": [*iso, *_SWEEP_RUN, "--resample-every", "3",
                             "--seeds", "4,5"],
        "beyond-one-word": [*iso, *_SWEEP_RUN,
                            "--seeds", f"{2 ** 32},7,{2 ** 40 + 3}"],
        "repeated-seed": [*iso, *_SWEEP_RUN, "--seeds", "5,5,2,5"],
        # a prior so wide that the weights of seeds 1 and 7 overflow at
        # the first step: in every cell for sir, in the first for optimal
        "degenerate": ["--m", "1", "--r", "2e-10",
                       "--sigma0", repr(_WIDE_SIGMA0[kind]),
                       "--grid-min", "1e-3", "--grid-max", "1e300",
                       "--grid-points", "6", "--particles", "2",
                       "--steps", "4", "--resample-every", "2",
                       "--seeds", f"1,2,3,4,5,6,7,8,{2 ** 32 + 1}"],
    }


def _sweep_files(directory, monkeypatch, argv) -> tuple:
    """The .json and .csv bytes of the sweep ``argv``, run in
    ``directory`` with the output stem "sweep" (the files embed it)."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    assert run_cli(*argv, "--out", "sweep") == 0
    return tuple((directory / f"sweep{ext}").read_bytes()
                 for ext in (".json", ".csv"))


def _cells_alone(monkeypatch):
    """Make every sweep cell run on its own, as a one-cell sweep does."""
    run_plans = filters.run_plans

    def alone(problems, plans, *args, **kwargs):
        return [run_plans([problem], [plan], *args, **kwargs)[0]
                for problem, plan in zip(problems, plans)]

    monkeypatch.setattr(filters, "run_plans", alone)


@pytest.mark.parametrize("case", sorted(_eps_sweep_cases("sir")))
@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_eps_sweep_cells_equal_one_cell_sweeps(kind, case, tmp_path,
                                               monkeypatch):
    argv = ["--command", "collapse-sweep", "--kind", kind,
            *_eps_sweep_cases(kind)[case]]
    widths = batch_widths(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        shared = _sweep_files(tmp_path / "shared", monkeypatch, argv)
        assert max(widths) > 1  # cells ran as rows of one batch
        _cells_alone(monkeypatch)
        assert shared == _sweep_files(tmp_path / "alone", monkeypatch, argv)
    if case == "degenerate":
        cells = json.loads(shared[0])["cells"]
        dead = [[run["seed"] for run in cell["runs"] if run["degenerate"]]
                for cell in cells]
        assert dead[0] == [1, 7]
        assert (dead[1] == [1, 7]) == (kind == "sir")


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_eps_sweep_cell_whose_plan_fails_leaves_the_others_alone(
        kind, tmp_path, monkeypatch):
    step_plan = filters.step_plan

    def failing(problem, kind, sigma_frob=None):
        if problem.Q[0, 0] == 1.0:  # the middle cell of three
            raise np.linalg.LinAlgError("singular HQH'+R")
        return step_plan(problem, kind, sigma_frob)

    monkeypatch.setattr(filters, "step_plan", failing)
    argv = ["--command", "collapse-sweep", "--kind", kind, "--m", "3",
            "--grid-min", "0.01", "--grid-max", "100", "--grid-points", "3",
            *_SWEEP_RUN, "--seeds", "1,2"]
    widths = batch_widths(monkeypatch)
    shared = _sweep_files(tmp_path / "shared", monkeypatch, argv)
    assert widths == [2]
    _cells_alone(monkeypatch)
    assert shared == _sweep_files(tmp_path / "alone", monkeypatch, argv)
    cells = json.loads(shared[0])["cells"]
    assert cells[1]["runs"] == [{"seed": 1, "error": "singular HQH'+R"},
                                {"seed": 2, "error": "singular HQH'+R"}]
    assert math.isnan(cells[1]["collapse_fraction"])
    for cell in (cells[0], cells[2]):
        assert [run["seed"] for run in cell["runs"]] == [1, 2]


def _counting_draws(monkeypatch) -> list:
    """A one-item list counting the (N, m) blocks of standard normals the
    filters draw from now on; a block copied to another row is no draw."""
    count = [0]
    normals = filters._normals

    def counting(generators, out):
        def counted():
            for rng in generators:
                count[0] += rng is not None
                yield rng
        return normals(counted(), out)

    monkeypatch.setattr(filters, "_normals", counting)
    return count


def test_eps_sweep_draws_each_seeds_noise_once(tmp_path, monkeypatch):
    # the benchmark's optimal eps sweep: 9 cells, 8 seeds, 20 steps
    count = _counting_draws(monkeypatch)
    seeds = ",".join(map(str, range(11, 19)))
    assert run_cli("--command", "collapse-sweep", "--kind", "optimal",
                   "--m", "20", "--grid-min", "0.01", "--grid-max", "100",
                   "--grid-points", "9", "--particles", "200",
                   "--steps", "20", "--seeds", seeds,
                   "--out", str(tmp_path / "eps")) == 0
    assert count[0] == 8 * (1 + 20)  # the prior, then each step's move
    # an m sweep's cells differ in m, so each still draws its own
    count[0] = 0
    assert run_cli("--command", "collapse-sweep", "--kind", "sir",
                   "--sweep", "m", "--dims", "5,10,20,50", "--q", "1",
                   "--r", "1", "--particles", "100", "--steps", "5",
                   "--seeds", seeds, "--out", str(tmp_path / "m")) == 0
    assert count[0] == 4 * 8 * (1 + 5)


def test_filter_validates_and_factors_once_per_problem(tmp_path,
                                                       monkeypatch):
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "effdim" or name.startswith("effdim.")]
    for fname in ("validate", "psd_factor"):
        original = getattr(model, fname)

        def counting(*args, _fn=original, _name=fname, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counting)
    rng = np.random.default_rng(3)
    problem = random_problem(rng, m=4, k=3)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    counts = {}
    for seeds in ("1", "1,2,3,4"):
        calls.clear()
        assert run_cli("--command", "filter", "--problem", str(path),
                       "--kind", "optimal", "--particles", "30",
                       "--steps", "3", "--seeds", seeds,
                       "--out", str(tmp_path / "run")) == 0
        counts[seeds] = dict(calls)
    assert counts["1"]["validate"] == 1
    assert counts["1"]["psd_factor"] >= 4  # Sigma0 twice, Q, R, Sigma_o
    assert counts["1,2,3,4"] == counts["1"]


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


# ---------------------------------------------------------------------------
# the JSON files are json.dumps(doc, indent=2, sort_keys=True) text and a
# newline; cli writes that text itself, so json is the oracle

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-5,
                   1e-4, 1e22, 0.1]
_LEAVES = st.one_of(
    st.floats(), st.sampled_from(_SPECIAL_FLOATS),
    st.floats().map(np.float64), st.booleans(), st.none(),
    st.integers(), st.integers(-2**200, 2**200),
    st.text(), st.sampled_from(["\x00\x1f\x7f", '"\\/', "\ud800", "é日\U0001f600"]),
    st.sampled_from(filters.FilterKind),
    st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS)))
_DOCS = st.recursive(
    _LEAVES,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text() | st.sampled_from(
                      filters.FilterKind), kids)),
    max_leaves=40)


def _assert_renders_as_json(doc):
    assert _render(doc, "") == json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_renderer_writes_what_json_writes(doc):
    _assert_renders_as_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.floats() | st.integers() | st.booleans(),
                       st.integers()) | st.dictionaries(st.none(), st.none()))
def test_renderer_coerces_keys_as_json_does(doc):
    _assert_renders_as_json(doc)


# float64 arrays render as their tolist(); arrays of any other dtype are
# rejected as json rejects them
@pytest.mark.parametrize("doc", [object(), [np.int64(1)], {"a": {1, 2}},
                                 np.zeros(2, dtype=np.int64),
                                 np.zeros(2, dtype=bool),
                                 np.zeros(2, dtype=object),
                                 np.zeros(2, dtype=np.float32),
                                 {1j: 0}, {1: 0, "a": 0}],
                         ids=["object", "int64", "set", "ndarray",
                              "bool-ndarray", "object-ndarray",
                              "float32-ndarray", "complex-key",
                              "mixed-keys"])
def test_renderer_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _render(doc, "")
    assert str(got.value) == str(want.value)


@st.composite
def _float_arrays(draw):
    """float64 arrays of 0 to 3 dimensions, sides 0 to 6, whose entries
    are drawn from a small pool (heavy repeats) or freely."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=6))
    pool = draw(st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS),
                         min_size=1, max_size=4))
    elements = draw(st.sampled_from([st.sampled_from(pool),
                                     st.floats() | st.sampled_from(
                                         _SPECIAL_FLOATS)]))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@settings(max_examples=300, deadline=None)
@given(_float_arrays(), st.sampled_from(["", "  ", "      "]))
def test_renderer_writes_a_float_array_as_its_list(a, pad):
    want = json.dumps(a.tolist(), indent=2, sort_keys=True)
    assert _render(a, pad) == want.replace("\n", "\n" + pad)
    assert _render({"a": a}, pad) == _render({"a": a.tolist()}, pad)


@pytest.mark.parametrize("a", [np.zeros((3, 4)).T, np.arange(12.0)[::3],
                               np.asfortranarray(np.eye(3)),
                               np.array(-0.0), np.full((2, 0, 3), 1.0),
                               np.zeros((0, 2))],
                         ids=["transposed", "strided", "fortran", "0-d",
                              "empty-row", "no-rows"])
def test_renderer_writes_array_layouts_as_their_lists(a):
    assert _render(a, "  ") == _render(a.tolist(), "  ")


def _field_doc(value):
    """A result as the json document of its fields: the oracle for
    _render of a result dataclass."""
    if isinstance(value, SymMatrix):
        return value.a.tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_field_doc(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _field_doc(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def _result(name):
    problem = random_problem(np.random.default_rng(5), 3)
    grid = balance.log_grid(1e-2, 1e2, 12)
    return {
        "SteadyState": lambda: kalman.solve_dare(problem),
        "DareBounds": lambda: bounds.p_upper_bound(problem),
        "BalanceMap": lambda: balance.build_map("feasibility", grid, grid,
                                                [3, 30]),
        "MaxDimCurve": lambda: balance.build_max_dim_curve(grid, "optimal"),
        "SufficientConditions":
            lambda: balance.general_sufficient_conditions(problem),
        "ConditionCheck": lambda: smoothing.smoother_condition(problem),
    }[name]()


# the keys of each result's document, which are its fields
_RESULT_KEYS = {
    "SteadyState": {"X", "K", "P", "eff_dim", "iterations", "residual"},
    "DareBounds": {"X_lower", "X_upper", "P_upper", "eff_dim_upper", "eta",
                   "q_regularized"},
    "BalanceMap": {"kind", "q_grid", "r_grid", "values", "level_sets"},
    "MaxDimCurve": {"kind", "eps_grid", "m_max"},
    "SufficientConditions": {"eff_dim", "feasibility", "optimal_filter",
                             "sir_filter"},
    "ConditionCheck": {"holds", "lhs", "rhs"},
}


@pytest.mark.parametrize("name", sorted(_RESULT_KEYS))
def test_renderer_writes_a_result_as_its_fields(name):
    result = _result(name)
    assert type(result).__name__ == name
    assert name != "BalanceMap" or result.level_sets
    doc = _field_doc(result)
    assert set(doc) == _RESULT_KEYS[name]
    assert _render(result, "") == json.dumps(doc, indent=2, sort_keys=True)
    assert _render({"a": [result]}, "  ") == _render({"a": [doc]}, "  ")


_CANONICAL_ARGV = {
    "effdim": ["--command", "effdim", "--m", "5", "--q", "0.1", "--r", "1"],
    "bounds": ["--command", "bounds", "--m", "5", "--q", "0.1", "--r", "1"],
    "map": ["--command", "map", "--kind", "optimal", "--grid-points", "20"],
    "maxdim": ["--command", "maxdim", "--kind", "sir", "--grid-points", "20"],
    "filter": ["--command", "filter", "--kind", "sir", "--m", "3", "--q",
               "0.5", "--r", "1", "--particles", "20", "--steps", "3",
               "--seeds", "1,2"],
    "smooth": [*_SMOOTH],
    "collapse-sweep": ["--command", "collapse-sweep", "--kind", "sir",
                       "--m", "3", "--grid-points", "2", "--particles", "20",
                       "--steps", "3", "--seeds", "1"],
    # the steady innovation covariance X + R (about 2.1e308) overflows,
    # so the cell's sigma_frob is NaN
    "collapse-sweep-nan": ["--command", "collapse-sweep", "--kind", "optimal",
                           "--sweep", "m", "--dims", "2", "--q", "8e307",
                           "--r", "8e307", "--particles", "20", "--steps",
                           "3", "--seeds", "1"],
}


@pytest.mark.parametrize("name", sorted(_CANONICAL_ARGV))
def test_json_outputs_are_canonical(name, tmp_path, capsys):
    assert run_cli(*_CANONICAL_ARGV[name], "--out",
                   str(tmp_path / "run")) == 0
    capsys.readouterr()
    [path] = [p for p in tmp_path.iterdir() if p.suffix != ".csv"]
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
    assert ("NaN" in text) == name.endswith("-nan")


def test_import_loads_no_scipy():
    # effdim runs on numpy's BLAS alone; a second BLAS pool (scipy's)
    # competes with numpy's for the same cores
    code = ("import sys, effdim, effdim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# seeded outputs and balance maps pinned to their SHA-256: a change to the
# noise streams (numpy's seeding included), to the arithmetic or to the
# JSON text shows here.  The digests
# were taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (SkylakeX
# kernels) on an AVX-512 Intel Xeon.  Their bytes rest on that build: the
# dense runs on OpenBLAS's matmul and LAPACK's eigh and Cholesky, whose
# order of summation and use of FMA follow the CPU, and every run on
# numpy's SIMD exp and log and on the matmul of the means; the map and
# maxdim runs on its power and sqrt over the grid.  On another
# CPU or BLAS they may differ in the last bits with the program unchanged;
# the oracle tests of tests/test_filters.py still hold there.

_GOLDEN_DENSE = LinearGaussianProblem(
    A=[[0.9, 0.1, 0.0], [0.2, 0.5, 0.1], [0.0, 0.3, 0.7]],
    Q=[[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.5]],
    H=[[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]], R=[[0.5, 0.1], [0.1, 0.4]],
    mu0=[0.0, 0.5, -0.5],
    Sigma0=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.3], [0.0, 0.3, 1.0]])
# non-isotropic and diagonal, with an unstable component
_GOLDEN_DIAGONAL = LinearGaussianProblem(
    A=np.diag([0.9, -0.5, 1.1]), Q=np.diag([0.5, 2.0, 0.1]),
    H=np.diag([1.0, 0.5, -2.0]), R=np.diag([0.3, 1.0, 4.0]),
    mu0=[0.1, -0.2, 0.3], Sigma0=np.diag([1.0, 0.2, 3.0]))
_GOLDEN_ISO = ["--m", "3", "--q", "0.5", "--r", "1"]
_GOLDEN_RUN = ["--particles", "40", "--steps", "4", "--resample-every", "2"]
_GOLDEN_ARGV = {
    "filter-sir-isotropic": ["--command", "filter", "--kind", "sir",
                             *_GOLDEN_ISO, *_GOLDEN_RUN, "--seeds", "1,2"],
    "filter-optimal-isotropic": ["--command", "filter", "--kind", "optimal",
                                 *_GOLDEN_ISO, *_GOLDEN_RUN,
                                 "--seeds", "1,2"],
    "filter-sir-dense": ["--command", "filter", "--kind", "sir",
                         "--problem", "problem.json", *_GOLDEN_RUN,
                         "--seeds", "1,2"],
    "filter-optimal-dense": ["--command", "filter", "--kind", "optimal",
                             "--problem", "problem.json", *_GOLDEN_RUN,
                             "--seeds", "1,2"],
    "collapse-sweep": ["--command", "collapse-sweep", "--kind", "optimal",
                       "--m", "4", "--grid-min", "0.1", "--grid-max", "10",
                       "--grid-points", "2", "--particles", "30",
                       "--steps", "3", "--seeds", "1,2,3"],
    # a seed beyond one 32-bit word next to one within it
    "filter-seed-2^32": ["--command", "filter", "--kind", "sir",
                         *_GOLDEN_ISO, *_GOLDEN_RUN,
                         "--seeds", "4294967296,1"],
    # one-file commands, written once per --format
    "map-feasibility": ["--command", "map", "--kind", "feasibility",
                        "--grid-points", "40"],
    "map-optimal": ["--command", "map", "--kind", "optimal",
                    "--grid-points", "40"],
    "maxdim-sir": ["--command", "maxdim", "--kind", "sir",
                   "--grid-points", "40"],
    # maps whose values repeat (sir) or mirror (strong), the renderer's
    # dedupe, and the vectorized maxdim
    "map-sir": ["--command", "map", "--kind", "sir", "--grid-points", "40"],
    "map-strong": ["--command", "map", "--kind", "strong",
                   "--grid-points", "40"],
    "maxdim-optimal": ["--command", "maxdim", "--kind", "optimal",
                       "--grid-points", "40"],
    "effdim-dense": ["--command", "effdim", "--problem", "problem.json"],
    "bounds-dense": ["--command", "bounds", "--problem", "problem.json"],
    # the DARE, its bounds and the smoother on diagonals
    "effdim-isotropic": ["--command", "effdim", *_GOLDEN_ISO],
    "bounds-isotropic": ["--command", "bounds", *_GOLDEN_ISO],
    "smooth-isotropic": ["--command", "smooth", *_GOLDEN_ISO,
                         "--steps", "4", "--seeds", "1"],
    "effdim-diagonal": ["--command", "effdim", "--problem", "diagonal.json"],
    "bounds-diagonal": ["--command", "bounds", "--problem", "diagonal.json"],
    "smooth-diagonal": ["--command", "smooth", "--problem", "diagonal.json",
                        "--steps", "4", "--seeds", "1"],
}
# (run.csv, run.json)
_GOLDEN_SHA256 = {
    "filter-sir-isotropic": (
        "69e6e07b48a6a2d784360a028ddb902bd5735e9ee57f5628ab90e4b9a6fd8b62",
        "0828b5618a629893f844c0070c33e42a657bbff372331f5b7c25e2b384220a40",
    ),
    "filter-optimal-isotropic": (
        "a076149944dd66a30d91edbb4ddd6075eb68a4ed36537dc0d92d2bb91d04a05d",
        "d407cd8633934d880f0ecf924ed18042b53063c69978667ae4bb668c427419a8",
    ),
    "filter-sir-dense": (
        "d2e2cb9b754f5243f7a0d847e5fe86932c5346cc0328ac64699105c6475f59b5",
        "030383e4ce5764bfbd0e15d0d44a4ce3f3fa9b0b3e8d47c1acbd6aa5f91987a8",
    ),
    "filter-optimal-dense": (
        "f4441fa7b0c18393ef9ae5f875ca365d47e4ea3d3da4c0d1487c1e837707f428",
        "731ad83bd5796108d11f36bf632ac28661b53362c3b616cc335b4e90b4008789",
    ),
    "collapse-sweep": (
        "a5af0f0ab35556074470beaa6c6d9629e68fa0ff36620336610b907aff61bc55",
        "98b91a315114a1b5b5f4a41679cf49d0c1092d0617c7083661dcef2475245509",
    ),
    "filter-seed-2^32": (
        "d8d6d2cd30a2f5167738dc332629f5620a238f6e3c35941c2b584ca561c398b1",
        "f44cc2f80a1700f0c4fe436c39e11781e2ee05a21e7ab2735dba34f81721d5af",
    ),
    "map-feasibility": (
        "d5fbee79b329c6b5712b06f556deea2c0f53d03d6cf5f80902ff52dee8064a34",
        "0a148d43c58784e521a4dec5515902975eb474343bc29a1a95071ddd4a4da7b6",
    ),
    "map-optimal": (
        "f9759b3c9a78584d51fe3bdfaa7a6057c5a3388acd7082557e28b6762a5609e9",
        "04710353daf1333e57ed70e9cd8ec0e3369f756f0e4dfa863ca80f5e1cf14eba",
    ),
    "maxdim-sir": (
        "092a86acd50fa738c5aaab0158f25a37c8df6ff691ec6c1574c3f59027a4d3cc",
        "42c7bdf8ce617fd4623b87eaccb413b32b783cdfcd45ca595a051257b0dfeef0",
    ),
    # taken with the code that wrote each array through tolist() and
    # evaluated max_dimension once per eps; the same bytes now
    "map-sir": (
        "c4bb276240b53fd1737790034672c51c97bb24d76ce8dd5d98803044ab6c8433",
        "f3b3e0aa4ff408b0752ff627850463226f18e35d93e4551b1b0bc46e235cd895",
    ),
    "map-strong": (
        "4c8442401fac5bc1c40737256c73b16610e50277f9252ec152631401dbe9e977",
        "19c698c9324f8dde01bed0ac52f2fdb6bf4c7d1fd92e680b8675b77ae0594f73",
    ),
    "maxdim-optimal": (
        "c6961e8c92c7f87fdf4f3f7cf9f380102a0bd7fb48b82ce8272133aceabf39cc",
        "f5a53c6284b922feb71345a628073f8bd66c13d5d89247333d8d6d864aeca831",
    ),
    "effdim-dense": (
        "cdbfb1b9136b87a4d4ab4db2aa3af1544975f886df463f949adfad425dfefa62",
        "704303d57e2fb42965ab71610a83d4b93d568cbad5a3908383a2b3edfcb60f35",
    ),
    "bounds-dense": (
        "d6bf7ff3374693b4c3c0ec35bcc9a396cabbfeab45305000047a8f42dcceefbb",
        "4040b71b0c3c12fff6a08f2fa9e4f156c74e7c184ad74203e770ee2d69189262",
    ),
    # taken with the dense DARE, bounds and spectra of the code before the
    # diagonal form; the diagonal form writes the same bytes
    "effdim-isotropic": (
        "afeab2545d4b66a1a66128133ee4ac72a5765181e58c18ed0d4d05f238cda68f",
        "01afcdfcc472774ebdcc9bfe7bab616196d7000b93bb63ab1da5f8e2755ffd65",
    ),
    "bounds-isotropic": (
        "2e42866cbcca9270279407035572b2dbeb5d34e7435191d500949a59b96bb4b2",
        "f0db003352d39a9001a092a287f64decc42dddaf40d848c857bd325e60a2a43e",
    ),
    "smooth-isotropic": (
        "5c9a8f6959f717570397838e66eb5d377145e1d1e8e0a5d4b6a80243b472a726",
        "26f95dffb771d7e4e711f6cb92a7c02b378a82bd3626ad5595c26e734a4b4b1d",
    ),
    "effdim-diagonal": (
        "9198d5698bbd7abf72b6fa819268ee3d3aa4724777c312918e2e80f2fd900872",
        "849262da61c68da57cba30771fd498dd0bcb1424b768323a9437e79f2a216d56",
    ),
    "bounds-diagonal": (
        "27ec963e4c7a9e37812ecc665a92ba8d92ece5fb6d582e616ef39f3af2682190",
        "c22645f0406aa1ac3d05a804b6bf2c4266801ad954176d15c5d9052d334b9df9",
    ),
    "smooth-diagonal": (
        "4262a57aa29d4fb4a6f4497b82e28e0f0e54d969597bc1e8811a3e9b64e97a38",
        "47734f932dedac5380473f64215619638abd7cc764f90cfe46c2b08647a72c45",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_ARGV))
def test_seeded_outputs_match_their_golden_digests(name, tmp_path,
                                                   monkeypatch, capsys):
    # the config echoes --problem and --out, so both stay relative
    monkeypatch.chdir(tmp_path)
    save_problem(_GOLDEN_DENSE, "problem.json")
    save_problem(_GOLDEN_DIAGONAL, "diagonal.json")
    argv = _GOLDEN_ARGV[name]
    if argv[1] in ("map", "maxdim", "effdim", "bounds"):
        assert run_cli(*argv, "--format", "csv", "--out", "run.csv") == 0
        assert run_cli(*argv, "--out", "run.json") == 0
    else:
        assert run_cli(*argv, "--out", "run") == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256((tmp_path / f"run{ext}").read_bytes())
                .hexdigest() for ext in (".csv", ".json"))
    assert got == _GOLDEN_SHA256[name]


# inputs at the edges of the float range and invalid problems: each ends
# in a result (0), an input error (2) or a numerical failure (3), never in
# a traceback.  A real process prints numpy's overflow warnings on stderr;
# here they are silenced so that they do not turn into errors.
# small-noise.json is stable, with noise so small that the upper bound's
# eta cancelled to 0 when its root was formed as (sqrt(a^2 + bc) - a)/b
_SMALL_NOISE = LinearGaussianProblem(
    A=0.5 * np.eye(2), Q=1e-10 * np.eye(2), H=np.eye(2), R=1e10 * np.eye(2),
    mu0=np.zeros(2), Sigma0=np.eye(2))


# invalid 2x2 problems, which smooth rejects on its --trajectory path as
# on its --seeds path
def _invalid(**matrices) -> LinearGaussianProblem:
    eye = np.eye(2)
    return LinearGaussianProblem(**{"A": 0.5 * eye, "Q": eye, "H": eye,
                                    "R": eye, "mu0": np.zeros(2),
                                    "Sigma0": eye, **matrices})


_ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])
_INVALID = {"nan-mu0": _invalid(mu0=np.array([np.nan, 0.0])),
            "asymmetric-sigma0": _invalid(Sigma0=_ASYMMETRIC),
            "nan-a": _invalid(A=np.array([[np.nan, 0.0], [0.0, 0.5]])),
            "negative-r": _invalid(R=-np.eye(2)),
            "asymmetric-q": _invalid(Q=_ASYMMETRIC)}
_TRAJECTORY_2D = json.dumps({"truth": [[0.0, 0.0], [0.1, -0.2], [0.2, 0.1]],
                             "observations": [[0.1, -0.1], [0.3, 0.0]],
                             "seed": 7})
# trajectories whose seed is not an integer
_MALFORMED_TRAJECTORIES = {
    f"trajectory-seed-{name}.json": json.dumps(
        {"truth": [[0, 0]], "observations": [[0.1, 0.2]], "seed": seed})
    for name, seed in (("list", [1]), ("null", None), ("float", 1.5),
                       ("bool", True), ("string", "7"), ("negative", -1))}
_EDGE_ARGV = [
    (["--command", "effdim", "--m", "1", "--q", "1e-300", "--r", "1"], 0),
    (["--command", "effdim", "--m", "3", "--q", "1e-300", "--r", "1"], 0),
    (["--command", "effdim", "--m", "1", "--q", "1e300", "--r", "1"], 0),
    (["--command", "bounds", "--m", "1", "--q", "1e300", "--r", "1"], 0),
    (["--command", "bounds", "--problem", "small-noise.json"], 0),
    (["--command", "maxdim", "--kind", "optimal", "--grid-min", "1e-300",
      "--grid-max", "1e300"], 0),
    (["--command", "maxdim", "--kind", "sir", "--grid-min", "1e-320",
      "--grid-max", "1e300"], 0),
    *[(["--command", command, "--m", "2", "--q", q, "--r", r], 2)
      for command in ("effdim", "bounds")
      for q, r in (("1", "-1"), ("-1", "1"), ("nan", "1"))],
    *[(["--command", "smooth", "--problem", name + ".json",
        "--trajectory", "trajectory.json"], 2) for name in _INVALID],
    *[(["--command", "smooth", "--m", "2", "--q", "1", "--r", "1",
        "--trajectory", name], 2) for name in _MALFORMED_TRAJECTORIES],
]


@pytest.mark.parametrize("argv,code", _EDGE_ARGV,
                         ids=[" ".join(a[1:]) for a, _ in _EDGE_ARGV])
def test_edge_inputs_exit_0_2_or_3(argv, code, tmp_path, monkeypatch,
                                   capsys):
    monkeypatch.chdir(tmp_path)
    save_problem(_SMALL_NOISE, "small-noise.json")
    for name, problem in _INVALID.items():
        save_problem(problem, name + ".json")
    (tmp_path / "trajectory.json").write_text(_TRAJECTORY_2D)
    for name, text in _MALFORMED_TRAJECTORIES.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli(*argv, "--out", str(out)) == code
    err = capsys.readouterr().err
    if code == 0:
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == argv[1]
    else:
        assert ("trajectory JSON malformed"
                if argv[-1] in _MALFORMED_TRAJECTORIES
                else "invalid problem") in err
        assert not out.exists()


# a problem or trajectory file that is missing or cannot be read, and an
# output that cannot be written, end in an input error (2) as well
_RUN_ARGV = ["--m", "2", "--q", "1", "--r", "1", "--particles", "10",
             "--steps", "2", "--seeds", "1"]
_FILE_ERROR_ARGV = [
    (["--command", "effdim", "--problem", "absent.json"],
     "problem file not found: absent.json"),
    (["--command", "smooth", "--problem", "small-noise.json",
      "--trajectory", "absent.json"],
     "trajectory file not found: absent.json"),
    (["--command", "effdim", "--problem", "."],
     "cannot read problem file .: "),
    (["--command", "smooth", "--problem", "small-noise.json",
      "--trajectory", "."], "cannot read trajectory file .: "),
    (["--command", "effdim", "--m", "1", "--q", "1", "--r", "1",
      "--out", "missing/x.json"], "cannot write missing/x.json: "),
    (["--command", "effdim", "--m", "1", "--q", "1", "--r", "1",
      "--out", "."], "cannot write .: "),
    (["--command", "filter", "--kind", "sir", *_RUN_ARGV,
      "--out", "missing/run"], "cannot write missing/run.csv: "),
]


@pytest.mark.parametrize("argv,message", _FILE_ERROR_ARGV,
                         ids=[" ".join(a[1:]) for a, _ in _FILE_ERROR_ARGV])
def test_file_errors_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_problem(_SMALL_NOISE, "small-noise.json")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(
        "effdim: input error: " + message)
    assert [p.name for p in tmp_path.iterdir()] == ["small-noise.json"]


def test_effdim_and_bounds_take_what_the_dare_takes(tmp_path, capsys):
    # the DARE needs neither k <= m nor a nonsingular R, which the filters
    # do: effdim solves both, and bounds, which inverts R, fails
    # numerically on the singular one
    eye = np.eye(2)
    wide = LinearGaussianProblem(A=0.5 * eye, Q=eye, H=np.ones((3, 2)),
                                 R=np.eye(3), mu0=np.zeros(2), Sigma0=eye)
    singular = LinearGaussianProblem(A=0.5 * eye, Q=eye, H=eye,
                                     R=np.zeros((2, 2)), mu0=np.zeros(2),
                                     Sigma0=eye)
    # nor mu0, so a NaN there is no reason to refuse the problem
    no_mean = LinearGaussianProblem(A=0.5 * eye, Q=eye, H=eye, R=eye,
                                    mu0=np.array([np.nan, 0.0]), Sigma0=eye)
    for name, problem, codes in (("wide", wide, (0, 0)),
                                 ("singular", singular, (0, 3)),
                                 ("no_mean", no_mean, (0, 0))):
        path = str(tmp_path / f"{name}.json")
        save_problem(problem, path)
        for command, code in zip(("effdim", "bounds"), codes):
            assert run_cli("--command", command, "--problem", path) == code
            assert "invalid problem" not in capsys.readouterr().err
