"""Command-line front end for reproducible experiments and figure data.

Every command is selected with ``--command``; problems come from a JSON
file (``--problem``) or inline isotropic parameters (``--m --q --r
[--sigma0]``).  Stochastic commands require explicit ``--seeds`` (there
is no wall-clock default), and every output file embeds the resolved
configuration, so identical invocations produce byte-identical outputs.
``EFFDIM_THREADS`` caps sweep parallelism.

Exit status: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import balance, bounds, filters, kalman, smoothing
from ._util import fmt17, max_threads
from .model import LinearGaussianProblem, load_problem

COMMANDS = ("effdim", "bounds", "map", "maxdim", "filter", "smooth",
            "collapse-sweep")


class InputError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effdim",
        description="Effective dimension and collapse analysis for "
                    "linear-Gaussian data assimilation.")
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--problem", help="path to a problem JSON "
                                     "(keys A, Q, H, R, mu0, Sigma0)")
    p.add_argument("--m", type=int, help="state dimension (inline isotropic)")
    p.add_argument("--q", type=float, help="model-noise variance (isotropic)")
    p.add_argument("--r", type=float, help="data-noise variance (isotropic)")
    p.add_argument("--sigma0", type=float, default=1.0,
                   help="initial variance for inline isotropic problems")
    p.add_argument("--grid-min", type=float, default=balance.DEFAULT_GRID_MIN)
    p.add_argument("--grid-max", type=float, default=balance.DEFAULT_GRID_MAX)
    p.add_argument("--grid-points", type=int,
                   default=balance.DEFAULT_GRID_POINTS)
    p.add_argument("--dims", default="5,10,100",
                   help="comma-separated state dimensions for level sets "
                        "or the m sweep")
    p.add_argument("--kind",
                   help="map: feasibility|optimal|sir|strong; "
                        "filter/sweep: sir|optimal; maxdim: optimal|sir")
    p.add_argument("--particles", type=int, default=1000)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seeds", help="comma-separated integer seeds (required "
                                   "for stochastic commands)")
    p.add_argument("--out", help="output path (filter/smooth/collapse-sweep "
                                 "treat it as a stem and write .csv and .json)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--collapse-threshold", type=float, default=0.5,
                   help="max normalized weight above which a run counts "
                        "as collapsed")
    p.add_argument("--balance-constant", type=float, default=1.0,
                   help="the O(1) constant in g <= constant/sqrt(m)")
    p.add_argument("--trajectory", help="trajectory JSON for --command smooth")
    p.add_argument("--sweep", choices=("eps", "m"), default="eps",
                   help="collapse-sweep axis")
    p.add_argument("--resample-every", type=int, default=1)
    p.add_argument("--dare-tol", type=float, default=kalman.DARE_TOL)
    p.add_argument("--dare-max-iter", type=int, default=kalman.DARE_MAX_ITER)
    return p


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated integers: {text}") \
            from exc
    if not values:
        raise InputError(f"{what} is empty")
    return values


def _resolve_problem(args) -> LinearGaussianProblem:
    if args.problem is not None:
        try:
            return load_problem(args.problem)
        except FileNotFoundError as exc:
            raise InputError(f"problem file not found: {args.problem}") \
                from exc
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.m is not None and args.q is not None and args.r is not None:
        if args.m < 1:
            raise InputError("--m must be >= 1")
        return LinearGaussianProblem.isotropic(args.m, args.q, args.r,
                                               sigma0=args.sigma0)
    raise InputError("provide --problem or the inline --m/--q/--r triple")


def _config_dict(args) -> dict:
    cfg = {key: value for key, value in sorted(vars(args).items())}
    if args.seeds is not None:
        cfg["seeds"] = _parse_int_list(args.seeds, "--seeds")
    return cfg


def _dare_options(args) -> dict:
    """--dare-tol and --dare-max-iter as solve_dare keywords, validated."""
    if not (args.dare_tol > 0 and np.isfinite(args.dare_tol)):
        raise InputError("--dare-tol must be positive and finite")
    if args.dare_max_iter < 1:
        raise InputError("--dare-max-iter must be >= 1")
    return {"tol": args.dare_tol, "max_iter": args.dare_max_iter}


def _require_seeds(args) -> list[int]:
    if args.seeds is None:
        raise InputError("--seeds is required (no wall-clock default)")
    return _parse_int_list(args.seeds, "--seeds")


def _csv_text(config: dict, header: str, rows: list[str]) -> str:
    head = "# config: " + json.dumps(config, sort_keys=True)
    return "\n".join([head, header] + rows) + "\n"


def _json_text(config: dict, payload: dict) -> str:
    return json.dumps({"config": config, **payload}, indent=2,
                      sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_single(args, config: dict, payload: dict, csv_lines,
                 summary: str) -> None:
    """One-file commands: write/print csv or json per --format.

    ``csv_lines()`` returns the csv header and rows; it runs only under
    ``--format csv``.
    """
    if args.format == "csv":
        lines = csv_lines()
        text = _csv_text(config, lines[0], lines[1:])
    else:
        text = _json_text(config, payload)
    if args.out:
        _write(args.out, text)
        print(summary)
    else:
        sys.stdout.write(text)


def _emit_pair(args, config: dict, payload: dict, csv_header: str,
               csv_rows: list[str]) -> None:
    """Run commands: --out is a stem for .csv and .json, else print --format."""
    csv_text = _csv_text(config, csv_header, csv_rows)
    if args.out:
        _write(args.out + ".csv", csv_text)
        _write(args.out + ".json", _json_text(config, payload))
        print(f"wrote {args.out}.csv and {args.out}.json")
    else:
        sys.stdout.write(csv_text if args.format == "csv"
                         else _json_text(config, payload))


def _cmd_effdim(args) -> int:
    dare = _dare_options(args)
    problem = _resolve_problem(args)
    state = kalman.solve_dare(problem, **dare)
    stats = kalman.spread_stats(state.P)
    eq_residual = state.residual
    payload = {
        "steady_state": kalman.steady_state_to_dict(state),
        "dare_equation_residual": eq_residual,
        "spread": {"mean_y": stats.mean_y, "var_y": stats.var_y,
                   "e_hat": stats.e_hat, "v_hat": stats.v_hat},
    }
    config = _config_dict(args)
    header = "eff_dim,mean_y,var_y,e_hat,v_hat,iterations,residual"
    row = ",".join(fmt17(x) for x in
                   (state.eff_dim, stats.mean_y, stats.var_y, stats.e_hat,
                    stats.v_hat)) + f",{state.iterations},{fmt17(state.residual)}"
    summary = (f"eff_dim = {fmt17(state.eff_dim)}  "
               f"(iterations {state.iterations}, "
               f"residual {fmt17(state.residual)}, "
               f"dare residual {fmt17(eq_residual)})")
    print(f"eff_dim = {fmt17(state.eff_dim)}")
    print(f"mean_y = {fmt17(stats.mean_y)}  var_y = {fmt17(stats.var_y)}  "
          f"e_hat = {fmt17(stats.e_hat)}  v_hat = {fmt17(stats.v_hat)}")
    print(f"dare residual = {fmt17(eq_residual)}")
    _emit_single(args, config, payload, lambda: [header, row], summary)
    return 0


def _cmd_bounds(args) -> int:
    dare = _dare_options(args)
    problem = _resolve_problem(args)
    state = kalman.solve_dare(problem, **dare)
    db = bounds.p_upper_bound(problem)
    payload = {"steady_state": kalman.steady_state_to_dict(state),
               "bounds": bounds.bounds_to_dict(db)}
    config = _config_dict(args)
    header = "eff_dim,eff_dim_upper,eta"
    row = ",".join(fmt17(x) for x in (state.eff_dim, db.eff_dim_upper, db.eta))
    print(f"eff_dim = {fmt17(state.eff_dim)} <= "
          f"eff_dim_upper = {fmt17(db.eff_dim_upper)} (eta {fmt17(db.eta)})")
    _emit_single(args, config, payload, lambda: [header, row],
                 f"wrote bounds for eff_dim {fmt17(state.eff_dim)}")
    return 0


def _map_kind(args, allowed, default=None) -> str:
    kind = args.kind or default
    if kind is None or kind not in allowed:
        raise InputError(f"--kind must be one of {', '.join(allowed)}")
    return kind


def _grid(args) -> np.ndarray:
    try:
        return balance.log_grid(args.grid_min, args.grid_max,
                                args.grid_points)
    except ValueError as exc:
        raise InputError(f"--grid-min/--grid-max/--grid-points: {exc}") \
            from exc


def _cmd_map(args) -> int:
    kind = _map_kind(args, ("feasibility", "optimal", "sir", "strong"),
                     default="feasibility")
    dims = _parse_int_list(args.dims, "--dims")
    grid = _grid(args)
    try:
        bm = balance.build_map(kind, grid, grid, dims,
                               constant=args.balance_constant)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    config = _config_dict(args)
    payload = balance.map_to_dict(bm)
    print(f"{kind} map: {len(bm.level_sets)} level-set polylines for "
          f"dims {dims}")
    _emit_single(args, config, payload,
                 lambda: balance.map_to_csv(bm).splitlines(),
                 f"wrote {kind} map")
    return 0


def _cmd_maxdim(args) -> int:
    kind = _map_kind(args, ("optimal", "sir"))
    grid = _grid(args)
    try:
        curve = balance.build_max_dim_curve(grid, kind,
                                            constant=args.balance_constant)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    config = _config_dict(args)
    payload = balance.curve_to_dict(curve)
    print(f"max dimension curve ({kind}): min m_max = "
          f"{fmt17(float(np.min(curve.m_max)))}")
    _emit_single(args, config, payload,
                 lambda: balance.curve_to_csv(curve).splitlines(),
                 f"wrote {kind} max-dimension curve")
    return 0


def _run_summary(run: filters.FilterRun, threshold: float) -> dict:
    max_weights = [rep.max_weight for rep in run.reports]
    first = None
    for rep in run.reports:
        if rep.max_weight > threshold:
            first = rep.step
            break
    n_means = run.means.shape[0]
    errors = run.means - run.trajectory.truth[1:n_means + 1]
    mean_rmse = (float(np.sqrt(np.mean(errors ** 2)))
                 if n_means else float("nan"))
    return {
        "seed": run.seed,
        "collapsed": first is not None,
        "first_collapse_step": first,
        "max_weight_overall": max(max_weights) if max_weights else 1.0,
        "final_ess": run.reports[-1].ess if run.reports else float("nan"),
        "steps_completed": len(run.reports),
        "degenerate": run.degenerate,
        "mean_rmse": mean_rmse,
    }


def _filter_csv_rows(run: filters.FilterRun) -> list[str]:
    rows = []
    n_means = run.means.shape[0]
    for rep in run.reports:
        if rep.step <= n_means:
            err = float(np.linalg.norm(
                run.means[rep.step - 1] - run.trajectory.truth[rep.step]))
        else:
            err = float("nan")
        rows.append(",".join([str(run.seed), str(rep.step), fmt17(rep.ess),
                              fmt17(rep.max_weight), fmt17(rep.var_log_w),
                              fmt17(err)]))
    return rows


def _run_filter(args, problem, kind, seed) -> filters.FilterRun:
    try:
        return filters.run_filter(problem, kind, args.steps, args.particles,
                                  seed, resample_every=args.resample_every)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_filter(args) -> int:
    problem = _resolve_problem(args)
    kind = _map_kind(args, ("sir", "optimal"))
    seeds = _require_seeds(args)
    config = _config_dict(args)
    runs = [_run_filter(args, problem, kind, seed) for seed in seeds]
    summaries = [_run_summary(run, args.collapse_threshold) for run in runs]
    fraction = float(np.mean([s["collapsed"] for s in summaries]))
    payload = {
        "kind": kind,
        "sigma_frob": runs[0].sigma_frob,
        "collapse_fraction": fraction,
        "runs": summaries,
    }
    header = "seed,step,ess,max_weight,var_log_w,mean_error_norm"
    rows = [row for run in runs for row in _filter_csv_rows(run)]
    print(f"{kind} filter: collapse fraction {fraction:.3f} over "
          f"{len(seeds)} seeds (threshold {args.collapse_threshold}, "
          f"sigma_frob {fmt17(runs[0].sigma_frob)})")
    _emit_pair(args, config, payload, header, rows)
    return 0


def _sweep_cells(args, seeds):
    if args.sweep == "eps":
        if args.m is None:
            raise InputError("eps sweep needs --m (fixed state dimension)")
        r = args.r if args.r is not None else 1.0
        grid = _grid(args)
        return [{"eps": float(eps), "m": args.m, "q": float(eps) * r, "r": r}
                for eps in grid]
    if args.q is None or args.r is None:
        raise InputError("m sweep needs --q and --r")
    dims = _parse_int_list(args.dims, "--dims")
    if min(dims) < 1:
        raise InputError("--dims must be >= 1")
    return [{"eps": args.q / args.r, "m": m, "q": args.q, "r": args.r}
            for m in dims]


def _cmd_collapse_sweep(args) -> int:
    kind = _map_kind(args, ("sir", "optimal"))
    seeds = _require_seeds(args)
    config = _config_dict(args)
    cells = _sweep_cells(args, seeds)

    def run_cell(cell):
        problem = LinearGaussianProblem.isotropic(cell["m"], cell["q"],
                                                  cell["r"],
                                                  sigma0=args.sigma0)
        summaries = []
        for seed in seeds:
            try:
                run = _run_filter(args, problem, kind, seed)
            except (kalman.DareConvergenceError,
                    np.linalg.LinAlgError) as exc:
                summaries.append({"seed": seed, "error": str(exc)})
                continue
            summaries.append(_run_summary(run, args.collapse_threshold))
        ok = [s for s in summaries if "error" not in s]
        fraction = (float(np.mean([s["collapsed"] for s in ok]))
                    if ok else float("nan"))
        try:
            steady = kalman.solve_dare(problem)
            sigma = filters.collapse_stat(problem, steady.P, kind)
        except (kalman.DareConvergenceError, np.linalg.LinAlgError):
            sigma = float("nan")
        return {**cell, "collapse_fraction": fraction, "sigma_frob": sigma,
                "runs": summaries}

    workers = max(1, min(max_threads(), len(cells)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]

    header = "eps,m,q,r,collapse_fraction,sigma_frob"
    rows = [",".join([fmt17(c["eps"]), str(c["m"]), fmt17(c["q"]),
                      fmt17(c["r"]), fmt17(c["collapse_fraction"]),
                      fmt17(c["sigma_frob"])]) for c in results]
    payload = {"kind": kind, "cells": results}
    for c in results:
        print(f"eps={fmt17(c['eps'])} m={c['m']}: collapse fraction "
              f"{c['collapse_fraction']:.3f} (sigma_frob "
              f"{fmt17(c['sigma_frob'])})")
    _emit_pair(args, config, payload, header, rows)
    return 0


def _cmd_smooth(args) -> int:
    dare = _dare_options(args)
    problem = _resolve_problem(args)
    if args.trajectory is not None:
        try:
            with open(args.trajectory, "r", encoding="utf-8") as fh:
                trajectory = filters.trajectory_from_json(fh.read())
        except FileNotFoundError as exc:
            raise InputError(
                f"trajectory file not found: {args.trajectory}") from exc
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        traj_source = {"trajectory_path": args.trajectory}
    else:
        seeds = _require_seeds(args)
        try:
            trajectory = filters.simulate(problem, args.steps, seeds[0])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        traj_source = {"simulated_with_seed": seeds[0],
                       "n_steps": args.steps}
    observations = trajectory.observations
    n = observations.shape[0]
    posterior = smoothing.weak_precision(problem, n)
    mode = smoothing.weak_mode(problem, observations).reshape(n + 1,
                                                              problem.m)
    condition = smoothing.smoother_condition(problem)
    conditions = balance.general_sufficient_conditions(
        problem, constant=args.balance_constant, **dare)
    config = _config_dict(args)
    payload = {
        "trajectory_source": traj_source,
        "n_data": n,
        "frob_cov": posterior.frob_cov,
        "frob_cov_is_lower_bound": posterior.frob_cov_is_lower_bound,
        "smoother_condition": {"lhs": condition.lhs, "rhs": condition.rhs,
                               "holds": condition.holds},
        "balance_verdicts": balance.conditions_to_dict(conditions),
        "mode_final": mode[-1].tolist(),
    }
    header = "step," + ",".join(f"x{i}" for i in range(problem.m))
    rows = [",".join([str(i)] + [fmt17(v) for v in mode[i]])
            for i in range(n + 1)]
    print(f"weak 4D-Var mode over {n} data sets: frob_cov = "
          f"{fmt17(posterior.frob_cov)}"
          + (" (lower bound)" if posterior.frob_cov_is_lower_bound else ""))
    print(f"smoother condition: lhs {fmt17(condition.lhs)} <= rhs "
          f"{fmt17(condition.rhs)}: {condition.holds}")
    _emit_pair(args, config, payload, header, rows)
    return 0


_DISPATCH = {
    "effdim": _cmd_effdim,
    "bounds": _cmd_bounds,
    "map": _cmd_map,
    "maxdim": _cmd_maxdim,
    "filter": _cmd_filter,
    "smooth": _cmd_smooth,
    "collapse-sweep": _cmd_collapse_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"effdim: input error: {exc}", file=sys.stderr)
        return 2
    except kalman.DareConvergenceError as exc:
        print(f"effdim: numerical error: {exc} "
              f"(residual {fmt17(exc.residual)})", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, bounds.BoundInapplicableError,
            filters.WeightCollapseError) as exc:
        print(f"effdim: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
