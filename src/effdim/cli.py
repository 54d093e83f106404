"""Command-line front end for reproducible experiments and figure data.

Every command is selected with ``--command``; problems come from a JSON
file (``--problem``) or inline isotropic parameters (``--m --q --r
[--sigma0]``).  Stochastic commands require explicit ``--seeds`` (there
is no wall-clock default), and every output file embeds the resolved
configuration, so identical invocations produce byte-identical outputs.

Each command writes its documents here: a JSON document renders a result
dataclass as the object of its fields (:func:`_render`), and every
command's CSV rows are built in this module.

Exit status: 0 success, 2 input error, 3 numerical failure.  :func:`main`
alone turns an exception into a status: a ``ValueError``, which is how
the library and this module report bad input, is an input error; a
``LinAlgError`` or one of the three ``RuntimeError``s
(``DareConvergenceError``, ``BoundInapplicableError``,
``WeightCollapseError``) is a numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import balance, bounds, filters, kalman, smoothing
from ._util import fmt17
from .model import (LinearGaussianProblem, SymMatrix, _exponent, frobenius,
                    problem_from_json, require_valid)

COMMANDS = ("effdim", "bounds", "map", "maxdim", "filter", "smooth",
            "collapse-sweep")


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
        raise ValueError(f"{what} must be comma-separated integers: {text}") \
            from exc
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _read(path: str, parse, what: str):
    """``parse`` of the ``what`` file at ``path``; ValueError when it
    cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except FileNotFoundError as exc:
        raise ValueError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: "
                         f"{exc.strerror}") from exc


def _state_dim(args) -> int:
    """--m, rejected below 1."""
    if args.m < 1:
        raise ValueError("--m must be >= 1")
    return args.m


def _resolve_problem(args) -> LinearGaussianProblem:
    if args.problem is not None:
        return _read(args.problem, problem_from_json, "problem")
    if args.m is not None and args.q is not None and args.r is not None:
        return LinearGaussianProblem.isotropic(_state_dim(args), args.q,
                                               args.r, sigma0=args.sigma0)
    raise ValueError("provide --problem or the inline --m/--q/--r triple")


def _config_dict(args) -> dict:
    cfg = {key: value for key, value in sorted(vars(args).items())}
    if args.seeds is not None:
        cfg["seeds"] = _parse_int_list(args.seeds, "--seeds")
    return cfg


def _dare_options(args) -> dict:
    """--dare-tol and --dare-max-iter as solve_dare keywords, validated."""
    if not (args.dare_tol > 0 and np.isfinite(args.dare_tol)):
        raise ValueError("--dare-tol must be positive and finite")
    if args.dare_max_iter < 1:
        raise ValueError("--dare-max-iter must be >= 1")
    return {"tol": args.dare_tol, "max_iter": args.dare_max_iter}


def _require_seeds(args) -> list[int]:
    if args.seeds is None:
        raise ValueError("--seeds is required (no wall-clock default)")
    seeds = _parse_int_list(args.seeds, "--seeds")
    if min(seeds) < 0:
        raise ValueError("--seeds must be non-negative integers")
    return seeds


def _check_collapse_threshold(args) -> None:
    if not np.isfinite(args.collapse_threshold):
        raise ValueError("--collapse-threshold must be finite")


def _csv_text(config: dict, lines: list[str]) -> str:
    head = "# config: " + json.dumps(config, sort_keys=True)
    return "\n".join([head, *lines]) + "\n"


def _spell_non_finite(text: str) -> str:
    """Float reprs as json spells them: NaN, Infinity and -Infinity in
    place of nan, inf and -inf."""
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _float_text(value: float) -> str:
    """A float as json writes it."""
    return _spell_non_finite(float.__repr__(value))


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _list_text(items: list[str], pad: str, brackets: str = "[]") -> str:
    """The json list (or object) of the non-empty ``items``, texts at
    indent ``pad`` plus two spaces, joined with one copy of their text;
    the brackets go onto the first and last item in ``items``."""
    inner = pad + "  "
    items[0] = brackets[0] + "\n" + inner + items[0]
    items[-1] += "\n" + pad + brackets[1]
    return (",\n" + inner).join(items)


def _row_texts(a: np.ndarray, pad: str) -> list[str]:
    """The json lists of the rows (last axis) of the float64 ``a``, nested
    at indent ``pad`` plus two spaces per leading axis.

    Each distinct bit pattern (``-0.0`` stays apart from ``0.0``) is
    formatted once, at its first occurrence, and its text is dropped
    after its last.  The rows are taken in blocks that each bring about
    sqrt(a.size) new values, so that both the numpy calls per block and
    the texts an array of distinct values holds at a time grow as
    sqrt(a.size), and an array of few values is one block.
    """
    flat = a.ravel()
    _, first, ids = np.unique(flat.view(np.int64), return_index=True,
                              return_inverse=True)
    last = np.zeros_like(first)
    np.maximum.at(last, ids, np.arange(flat.size))
    is_first = np.zeros(flat.size, dtype=bool)
    is_first[first] = True
    is_last = np.zeros(flat.size, dtype=bool)
    is_last[last] = True
    texts = np.empty(first.size, dtype=object)
    pad += "  " * (a.ndim - 1)
    width = a.shape[-1]
    seen = is_first.reshape(-1, width).sum(axis=1).cumsum()
    quota = math.isqrt(flat.size)
    ends = (np.searchsorted(seen, np.arange(quota, seen[-1], quota))
            + 1).tolist()
    rows = []
    for lo, hi in zip([0, *ends], [*ends, seen.size]):
        part = slice(lo * width, hi * width)
        part_ids, new = ids[part], is_first[part]
        texts[part_ids[new]] = list(map(float.__repr__,
                                        flat[part][new].tolist()))
        gathered = texts[part_ids].tolist()
        rows += [_spell_non_finite(_list_text(gathered[i:i + width], pad))
                 for i in range(0, len(gathered), width)]
        texts[part_ids[is_last[part]]] = None
    return rows


def _array_text(a: np.ndarray, pad: str) -> str:
    """The float64 array ``a`` as :func:`_render` writes ``a.tolist()``.

    Result arrays repeat values (an isotropic ``P`` holds two, a balance
    map one per ratio q/r), so :func:`_row_texts` formats each distinct
    value once.
    """
    if a.ndim == 0:
        return _float_text(float(a))
    texts = (_row_texts(a, pad) if a.size
             else ["[]"] * math.prod(a.shape[:-1]))
    for d in range(a.ndim - 2, -1, -1):
        size = a.shape[d]
        texts = [_list_text(texts[i * size:(i + 1) * size], pad + "  " * d)
                 if size else "[]" for i in range(math.prod(a.shape[:d]))]
    return texts[0]


def _fields(result) -> dict:
    """The fields of the dataclass instance ``result``, by name."""
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)}


def _render(value, pad: str) -> str:
    """``value`` exactly as ``json.dumps(indent=2, sort_keys=True)`` writes
    it when nested at indent ``pad``, a float64 ``np.ndarray`` as its
    ``tolist()``, a :class:`SymMatrix` as its array and any other
    dataclass instance as the object of its fields.  json's indented
    encoder is pure Python before 3.13; most of its time goes to per-item
    overhead, so a float64 array is written by :func:`_array_text`, and
    each list or object copies its items' text once."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return _array_text(value, pad)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return _list_text([_render(item, inner) for item in value], pad)
    if isinstance(value, dict):
        if not value:
            return "{}"
        return _list_text([f"{encode_basestring_ascii(_json_key(key))}: "
                           f"{_render(item, inner)}"
                           for key, item in sorted(value.items())], pad, "{}")
    if isinstance(value, SymMatrix):
        return _render(value.a, pad)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _render(_fields(value), pad)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    "is not JSON serializable")


def _json_text(config: dict, payload: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    return _render({"config": config, **payload}, "") + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(args, config: dict, payload: dict, csv_lines,
          summary: str | None = None) -> None:
    """Write a command's json (``payload``) and csv (header and rows from
    ``csv_lines()``, called only when the csv is written).  Without --out,
    the --format document goes to stdout; with a ``summary``, --out names
    that one file; without one, it is a stem for .csv and .json."""
    if args.out and summary is None:
        _write(args.out + ".csv", _csv_text(config, csv_lines()))
        _write(args.out + ".json", _json_text(config, payload))
        print(f"wrote {args.out}.csv and {args.out}.json")
        return
    text = (_csv_text(config, csv_lines()) if args.format == "csv"
            else _json_text(config, payload))
    if args.out:
        _write(args.out, text)
        print(summary)
    else:
        sys.stdout.write(text)


def _dare_problem(args) -> LinearGaussianProblem:
    """The problem of the arguments, rejected unless its DARE is posed."""
    return require_valid(_resolve_problem(args), dare=True)


def _cmd_effdim(args) -> int:
    dare = _dare_options(args)
    problem = _dare_problem(args)
    state = kalman.solve_dare(problem, **dare)
    stats = kalman.spread_stats(state.P)
    payload = {
        "steady_state": state,
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
               f"residual {fmt17(state.residual)})")
    print(f"eff_dim = {fmt17(state.eff_dim)}")
    print(f"mean_y = {fmt17(stats.mean_y)}  var_y = {fmt17(stats.var_y)}  "
          f"e_hat = {fmt17(stats.e_hat)}  v_hat = {fmt17(stats.v_hat)}")
    print(f"dare residual = {fmt17(state.residual)}")
    _emit(args, config, payload, lambda: [header, row], summary)
    return 0


def _cmd_bounds(args) -> int:
    dare = _dare_options(args)
    problem = _dare_problem(args)
    state = kalman.solve_dare(problem, **dare)
    db = bounds.p_upper_bound(problem)
    payload = {"steady_state": state, "bounds": db}
    config = _config_dict(args)
    header = "eff_dim,eff_dim_upper,eta"
    row = ",".join(fmt17(x) for x in (state.eff_dim, db.eff_dim_upper, db.eta))
    print(f"eff_dim = {fmt17(state.eff_dim)} <= "
          f"eff_dim_upper = {fmt17(db.eff_dim_upper)} (eta {fmt17(db.eta)})")
    _emit(args, config, payload, lambda: [header, row],
          f"wrote bounds for eff_dim {fmt17(state.eff_dim)}")
    return 0


def _map_kind(args, allowed, default=None) -> str:
    kind = args.kind or default
    if kind is None or kind not in allowed:
        raise ValueError(f"--kind must be one of {', '.join(allowed)}")
    return kind


def _grid(args) -> np.ndarray:
    try:
        return balance.log_grid(args.grid_min, args.grid_max,
                                args.grid_points)
    except ValueError as exc:
        raise ValueError(f"--grid-min/--grid-max/--grid-points: {exc}") \
            from exc


def _map_csv_lines(bm: balance.BalanceMap) -> list[str]:
    """The csv of a map: its grid, a row (q, r, g) per point."""
    return ["q,r,g"] + [f"{fmt17(q)},{fmt17(r)},{fmt17(bm.values[i, j])}"
                        for i, q in enumerate(bm.q_grid)
                        for j, r in enumerate(bm.r_grid)]


def _curve_csv_lines(curve: balance.MaxDimCurve) -> list[str]:
    """The csv of a max-dimension curve: a row (eps, m_max) per ratio."""
    return ["eps,m_max"] + [f"{fmt17(eps)},{fmt17(m)}"
                            for eps, m in zip(curve.eps_grid, curve.m_max)]


def _cmd_map(args) -> int:
    kind = _map_kind(args, ("feasibility", "optimal", "sir", "strong"),
                     default="feasibility")
    dims = _parse_int_list(args.dims, "--dims")
    grid = _grid(args)
    bm = balance.build_map(kind, grid, grid, dims,
                           constant=args.balance_constant)
    config = _config_dict(args)
    print(f"{kind} map: {len(bm.level_sets)} level-set polylines for "
          f"dims {dims}")
    _emit(args, config, _fields(bm), lambda: _map_csv_lines(bm),
          f"wrote {kind} map")
    return 0


def _cmd_maxdim(args) -> int:
    kind = _map_kind(args, ("optimal", "sir"))
    grid = _grid(args)
    curve = balance.build_max_dim_curve(grid, kind,
                                        constant=args.balance_constant)
    config = _config_dict(args)
    print(f"max dimension curve ({kind}): min m_max = "
          f"{fmt17(float(np.min(curve.m_max)))}")
    _emit(args, config, _fields(curve), lambda: _curve_csv_lines(curve),
          f"wrote {kind} max-dimension curve")
    return 0


def _run_summary(run: filters.FilterRun, threshold: float) -> dict:
    max_weights = [rep.max_weight for rep in run.reports]
    first = next((rep.step for rep in run.reports
                  if rep.max_weight > threshold), None)
    n_means = run.means.shape[0]
    errors = run.means - run.trajectory.truth[1:n_means + 1]
    e = _exponent(errors)  # exact scaling: the squares stay in range
    mean_rmse = (float(np.ldexp(np.sqrt(np.mean(np.ldexp(errors, -e) ** 2)),
                                e))
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
            err = frobenius(run.means[rep.step - 1]
                            - run.trajectory.truth[rep.step])
        else:
            err = float("nan")
        rows.append(",".join([str(run.seed), str(rep.step), fmt17(rep.ess),
                              fmt17(rep.max_weight), fmt17(rep.var_log_w),
                              fmt17(err)]))
    return rows


def _cmd_filter(args) -> int:
    problem = _resolve_problem(args)
    kind = _map_kind(args, ("sir", "optimal"))
    seeds = _require_seeds(args)
    _check_collapse_threshold(args)
    config = _config_dict(args)
    runs = filters.run_filters(problem, kind, args.steps, args.particles,
                               seeds, resample_every=args.resample_every)
    summaries = [_run_summary(run, args.collapse_threshold) for run in runs]
    fraction = float(np.mean([s["collapsed"] for s in summaries]))
    payload = {
        "kind": kind,
        "sigma_frob": runs[0].sigma_frob,
        "collapse_fraction": fraction,
        "runs": summaries,
    }
    print(f"{kind} filter: collapse fraction {fraction:.3f} over "
          f"{len(seeds)} seeds (threshold {args.collapse_threshold}, "
          f"sigma_frob {fmt17(runs[0].sigma_frob)})")
    _emit(args, config, payload, lambda: [
        "seed,step,ess,max_weight,var_log_w,mean_error_norm",
        *(row for run in runs for row in _filter_csv_rows(run))])
    return 0


def _sweep_cells(args, seeds):
    if args.sweep == "eps":
        if args.m is None:
            raise ValueError("eps sweep needs --m (fixed state dimension)")
        m = _state_dim(args)
        r = args.r if args.r is not None else 1.0
        grid = _grid(args)
        return [{"eps": float(eps), "m": m, "q": float(eps) * r, "r": r}
                for eps in grid]
    if args.q is None or args.r is None:
        raise ValueError("m sweep needs --q and --r")
    if not (np.isfinite(args.r) and args.r > 0):
        raise ValueError("--r must be positive and finite")
    dims = _parse_int_list(args.dims, "--dims")
    if min(dims) < 1:
        raise ValueError("--dims must be >= 1")
    return [{"eps": args.q / args.r, "m": m, "q": args.q, "r": args.r}
            for m in dims]


def _sweep_runs(args, kind, seeds, cells) -> list[dict]:
    """Every seed of every sweep cell.

    Each cell is validated and planned in turn; a cell whose plan fails
    gets one error record per seed.  The planned cells then run together
    (:func:`effdim.filters.run_plans`): the cells of an eps sweep share
    m, so each seed's noise is drawn once for all of them.
    """
    filters.check_run(args.steps, args.particles, args.resample_every)
    results, planned = list(cells), []
    for i, cell in enumerate(cells):
        problem = require_valid(LinearGaussianProblem.isotropic(
            cell["m"], cell["q"], cell["r"], sigma0=args.sigma0))
        try:
            planned.append((i, problem, filters.step_plan(problem, kind)))
        except (kalman.DareConvergenceError, np.linalg.LinAlgError) as exc:
            results[i] = {
                **cell, "collapse_fraction": float("nan"),
                "sigma_frob": filters.steady_collapse_stat(problem, kind),
                "runs": [{"seed": seed, "error": str(exc)}
                         for seed in seeds]}
    runs = filters.run_plans([problem for _, problem, _ in planned],
                             [plan for _, _, plan in planned], args.steps,
                             args.particles, seeds,
                             resample_every=args.resample_every)
    for (i, _, plan), cell_runs in zip(planned, runs):
        summaries = [_run_summary(run, args.collapse_threshold)
                     for run in cell_runs]
        results[i] = {**cells[i], "sigma_frob": plan.sigma_frob,
                      "collapse_fraction": float(np.mean(
                          [s["collapsed"] for s in summaries])),
                      "runs": summaries}
    return results


def _cmd_collapse_sweep(args) -> int:
    kind = _map_kind(args, ("sir", "optimal"))
    seeds = _require_seeds(args)
    _check_collapse_threshold(args)
    config = _config_dict(args)
    results = _sweep_runs(args, kind, seeds, _sweep_cells(args, seeds))
    for c in results:
        print(f"eps={fmt17(c['eps'])} m={c['m']}: collapse fraction "
              f"{c['collapse_fraction']:.3f} (sigma_frob "
              f"{fmt17(c['sigma_frob'])})")
    _emit(args, config, {"kind": kind, "cells": results}, lambda: [
        "eps,m,q,r,collapse_fraction,sigma_frob",
        *(",".join([fmt17(c["eps"]), str(c["m"]), fmt17(c["q"]),
                    fmt17(c["r"]), fmt17(c["collapse_fraction"]),
                    fmt17(c["sigma_frob"])]) for c in results)])
    return 0


def _cmd_smooth(args) -> int:
    balance._check_constant(args.balance_constant)
    dare = _dare_options(args)
    problem = require_valid(_resolve_problem(args))
    if args.trajectory is not None:
        trajectory = _read(args.trajectory, filters.trajectory_from_json,
                           "trajectory")
        traj_source = {"trajectory_path": args.trajectory}
    else:
        seeds = _require_seeds(args)
        trajectory = filters.simulate(problem, args.steps, seeds[0])
        traj_source = {"simulated_with_seed": seeds[0],
                       "n_steps": args.steps}
    observations = trajectory.observations
    n = observations.shape[0]
    posterior = smoothing.weak_precision(problem, n)
    mode = smoothing.weak_mode(problem, observations,
                               posterior).reshape(n + 1, problem.m)
    condition = smoothing.smoother_condition(problem)
    conditions = balance.general_sufficient_conditions(
        problem, constant=args.balance_constant, **dare)
    config = _config_dict(args)
    payload = {
        "trajectory_source": traj_source,
        "n_data": n,
        "frob_cov": posterior.frob_cov,
        "smoother_condition": condition,
        "balance_verdicts": conditions,
        "mode_final": mode[-1],
    }
    print(f"weak 4D-Var mode over {n} data sets: frob_cov = "
          f"{fmt17(posterior.frob_cov)}")
    print(f"smoother condition: lhs {fmt17(condition.lhs)} <= rhs "
          f"{fmt17(condition.rhs)}: {condition.holds}")
    _emit(args, config, payload, lambda: [
        "step," + ",".join(f"x{i}" for i in range(problem.m)),
        *(",".join([str(i)] + [fmt17(v) for v in mode[i]])
          for i in range(n + 1))])
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
    """Run one command; the one place an exception becomes an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except kalman.DareConvergenceError as exc:
        print(f"effdim: numerical error: {exc} "
              f"(residual {fmt17(exc.residual)})", file=sys.stderr)
        return 3
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, bounds.BoundInapplicableError,
            filters.WeightCollapseError) as exc:
        print(f"effdim: numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"effdim: input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
