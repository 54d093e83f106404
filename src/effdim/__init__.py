"""Feasibility and algorithm analysis for linear-Gaussian data assimilation.

The package decides whether assimilation is feasible in principle (via
the effective dimension, the Frobenius norm of the steady-state
posterior covariance) and per algorithm (Kalman, optimal/SIR particle
filters, 4D-Var, smoothing), and demonstrates particle-filter collapse
and non-collapse with seeded Monte Carlo runs.
"""

from .model import (LinearGaussianProblem, PsdOrder, PsdVerdict, SymMatrix,
                    frobenius, load_problem, problem_from_json,
                    problem_to_json, psd_compare, save_problem, validate)
from .kalman import (DareConvergenceError, SpreadStats, SteadyState,
                     effective_dimension, isotropic_steady_p,
                     kalman_cov_step, solve_dare, spread_stats)
from .bounds import (BoundInapplicableError, DareBounds, dare_lower_bound,
                     dare_upper_bound, p_upper_bound)
from .balance import (BalanceMap, MapKind, MaxDimCurve, build_map,
                      build_max_dim_curve, g_feasibility, g_optimal, g_sir,
                      g_strong, general_sufficient_conditions, max_dimension)
from .filters import (CollapseReport, FilterKind, FilterRun,
                      ParticleEnsemble, StepPlan, TrajectoryData,
                      WeightCollapseError, collapse_stat, diagnostics,
                      init_ensemble, optimal_step, resample, run_filter,
                      simulate, sir_step, steady_collapse_stat, step_plan)
from .smoothing import (StrongConstraintPosterior, WeakConstraintPosterior,
                        optimal_smoother_sample, sir_smoother_log_weight,
                        strong_balance_map, strong_precision, weak_mode,
                        weak_precision)

__version__ = "0.1.0"

__all__ = [
    "LinearGaussianProblem", "PsdOrder", "PsdVerdict", "SymMatrix",
    "frobenius", "psd_compare", "validate", "problem_from_json",
    "problem_to_json", "load_problem", "save_problem",
    "DareConvergenceError", "SteadyState", "SpreadStats", "kalman_cov_step",
    "solve_dare", "isotropic_steady_p", "spread_stats",
    "effective_dimension",
    "BoundInapplicableError", "DareBounds", "dare_lower_bound",
    "dare_upper_bound", "p_upper_bound",
    "BalanceMap", "MapKind", "MaxDimCurve", "g_feasibility", "g_optimal",
    "g_sir", "g_strong", "max_dimension", "build_map", "build_max_dim_curve",
    "general_sufficient_conditions",
    "FilterKind", "ParticleEnsemble", "CollapseReport", "TrajectoryData",
    "FilterRun", "StepPlan", "WeightCollapseError", "simulate",
    "init_ensemble", "step_plan", "sir_step", "optimal_step", "resample",
    "diagnostics", "collapse_stat", "steady_collapse_stat", "run_filter",
    "StrongConstraintPosterior", "WeakConstraintPosterior",
    "strong_precision", "strong_balance_map", "sir_smoother_log_weight",
    "weak_precision", "weak_mode", "optimal_smoother_sample",
]
