"""Conservative finite-volume simulator for a boundary-coupled
advection-diffusion model with nonlocal, nonlinear boundary signal
production, plus the verification harness for its dichotomies (global
existence and exponential convergence vs. finite-time blow-up), exact
thresholds, and functional identities."""

from .diagnostics import FunctionalRecord, RunReport
from .grid import Grid1D, GridCyl, build_grid_1d, build_grid_cyl, integrate
from .problem import (
    ConfigError,
    DomainError,
    DomainSpec,
    NonlinearitySpec,
    ProblemSpec,
    ThresholdReport,
    eval_f,
    nondimensionalize,
    thresholds,
)
from .runner import StopRule, Trajectory, run
from .solver1d import State, StepOptions, adapt_dt, compute_a, make_state, reconstruct_traces, step
from .solver_cyl import adapt_dt_cyl, axial_marginal, compute_a_cyl, step_cyl
from .steady import SteadyState1D, find_steady, lm_norm_of_rate, mass_of_rate, steady_residual

__all__ = [
    "ConfigError",
    "DomainError",
    "DomainSpec",
    "FunctionalRecord",
    "Grid1D",
    "GridCyl",
    "NonlinearitySpec",
    "ProblemSpec",
    "RunReport",
    "State",
    "StepOptions",
    "StopRule",
    "SteadyState1D",
    "ThresholdReport",
    "Trajectory",
    "adapt_dt",
    "adapt_dt_cyl",
    "axial_marginal",
    "build_grid_1d",
    "build_grid_cyl",
    "compute_a",
    "compute_a_cyl",
    "eval_f",
    "find_steady",
    "integrate",
    "lm_norm_of_rate",
    "make_state",
    "mass_of_rate",
    "nondimensionalize",
    "reconstruct_traces",
    "run",
    "step",
    "step_cyl",
    "steady_residual",
    "thresholds",
]
