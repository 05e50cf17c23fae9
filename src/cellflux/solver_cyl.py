"""Axisymmetric solver on the finite cylinder (0, L) x B'_R.

For axisymmetric data that is nonincreasing along the axis the coupling
reduces to A(t) = a(t) e1, with a(t) the difference of the f-integrals over
the two end caps, and the axial dynamics is the interval's: one step runs
the interval's advect-and-diffuse kernel (solver1d._advect_diffuse) along
the axis on every radial column, then once more along rho on every axial row
with face conductances sigma_{n-2} rho^{n-2} over the center gap
(GridCyl.rho_geom; backward-Euler radial diffusion in divergence form, no
advection).  Each pass solves a symmetric positive-definite tridiagonal
system for its total face fluxes, one right-hand side per line (dptsv), and
commits them once, so the weighted mass telescopes; the pass order is fixed.
The coupling solve sums f over each end cap once per step for the
homogeneous kinds of f (solver1d.coupling_integral).
The lateral boundary is homogeneous Neumann (the advective field is axial, so
it carries no lateral flux), and the axis face carries no flux by symmetry.

State, make_state and adapt_dt are the interval's; adapt_dt_cyl is the same
function under the cylinder's name.
"""

from __future__ import annotations

import numpy as np

from .problem import ProblemSpec, eval_f
from .solver1d import (
    State,
    StepOptions,
    _advect_diffuse,
    adapt_dt,
    coupling_integral,
    solve_coupling,
)
# kept as a module attribute: perfbench wraps solver_cyl.solve_banded by name
from .solver1d import solve_banded  # noqa: F401

adapt_dt_cyl = adapt_dt


_f_np = eval_f  # perfbench counts f evaluations by patching this name


def compute_a_cyl(problem: ProblemSpec, state: State, opts: StepOptions) -> float:
    """Self-consistent a = sum_j vol_j [f(trace at x1=L) - f(trace at x1=0)].

    Traces use the interval's Robin closure on every radial column, and a is
    solved for by the same iteration (solver1d.solve_coupling) on the same
    map (solver1d.coupling_integral), with the guard latching an end into
    cell mode once |a| h/2 >= 0.5 there.
    """
    nl = problem.nonlinearity
    grid = state.grid
    h0 = float(grid.axial.widths[0])
    hN = float(grid.axial.widths[-1])
    w = grid.vol
    g = coupling_integral(nl, lambda c: float(w @ _f_np(nl, c)), state.c[0, :], state.c[-1, :], h0, hN)
    a, state.trace_guarded = solve_coupling(g, state.a, h0, hN, opts.trace_mode == "robin", opts)
    return a


def step_cyl(problem: ProblemSpec, state: State, dt: float, opts: StepOptions) -> State:
    """One split step: the axial advect-and-diffuse pass, then implicit
    radial diffusion.  The splitting order is fixed so equal configs
    reproduce bit-identical trajectories."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    ax = grid.axial
    a = compute_a_cyl(problem, state, opts)
    c = _advect_diffuse(state.c, dt, ax.geom, a, ax.h_min)
    c = _advect_diffuse(c.T, dt, grid.rho_geom).T
    return State(grid, c, state.t + dt, a, state.step_count + 1, state.trace_guarded)


def axial_marginal(state: State) -> np.ndarray:
    """Radial profile of the axial line integral, m_j = sum_i h_i c_ij.

    The marginal obeys a discrete Neumann heat flow in rho, so its maximum
    never increases; it drives the x1 c <= M0 profile bound."""
    return state.grid.axial.widths @ state.c
