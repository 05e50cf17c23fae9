"""Axisymmetric solver on the finite cylinder (0, L) x B'_R.

For axisymmetric data that is nonincreasing along the axis the coupling
reduces to A(t) = a(t) e1, with a(t) the difference of the f-integrals over
the two end caps, and the axial dynamics is the interval's: one step runs
the interval's advect-and-diffuse kernel (solver1d._advect_diffuse) along
the axis on every radial column, then once more along rho on every axial row
with the radial face areas as flux weights (backward-Euler radial diffusion
in divergence form, no advection).  Each pass is committed in flux form, so
the weighted mass telescopes exactly, and the order of the passes is fixed.
The lateral boundary is homogeneous Neumann (the advective field is axial, so
it carries no lateral flux), and the axis face carries no flux by symmetry.

State, make_state and adapt_dt are the interval's; adapt_dt_cyl is the same
function under the cylinder's name.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .problem import NonlinearitySpec, ProblemSpec
from .solver1d import (
    State,
    StepOptions,
    _advect_diffuse,
    _trace_left,
    _trace_right,
    adapt_dt,
    solve_coupling,
)
# kept as a module attribute: perfbench wraps solver_cyl.solve_banded by name
from .solver1d import solve_banded  # noqa: F401

adapt_dt_cyl = adapt_dt


def _f_np(nl: NonlinearitySpec, s: np.ndarray) -> np.ndarray:
    """Vectorized f at boundary traces; kinds restricted to s >= 0 are
    evaluated at the nonnegative part (cells may carry roundoff negatives)."""
    k = nl.kind
    if k == "signed_power":
        return np.sign(s) * np.abs(s) ** nl.m
    s = np.maximum(s, 0.0)
    if k == "negative_power":
        return -(s**nl.m)
    if k == "sublinear_power":
        return s**nl.m
    return nl.level * s / (s + nl.alpha)


def compute_a_cyl(problem: ProblemSpec, state: State, opts: StepOptions) -> float:
    """Self-consistent a = sum_j vol_j [f(trace at x1=L) - f(trace at x1=0)].

    Traces use the interval's Robin closure on every radial column, and a is
    solved for by the same iteration (solver1d.solve_coupling), with the
    guard latching an end into cell mode once |a| h/2 >= 0.5 there.
    """
    nl = problem.nonlinearity
    grid = state.grid
    c0 = state.c[0, :]
    cN = state.c[-1, :]
    h0 = float(grid.axial.widths[0])
    hN = float(grid.axial.widths[-1])
    w = grid.vol

    def coupling(a: float, robin_l: bool, robin_r: bool) -> float:
        cl = _trace_left(c0, h0, a, robin_l)
        cr = _trace_right(cN, hN, a, robin_r)
        return float(w @ _f_np(nl, cr)) - float(w @ _f_np(nl, cl))

    a, state.trace_guarded = solve_coupling(
        coupling, state.a, h0, hN, opts.trace_mode == "robin", opts
    )
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
    c = _advect_diffuse(state.c, dt, ax.widths, ax.dist, a, ax.h_min)
    c = _advect_diffuse(c.T, dt, grid.vol, grid.rho_dist, face_weight=grid.face_area).T
    return replace(
        state,
        c=c,
        t=state.t + dt,
        a=a,
        step_count=state.step_count + 1,
        trace_guarded=state.trace_guarded,
    )


def axial_marginal(state: State) -> np.ndarray:
    """Radial profile of the axial line integral, m_j = sum_i h_i c_ij.

    The marginal obeys a discrete Neumann heat flow in rho, so its maximum
    never increases; it drives the x1 c <= M0 profile bound."""
    return state.grid.axial.widths @ state.c
