"""Axisymmetric solver on the finite cylinder (0, L) x B'_R.

For axisymmetric data that is nonincreasing along the axis the coupling
reduces to A(t) = a(t) e1, with a(t) the difference of the f-integrals over
the two end caps.  One step is dimensional splitting in a fixed order
(explicit upwind axial advection, implicit axial diffusion, implicit radial
diffusion in divergence form), each substep committed in flux form so the
weighted mass telescopes exactly.  The lateral boundary is homogeneous
Neumann (the advective field is axial, so it carries no lateral flux), and
the axis face carries no flux by symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridCyl
from .problem import NonlinearitySpec, ProblemSpec
from .solver1d import StepOptions, StepRejected, solve_banded, solve_coupling


@dataclass
class StateCyl:
    """Cell averages c[i, j] over axial index i, radial index j."""

    grid: GridCyl
    c: np.ndarray
    t: float = 0.0
    a: float = 0.0
    step_count: int = 0
    trace_guarded: bool = False


def make_state_cyl(grid: GridCyl, c0) -> StateCyl:
    c = np.array(c0, dtype=float)
    if c.shape != (grid.axial.N, grid.Nr):
        raise ValueError(
            f"initial data shape {c.shape} does not match grid ({grid.axial.N}, {grid.Nr})"
        )
    return StateCyl(grid=grid, c=c)


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


def compute_a_cyl(problem: ProblemSpec, state: StateCyl, opts: StepOptions) -> float:
    """Self-consistent a = sum_j vol_j [f(trace at x1=L) - f(trace at x1=0)].

    Traces use the same per-column Robin closure as the 1D solver, and a is
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
    robin = opts.trace_mode == "robin"

    def coupling(a: float, robin_l: bool, robin_r: bool) -> float:
        cl = c0 / (1.0 + 0.5 * a * h0) if robin_l else c0
        cr = cN / (1.0 - 0.5 * a * hN) if robin_r else cN
        return float(w @ _f_np(nl, cr)) - float(w @ _f_np(nl, cl))

    if opts.coupling_mode == "lagged":
        a = state.a
        ok_l = robin and abs(a) * h0 < 1.0
        ok_r = robin and abs(a) * hN < 1.0
        state.trace_guarded = robin and not (ok_l and ok_r)
        return coupling(a, ok_l, ok_r)

    a, state.trace_guarded = solve_coupling(coupling, state.a, h0, hN, robin, opts)
    return a


def _implicit_tridiag(widths, dist, dt, rhs, face_weight=None):
    """Solve the backward-Euler diffusion system along axis 0 of rhs and
    return the flux-form committed update.

    Cell i balance: (1/widths_i) [ W_k (c_{i+1}-c_i)/dist_k - ... ], boundary
    faces carry no flux.  face_weight (interior faces) defaults to 1.
    """
    n = len(widths)
    W = np.ones(n - 1) if face_weight is None else face_weight
    w = dt * W / dist
    diag = np.ones(n)
    diag[:-1] += w / widths[:-1]
    diag[1:] += w / widths[1:]
    # increment form: (I - dt D) delta = dt D rhs, so fields with zero flux
    # differences (constants along this axis) stay bitwise fixed
    G0 = W[:, None] * (rhs[1:] - rhs[:-1]) / dist[:, None]
    b = np.zeros_like(rhs)
    b[:-1] += (dt / widths[:-1, None]) * G0
    b[1:] -= (dt / widths[1:, None]) * G0
    # zeros_like keeps the layout of rhs, so the radial pass (rhs = c.T) hands
    # dgtsv a Fortran-ordered b that it solves in place
    delta = solve_banded(-w / widths[1:], diag, -w / widths[:-1], b)
    if not np.all(np.isfinite(delta)):
        raise StepRejected("tridiagonal solve produced non-finite values")
    y = rhs + delta
    G = W[:, None] * (y[1:] - y[:-1]) / dist[:, None]
    out = rhs.copy()
    out[:-1] += (dt / widths[:-1, None]) * G
    out[1:] -= (dt / widths[1:, None]) * G
    return out


def step_cyl(problem: ProblemSpec, state: StateCyl, dt: float, opts: StepOptions) -> StateCyl:
    """One split step: upwind axial advection, implicit axial diffusion,
    implicit radial diffusion.  The splitting order is fixed so equal configs
    reproduce bit-identical trajectories."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    ax = grid.axial
    h = ax.widths
    a = compute_a_cyl(problem, state, opts)
    if dt * abs(a) > ax.h_min:
        raise StepRejected(f"advective CFL violated: dt*|a| = {dt * abs(a):.3g} > h_min")

    c = state.c
    J = -a * (c[:-1, :] if a >= 0.0 else c[1:, :])
    cstar = c.copy()
    cstar[:-1, :] += (dt / h[:-1, None]) * J
    cstar[1:, :] -= (dt / h[1:, None]) * J

    cstar = _implicit_tridiag(h, ax.dist, dt, cstar)

    rdist = grid.rho_centers[1:] - grid.rho_centers[:-1]
    cstar = _implicit_tridiag(grid.vol, rdist, dt, cstar.T, face_weight=grid.face_area).T

    return replace(
        state,
        c=cstar,
        t=state.t + dt,
        a=a,
        step_count=state.step_count + 1,
        trace_guarded=state.trace_guarded,
    )


def adapt_dt_cyl(problem: ProblemSpec, state: StateCyl, opts: StepOptions) -> float:
    linf = float(np.max(np.abs(state.c)))
    try:
        pen = linf ** (2.0 * problem.m)
    except OverflowError:
        pen = float("inf")
    return min(
        opts.dt_max,
        opts.cfl * state.grid.axial.h_min / max(abs(state.a), 1e-12),
        opts.c_bu / (1.0 + pen),
    )


def axial_marginal(state: StateCyl) -> np.ndarray:
    """Radial profile of the axial line integral, m_j = sum_i h_i c_ij.

    The marginal obeys a discrete Neumann heat flow in rho, so its maximum
    never increases; it drives the x1 c <= M0 profile bound."""
    return state.grid.axial.widths @ state.c
