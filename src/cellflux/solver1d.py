"""Conservative IMEX finite-volume solver for c_t = (c_x - a(t) c)_x on (0, L).

Layout of one step:

  * the nonlocal coupling a = f(c_right) - f(c_left) is resolved first by a
    secant iteration on the boundary traces (solve_coupling),
  * then one pass of the advect-and-diffuse kernel (_advect_diffuse) along
    the axis: explicit first-order upwind advection, J = -a c_upwind (upwind
    side picked by the sign of a), and backward-Euler diffusion
    (c_{i+1} - c_i)/dist through one tridiagonal solve (LAPACK dgtsv,
    solve_banded),
  * both boundary interface fluxes are identically zero.  That, and not the
    Robin traces, is what conserves mass: the committed update is assembled
    in flux form, so the telescoping sum is exact to roundoff.

The kernel works along axis 0 of an (N,) or (N, k) array with optional face
weights, so the cylinder stepper (solver_cyl) runs it once axially and once
radially.  State, make_state and adapt_dt serve both geometries.

Robin boundary traces solve the one-sided closure c_x = a c and feed only the
computation of a; they never enter the flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import Grid1D, GridCyl
from .problem import NonlinearitySpec, ProblemSpec, eval_f


class StepRejected(RuntimeError):
    """The attempted step cannot be committed; the caller should halve dt."""


@dataclass
class StepOptions:
    trace_mode: str = "robin"  # robin | cell
    picard_tol: float = 1e-12
    picard_max_iters: int = 100
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-13
    blowup_linf_threshold: float = 1e8
    c_bu: float = 0.1  # coefficient of the blow-up clamp c_bu/(1 + linf^2m)

    def __post_init__(self):
        if self.trace_mode not in ("robin", "cell"):
            raise ValueError(f"unknown trace_mode {self.trace_mode!r}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not self.dt_min < self.dt_max:
            raise ValueError("dt_min must be smaller than dt_max")


@dataclass
class State:
    """Cell averages on an interval, c[i], or a cylinder, c[i, j] over axial
    index i and radial index j, with the committed coupling value."""

    grid: Grid1D | GridCyl
    c: np.ndarray
    t: float = 0.0
    a: float = 0.0
    step_count: int = 0
    trace_guarded: bool = False  # Robin closure fell back to cell mode this step


def make_state(grid: Grid1D | GridCyl, c0) -> State:
    c = np.array(c0, dtype=float)
    if c.shape != grid.shape:
        raise ValueError(f"initial data shape {c.shape} does not match grid {grid.shape}")
    return State(grid=grid, c=c)


def _trace_left(c0, h0: float, a: float, robin: bool):
    # one-sided closure (c_1 - c_left)/(h_1/2) = a c_left; plain arithmetic,
    # so c0 may be a float or an array of end-cap cells
    return c0 / (1.0 + 0.5 * a * h0) if robin else c0


def _trace_right(cN, hN: float, a: float, robin: bool):
    return cN / (1.0 - 0.5 * a * hN) if robin else cN


def reconstruct_traces(state: State, a_guess: float, opts: StepOptions):
    """Boundary values (c_left, c_right, guarded) for the coupling integral.

    In robin mode each end solves c_x = a c one-sidedly; if |a| h/2 >= 0.5 at
    an end the closure is unresolvable there and that end falls back to the
    cell value (guarded = True).
    """
    c = state.c
    h = state.grid.widths
    robin = opts.trace_mode == "robin"
    ok_l = robin and abs(a_guess) * h[0] < 1.0
    ok_r = robin and abs(a_guess) * h[-1] < 1.0
    cl = _trace_left(float(c[0]), float(h[0]), a_guess, ok_l)
    cr = _trace_right(float(c[-1]), float(h[-1]), a_guess, ok_r)
    guarded = robin and not (ok_l and ok_r)
    return cl, cr, guarded


def _f_at_trace(nl: NonlinearitySpec, s: float) -> float:
    # cells may carry roundoff-negative values; f kinds restricted to s >= 0
    # are evaluated at the nonnegative part of the trace
    if nl.kind != "signed_power" and s < 0.0:
        s = 0.0
    return eval_f(nl, s)


def solve_coupling(g, a: float, h0: float, hN: float, robin: bool, opts: StepOptions):
    """Root of F(a) = a - g(a, robin_l, robin_r) from the committed value a.

    g is the coupling integral at trial value a, with each end on its Robin
    trace (robin_l, robin_r) or its cell value.  Once an iterate has
    |a| h >= 1 at an end, that end stays in cell mode for the rest of the
    iteration (the closure has no solution beyond the guard and the iteration
    would otherwise cycle).

    The first iterate is the damped step (a + g(a))/2, so a state that
    already sits at its fixed point returns after one evaluation.  Later
    iterates are secant steps on F, except for a damped step whenever a latch
    flips (F itself changed), the secant slope is zero, or half of
    picard_max_iters has gone by without convergence.  The iteration stops at
    |a_new - a| <= picard_tol max(1, |a_new|).

    Returns (a, guarded), guarded being True when an end left Robin mode.
    Raises StepRejected after picard_max_iters evaluations of g.
    """
    robin_l = robin_r = robin
    a_prev = F_prev = None
    for k in range(opts.picard_max_iters):
        flipped = False
        if robin_l and abs(a) * h0 >= 1.0:
            robin_l, flipped = False, True
        if robin_r and abs(a) * hN >= 1.0:
            robin_r, flipped = False, True
        ga = g(a, robin_l, robin_r)
        F = a - ga
        if a_prev is None or flipped or F == F_prev or 2 * k > opts.picard_max_iters:
            a_new = 0.5 * (a + ga)
        else:
            a_new = a - F * (a - a_prev) / (F - F_prev)
        if abs(a_new - a) <= opts.picard_tol * max(1.0, abs(a_new)):
            return a_new, robin and not (robin_l and robin_r)
        a_prev, F_prev, a = a, F, a_new
    raise StepRejected(f"coupling iteration on a did not converge (last a = {a:.6g})")


def compute_a(problem: ProblemSpec, state: State, opts: StepOptions) -> float:
    """Self-consistent coupling a = f(c_right(a)) - f(c_left(a)), solved for
    by solve_coupling (a secant iteration with damped fallback steps,
    bounded by picard_tol and picard_max_iters) from the committed value.

    Raises StepRejected if the iteration does not reach picard_tol.
    """
    nl = problem.nonlinearity
    c0 = float(state.c[0])
    cN = float(state.c[-1])
    h0 = float(state.grid.widths[0])
    hN = float(state.grid.widths[-1])

    def g(a: float, robin_l: bool, robin_r: bool) -> float:
        return _f_at_trace(nl, _trace_right(cN, hN, a, robin_r)) - _f_at_trace(
            nl, _trace_left(c0, h0, a, robin_l)
        )

    a, state.trace_guarded = solve_coupling(g, state.a, h0, hN, opts.trace_mode == "robin", opts)
    return a


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals
    (dl, d, du) for b, an (n,) vector or an (n, k) array of k right-hand
    sides, through LAPACK dgtsv.  All four arrays are overwritten; a
    Fortran-ordered b is solved in place.  Raises StepRejected if dgtsv
    reports a zero pivot or a bad argument."""
    x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)[3:]
    if info != 0:
        raise StepRejected(f"tridiagonal solve failed (dgtsv info = {info})")
    return x


def _advect_diffuse(c, dt, widths, dist, a=0.0, h_min=math.inf, face_weight=None):
    """One conservative advect-and-diffuse pass along axis 0 of c, an (N,)
    or (N, k) array of cell averages over cells of the given widths with
    center gaps dist; returns the updated array.

    Rejects (StepRejected) an advective CFL violation dt |a| > h_min, then
    applies explicit upwind advection with speed a, then backward-Euler
    diffusion with flux face_weight (c_{i+1} - c_i)/dist (face_weight
    defaults to 1), committed in flux form so sum(widths * c) telescopes.
    Both boundary faces carry no flux.
    """
    if dt * abs(a) > h_min:
        raise StepRejected(f"advective CFL violated: dt*|a| = {dt * abs(a):.3g} > h_min")
    col = np.s_[:] if c.ndim == 1 else np.s_[:, None]
    d = dist[col]
    W = None if face_weight is None else face_weight[col]
    # dt/h of the cells left and right of each interior face
    sl, sr = (dt / widths[:-1])[col], (dt / widths[1:])[col]

    def face_flux(y):
        G = y[1:] - y[:-1]
        if W is not None:
            G *= W
        G /= d
        return G

    # zeros_like keeps the layout of c, so the cylinder's radial pass (c a
    # transpose) hands dgtsv a Fortran-ordered b that it solves in place
    b = np.zeros_like(c)
    out = c.copy()
    if a != 0.0:
        # explicit upwind advection, interior faces only; J = -a c_up
        J = -a * (c[:-1] if a >= 0.0 else c[1:])
        out[:-1] += sl * J
        out[1:] -= sr * J

    # backward Euler in increment form, (I - dt D) delta = dt D c*, so fields
    # with zero flux differences (constants along this axis) stay bitwise fixed
    w = dt / dist if face_weight is None else dt * face_weight / dist
    diag = np.ones(len(widths))
    diag[:-1] += w / widths[:-1]
    diag[1:] += w / widths[1:]
    G = face_flux(out)
    b[:-1] += sl * G
    b[1:] -= sr * G
    delta = solve_banded(-w / widths[1:], diag, -w / widths[:-1], b)
    if not np.all(np.isfinite(delta)):
        raise StepRejected("tridiagonal solve produced non-finite values")

    # commit in flux form so mass telescopes exactly
    G = face_flux(out + delta)
    out[:-1] += sl * G
    out[1:] -= sr * G
    return out


def step(problem: ProblemSpec, state: State, dt: float, opts: StepOptions) -> State:
    """One IMEX update.  Rejects (StepRejected) on coupling failure, on an
    advective CFL violation dt |a| > h_min, or on a degenerate solve."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    a = compute_a(problem, state, opts)
    c = _advect_diffuse(state.c, dt, grid.widths, grid.dist, a, grid.h_min)
    return replace(
        state,
        c=c,
        t=state.t + dt,
        a=a,
        step_count=state.step_count + 1,
        trace_guarded=state.trace_guarded,
    )


def adapt_dt(problem: ProblemSpec, state: State, opts: StepOptions) -> float:
    """dt = min(dt_max, cfl h_min/|a|, c_bu/(1 + linf^2m)), h_min being the
    smallest axial width in either geometry.

    The last clamp tracks the blow-up timescale (T*-t) ~ linf^(-2m), so steps
    stay proportional to the remaining life of the solution.
    """
    linf = float(np.max(np.abs(state.c)))
    try:
        pen = linf ** (2.0 * problem.m)
    except OverflowError:
        pen = math.inf
    return min(
        opts.dt_max,
        opts.cfl * state.grid.h_min / max(abs(state.a), 1e-12),
        opts.c_bu / (1.0 + pen),
    )
