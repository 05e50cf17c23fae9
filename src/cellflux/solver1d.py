"""Conservative IMEX finite-volume solver for c_t = (c_x - a(t) c)_x on the
interval (0, L) and the axisymmetric cylinder (0, L) x B'_R.

Layout of one step, the same in both geometries:

  * the nonlocal coupling a, the difference of the f-integrals over the two
    end caps, is resolved first by a secant iteration on the boundary traces
    (solve_coupling).  An end cap is one cell on the interval, and a row of
    cells weighted by vol on the cylinder, where axisymmetric data reduce
    the coupling to A = a e1.  For the homogeneous kinds of f each cap's
    f-integral is evaluated once per solve (coupling_integral),
  * then one pass of the advect-and-diffuse kernel (_advect_diffuse) along
    the axis, whose unknowns are the total face fluxes T = J + F of one
    symmetric positive-definite tridiagonal solve (dptsv, solve_banded):
    explicit first-order upwind advection, J = -a c_upwind (upwind side
    picked by the sign of a), plus backward-Euler diffusion
    F = (y_{i+1} - y_i)/dist of the new field y; on the cylinder a second
    pass diffuses along rho on c.T (GridCyl.rho_geom, no advection).  On a
    given grid a pass's system depends on dt alone, so each pass keeps the
    LDL^T factors of the last dt it solved at (State.factors), and a step
    at that same dt only back-substitutes (dpttrs),
  * every boundary interface flux is identically zero.  That, and not the
    Robin traces, is what conserves mass: the committed update is assembled
    from the face fluxes, so the telescoping sum is exact to roundoff.

The field is (N,) on the interval and (N, Nr) on the cylinder, and
grid.axial is the axial Grid1D of either.  A Robin boundary trace solves the
one-sided closure c_x = a c: an end cap's value divided by lam (_lams).  The
traces feed the coupling and the records (end_traces), never the flux; only
solve_coupling decides per end whether the closure holds (State.robin_ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv, dpttrs

from .grid import Grid1D, GridCyl, PassGeometry
from .problem import HOMOGENEOUS, ConfigError, NonlinearitySpec, ProblemSpec, eval_f


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
            raise ConfigError(f"unknown trace_mode {self.trace_mode!r}")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not self.dt_min < self.dt_max:
            raise ConfigError("dt_min must be smaller than dt_max")


@dataclass
class State:
    """Cell averages on an interval, c[i], or a cylinder, c[i, j] over axial
    index i and radial index j, with the committed coupling value a and, per
    end, whether the solve that gave a ended on the Robin trace (True) or in
    cell mode (False: trace_mode "cell", or the guard latched the end).

    factors holds, per pass (axial, then radial on the cylinder), the
    (dt, d, e, dt/w) of the last dt that pass solved at: d and e are the
    LDL^T factors that dptsv left in place, and a step at that dt solves
    with them (_advect_diffuse).  None until the pass has solved once."""

    grid: Grid1D | GridCyl
    c: np.ndarray
    t: float = 0.0
    a: float = 0.0
    step_count: int = 0
    robin_ends: tuple[bool, bool] = (True, True)
    factors: tuple = (None, None)


def make_state(grid: Grid1D | GridCyl, c0) -> State:
    # Fortran order: on the cylinder each axial line c[:, j] is contiguous,
    # so the axial pass runs along long contiguous runs and the radial pass
    # (on c.T) along contiguous rows; _advect_diffuse keeps the layout
    c = np.array(c0, dtype=float, order="F")
    if c.shape != grid.shape:
        raise ValueError(f"initial data shape {c.shape} does not match grid {grid.shape}")
    return State(grid=grid, c=c)


def _lams(a: float, h0: float, hN: float, robin_l: bool, robin_r: bool):
    """(lam_l, lam_r) of the closure (c_1 - c_left)/(h0/2) = a c_left, c_left =
    c_1/lam_l, and its mirror at the right end; lam = 1 in cell mode."""
    return (1.0 + 0.5 * a * h0 if robin_l else 1.0, 1.0 - 0.5 * a * hN if robin_r else 1.0)


def end_traces(state: State) -> tuple[float, float]:
    """(c_left, c_right): each end cap's value divided by that end's lam at
    the committed a and the end modes of the solve that gave it.  The cap
    value is the end cell on the interval and the vol-weighted cross-section
    mean of the end row, vol @ c[0] / ball_volume, on the cylinder."""
    c, ax = state.c, state.grid.axial
    if c.ndim == 1:
        c0, cN = float(c[0]), float(c[-1])
    else:
        vol, B = state.grid.vol, state.grid.ball_volume
        c0, cN = float(vol @ c[0]) / B, float(vol @ c[-1]) / B
    lam_l, lam_r = _lams(state.a, float(ax.widths[0]), float(ax.widths[-1]), *state.robin_ends)
    return c0 / lam_l, cN / lam_r


_f_at_trace = eval_f  # perfbench counts f evaluations by patching this name


def coupling_integral(nl: NonlinearitySpec, cap, c0, cN, h0: float, hN: float):
    """The coupling integral g(a, robin_l, robin_r) that solve_coupling
    iterates on: cap(cN / lam_r) - cap(c0 / lam_l), cap(c) being the
    f-integral over an end's cells c and lam that end's divisor (_lams).

    cap(c) of each end is summed at most once per solve.  A homogeneous f
    (problem.HOMOGENEOUS) has cap(c/lam) = cap(c)/lam^m, since the guard
    keeps lam > 1/2, so every iterate is scalar arithmetic; saturating
    evaluates f on the trace at each iterate.
    """
    ends, sums = (c0, cN), [None, None]
    hom, m = nl.kind in HOMOGENEOUS, nl.m

    def at(i: int, lam: float) -> float:
        if not hom and lam != 1.0:
            return cap(ends[i] / lam)
        if sums[i] is None:
            sums[i] = cap(ends[i])
        return sums[i] / lam**m

    def g(a: float, robin_l: bool, robin_r: bool) -> float:
        lam_l, lam_r = _lams(a, h0, hN, robin_l, robin_r)
        return at(1, lam_r) - at(0, lam_l)

    return g


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

    Returns (a, (robin_l, robin_r)), each end's mode at the last iterate.
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
            return a_new, (robin_l, robin_r)
        a_prev, F_prev, a = a, F, a_new
    raise StepRejected(f"coupling iteration on a did not converge (last a = {a:.6g})")


def compute_a(problem: ProblemSpec, state: State, opts: StepOptions) -> float:
    """Self-consistent coupling a = cap(c_right(a)) - cap(c_left(a)), cap
    being f of the end cell, or sum_j vol_j f over the cylinder's end row,
    solved for by solve_coupling from the committed value on the map of
    coupling_integral.  Sets state.robin_ends to the solve's end modes.

    Raises StepRejected if the iteration does not reach picard_tol.
    """
    nl, c = problem.nonlinearity, state.c
    ax = state.grid.axial
    h0, hN = float(ax.widths[0]), float(ax.widths[-1])
    if c.ndim == 1:
        # an end cell stays a float: f is far cheaper on floats than on arrays
        g = coupling_integral(nl, lambda x: _f_at_trace(nl, x), float(c[0]), float(c[-1]), h0, hN)
    else:
        vol = state.grid.vol
        g = coupling_integral(nl, lambda row: float(vol @ _f_at_trace(nl, row)), c[0], c[-1], h0, hN)
    a, state.robin_ends = solve_coupling(g, state.a, h0, hN, opts.trace_mode == "robin", opts)
    return a


def solve_banded(d: np.ndarray, e: np.ndarray, b: np.ndarray, factored: bool = False) -> np.ndarray:
    """Solve the symmetric positive-definite tridiagonal system with diagonal
    d and off-diagonal e for b, an (n,) vector or an (n, k) array of k
    right-hand sides, by LAPACK dptsv (LDL^T, no pivoting).  All three arrays
    are overwritten, even read-only ones (f2py ignores the flag), so never
    pass a grid's frozen arrays; a Fortran-ordered b is solved in place.
    On return d and e hold the LDL^T factors, and a later call with
    factored=True solves another b with them by dpttrs alone (dptsv is
    dpttrf then dpttrs, so the result is bitwise that of a fresh dptsv) and
    overwrites only b.  Raises StepRejected when dptsv fails, as on a matrix
    not positive definite."""
    if len(d) == 1:
        # SciPy's wrappers want an off-diagonal of at least one entry
        e = np.zeros(1)
    if factored:
        x, info = dpttrs(d, e, b, 1)
    else:
        x, info = dptsv(d, e, b, 1, 1, 1)[2:]
    if info != 0:
        raise StepRejected(f"tridiagonal solve failed (LAPACK info = {info})")
    return x


def _advect_diffuse(c, dt, geom: PassGeometry, a=0.0, h_min=math.inf, factors=None):
    """One conservative advect-and-diffuse pass along axis 0 of c, an (N,)
    or (N, K) array of cell averages over the cells of geom, the pass's
    dt-free factors (grid.PassGeometry).  factors is the (dt, d, e, dt/w)
    this pass returned last (State.factors) or None.  Returns the updated
    array and the factors of this dt: the given ones when their dt equals
    dt, whose system is then only back-substituted, else fresh ones.

    Rejects (StepRejected) an advective CFL violation dt |a| > h_min.  The
    face flux is T = J + F: explicit upwind advection J = -a c_up (upwind
    side picked by the sign of a) plus backward-Euler diffusion
    F = k (y_{i+1} - y_i) of the new field y.  T is solved for directly and
    committed once, y = c + (dt/w)(T_i - T_{i-1}), so sum(widths * c)
    telescopes, and both boundary faces carry no flux.
    """
    if dt * abs(a) > h_min:
        raise StepRejected(f"advective CFL violated: dt*|a| = {dt * abs(a):.3g} > h_min")
    col = np.s_[:] if c.ndim == 1 else np.s_[:, None]
    # the face fluxes go between the zero ends of pad, so the commit is one
    # divergence (dt/w) (pad[1:] - pad[:-1]) and keeps the layout of c
    pad = np.zeros((len(c) + 1,) + c.shape[1:], order="C" if c.flags.c_contiguous else "F")
    # with y = c + (commit of T) and F = T - J, F = k (y_{i+1} - y_i) over k
    # is the SPD system (1/k + dt G W^-1 G^T) T = G c + J/k, G the
    # differences across the n - 1 faces and W the widths.  The commit never
    # differences the solved field, so it adds no roundoff of order
    # eps dt/h_min^2, and data constant along this axis gives T = 0 exactly
    # when a = 0.  The right-hand side is built in Fortran order (in pad
    # itself for an (N,) field), so dptsv solves it in place
    T = pad[1:-1] if c.ndim == 1 else np.empty(pad[1:-1].shape, order="F")
    np.subtract(c[1:], c[:-1], out=T)
    if a != 0.0:
        T += (c[:-1] if a >= 0.0 else c[1:]) * (-a * geom.inv_k)[col]
    if factors is not None and factors[0] == dt:
        _dt, d, e, scale = factors
        T = solve_banded(d, e, T, True)
    else:
        d, e = geom.inv_k + dt * geom.diag, -dt * geom.off
        T = solve_banded(d, e, T)
        scale = (dt * geom.inv_w)[col]
    # the sum is NaN or inf whenever an entry is (inf - inf is NaN)
    if not math.isfinite(float(T.sum())):
        raise StepRejected("tridiagonal solve produced non-finite values")
    if T.base is not pad:
        pad[1:-1] = T
    return c + scale * (pad[1:] - pad[:-1]), (dt, d, e, scale)


def step(problem: ProblemSpec, state: State, dt: float, opts: StepOptions) -> State:
    """One IMEX update: the axial pass, then on the cylinder the radial one,
    in that fixed order.  Rejects (StepRejected) on coupling failure, on an
    advective CFL violation dt |a| > h_min, or on a degenerate solve."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    ax = grid.axial
    a = compute_a(problem, state, opts)
    ax_factors, rho_factors = state.factors
    c, ax_factors = _advect_diffuse(state.c, dt, ax.geom, a, ax.h_min, ax_factors)
    if c.ndim == 2:
        c, rho_factors = _advect_diffuse(c.T, dt, grid.rho_geom, factors=rho_factors)
        c = c.T
    return State(grid, c, state.t + dt, a, state.step_count + 1, state.robin_ends, (ax_factors, rho_factors))


def adapt_dt(problem: ProblemSpec, state: State, opts: StepOptions, linf: float | None = None) -> float:
    """dt = min(dt_max, cfl h_min/|a|, c_bu/(1 + linf^2m)), h_min being the
    smallest axial width.

    The last clamp tracks the blow-up timescale (T*-t) ~ linf^(-2m), so steps
    stay proportional to the remaining life of the solution.  linf is the
    state's max |c|; the runner passes the value its per-step audit already
    has, and it is computed here when not given.
    """
    if linf is None:
        linf = float(np.max(np.abs(state.c)))
    try:
        pen = linf ** (2.0 * problem.m)
    except OverflowError:
        pen = math.inf
    return min(
        opts.dt_max,
        opts.cfl * state.grid.axial.h_min / max(abs(state.a), 1e-12),
        opts.c_bu / (1.0 + pen),
    )
