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
    pass diffuses along rho on c.T (GridCyl.vol and rho_inv_k, no
    advection).  On a given grid a pass's system depends on dt alone: its
    Workspace (State.work) holds the dt-free factors and the LDL^T factors
    of the last dt it solved at, and a step at that same dt only
    back-substitutes (dpttrs),
  * every boundary interface flux is identically zero.  That, and not the
    Robin traces, is what conserves mass: the committed update is assembled
    from the face fluxes, so the telescoping sum is exact to roundoff.

Every pass runs over K lines of n cells laid end to end in one flat buffer
(Workspace): the interval is one line; the cylinder's axial pass reads its
Fortran-ordered field as Nr lines of N cells, and its radial pass a
C-ordered copy as N lines of Nr cells.  The right-hand side, the upwind
term, the finiteness check and the commit are each one ufunc over the whole
buffer.  The face fluxes of all lines share one zero-started buffer with
one entry per cell: a line's n - 1 faces, then a line-end entry, zeroed
after the solve, so that the divergence of every line is one difference of
that buffer.  dptsv/dpttrs solve the K lines' (n - 1)-face systems, which
share one matrix, in place in it as K right-hand sides with leading
dimension ldb = n.

The field is (N,) on the interval and (N, Nr) on the cylinder, and
grid.axial is the axial Grid1D of either.  A Robin boundary trace solves the
one-sided closure c_x = a c: an end cap's value divided by lam (_lams).  The
traces feed the coupling and the records (end_traces), never the flux; only
solve_coupling decides per end whether the closure holds (State.robin_ends).

LAPACK comes from the OpenBLAS that the numpy wheel bundles (scipy-openblas,
64-bit integers), which numpy.linalg has already loaded: dptsv and dpttrs are
called through ctypes with arguments bound once per pass (Workspace).  Not
from scipy.linalg.lapack, whose import alone added over 20 MB of peak RSS
and about 0.2 s to every run for these two routines of the same OpenBLAS.
Any other numpy build is refused at import (ImportError).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .grid import Grid1D, GridCyl
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
        if self.picard_max_iters < 1:
            raise ConfigError(f"picard_max_iters must be >= 1, got {self.picard_max_iters}")
        # dt halves to 0 below a dt_min <= 0; c_bu <= 0 or a threshold <= 0
        # would end a run on a BLOWUP that is not one
        for name in ("picard_tol", "dt_min", "c_bu"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not self.blowup_linf_threshold > 0.0:
            raise ConfigError(f"blowup_linf_threshold must be > 0, got {self.blowup_linf_threshold}")
        if not self.dt_min < self.dt_max:
            raise ConfigError("dt_min must be smaller than dt_max")


def _lapack():
    """(dptsv, dpttrs) of the scipy-openblas build that numpy links against
    (module docstring); raises ImportError naming any other build."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    conf = info.get("openblas configuration", "")
    ours = info.get("name") == "scipy-openblas" and "USE64BITINT" in conf.split()
    # dlsym on the extension that links the library also searches the library
    lib = ctypes.CDLL(_umath_linalg.__file__) if ours else None
    routines = tuple(getattr(lib, f"scipy_{name}_64_", None) for name in ("dptsv", "dpttrs"))
    if None in routines:
        raise ImportError(
            "cellflux calls LAPACK in the scipy-openblas build with 64-bit integers (USE64BITINT) "
            f"that numpy wheels bundle; this numpy reports LAPACK {info.get('name')!r} ({conf or 'no configuration'})")
    for fn in routines:
        fn.restype = None
    return routines


_dptsv, _dpttrs = _lapack()


class _Bound:
    """The LAPACK arguments (n, nrhs, d, e, b, ldb, info) of dptsv and dpttrs
    for d, e and b, checked once and kept with the arrays they point into.
    Raises ValueError on arrays that LAPACK cannot take as they are: d, e
    and b float64 and writeable, d and e contiguous vectors with
    len(e) = len(d) - 1, b an (n,) contiguous vector or an (n, k) array with
    n = len(d) whose columns are contiguous and lie ldb >= n entries apart
    (LAPACK's leading dimension; ldb = n for a Fortran-ordered b)."""

    __slots__ = ("d", "e", "b", "info", "args")

    def __init__(self, d, e, b):
        for name, x in (("d", d), ("e", e), ("b", b)):
            if not isinstance(x, np.ndarray) or x.dtype != np.float64:
                raise ValueError(f"{name} must be a float64 array, got {getattr(x, 'dtype', type(x))}")
            if not x.flags.writeable:
                raise ValueError(f"{name} must be writeable: LAPACK overwrites it")
        if d.ndim != 1 or e.ndim != 1 or not (d.flags.c_contiguous and e.flags.c_contiguous):
            raise ValueError("d and e must be contiguous vectors")
        if len(e) != len(d) - 1:
            raise ValueError(f"e must have len(d) - 1 = {len(d) - 1} entries, got {len(e)}")
        n = len(d)
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(f"b must have shape ({n},) or ({n}, k), got {b.shape}")
        if n > 1 and b.strides[0] != b.itemsize:
            raise ValueError(f"b's columns must be contiguous, got an element stride of {b.strides[0]} bytes")
        nrhs, ldb = 1 if b.ndim == 1 else b.shape[1], max(n, 1)
        if nrhs > 1:
            ldb, rem = divmod(b.strides[1], b.itemsize)
            if rem or ldb < n:
                raise ValueError(f"b's columns must lie at least n = {n} entries apart, "
                                 f"got a column stride of {b.strides[1]} bytes")
        self.d, self.e, self.b, self.info = d, e, b, ctypes.c_int64(0)
        ref, ptr = ctypes.byref, ctypes.c_void_p
        self.args = (ref(ctypes.c_int64(n)), ref(ctypes.c_int64(nrhs)), ptr(d.ctypes.data), ptr(e.ctypes.data),
                     ptr(b.ctypes.data), ref(ctypes.c_int64(ldb)), ref(self.info))


class Workspace:
    """The buffers of one advect-and-diffuse pass (_advect_diffuse) over
    cells of widths w with conductance k = 1/inv_k at each interior face,
    for fields shaped like c, K lines of n cells along axis 0 (one line for
    an (n,) field), laid end to end in the column-major order of c:

      pad     the face fluxes of all lines, a zero, then per line its
              n - 1 faces and a line-end entry that is zero at each commit
      rhs     pad[1:-1], where a pass builds its right-hand side
      T       the (n - 1, K) faces in pad, LAPACK's b at ldb = n
              (rhs itself for one line)
      ends    the line-end entries of pad (None for one line)
      inv_k   1/k per face and inv_w 1/w per cell, each tiled over the
              lines (line ends of inv_k hold 0); scale = dt inv_w
      d, e    the bands of the one (n - 1)-face system all lines share,
              line_inv_k + dt diag and -dt off: the dt-free factors of
              one line, 1/k per face, 1/w_left + 1/w_right per face and
              1/w of the cell between two adjacent faces
      lapack  the LAPACK arguments bound to d, e and T

    dt is the dt whose LDL^T factors d and e hold, or None when they hold
    none."""

    def __init__(self, w: np.ndarray, inv_k: np.ndarray, c: np.ndarray):
        n, lines = len(c), 1 if c.ndim == 1 else c.shape[1]
        inv_w = 1.0 / w
        self.diag, self.off, self.line_inv_k = inv_w[:-1] + inv_w[1:], inv_w[1:-1], inv_k
        self.pad = np.zeros(n * lines + 1)
        self.rhs = self.pad[1:-1]
        if c.ndim == 1:
            self.T, self.inv_k, self.inv_w, self.ends = self.rhs, inv_k, inv_w, None
        else:
            self.T = self.pad[1:].reshape((n, lines), order="F")[:-1]
            self.inv_k = np.tile(np.append(inv_k, 0.0), lines)[:-1]
            self.inv_w = np.tile(inv_w, lines)
            self.ends = self.pad[n::n]  # the line-end entries
        self.d, self.e = np.empty(n - 1), np.empty(n - 2)
        self.scale = np.empty(n * lines)
        self.lapack = _Bound(self.d, self.e, self.T)
        self.dt = None


@dataclass
class State:
    """Cell averages on an interval, c[i], or a cylinder, c[i, j] over axial
    index i and radial index j, with the committed coupling value a and, per
    end, whether the solve that gave a ended on the Robin trace (True) or in
    cell mode (False: trace_mode "cell", or the guard latched the end).

    work holds one Workspace per pass (axial, then radial on the cylinder),
    built by make_state and shared by every state stepped from it: a step at
    the dt a pass last solved at reuses its factors (_advect_diffuse)."""

    grid: Grid1D | GridCyl
    c: np.ndarray
    t: float = 0.0
    a: float = 0.0
    step_count: int = 0
    robin_ends: tuple[bool, bool] = (True, True)
    work: tuple = field(default=(), repr=False)


def make_state(grid: Grid1D | GridCyl, c0) -> State:
    # Fortran order: on the cylinder each axial line c[:, j] is contiguous,
    # so the axial pass reads the field as its lines end to end without a
    # copy (Workspace); _advect_diffuse keeps the layout
    c = np.array(c0, dtype=float, order="F")
    if c.shape != grid.shape:
        raise ValueError(f"initial data shape {c.shape} does not match grid {grid.shape}")
    ax = grid.axial
    work = (Workspace(ax.widths, ax.dist, c),)
    if c.ndim == 2:
        work += (Workspace(grid.vol, grid.rho_inv_k, c.T),)
    return State(grid=grid, c=c, work=work)


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
    lam_l, lam_r = _lams(state.a, *ax.end_widths, *state.robin_ends)
    return c0 / lam_l, cN / lam_r


_f_at_trace = eval_f  # perfbench counts f evaluations by patching this name


def coupling_integral(nl: NonlinearitySpec, cap, c0, cN, h0: float, hN: float):
    """The coupling integral g(a, robin_l, robin_r) that solve_coupling
    iterates on: cap(cN / lam_r) - cap(c0 / lam_l), cap(c) being the
    f-integral over an end's cells c and lam that end's divisor (_lams).

    A homogeneous f (problem.HOMOGENEOUS) has cap(c/lam) = cap(c)/lam^m,
    since the guard keeps lam > 1/2, so each end's cap is summed once, here,
    and every iterate is scalar arithmetic.  Saturating evaluates f on the
    trace at each iterate, and sums an end's cell value cap(c) at most once.
    """
    if nl.kind in HOMOGENEOUS:  # the divisors of _lams, inlined
        m, sN, s0 = nl.m, cap(cN), cap(c0)
        return lambda a, robin_l, robin_r: (sN / (1.0 - 0.5 * a * hN if robin_r else 1.0) ** m
                                            - s0 / (1.0 + 0.5 * a * h0 if robin_l else 1.0) ** m)
    ends, sums = (c0, cN), [None, None]

    def at(i: int, lam: float) -> float:
        if lam != 1.0:
            return cap(ends[i] / lam)
        if sums[i] is None:
            sums[i] = cap(ends[i])
        return sums[i]

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
    tol, max_iters = opts.picard_tol, opts.picard_max_iters
    robin_l = robin_r = robin
    a_prev = F_prev = None
    for k in range(max_iters):
        flipped = False
        if robin_l and abs(a) * h0 >= 1.0:
            robin_l, flipped = False, True
        if robin_r and abs(a) * hN >= 1.0:
            robin_r, flipped = False, True
        ga = g(a, robin_l, robin_r)
        F = a - ga
        if a_prev is None or flipped or F == F_prev or 2 * k > max_iters:
            a_new = 0.5 * (a + ga)
        else:
            a_new = a - F * (a - a_prev) / (F - F_prev)
        scale = abs(a_new)  # max(1.0, scale) below, without the call
        if abs(a_new - a) <= tol * (scale if scale > 1.0 else 1.0):
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
    nl, c, (h0, hN) = problem.nonlinearity, state.c, state.grid.axial.end_widths
    if c.ndim == 1:
        # an end cell stays a float: f is far cheaper on floats than on arrays
        g = coupling_integral(nl, lambda x: _f_at_trace(nl, x), float(c[0]), float(c[-1]), h0, hN)
    else:
        vol = state.grid.vol
        g = coupling_integral(nl, lambda row: float(vol @ _f_at_trace(nl, row)), c[0], c[-1], h0, hN)
    a, state.robin_ends = solve_coupling(g, state.a, h0, hN, opts.trace_mode == "robin", opts)
    return a


def solve_banded(d: np.ndarray, e: np.ndarray, b: np.ndarray, factored: bool = False,
                 bound: _Bound | None = None) -> np.ndarray:
    """Solve the symmetric positive-definite tridiagonal system with diagonal
    d and off-diagonal e for b, an (n,) vector or an (n, k) array of k
    right-hand sides in contiguous columns ldb >= n entries apart (in a
    Workspace, ldb = n + 1), in place, by LAPACK dptsv (LDL^T, no
    pivoting), and return b.  On return d and e hold the LDL^T factors, and
    a later call with factored=True solves another b with them by dpttrs
    alone (dptsv is dpttrf then dpttrs, so the result is bitwise that of a
    fresh dptsv) and overwrites only b.

    Raises ValueError, before any LAPACK call, on arrays LAPACK cannot take
    as they are (_Bound).  bound is the _Bound of these very arrays
    (Workspace.lapack), checked when it was made; without it, or for other
    arrays, the call checks and binds afresh.  Raises StepRejected when
    LAPACK fails, as on a matrix not positive definite."""
    if bound is None or bound.b is not b or bound.d is not d or bound.e is not e:
        bound = _Bound(d, e, b)
    (_dpttrs if factored else _dptsv)(*bound.args)
    if bound.info.value != 0:
        raise StepRejected(f"tridiagonal solve failed (LAPACK info = {bound.info.value})")
    return b


def _advect_diffuse(c, dt, ws: Workspace, a=0.0, h_min=math.inf):
    """One conservative advect-and-diffuse pass along axis 0 of c, an (N,)
    or (N, K) array of cell averages, in ws, the pass's Workspace for fields
    like c.  When ws holds the factors of dt, the system is only
    back-substituted; else the bands of dt are factored in ws.  Returns the
    updated array, a new one laid out like c (Fortran or C order).

    Rejects (StepRejected) an advective CFL violation dt |a| > h_min.  The
    face flux is T = J + F: explicit upwind advection J = -a c_up (upwind
    side picked by the sign of a) plus backward-Euler diffusion
    F = k (y_{i+1} - y_i) of the new field y.  T is solved for directly and
    committed once, y = c + (dt/w)(T_i - T_{i-1}), so sum(widths * c)
    telescopes, and both boundary faces carry no flux.
    """
    if dt * abs(a) > h_min:
        raise StepRejected(f"advective CFL violated: dt*|a| = {dt * abs(a):.3g} > h_min")
    # the K lines end to end (Workspace): a view of a Fortran-ordered c, a
    # copy of any other.  Each ufunc below then runs over one contiguous
    # vector; the differences across line ends it forms are garbage that
    # the solve leaves alone and the zeroing of ws.ends discards.
    # With y = c + (commit of T) and F = T - J, F = k (y_{i+1} - y_i) over k
    # is the SPD system (1/k + dt G W^-1 G^T) T = G c + J/k, G the
    # differences across the n - 1 faces of a line and W the widths.  The
    # commit never differences the solved field, so it adds no roundoff of
    # order eps dt/h_min^2, and data constant along this axis gives T = 0
    # exactly when a = 0
    flat = c if c.ndim == 1 else c.ravel(order="F")
    rhs = ws.rhs
    np.subtract(flat[1:], flat[:-1], out=rhs)
    if a != 0.0:
        rhs += (flat[:-1] if a >= 0.0 else flat[1:]) * (-a * ws.inv_k)
    factored = ws.dt == dt
    if not factored:
        ws.dt = None  # until dptsv has factored the new bands
        np.multiply(dt, ws.diag, out=ws.d)
        np.add(ws.line_inv_k, ws.d, out=ws.d)
        np.multiply(-dt, ws.off, out=ws.e)
        np.multiply(dt, ws.inv_w, out=ws.scale)
    solve_banded(ws.d, ws.e, ws.T, factored, ws.lapack)  # in place, in ws.pad
    ws.dt = dt
    if ws.ends is not None:
        ws.ends.fill(0.0)
    # the sum is NaN or inf whenever an entry is (inf - inf is NaN)
    if not math.isfinite(float(rhs.sum())):
        raise StepRejected("tridiagonal solve produced non-finite values")
    pad = ws.pad
    y = flat + ws.scale * (pad[1:] - pad[:-1])
    if c.ndim == 1:
        return y
    y = y.reshape(c.shape, order="F")
    return y if c.flags.f_contiguous else np.ascontiguousarray(y)


def step(problem: ProblemSpec, state: State, dt: float, opts: StepOptions) -> State:
    """One IMEX update: the axial pass, then on the cylinder the radial one,
    in that fixed order.  Rejects (StepRejected) on coupling failure, on an
    advective CFL violation dt |a| > h_min, or on a degenerate solve."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    a = compute_a(problem, state, opts)
    c = _advect_diffuse(state.c, dt, state.work[0], a, state.grid.axial.h_min)
    if c.ndim == 2:
        c = _advect_diffuse(c.T, dt, state.work[1]).T
    return State(state.grid, c, state.t + dt, a, state.step_count + 1, state.robin_ends, state.work)


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
