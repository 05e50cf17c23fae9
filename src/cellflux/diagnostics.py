"""Monitored functionals, identity residuals, and asymptotic-rate fits.

A run's samples are one Records table, a float64 column per functional, and
everything here is a pure function of sampled data: the residuals, fits and
tails are array arithmetic on the columns.  The discrete gradient is
the central difference at interior faces; the identity right-hand sides reuse
exactly those faces, so a residual isolates time-discretization and
trace-closure error rather than mixing in a second spatial discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, GridCyl, integrate, quadrature
from .problem import ConfigError, ProblemSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


COLUMNS = ("t", "dt", "mass", "entropy", "linf", "phi", "a", "u", "c_left", "c_right", "xpow",
           "diss_s", "coup_s", "diss_p", "coup_p")


class Records:
    """Every monitored functional of a run's samples, one float64 column each.

    The columns are COLUMNS, read as records.t, records.linf and so on, then
    one L^p norm per exponent of p_list, read as records.lp[p].  phi is the
    first axial moment, the integral of x1 c; u the reported cell velocity
    component, -chi a / |Omega|; xpow the max of x1^(1/m) c.  diss_s,
    coup_s, diss_p and coup_p are the two sides of the entropy and L^p
    dissipation identities at the sample (dissipation_terms), NaN where they
    are not evaluated.  Neither xpow nor those four is a CSV column.  Each
    column is a view of the first len(records) entries of one row of a
    (columns, capacity) buffer, which doubles when full: a sample is one row
    write of 8 bytes per column, and no Python object.  records[rows], for a
    slice or a boolean mask, is a Records of those samples."""

    def __init__(self, p_list=()):
        self.p_list = tuple(p_list)
        self._buf = np.empty((len(COLUMNS) + len(self.p_list), 64))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rows) -> Records:
        out = Records(self.p_list)
        out._buf = self._buf[:, : self._n][:, rows]
        out._n = out._buf.shape[1]
        return out

    def append(self, t, dt, mass, entropy, linf, phi, a, u, c_left, c_right, xpow,
               diss_s, coup_s, diss_p, coup_p, lp=()) -> None:
        """Write one sample as the next row; lp holds its L^p norms in
        p_list order."""
        n = self._n
        if n == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], max(2 * n, 16)))
            grown[:, :n] = self._buf[:, :n]
            self._buf = grown
        self._buf[:, n] = (t, dt, mass, entropy, linf, phi, a, u, c_left, c_right, xpow,
                           diss_s, coup_s, diss_p, coup_p, *lp)
        self._n = n + 1

    @property
    def lp(self) -> dict:
        return {p: self._buf[len(COLUMNS) + i, : self._n] for i, p in enumerate(self.p_list)}


for _k, _name in enumerate(COLUMNS):  # records.t, records.dt, ...: views of their rows
    setattr(Records, _name, property(lambda self, k=_k: self._buf[k, : self._n]))


@dataclass
class RunReport:
    """Outcome classification plus every bound/identity audit of one run.

    The runner's loop keeps the per-step tallies as it audits each step and
    writes them here when it ends; a per-step maximum is None where it does
    not apply or no step passed."""

    outcome: str  # CONVERGED | BOUNDED | BLOWUP | NUMERICAL_FAILURE
    reason: str = ""
    t_final: float = 0.0
    steps: int = 0
    T_detect: float | None = None
    Tstar_fit: float | None = None
    beta_fit: float | None = None
    lambda_fit: float | None = None
    moment_residual: float | None = None
    entropy_residual: float | None = None
    lp_residual: float | None = None
    entropy_step_increase_max: float | None = None
    mass_drift_max: float = 0.0
    min_c: float = 0.0
    monotone_violation_max: float | None = None
    xc_max_ratio: float | None = None
    x1c_max_ratio: float | None = None
    marginal_increase_max: float | None = None
    xpow_sup_early: float | None = None
    xpow_sup_late: float | None = None
    a_sq_integral: float = 0.0
    half_moment_ok: bool | None = None
    tstar_bound_ratio: float | None = None
    trace_guard_steps: int = 0
    thresholds: dict = field(default_factory=dict)


@dataclass
class Audit:
    """Functionals of one field that the runner's per-step audit computes
    once, as record() receives them at a sample: it reuses their mass,
    entropy, linf and x1 c instead of recomputing them."""

    mass: float
    entropy: float
    linf: float
    min: float
    x1c_max: float
    marg_max: float | None  # max of the axial marginal; None on the interval
    x1c: np.ndarray  # x1 c, the integrand of the first axial moment


class AuditWorkspace:
    """The buffers of runner.run's per-step audit and samples over fields
    like c (make_state's column-major field), built once per run: x1 and
    x1_pow (x1^(1/m), None at m = 1, where x1 c serves), the axial centre
    of each cell laid out like c; x1c, x1 c of the last audit; tmp, for
    c log c, x1^(1/m) c and |c|^p in turn; rise, c_{i+1} - c_i along the
    flat column-major c, whose line ends hold -inf before a max over span
    (all of rise on the cylinder, its N - 1 differences on the interval);
    and on the interval faces, the four face buffers of dissipation_terms."""

    def __init__(self, grid, c: np.ndarray, m: float):
        n = grid.axial.N
        self.x1 = np.tile(grid.axial.centers, c.size // n).reshape(c.shape, order="F")
        x1_pow = self.x1 ** (1.0 / m)
        self.x1_pow = None if np.array_equal(x1_pow, self.x1) else x1_pow
        self.x1c, self.tmp = np.empty_like(c), np.empty_like(c)
        self.rise = np.empty(c.size)
        self.line_ends = self.rise[n - 1 :: n]
        self.span = self.rise if c.ndim == 2 else self.rise[:-1]
        self.faces = tuple(np.empty((4, n - 1))) if c.ndim == 1 else None


def check_p_list(p_list) -> tuple:
    """p_list as a tuple; ConfigError unless it names at least one exponent
    (the dissipation residuals use p_list[0]), each finite and > 0, and
    none twice (Records.lp is keyed by exponent)."""
    p_list = tuple(p_list)
    if not p_list or not all(math.isfinite(p) and p > 0 for p in p_list) or len(set(p_list)) < len(p_list):
        raise ConfigError(f"p_list must name distinct exponents, each finite and > 0; got {list(p_list)}")
    return p_list


def axial_marginal(grid: GridCyl, c) -> np.ndarray:
    """Radial profile of the axial line integral of a cylinder field,
    m_j = sum_i h_i c_ij.  It obeys a discrete Neumann heat flow in rho, so
    its maximum never increases; it drives the x1 c <= M0 profile bound."""
    return grid.axial.widths.dot(c)


def entropy_of(grid, c, cmin: float | None = None, out: np.ndarray | None = None) -> float:
    """Integral of c log c with the integrand extended by 0 at c = 0; cmin
    is c.min() if known.  A NaN cell makes the integral NaN.  out, an array
    shaped like the grid, takes the integrand of a positive field in place
    of new arrays, and its integral skips integrate's checks."""
    c = np.asarray(c)
    if (c.min() if cmin is None else cmin) > 1e-300:  # the usual case: no cell needs the extension
        s = np.multiply(c, np.log(c, out=out), out=out)
    else:
        s = np.where(c <= 1e-300, 0.0, c * np.log(np.maximum(c, 1e-300)))
    return integrate(grid, s) if out is None else quadrature(grid, s)


def lp_norm(grid, c, p: float, cmin: float | None = None, out: np.ndarray | None = None) -> float:
    """(int |c|^p)^(1/p); cmin is c.min() if known, and |c| is c when
    cmin > 0.  out, an array shaped like the grid, takes |c| and |c|^p in
    place of new arrays, and the integral skips integrate's checks."""
    s = np.power(c if cmin is not None and cmin > 0.0 else np.abs(c, out=out), p, out=out)
    return (integrate(grid, s) if out is None else quadrature(grid, s)) ** (1.0 / p)


def dissipation_terms(grid: Grid1D, c, a: float, p: float,
                      out: tuple | None = None) -> tuple[float, float, float, float]:
    """(diss_s, coup_s, diss_p, coup_p) of a positive 1D field c at coupling
    a: the two sides of the entropy and L^p dissipation identities

        d/dt int c log c = -diss_s + coup_s = -int |grad c|^2 / c + a int dc/dx
        d/dt int c^p     = -diss_p + coup_p
                         = p(p-1) [ -int c^(p-2) |grad c|^2 + a int c^(p-1) dc/dx ]

    with grad c the central difference dc/d at the interior faces and c at a
    face the mean fm of its two cells.  The faces' differences sum to
    c[-1] - c[0].  The sums are taken in s = 2 fm, which saves passes:
    diss_s = 2 u.(dc/s), diss_p = 2 k u.y and coup_p = k a y.s, with
    u = dc/d, y = dc s^(p-2) (no power at p = 2) and k = p(p-1) 2^(1-p).
    out, four arrays of N - 1 faces (AuditWorkspace.faces), holds dc, s,
    u and then dc/s and y in place of new arrays."""
    dc, s, u, q = np.empty((4, len(c) - 1)) if out is None else out
    np.subtract(c[1:], c[:-1], out=dc)
    np.add(c[1:], c[:-1], out=s)
    np.divide(dc, grid.dist, out=u)
    diss_s = 2.0 * float(u.dot(np.divide(dc, s, out=q)))
    y = dc if p == 2.0 else np.multiply(dc, np.power(s, p - 2.0, out=q), out=q)
    k = p * (p - 1.0) * 2.0 ** (1.0 - p)
    return diss_s, a * float(c[-1] - c[0]), 2.0 * k * float(u.dot(y)), k * a * float(y.dot(s))


_NO_TERMS = (math.nan,) * 4  # the dissipation terms of a sample that has none


def record(records: Records, state, problem: ProblemSpec, dt: float, traces: tuple[float, float],
           audit: Audit, xpow: float, work: AuditWorkspace | None = None) -> None:
    """Sample all monitored functionals of a 1D or cylinder state as the
    next row of records, with the L^p norms of its p_list.

    traces are the state's (c_left, c_right), solver1d.end_traces(state).
    audit is the state's mass, entropy, linf and x1 c as the runner's
    per-step audit computed them; they are reused, not recomputed.  xpow is
    the state's max x1^(1/m) c, which the runner computes.  The dissipation
    terms, with p = p_list[0], are evaluated on the interval when the field
    is positive and finite (audit min > 0, linf < inf), and are NaN
    otherwise.  work, the run's AuditWorkspace, lends the terms and the
    norms its buffers in place of new arrays.
    """
    grid, c = state.grid, state.c
    faces, tmp = (None, None) if work is None else (work.faces, work.tmp)
    terms = _NO_TERMS
    if audit.min > 0.0 and audit.linf < math.inf and isinstance(grid, Grid1D):
        terms = dissipation_terms(grid, c, state.a, records.p_list[0], faces)
    records.append(state.t, dt, audit.mass, audit.entropy, audit.linf, quadrature(grid, audit.x1c),
                   state.a, -problem.chi * state.a / problem.domain.volume, traces[0], traces[1], xpow,
                   *terms, lp=[lp_norm(grid, c, p, audit.min, tmp) for p in records.p_list])


def _pairs(records) -> tuple[np.ndarray, np.ndarray]:
    """(dt, skip) of consecutive record pairs: the time steps, with 1 in
    place of each dt <= 0, and which pairs to drop: those with dt <= 0 and
    those with a non-finite linf at either end.  A NaN dt is not skipped."""
    if len(records) < 2:
        raise ValueError("need at least two consecutive records")
    dt = np.diff(records.t)
    finite = np.isfinite(records.linf)
    skip = (dt <= 0) | ~(finite[:-1] & finite[1:])
    dt[dt <= 0] = 1.0  # their results are dropped; keeps the divisions finite
    return dt, skip


def _max_defect(rel: np.ndarray, skip: np.ndarray) -> float | None:
    """The largest of the pairs' defects rel, leaving out the skipped pairs
    and NaN defects; None when no pair is left."""
    rel = rel[~skip & ~np.isnan(rel)]
    return float(rel.max()) if rel.size else None


def moment_residual(records, M: float, B: float, eps: float = 1e-10) -> float | None:
    """Max relative defect of the first-moment identity

        phi' = a M - B (c_right - c_left)

    (x1 times the equation, integrated by parts under the no-flux condition;
    it holds for every law of f) over consecutive record pairs, with
    midpoint-averaged a and trace difference.  B is the cross-section
    volume, 1 on the interval.  Each defect is taken relative to
    max(|a M|, B |c_right - c_left|, eps) at the midpoint.  The pairs
    _pairs drops (dt <= 0, non-finite linf) and NaN defects are left out,
    and the residual is None when no pair is left."""
    dt, skip = _pairs(records)
    a, cl, cr = records.a, records.c_left, records.c_right
    with np.errstate(all="ignore"):  # a dropped pair's defect may overflow
        coupling = 0.5 * (a[:-1] + a[1:]) * M
        boundary = 0.5 * (cr[:-1] - cl[:-1] + cr[1:] - cl[1:]) * B
        res = np.abs(np.diff(records.phi) / dt - coupling + boundary)
        rel = res / np.maximum(np.maximum(np.abs(coupling), np.abs(boundary)), eps)
    return _max_defect(rel, skip)


def moment_residual_m1(records, M: float, eps: float = 1e-10) -> float | None:
    """Max relative defect of the m = 1 moment identity phi' = (M - 1) a
    over consecutive record pairs, with midpoint-averaged a, leaving out
    pairs as moment_residual does.  It is the identity above with
    a = B (c_right - c_left), which is f(s) = s."""
    dt, skip = _pairs(records)
    a = records.a
    with np.errstate(all="ignore"):
        rhs = (M - 1.0) * (0.5 * (a[:-1] + a[1:]))
        rel = np.abs(np.diff(records.phi) / dt - rhs) / np.maximum(np.abs(rhs), eps)
    return _max_defect(rel, skip)


def _running_max(running: float, vals: np.ndarray) -> float:
    """max(running, *vals) as Python's max takes it left to right: a NaN
    in vals never wins, and a NaN running value always does."""
    vals = vals[~np.isnan(vals)]
    return max(running, float(vals.max())) if vals.size else running


def dissipation_residuals(records) -> tuple[float | None, float | None]:
    """(entropy_res, lp_res): the max relative defects of the entropy and
    L^p dissipation identities over consecutive record pairs, with
    p = p_list[0].

    Each pair's difference quotient of the functional, the entropy column or
    lp[p]^p, is compared with the trapezoid mean of -diss + coup, the
    dissipation_terms recorded at its two ends, and the defect is taken
    relative to max(mean diss, |mean coup|, 1e-10).  Pairs are left out as
    in moment_residual, and so is a pair with a NaN term at either end (a
    sample whose terms were not evaluated); a residual is None when no pair
    is left.
    """
    p = records.p_list[0]
    dt, skip = _pairs(records)
    out = []
    with np.errstate(all="ignore"):  # a dropped pair's defect may overflow
        for F, D, C in ((records.entropy, records.diss_s, records.coup_s),
                        (records.lp[p] ** p, records.diss_p, records.coup_p)):
            diss, coup = 0.5 * (D[:-1] + D[1:]), 0.5 * (C[:-1] + C[1:])
            scale = np.maximum(np.maximum(diss, np.abs(coup)), 1e-10)
            out.append(_max_defect(np.abs(np.diff(F) / dt + diss - coup) / scale, skip))
    return out[0], out[1]


def fit_blowup(records, min_samples: int = 20, decades: float = 2.0):
    """Fit linf ~ (Tstar - t)^(-beta) on the trailing records.

    Least squares of log linf against log(Tstar - t), with Tstar itself
    optimized by golden-section search on the fit residual.  Returns
    (Tstar_fit, beta_fit), or None when the tail spans fewer than `decades`
    decades of linf or fewer than min_samples samples.
    """
    ts, linf = records.t, records.linf
    if len(ts) < min_samples:
        return None
    top = linf.max()
    if linf.min() > top / 10.0**decades:
        return None  # the run never spanned the required dynamic range
    idx = np.nonzero(linf >= top / 10.0**decades)[0]
    ts, linf = ts[idx], linf[idx]
    if len(ts) < min_samples:
        return None
    ys = np.log(linf)

    def sse(tstar: float):
        x = np.log(tstar - ts)
        xm, ym = x.mean(), ys.mean()
        vx = float(np.sum((x - xm) ** 2))
        slope = float(np.sum((x - xm) * (ys - ym))) / vx
        r = ys - ym - slope * (x - xm)
        return float(r @ r), -slope

    t_last = float(ts[-1])
    span = t_last - float(ts[0])
    lo = t_last + 1e-14 * max(1.0, abs(t_last))
    hi = t_last + 2.0 * span
    c1 = hi - _GOLDEN * (hi - lo)
    c2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = sse(c1)[0], sse(c2)[0]
    for _ in range(300):
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - _GOLDEN * (hi - lo)
            f1 = sse(c1)[0]
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + _GOLDEN * (hi - lo)
            f2 = sse(c2)[0]
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    tstar = 0.5 * (lo + hi)
    return tstar, sse(tstar)[1]


def fit_decay(records, mean: float):
    """Exponential decay rate of the sup-side deviation linf - mean.

    Least-squares slope of log(linf - mean) against t over the records where
    it is positive; returns lambda > 0 for decay, or None if fewer than two
    usable samples.
    """
    dev = records.linf - mean
    keep = dev > 0.0
    if np.count_nonzero(keep) < 2:
        return None
    ts = records.t[keep]
    ys = np.log(dev[keep])
    tm = ts.mean()
    vx = float(np.sum((ts - tm) ** 2))
    if vx == 0.0:
        return None
    slope = float(np.sum((ts - tm) * (ys - ys.mean()))) / vx
    return -slope


def decay_tail(records, mean: float, skip_fraction: float = 0.5):
    """Trailing slice of records on which linf - mean is positive and
    nonincreasing, skipping the leading transient."""
    start = int(len(records) * skip_fraction)
    dev = records.linf[start:] - mean
    # walking backward from the end, a sample ends the tail if its deviation
    # is not positive or is below the one after it (0 after the last)
    bad = np.flatnonzero((dev <= 0.0) | (dev < np.append(dev[1:], 0.0)))
    return records[start + (bad[-1] + 1 if bad.size else 0) :]
