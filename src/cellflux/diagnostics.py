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

from .grid import Grid1D, GridCyl, integrate
from .problem import ProblemSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK = 16  # intervals per block of dissipation_residuals; the runner checks
# one block at a time as it samples, so it holds at most _BLOCK + 1 fields for it


COLUMNS = ("t", "dt", "mass", "entropy", "linf", "phi", "a", "u", "c_left", "c_right", "xpow")


class Records:
    """Every monitored functional of a run's samples, one float64 column each.

    The columns are COLUMNS, read as records.t, records.linf and so on, then
    one L^p norm per exponent of p_list, read as records.lp[p].  phi is the
    first axial moment, the integral of x1 c; u the reported cell velocity
    component, -chi a / |Omega|; xpow the max of x1^(1/m) c, which is not a
    CSV column.  Each column is a view of the first len(records) entries of
    one row of a (columns, capacity) buffer, which doubles when full: a
    sample is one row write of 8 bytes per column, and no Python object.
    records[rows], for a slice or a boolean mask, is a Records of those
    samples."""

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

    def append(self, t, dt, mass, entropy, linf, phi, a, u, c_left, c_right, xpow, lp=()) -> None:
        """Write one sample as the next row; lp holds its L^p norms in
        p_list order."""
        n = self._n
        if n == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], max(2 * n, 16)))
            grown[:, :n] = self._buf[:, :n]
            self._buf = grown
        self._buf[:, n] = (t, dt, mass, entropy, linf, phi, a, u, c_left, c_right, xpow, *lp)
        self._n = n + 1

    @property
    def lp(self) -> dict:
        return {p: self._buf[len(COLUMNS) + i, : self._n] for i, p in enumerate(self.p_list)}


for _k, _name in enumerate(COLUMNS):  # records.t, records.dt, ...: views of their rows
    setattr(Records, _name, property(lambda self, k=_k: self._buf[k, : self._n]))


@dataclass
class RunReport:
    """Outcome classification plus every bound/identity audit of one run.

    The runner's loop updates the per-step tallies as it audits each step;
    a per-step maximum is None where it does not apply or no step passed."""

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
    once: record() reuses its mass, entropy, linf and x1 c instead of
    recomputing them, and the runner's bound audits its min and maxima."""

    mass: float
    entropy: float
    linf: float
    min: float
    x1c: np.ndarray  # x1 c, the integrand of the first axial moment
    x1c_max: float
    marg_max: float | None  # max of the axial marginal; None on the interval


def axial_coordinate(grid) -> np.ndarray:
    """Cell-center x1, shaped to broadcast against a field on the grid."""
    return grid.axial.centers.reshape((-1,) + (1,) * (len(grid.shape) - 1))


def axial_marginal(grid: GridCyl, c) -> np.ndarray:
    """Radial profile of the axial line integral of a cylinder field,
    m_j = sum_i h_i c_ij.  It obeys a discrete Neumann heat flow in rho, so
    its maximum never increases; it drives the x1 c <= M0 profile bound."""
    return grid.axial.widths @ c


def entropy_of(grid, c, cmin: float | None = None) -> float:
    """Integral of c log c with the integrand extended by 0 at c = 0; cmin
    is c.min() if known.  A NaN cell makes the integral NaN."""
    c = np.asarray(c)
    if (c.min() if cmin is None else cmin) > 1e-300:  # the usual case: no cell needs the extension
        return integrate(grid, c * np.log(c))
    return integrate(grid, np.where(c <= 1e-300, 0.0, c * np.log(np.maximum(c, 1e-300))))


def lp_norm(grid, c, p: float) -> float:
    return integrate(grid, np.abs(np.asarray(c)) ** p) ** (1.0 / p)


def record(records: Records, state, problem: ProblemSpec, dt: float, traces: tuple[float, float],
           audit: Audit, xpow: float) -> None:
    """Sample all monitored functionals of a 1D or cylinder state as the
    next row of records, with the L^p norms of its p_list.

    traces are the state's (c_left, c_right), solver1d.end_traces(state).
    audit is the state's mass, entropy, linf and x1 c as the runner's
    per-step audit computed them; they are reused, not recomputed.  xpow is
    the state's max x1^(1/m) c, which the runner computes.
    """
    grid = state.grid
    records.append(state.t, dt, audit.mass, audit.entropy, audit.linf, integrate(grid, audit.x1c),
                   state.a, -problem.chi * state.a / problem.domain.volume, traces[0], traces[1], xpow,
                   [lp_norm(grid, state.c, p) for p in records.p_list])


def _pairs(records) -> tuple[np.ndarray, np.ndarray]:
    """(dt, skip) of consecutive record pairs: the time steps, with 1 in
    place of each dt <= 0, and where those were; a NaN dt is not skipped."""
    if len(records) < 2:
        raise ValueError("need at least two consecutive records")
    dt = np.diff(records.t)
    skip = dt <= 0
    dt[skip] = 1.0  # their results are dropped; keeps the divisions finite
    return dt, skip


def moment_residual(records, M: float, B: float, eps: float = 1e-10) -> float:
    """Max relative defect of the first-moment identity

        phi' = a M - B (c_right - c_left)

    (x1 times the equation, integrated by parts under the no-flux condition;
    it holds for every law of f) over consecutive record pairs, with
    midpoint-averaged a and trace difference.  B is the cross-section
    volume, 1 on the interval.  Each defect is taken relative to
    max(|a M|, B |c_right - c_left|, eps) at the midpoint.  Pairs with
    dt <= 0 are skipped, and a NaN defect never wins the max."""
    dt, skip = _pairs(records)
    a, cl, cr = records.a, records.c_left, records.c_right
    with np.errstate(all="ignore"):  # a non-finite final sample's defect is dropped
        coupling = 0.5 * (a[:-1] + a[1:]) * M
        boundary = 0.5 * (cr[:-1] - cl[:-1] + cr[1:] - cl[1:]) * B
        res = np.abs(np.diff(records.phi) / dt - coupling + boundary)
        rel = res / np.maximum(np.maximum(np.abs(coupling), np.abs(boundary)), eps)
    return _running_max(0.0, rel[~skip])


def moment_residual_m1(records, M: float, eps: float = 1e-10) -> float:
    """Max relative defect of the m = 1 moment identity phi' = (M - 1) a
    over consecutive record pairs, with midpoint-averaged a.  It is the
    identity above with a = B (c_right - c_left), which is f(s) = s."""
    dt, skip = _pairs(records)
    a = records.a
    with np.errstate(all="ignore"):
        rhs = (M - 1.0) * (0.5 * (a[:-1] + a[1:]))
        rel = np.abs(np.diff(records.phi) / dt - rhs) / np.maximum(np.abs(rhs), eps)
    return _running_max(0.0, rel[~skip])


def _running_max(running: float, vals: np.ndarray) -> float:
    """max(running, *vals) as Python's max takes it left to right: a NaN
    in vals never wins, and a NaN running value always does."""
    vals = vals[~np.isnan(vals)]
    return max(running, float(vals.max())) if vals.size else running


def dissipation_residuals(grid: Grid1D, fields, a_values, entropies, p: float):
    """Relative defects of the entropy and L^p dissipation identities on a
    window of consecutive 1D snapshots.

    fields is a list of (t, c) pairs, a_values the coupling at those times
    and entropies each field's entropy_of, as the runner's audit has them.
    For each interval the discrete d/dt of the functional is compared with the
    identity right-hand side evaluated on the midpoint state:

        d/dt int c log c = -int |grad c|^2 / c + a * int dc/dx
        d/dt int c^p     = p(p-1) [ -int c^(p-2) |grad c|^2 + a int c^(p-1) dc/dx ]

    Intervals with dt <= 0 are skipped.  Returns (entropy_res, lp_res,
    entropy_increase_max); the last entry is the largest per-interval entropy
    increase, the sign check of the m = 1 dissipation inequality for M <= 1.

    The intervals are evaluated _BLOCK at a time as rows of 2D arrays, with
    every sum taken along a row and each P as integrate's dot product, so each
    interval's terms are summed in the same order as on its own field.
    """
    if len(fields) < 2:
        raise ValueError("need at least two snapshots")
    d, w = grid.dist, grid.widths
    ts = np.array([t for t, _c in fields], dtype=float)
    a = np.asarray(a_values, dtype=float)
    S = np.asarray(entropies, dtype=float)
    ent_res = lp_res = 0.0
    ent_inc = -math.inf
    for k0 in range(0, len(fields) - 1, _BLOCK):
        k1 = min(k0 + _BLOCK, len(fields) - 1)  # intervals k0 .. k1 - 1
        C = np.array([c for _t, c in fields[k0 : k1 + 1]], dtype=float)
        P = np.array([w @ row for row in C**p])
        dt = np.diff(ts[k0 : k1 + 1])
        skip = dt <= 0
        dt[skip] = 1.0  # their results are dropped; keeps the divisions finite
        cm = 0.5 * (C[:-1] + C[1:])
        am = 0.5 * (a[k0:k1] + a[k0 + 1 : k1 + 1])
        dc = np.diff(cm, axis=1)
        dg2 = d * (dc / d) ** 2  # d |grad c|^2 at the faces
        fm = np.maximum(0.5 * (cm[:, :-1] + cm[:, 1:]), 1e-300)
        flow = np.sum(dc, axis=1)  # same faces as grad: int dc/dx

        inc = S[k0 + 1 : k1 + 1] - S[k0:k1]
        rhs_S = -np.sum(dg2 / fm, axis=1) + am * flow
        res_S = np.abs(inc / dt - rhs_S) / np.maximum(np.abs(rhs_S), 1e-10)

        rhs_P = p * (p - 1.0) * (
            -np.sum(dg2 * fm ** (p - 2.0), axis=1) + am * np.sum(fm ** (p - 1.0) * dc, axis=1)
        )
        res_P = np.abs(np.diff(P) / dt - rhs_P) / np.maximum(np.abs(rhs_P), 1e-10)

        ent_res = _running_max(ent_res, res_S[~skip])
        ent_inc = _running_max(ent_inc, inc[~skip])
        lp_res = _running_max(lp_res, res_P[~skip])
    return ent_res, lp_res, ent_inc


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
