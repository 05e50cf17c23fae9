"""Monitored functionals, identity residuals, and asymptotic-rate fits.

Everything here is a pure function of sampled data.  The discrete gradient is
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


@dataclass
class FunctionalRecord:
    """One time sample of every monitored functional."""

    t: float
    dt: float
    mass: float
    entropy: float
    lp: dict[float, float]
    linf: float
    phi: float  # first axial moment, integral of x1 c
    a: float
    u: float  # reported cell velocity component, -chi a / |Omega|
    c_left: float
    c_right: float
    xpow: float | None = None  # max x1^(1/m) c, which the runner sets; not a CSV column


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


def record(
    state, problem: ProblemSpec, dt: float, p_list, traces: tuple[float, float], audit: Audit
) -> FunctionalRecord:
    """Sample all monitored functionals of a 1D or cylinder state.

    traces are the state's (c_left, c_right), solver1d.end_traces(state).
    audit is the state's mass, entropy, linf and x1 c as the runner's
    per-step audit computed them; they are reused, not recomputed.
    """
    grid = state.grid
    return FunctionalRecord(
        t=state.t,
        dt=dt,
        mass=audit.mass,
        entropy=audit.entropy,
        lp={p: lp_norm(grid, state.c, p) for p in p_list},
        linf=audit.linf,
        phi=integrate(grid, audit.x1c),
        a=state.a,
        u=-problem.chi * state.a / problem.domain.volume,
        c_left=traces[0],
        c_right=traces[1],
    )


def moment_residual(records, M: float, B: float, eps: float = 1e-10) -> float:
    """Max relative defect of the first-moment identity

        phi' = a M - B (c_right - c_left)

    (x1 times the equation, integrated by parts under the no-flux condition;
    it holds for every law of f) over consecutive record pairs, with
    midpoint-averaged a and trace difference.  B is the cross-section
    volume, 1 on the interval.  Each defect is taken relative to
    max(|a M|, B |c_right - c_left|, eps) at the midpoint."""
    if len(records) < 2:
        raise ValueError("need at least two consecutive records")
    worst = 0.0
    for r0, r1 in zip(records[:-1], records[1:]):
        dt = r1.t - r0.t
        if dt <= 0:
            continue
        coupling = 0.5 * (r0.a + r1.a) * M
        boundary = 0.5 * (r0.c_right - r0.c_left + r1.c_right - r1.c_left) * B
        res = abs((r1.phi - r0.phi) / dt - coupling + boundary)
        worst = max(worst, res / max(abs(coupling), abs(boundary), eps))
    return worst


def moment_residual_m1(records, M: float, eps: float = 1e-10) -> float:
    """Max relative defect of the m = 1 moment identity phi' = (M - 1) a
    over consecutive record pairs, with midpoint-averaged a.  It is the
    identity above with a = B (c_right - c_left), which is f(s) = s."""
    if len(records) < 2:
        raise ValueError("need at least two consecutive records")
    worst = 0.0
    for r0, r1 in zip(records[:-1], records[1:]):
        dt = r1.t - r0.t
        if dt <= 0:
            continue
        abar = 0.5 * (r0.a + r1.a)
        rhs = (M - 1.0) * abar
        res = abs((r1.phi - r0.phi) / dt - rhs) / max(abs(rhs), eps)
        worst = max(worst, res)
    return worst


def _running_max(running: float, vals: np.ndarray) -> float:
    """max(running, *vals) as Python's max takes it left to right: a NaN
    never wins."""
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
    ts = np.array([r.t for r in records])
    linf = np.array([r.linf for r in records])
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

    Least-squares slope of log(linf - mean) against t over the given records;
    returns lambda > 0 for decay, or None if fewer than two usable samples.
    """
    ts, ys = [], []
    for r in records:
        dev = r.linf - mean
        if dev > 0.0:
            ts.append(r.t)
            ys.append(math.log(dev))
    if len(ts) < 2:
        return None
    ts = np.array(ts)
    ys = np.array(ys)
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
    tail = records[start:]
    out = []
    prev = 0.0  # deviations grow while walking backward along a decaying tail
    for r in reversed(tail):
        dev = r.linf - mean
        if dev <= 0.0 or dev < prev:
            break
        out.append(r)
        prev = dev
    out.reverse()
    return out
