"""Time-marching driver of both geometries around the one stepper,
solver1d.step, with solver1d.adapt_dt and solver1d.compute_a.

The loop owns adaptive stepping, step rejection, outcome classification, and
the per-step audits (mass drift, positivity, monotonicity, profile bounds,
per-step entropy change).  The audit is one pass over each committed field:
one max and one min (a NaN or inf shows in one of them, and linf is the
larger of max and -min), mass and entropy by grid.integrate, and x1 c
once.  adapt_dt reuses the audit's linf, each FunctionalRecord its mass,
entropy, linf and x1 c, and the post-run dissipation check each kept field's
entropy and min.  Field snapshots past traj.fields[0] are kept only if asked.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import solver1d
from .diagnostics import (
    Audit,
    RunReport,
    axial_coordinate,
    axial_marginal,
    decay_tail,
    dissipation_residuals,
    entropy_of,
    fit_blowup,
    fit_decay,
    moment_residual,
    record,
)
from .grid import Grid1D, GridCyl, integrate
from .problem import ConfigError, ProblemSpec, thresholds
from .solver1d import StepOptions, StepRejected

CONVERGED = "CONVERGED"
BOUNDED = "BOUNDED"
BLOWUP = "BLOWUP"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"

_NEG_TOL = 1e-12  # allowed undershoot relative to linf before declaring failure


@dataclass
class StopRule:
    """When to stop and what to sample along the way."""

    t_end: float = 1.0
    converged_tol: float = 0.0  # 0 disables the convergence exit
    sample_every: int = 1
    store_fields_every: int = 0  # in units of samples; 0 keeps the t = 0 field only

    def __post_init__(self):
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.store_fields_every < 0:
            raise ConfigError(f"store_fields_every must be >= 0, got {self.store_fields_every}")


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    fields: list = field(default_factory=list)  # (t, c, a) snapshots; [0] is t = 0


def default_lyapunov_p(m: float) -> float | None:
    """An exponent p with p > 1 and m <= p < 2m, preferring p = 2; None when
    the admissible interval is empty (sublinear m)."""
    if 1.0 < m <= 2.0:
        return 2.0
    p = 1.5 * m
    return p if p > 1.0 and m <= p < 2.0 * m else None


def _field_failure(linf: float, cmin: float) -> str | None:
    """Why a field with max |c| = linf and min c = cmin is a numerical
    failure (non-finite, or negative beyond _NEG_TOL linf), or None."""
    if not math.isfinite(linf):
        return "non-finite field"
    if cmin < -_NEG_TOL * max(linf, 1e-300):
        return f"negativity beyond tolerance: {cmin:.3e}"
    return None


def _step_halving(problem: ProblemSpec, state, dt: float, opts: StepOptions):
    """(new state, dt) of the first step accepted as dt halves after each
    StepRejected; re-raises the rejection that takes dt to opts.dt_min."""
    while True:
        try:
            return solver1d.step(problem, state, dt, opts), dt
        except StepRejected:
            dt *= 0.5
            if dt <= opts.dt_min:
                raise


def run(problem: ProblemSpec, grid, c0, opts: StepOptions, stop: StopRule, p_list=(2.0,)):
    """March from c0 until convergence, blow-up detection, or t_end,
    recording the L^p norms of the exponents in p_list.

    Returns (Trajectory, RunReport).  Outcomes:
      CONVERGED          sup-deviation from the conserved mean fell below tol
      BLOWUP             linf crossed the threshold, or the blow-up clamp
                         of adapt_dt took dt to its floor
      BOUNDED            reached t_end without either
      NUMERICAL_FAILURE  non-finite field, negativity beyond tolerance, or
                         step rejections that halved dt down to its floor
    The initial state and every committed one go through the same check
    (_field_failure); initial data that fail it end the run at t = 0 with
    its one record, before the mass check and with no thresholds or fits.
    """
    if not isinstance(grid, (Grid1D, GridCyl)):
        raise TypeError(f"not a grid: {type(grid)!r}")
    cyl = isinstance(grid, GridCyl)
    robin = opts.trace_mode == "robin"
    state = solver1d.make_state(grid, c0)
    x1 = axial_coordinate(grid)
    # for m = 1, x1 ** (1/m) is x1 bitwise, and the audit's max of x1 c serves
    x1_pow = None if problem.m == 1.0 else x1 ** (1.0 / problem.m)

    def audit(state):
        """(Audit, min c, axial marginal or None, max x1 c) of the state's
        field.  The cylinder's mass is the weighted sum of its axial
        marginal, so the marginal bound costs no extra pass."""
        c = state.c
        cmax, cmin = float(c.max()), float(c.min())
        if cyl:
            marg = axial_marginal(grid, c)
            mass = float(marg @ grid.vol)
        else:
            marg, mass = None, integrate(grid, c)
        # max(cmax, -cmin) is max |c|, and NaN (both extremes are) or inf
        # when c holds a NaN or an inf
        au = Audit(mass=mass, entropy=entropy_of(grid, c, cmin), linf=max(cmax, -cmin), x1c=x1 * c)
        return au, cmin, marg, float(au.x1c.max())

    au, cmin, marg, xc = audit(state)
    mass0 = au.mass
    failure = _field_failure(au.linf, cmin)
    if failure is None and not mass0 > 0:
        raise ValueError("initial data must carry positive mass")
    mean = mass0 / problem.domain.volume
    try:
        # self-consistent coupling of the initial state, so the t = 0 record
        # and the first CFL clamp see the real a rather than 0
        state.a = solver1d.compute_a(problem, state, opts)
    except StepRejected:
        pass  # unresolvable closure at t = 0; the step loop will classify
    linf = au.linf
    # (c[1:] - c[:-1]).max() is np.max(np.diff(c, axis=0)) without its overhead
    monotone = float((state.c[1:] - state.c[:-1]).max()) <= 1e-12 * linf
    M0 = float(np.max(marg)) if cyl else None

    traj = Trajectory()
    rep = RunReport(outcome=BOUNDED, reason="reached t_end", min_c=cmin)
    ent_prev = au.entropy
    ent_inc_max = -math.inf
    mono_viol = -math.inf if monotone else None
    xc_max = -math.inf
    marg_inc_max = -math.inf if cyl else None
    xpow_series = []
    kept = []  # the audit's entropy of each field in traj.fields, None unless min c > 0

    # au is the audit of the current state in keep and sample
    def keep():
        traj.fields.append((state.t, state.c.copy(), state.a))
        kept.append(au.entropy if cmin > 0.0 else None)

    def sample(dt: float):
        n, every = len(traj.records), stop.store_fields_every
        traj.records.append(record(state, problem, dt, p_list, solver1d.end_traces(state), au))
        if n == 0 or (every and n % every == 0):
            keep()
        xpow_series.append(xc if x1_pow is None else float(np.max(x1_pow * state.c)))

    sample(0.0)
    if failure is not None:
        rep.outcome, rep.reason = NUMERICAL_FAILURE, f"{failure} in the initial data"
        return traj, rep
    last_dt = 0.0

    while state.t < stop.t_end - 1e-14:
        dt = solver1d.adapt_dt(problem, state, opts, linf)
        if dt <= opts.dt_min:
            rep.outcome, rep.reason, rep.T_detect = BLOWUP, "dt reached its floor", state.t
            break
        try:
            state, dt = _step_halving(problem, state, min(dt, stop.t_end - state.t), opts)
        except StepRejected as e:
            rep.outcome, rep.reason = NUMERICAL_FAILURE, f"step rejected down to the dt floor: {e}"
            break
        last_dt = dt
        c = state.c
        au, cmin, marg, xc = audit(state)
        linf = au.linf
        rep.min_c = min(rep.min_c, cmin)
        failure = _field_failure(linf, cmin)
        if failure is not None:
            rep.outcome, rep.reason = NUMERICAL_FAILURE, failure
            break

        drift = abs(au.mass - mass0) / mass0
        rep.mass_drift_max = max(rep.mass_drift_max, drift)
        ent_inc_max = max(ent_inc_max, au.entropy - ent_prev)
        ent_prev = au.entropy
        if monotone:
            mono_viol = max(mono_viol, float((c[1:] - c[:-1]).max()) / max(linf, 1e-300))
        xc_max = max(xc_max, xc)
        if cyl:
            marg_inc_max = max(marg_inc_max, float(np.max(marg)) - M0)
        rep.a_sq_integral += state.a**2 * dt
        rep.trace_guard_steps += robin and not all(state.robin_ends)

        if state.step_count % stop.sample_every == 0:
            sample(dt)
        if linf >= opts.blowup_linf_threshold:
            rep.outcome, rep.reason = BLOWUP, "linf crossed the blow-up threshold"
            rep.T_detect = state.t
            break
        if stop.converged_tol > 0.0 and linf - mean < stop.converged_tol:
            if float(np.max(np.abs(c - mean))) < stop.converged_tol:
                rep.outcome, rep.reason = CONVERGED, "sup-deviation below tolerance"
                break

    if traj.records[-1].t < state.t:
        sample(last_dt)
    if stop.store_fields_every and traj.fields[-1][0] < state.t:
        keep()

    rep.t_final = state.t
    rep.steps = state.step_count
    rep.entropy_step_increase_max = None if ent_inc_max == -math.inf else ent_inc_max
    rep.monotone_violation_max = mono_viol
    rep.xc_max_ratio = xc_max / mass0 if xc_max > -math.inf else None
    rep.x1c_max_ratio = (xc_max / M0) if (cyl and M0 and xc_max > -math.inf) else None
    rep.marginal_increase_max = marg_inc_max if cyl else None
    if len(xpow_series) >= 8:
        cut = max(1, (3 * len(xpow_series)) // 4)
        rep.xpow_sup_early = max(xpow_series[:cut])
        rep.xpow_sup_late = max(xpow_series[cut:])

    recs = traj.records
    if rep.outcome == BLOWUP:
        fit = fit_blowup(recs)
        if fit is not None:
            rep.Tstar_fit, rep.beta_fit = fit
    if rep.outcome == CONVERGED:
        rep.lambda_fit = fit_decay(decay_tail(recs, mean), mean)
    if problem.m == 1.0 and len(recs) >= 2:
        window = _active_window(recs)
        if len(window) >= 2:
            rep.moment_residual = moment_residual(window, mass0, 1.0)
    if not cyl and len(traj.fields) >= 2 and None not in kept:
        fields = [(t, c) for t, c, _a in traj.fields]
        a_vals = [a for _t, _c, a in traj.fields]
        rep.entropy_residual, rep.lp_residual, _ = dissipation_residuals(
            grid, fields, a_vals, kept, p_list[0]
        )

    phi0 = recs[0].phi
    p = default_lyapunov_p(problem.m)
    thr = thresholds(problem, mass0, phi0, p if p is not None else 0.0, M0=M0)
    rep.thresholds = asdict(thr)
    rep.half_moment_ok = phi0 < thr.half_moment_bound
    if rep.T_detect is not None and math.isfinite(thr.Tstar_upper_bound):
        rep.tstar_bound_ratio = rep.T_detect / thr.Tstar_upper_bound
    return traj, rep


def _active_window(records):
    """Record pairs where the coupling is a meaningful fraction of its peak,
    so the moment-identity residual is not dominated by a near-zero RHS."""
    peak = max(abs(r.a) for r in records)
    if peak == 0.0:
        return []
    return [r for r in records if abs(r.a) >= 1e-3 * peak]
