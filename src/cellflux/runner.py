"""Time-marching driver shared by the interval and cylinder solvers.

The loop owns adaptive stepping, step rejection, outcome classification, and
the per-step audits (mass drift, positivity, monotonicity, profile bounds,
per-step entropy change).  Per-sample functionals go into FunctionalRecords;
field snapshots are kept only when asked, so long runs stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import solver1d, solver_cyl
from .diagnostics import (
    FunctionalRecord,
    RunReport,
    decay_tail,
    dissipation_residuals,
    entropy_of,
    fit_blowup,
    fit_decay,
    moment_residual,
    record,
)
from .grid import Grid1D, GridCyl, integrate
from .problem import ProblemSpec, thresholds
from .solver1d import StepOptions, StepRejected
from .solver_cyl import axial_marginal

CONVERGED = "CONVERGED"
BOUNDED = "BOUNDED"
BLOWUP = "BLOWUP"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"

_NEG_TOL = 1e-12  # allowed undershoot relative to linf before declaring failure


@dataclass
class StopRule:
    """When to stop and what to sample along the way."""

    t_end: float
    converged_tol: float = 0.0  # 0 disables the convergence exit
    sample_every: int = 1
    store_fields_every: int = 0  # in units of samples; 0 keeps no fields
    p_list: tuple = (2.0,)


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    fields: list = field(default_factory=list)  # (t, c, a) snapshots


def default_lyapunov_p(m: float) -> float | None:
    """An exponent p with p > 1 and m <= p < 2m, preferring p = 2; None when
    the admissible interval is empty (sublinear m)."""
    if 1.0 < m <= 2.0:
        return 2.0
    p = 1.5 * m
    return p if p > 1.0 and m <= p < 2.0 * m else None


def _is_monotone_nonincreasing(c: np.ndarray, scale: float) -> bool:
    return float(np.max(np.diff(c, axis=0))) <= 1e-12 * scale


def run(problem: ProblemSpec, grid, c0, opts: StepOptions, stop: StopRule):
    """March from c0 until convergence, blow-up detection, or t_end.

    Returns (Trajectory, RunReport).  Outcomes:
      CONVERGED          sup-deviation from the conserved mean fell below tol
      BLOWUP             linf crossed the threshold, or dt hit the floor
      BOUNDED            reached t_end without either
      NUMERICAL_FAILURE  non-finite field or negativity beyond tolerance
    """
    if not isinstance(grid, (Grid1D, GridCyl)):
        raise TypeError(f"not a grid: {type(grid)!r}")
    cyl = isinstance(grid, GridCyl)
    state = solver1d.make_state(grid, c0)
    if cyl:
        stepper, adapter = solver_cyl.step_cyl, solver_cyl.adapt_dt_cyl
        x1 = grid.axial.centers[:, None]
    else:
        stepper, adapter = solver1d.step, solver1d.adapt_dt
        x1 = grid.centers

    mass0 = integrate(grid, state.c)
    if not mass0 > 0:
        raise ValueError("initial data must carry positive mass")
    mean = mass0 / problem.domain.volume
    try:
        # self-consistent coupling of the initial state, so the t = 0 record
        # and the first CFL clamp see the real a rather than 0
        state.a = (solver_cyl.compute_a_cyl if cyl else solver1d.compute_a)(
            problem, state, opts
        )
    except StepRejected:
        pass  # unresolvable closure at t = 0; the step loop will classify
    linf0 = float(np.max(np.abs(state.c)))
    monotone = _is_monotone_nonincreasing(state.c, linf0)
    M0 = float(np.max(axial_marginal(state))) if cyl else None
    inv_m = 1.0 / problem.m

    traj = Trajectory()
    rep = RunReport(outcome=BOUNDED, t_final=0.0)
    rep.min_c = float(np.min(state.c))
    ent_prev = entropy_of(grid, state.c)
    ent_inc_max = -math.inf
    mono_viol = -math.inf if monotone else None
    xc_max = -math.inf
    marg_inc_max = -math.inf if cyl else None
    xpow_series = []
    a_sq = 0.0
    n_guarded = 0
    samples = 0

    def sample(dt: float):
        nonlocal samples
        traces = None
        if not cyl:
            cl, cr, _ = solver1d.reconstruct_traces(state, state.a, opts)
            traces = (cl, cr)
        traj.records.append(record(state, problem, dt, stop.p_list, traces))
        if stop.store_fields_every and samples % stop.store_fields_every == 0:
            traj.fields.append((state.t, state.c.copy(), state.a))
        xpow_series.append(float(np.max(x1**inv_m * state.c)))
        samples += 1

    sample(0.0)
    outcome, reason, T_detect = None, "", None
    last_dt = 0.0
    if not np.all(np.isfinite(state.c)):
        outcome, reason = NUMERICAL_FAILURE, "non-finite initial data"
    elif rep.min_c < -_NEG_TOL * max(linf0, 1e-300):
        outcome, reason = NUMERICAL_FAILURE, f"negativity beyond tolerance in initial data: {rep.min_c:.3e}"

    while outcome is None and state.t < stop.t_end - 1e-14:
        dt = adapter(problem, state, opts)
        if dt <= opts.dt_min:
            outcome, reason, T_detect = BLOWUP, "dt reached its floor", state.t
            break
        dt = min(dt, stop.t_end - state.t)
        while True:
            try:
                new_state = stepper(problem, state, dt, opts)
                break
            except StepRejected:
                dt *= 0.5
                if dt <= opts.dt_min:
                    outcome, reason, T_detect = BLOWUP, "dt reached its floor", state.t
                    break
        if outcome is not None:
            break
        state = new_state
        last_dt = dt
        c = state.c
        if not np.all(np.isfinite(c)):
            outcome, reason = NUMERICAL_FAILURE, "non-finite field"
            break
        linf = float(np.max(np.abs(c)))
        cmin = float(np.min(c))
        rep.min_c = min(rep.min_c, cmin)
        if cmin < -_NEG_TOL * max(linf, 1e-300):
            outcome, reason = NUMERICAL_FAILURE, f"negativity beyond tolerance: {cmin:.3e}"
            break

        drift = abs(integrate(grid, c) - mass0) / mass0
        rep.mass_drift_max = max(rep.mass_drift_max, drift)
        ent = entropy_of(grid, c)
        ent_inc_max = max(ent_inc_max, ent - ent_prev)
        ent_prev = ent
        if monotone:
            mono_viol = max(mono_viol, float(np.max(np.diff(c, axis=0))) / max(linf, 1e-300))
        xc_max = max(xc_max, float(np.max(x1 * c)))
        if cyl:
            marg = axial_marginal(state)
            marg_inc_max = max(marg_inc_max, float(np.max(marg)) - M0)
        a_sq += state.a**2 * dt
        n_guarded += state.trace_guarded

        if state.step_count % stop.sample_every == 0:
            sample(dt)
        if linf >= opts.blowup_linf_threshold:
            outcome, reason, T_detect = BLOWUP, "linf crossed the blow-up threshold", state.t
            break
        if stop.converged_tol > 0.0 and linf - mean < stop.converged_tol:
            if float(np.max(np.abs(c - mean))) < stop.converged_tol:
                outcome, reason = CONVERGED, "sup-deviation below tolerance"
                break

    if outcome is None:
        outcome, reason = BOUNDED, "reached t_end"
    if traj.records[-1].t < state.t:
        sample(last_dt)
    if stop.store_fields_every and (not traj.fields or traj.fields[-1][0] < state.t):
        traj.fields.append((state.t, state.c.copy(), state.a))

    rep.outcome = outcome
    rep.reason = reason
    rep.t_final = state.t
    rep.steps = state.step_count
    rep.T_detect = T_detect
    rep.entropy_step_increase_max = None if ent_inc_max == -math.inf else ent_inc_max
    rep.monotone_violation_max = mono_viol
    rep.xc_max_ratio = xc_max / mass0 if xc_max > -math.inf else None
    rep.x1c_max_ratio = (xc_max / M0) if (cyl and M0 and xc_max > -math.inf) else None
    rep.marginal_increase_max = marg_inc_max if cyl else None
    rep.a_sq_integral = a_sq
    rep.trace_guard_steps = n_guarded
    if len(xpow_series) >= 8:
        cut = max(1, (3 * len(xpow_series)) // 4)
        rep.xpow_sup_early = max(xpow_series[:cut])
        rep.xpow_sup_late = max(xpow_series[cut:])

    recs = traj.records
    if outcome == BLOWUP:
        fit = fit_blowup(recs)
        if fit is not None:
            rep.Tstar_fit, rep.beta_fit = fit
    if outcome == CONVERGED:
        rep.lambda_fit = fit_decay(decay_tail(recs, mean), mean)
    if problem.m == 1.0 and len(recs) >= 2:
        window = _active_window(recs)
        if len(window) >= 2:
            rep.moment_residual = moment_residual(window, mass0, 1.0)
    if not cyl and len(traj.fields) >= 2:
        fields = [(t, c) for t, c, _a in traj.fields]
        if all(np.min(c) > 0.0 for _t, c in fields):
            a_vals = [a for _t, _c, a in traj.fields]
            rep.entropy_residual, rep.lp_residual, _ = dissipation_residuals(
                grid, fields, a_vals, stop.p_list[0], problem.m
            )

    phi0 = recs[0].phi
    p = default_lyapunov_p(problem.m)
    thr = thresholds(problem, mass0, phi0, p if p is not None else 0.0, M0=M0)
    rep.thresholds = {
        "N0": thr.N0,
        "critical_mass_m1": thr.critical_mass_m1,
        "half_moment_bound": thr.half_moment_bound,
        "ell": thr.ell,
        "K": thr.K,
        "Tstar_upper_bound": thr.Tstar_upper_bound,
        "K0_lyapunov": thr.K0_lyapunov,
        "small_data_radius": thr.small_data_radius,
    }
    rep.half_moment_ok = phi0 < thr.half_moment_bound
    if T_detect is not None and math.isfinite(thr.Tstar_upper_bound):
        rep.tstar_bound_ratio = T_detect / thr.Tstar_upper_bound
    return traj, rep


def _active_window(records):
    """Record pairs where the coupling is a meaningful fraction of its peak,
    so the moment-identity residual is not dominated by a near-zero RHS."""
    peak = max(abs(r.a) for r in records)
    if peak == 0.0:
        return []
    return [r for r in records if abs(r.a) >= 1e-3 * peak]
