"""Time-marching driver of both geometries around the one stepper,
solver1d.step, with solver1d.adapt_dt and solver1d.compute_a.

The loop owns adaptive stepping, step rejection, outcome classification, and
the per-step audits (mass drift, positivity, monotonicity, profile bounds,
per-step entropy change), each on one audit of one pass over the committed
field: one max and one min (a NaN or inf shows in one of them), mass and
entropy by grid.quadrature, x1 c once, and the cylinder's axial marginal,
into the buffers of one AuditWorkspace built per run.  adapt_dt and each
sample reuse it.  The loop's only products are traj and rep: it keeps the
per-step tallies in locals and writes them onto the RunReport when it
ends, each sample, its max x1^(1/m) c included, is one row of
traj.records (a diagnostics.Records table, one float64 column per
functional), and traj.fields holds only the fields snapshots.csv writes;
no field is held for any check.
_post_run, a function of traj and rep, adds the fits, the first-moment
residual, on the interval the entropy and L^p dissipation residuals, and
the thresholds problem.thresholds gives the run's law of f, each as
arithmetic on the columns of traj.records.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from . import solver1d
from .diagnostics import (
    AuditWorkspace,
    Records,
    RunReport,
    _running_max,
    axial_marginal,
    check_p_list,
    decay_tail,
    dissipation_residuals,
    entropy_of,
    fit_blowup,
    fit_decay,
    moment_residual,
    record,
)
from .grid import Grid1D, GridCyl, quadrature
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

    def __post_init__(self):
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and > 0, got {self.t_end}")
        if not self.converged_tol >= 0.0:
            raise ConfigError(f"converged_tol must be >= 0, got {self.converged_tol}")


@dataclass
class Trajectory:
    """The samples' functionals as one Records table, a row per sample, and
    the (t, c) fields snapshots.csv writes, each taken at a sample."""

    records: Records = field(default_factory=Records)
    fields: list = field(default_factory=list)


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


def run(problem: ProblemSpec, grid, c0, opts: StepOptions, stop: StopRule, p_list=(2.0,),
        snapshot_times=()):
    """March from c0 until convergence, blow-up detection, or t_end,
    recording the L^p norms of the exponents in p_list (check_p_list).

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
    Every other run ends in _post_run, which fills in the report's fits,
    moment residual, dissipation residuals (interval only, from the
    dissipation terms each sample of a positive field records) and
    thresholds.

    traj.fields keeps the t = 0 field, then one entry per time of
    snapshot_times that the run reaches, in sorted order: the first sample
    at or after it (times due at one sample share one copy of its field).
    """
    if not isinstance(grid, (Grid1D, GridCyl)):
        raise TypeError(f"not a grid: {type(grid)!r}")
    p_list = check_p_list(p_list)
    cyl = isinstance(grid, GridCyl)
    robin = opts.trace_mode == "robin"
    state = solver1d.make_state(grid, c0)
    # the audit's buffers, over the solver's column-major layout of the field
    work = AuditWorkspace(grid, state.c, problem.m)
    x1, x1c, tmp = work.x1, work.x1c, work.tmp
    vmax, vmin = np.maximum.reduce, np.minimum.reduce  # c.max() and c.min() without their wrappers

    def audit(c) -> tuple:
        """(mass, entropy, linf, min, max x1 c, max of the axial marginal or
        None on the interval) of the field c, with x1 c left in work.x1c.
        The cylinder's mass is the weighted sum of its axial marginal, so the
        marginal bound costs no extra pass."""
        cmax, cmin = float(vmax(c, None)), float(vmin(c, None))
        if cyl:
            marg = axial_marginal(grid, c)
            mass, marg_max = float(marg.dot(grid.vol)), float(vmax(marg))
        else:
            mass, marg_max = quadrature(grid, c), None
        np.multiply(x1, c, out=x1c)
        # max(cmax, -cmin) is max |c|, and NaN (both extremes are) or inf
        # when c holds a NaN or an inf
        return (mass, entropy_of(grid, c, cmin, tmp), max(cmax, -cmin), cmin, float(vmax(x1c, None)),
                marg_max)

    mass0, ent, linf, cmin, _xmax, M0 = au = audit(state.c)
    failure = _field_failure(linf, cmin)
    if failure is None and not mass0 > 0:
        raise ValueError("initial data must carry positive mass")
    mean = mass0 / problem.domain.volume
    try:
        # self-consistent coupling of the initial state, so the t = 0 record
        # and the first CFL clamp see the real a rather than 0
        state.a = solver1d.compute_a(problem, state, opts)
    except StepRejected:
        pass  # unresolvable closure at t = 0; the step loop will classify
    traj = Trajectory(Records(p_list))
    recs = traj.records
    want = sorted(snapshot_times)

    def sample(dt: float, au: tuple):
        """Record the current state, whose audit is au."""
        first = len(recs) == 0
        record(recs, state, problem, dt, solver1d.end_traces(state), au, work)
        due = bisect_right(want, state.t)  # requested times now reached
        del want[:due]
        if first or due:  # the t = 0 field, then one entry per due time, all one copy
            traj.fields += [(state.t, state.c.copy())] * (first + due)

    sample(0.0, au)
    if failure is not None:
        reason = f"{failure} in the initial data"
        return traj, RunReport(outcome=NUMERICAL_FAILURE, reason=reason, min_c=cmin)
    monotone = work.rise_max(state.c) <= 1e-12 * linf
    # the per-step tallies, written onto the report when the loop ends; each
    # maximum starts at -inf, or is None where it does not apply
    outcome, reason, T_detect = BOUNDED, "reached t_end", None
    min_c, drift, a_sq, guard = cmin, 0.0, 0.0, 0
    ent_inc = xc_ratio = -math.inf
    mono = -math.inf if monotone else None
    x1c_ratio = marg_inc = -math.inf if cyl else None
    last_dt = 0.0

    while state.t < stop.t_end - 1e-14:
        dt = solver1d.adapt_dt(problem, state, opts, linf)
        if dt <= opts.dt_min:
            outcome, reason, T_detect = BLOWUP, "dt reached its floor", state.t
            break
        try:
            state, dt = _step_halving(problem, state, min(dt, stop.t_end - state.t), opts)
        except StepRejected as e:
            outcome, reason = NUMERICAL_FAILURE, f"step rejected down to the dt floor: {e}"
            break
        last_dt, ent_prev = dt, ent
        mass, ent, linf, cmin, xmax, marg_max = au = audit(state.c)
        min_c = min(min_c, cmin)
        failure = _field_failure(linf, cmin)
        if failure is not None:
            outcome, reason = NUMERICAL_FAILURE, failure
            break

        drift = max(drift, abs(mass - mass0) / mass0)
        ent_inc = max(ent_inc, ent - ent_prev)
        if monotone:
            mono = max(mono, work.rise_max(state.c) / max(linf, 1e-300))
        # bitwise max(x1c_max) / M: dividing by M > 0 and rounding keep order
        xc_ratio = max(xc_ratio, xmax / mass0)
        if cyl:
            x1c_ratio = max(x1c_ratio, xmax / M0)
            marg_inc = max(marg_inc, marg_max - M0)
        a_sq += state.a**2 * dt
        guard += robin and not all(state.robin_ends)

        if state.step_count % stop.sample_every == 0:
            sample(dt, au)
        if linf >= opts.blowup_linf_threshold:
            outcome, reason, T_detect = BLOWUP, "linf crossed the blow-up threshold", state.t
            break
        if stop.converged_tol > 0.0 and linf - mean < stop.converged_tol:
            if float(vmax(np.abs(np.subtract(state.c, mean, out=tmp), out=tmp), None)) < stop.converged_tol:
                outcome, reason = CONVERGED, "sup-deviation below tolerance"
                break

    rep = RunReport(outcome=outcome, reason=reason, t_final=state.t, steps=state.step_count,
                    T_detect=T_detect, entropy_step_increase_max=ent_inc, mass_drift_max=drift,
                    min_c=min_c, monotone_violation_max=mono, xc_max_ratio=xc_ratio,
                    x1c_max_ratio=x1c_ratio, marginal_increase_max=marg_inc, a_sq_integral=a_sq,
                    trace_guard_steps=guard)
    if recs.t[-1] < state.t:
        sample(last_dt, au)
    _post_run(problem, grid, traj, rep)
    return traj, rep


def _post_run(problem, grid, traj, rep) -> None:
    """Fill in rep from what run recorded, once its loop has ended: the
    per-step maxima as None if no step passed the audit, the split of the
    samples' max x1^(1/m) c, the outcome's rate fit, the first-moment
    residual, on the interval the dissipation residuals, and the thresholds
    that hold for the run's law of f.  The fits and the residuals are called
    through this module's names, which perfbench's tracer patches."""
    recs = traj.records
    mass0 = float(recs.mass[0])
    if rep.xc_max_ratio == -math.inf:
        rep.entropy_step_increase_max = rep.monotone_violation_max = rep.xc_max_ratio = None
        rep.x1c_max_ratio = rep.marginal_increase_max = None
    if len(recs) >= 8:
        cut = max(1, (3 * len(recs)) // 4)
        # as Python's max takes them: a NaN wins only as a first sample
        xpow = recs.xpow
        rep.xpow_sup_early = _running_max(float(xpow[0]), xpow[1:cut])
        rep.xpow_sup_late = _running_max(float(xpow[cut]), xpow[cut + 1 :])

    if rep.outcome == BLOWUP:
        fit = fit_blowup(recs)
        if fit is not None:
            rep.Tstar_fit, rep.beta_fit = fit
    if rep.outcome == CONVERGED:
        mean = mass0 / problem.domain.volume
        rep.lambda_fit = fit_decay(decay_tail(recs, mean), mean)
    if len(recs) >= 2:
        rep.moment_residual = moment_residual(recs, mass0, problem.domain.cross_section_volume)
        if isinstance(grid, Grid1D):
            rep.entropy_residual, rep.lp_residual = dissipation_residuals(recs)

    M0 = None if isinstance(grid, Grid1D) else float(np.max(axial_marginal(grid, traj.fields[0][1])))
    phi0 = float(recs.phi[0])
    thr = thresholds(problem, mass0, phi0, M0=M0)
    rep.thresholds = asdict(thr)
    rep.half_moment_ok = phi0 < thr.half_moment_bound
    if rep.T_detect is not None and math.isfinite(thr.Tstar_upper_bound):
        rep.tstar_bound_ratio = rep.T_detect / thr.Tstar_upper_bound
