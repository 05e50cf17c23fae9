"""Time-marching driver of both geometries around the one stepper,
solver1d.step, with solver1d.adapt_dt and solver1d.compute_a.

The loop owns adaptive stepping, step rejection, outcome classification, and
the per-step audits (mass drift, positivity, monotonicity, profile bounds,
per-step entropy change), each on one Audit of one pass over the committed
field: one max and one min (a NaN or inf shows in one of them), mass and
entropy by grid.integrate, x1 c once, and the cylinder's axial marginal.
adapt_dt and each sample reuse it.  The loop's only products are traj and
rep: per-step tallies go on the RunReport, each sample, its max x1^(1/m) c
included, is one row of traj.records (a diagnostics.Records table, one
float64 column per functional), and (t, c) snapshots past traj.fields[0] are
kept, at samples, only if asked; no field is held for any check.
_post_run, a function of traj and rep, adds the fits, the first-moment
residual, on the interval the entropy and L^p dissipation residuals, and
the thresholds problem.thresholds gives the run's law of f, each as
arithmetic on the columns of traj.records.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import solver1d
from .diagnostics import (
    Audit,
    Records,
    RunReport,
    _running_max,
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
    """The samples' functionals as one Records table, a row per sample, and
    (t, c) field snapshots, each taken at a sample; fields[0] is t = 0."""

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
    Every other run ends in _post_run, which fills in the report's fits,
    moment residual, dissipation residuals (interval only, from the
    dissipation terms each sample of a positive field records) and
    thresholds.

    traj.fields keeps the t = 0 field, every store_fields_every-th sample and
    then the final state, and the first sample at or after each of
    snapshot_times.
    """
    if not isinstance(grid, (Grid1D, GridCyl)):
        raise TypeError(f"not a grid: {type(grid)!r}")
    cyl = isinstance(grid, GridCyl)
    robin = opts.trace_mode == "robin"
    state = solver1d.make_state(grid, c0)
    x1 = axial_coordinate(grid)
    x1_pow = x1 ** (1.0 / problem.m)
    if np.array_equal(x1_pow, x1):
        x1_pow = None  # m = 1: the audit's max of x1 c serves

    def audit(state) -> Audit:
        """The Audit of the state's field.  The cylinder's mass is the
        weighted sum of its axial marginal, so the marginal bound costs no
        extra pass."""
        c = state.c
        cmax, cmin = float(c.max()), float(c.min())
        if cyl:
            marg = axial_marginal(grid, c)
            mass, marg_max = float(marg @ grid.vol), float(np.max(marg))
        else:
            mass, marg_max = integrate(grid, c), None
        x1c = x1 * c
        # max(cmax, -cmin) is max |c|, and NaN (both extremes are) or inf
        # when c holds a NaN or an inf
        return Audit(mass=mass, entropy=entropy_of(grid, c, cmin), linf=max(cmax, -cmin),
                     min=cmin, x1c=x1c, x1c_max=float(x1c.max()), marg_max=marg_max)

    au = audit(state)
    mass0 = au.mass
    failure = _field_failure(au.linf, au.min)
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
    every = stop.store_fields_every
    want = sorted(snapshot_times)

    # au is the audit of the current state in sample
    def sample(dt: float):
        n = len(recs)
        xpow = au.x1c_max if x1_pow is None else float(np.max(x1_pow * state.c))
        record(recs, state, problem, dt, solver1d.end_traces(state), au, xpow)
        snap = bool(want) and state.t >= want[0]
        while want and state.t >= want[0]:
            want.pop(0)
        if n == 0 or (every and n % every == 0) or snap:
            traj.fields.append((state.t, state.c.copy()))

    sample(0.0)
    if failure is not None:
        reason = f"{failure} in the initial data"
        return traj, RunReport(outcome=NUMERICAL_FAILURE, reason=reason, min_c=au.min)
    # (c[1:] - c[:-1]).max() is np.max(np.diff(c, axis=0)) without its overhead
    monotone = float((state.c[1:] - state.c[:-1]).max()) <= 1e-12 * au.linf
    # each per-step maximum starts at -inf, or None where it does not apply
    rep = RunReport(outcome=BOUNDED, reason="reached t_end", min_c=au.min,
                    entropy_step_increase_max=-math.inf, xc_max_ratio=-math.inf,
                    monotone_violation_max=-math.inf if monotone else None,
                    x1c_max_ratio=-math.inf if cyl else None,
                    marginal_increase_max=-math.inf if cyl else None)
    M0 = au.marg_max
    last_dt = 0.0

    while state.t < stop.t_end - 1e-14:
        dt = solver1d.adapt_dt(problem, state, opts, au.linf)
        if dt <= opts.dt_min:
            rep.outcome, rep.reason, rep.T_detect = BLOWUP, "dt reached its floor", state.t
            break
        try:
            state, dt = _step_halving(problem, state, min(dt, stop.t_end - state.t), opts)
        except StepRejected as e:
            rep.outcome, rep.reason = NUMERICAL_FAILURE, f"step rejected down to the dt floor: {e}"
            break
        last_dt = dt
        prev, au = au, audit(state)
        rep.min_c = min(rep.min_c, au.min)
        failure = _field_failure(au.linf, au.min)
        if failure is not None:
            rep.outcome, rep.reason = NUMERICAL_FAILURE, failure
            break

        c, linf = state.c, au.linf
        rep.mass_drift_max = max(rep.mass_drift_max, abs(au.mass - mass0) / mass0)
        rep.entropy_step_increase_max = max(rep.entropy_step_increase_max, au.entropy - prev.entropy)
        if monotone:
            rep.monotone_violation_max = max(rep.monotone_violation_max,
                                             float((c[1:] - c[:-1]).max()) / max(linf, 1e-300))
        # bitwise max(x1c_max) / M: dividing by M > 0 and rounding keep order
        rep.xc_max_ratio = max(rep.xc_max_ratio, au.x1c_max / mass0)
        if cyl:
            rep.x1c_max_ratio = max(rep.x1c_max_ratio, au.x1c_max / M0)
            rep.marginal_increase_max = max(rep.marginal_increase_max, au.marg_max - M0)
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

    rep.t_final, rep.steps = state.t, state.step_count
    if recs.t[-1] < state.t:
        sample(last_dt)
    if every and traj.fields[-1][0] < state.t:  # the final state, kept on a cadence
        traj.fields.append((state.t, state.c.copy()))
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
