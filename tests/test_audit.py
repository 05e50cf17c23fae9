"""Differential test of the runner's one-pass per-step audit against the
separate-pass formulas it replaced.

The reference recomputes every audit from the states the run committed, one
quantity per pass: isfinite, max |c|, min c, mass by `integrate`, entropy by
the masked `np.where` integrand, x1 c and the axial marginal each on their
own, and each sampled record from scratch.  Every domain integral is
grid.integrate on both sides, so the run must give bitwise the same t, dt,
a, linf, mass, entropy, phi and lp in every sample of traj.records (the audit's
linf is the one adapt_dt uses, so dt pins it), bitwise the dissipation terms
the allocating dissipation_terms gives each positive interval sample (NaN
for any other), and bitwise the same report fields built from them.  One
case keeps exact zero cells in every field, so that each audit takes the
entropy's np.where branch and each record the NaN terms.  Only the cylinder's marginal fields agree to 1e-13
relative: the reference sums the axial marginal as np.sum over the axis, in
another order than the runner's dot product.

A second test checks that a cylinder record's c_left is the Robin-closed
mean of the left end row whenever the coupling solve left that end on its
Robin trace.

A third test drives the runner with a stepper that returns non-finite
fields: NaN, +inf alone or -inf alone must each end as NUMERICAL_FAILURE
with reason "non-finite field", never as BLOWUP or a negativity failure.
Their reports' first-moment residual and x1^(1/m) c split come from the
columns of traj.records; they must equal Python's max over the samples as
a loop takes it, where a NaN sample never wins unless it comes first.
A fourth has every step rejected, by the coupling or by a NaN solve, so
that halving takes dt to its floor: a NUMERICAL_FAILURE too, never a BLOWUP.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cellflux import harness, presets, runner, solver1d
from cellflux.diagnostics import dissipation_terms, lp_norm
from cellflux.grid import GridCyl, integrate

REL = 1e-13  # the marginal fields only

# preset, stop-rule and step-option overrides giving a short run with at
# least 8 samples
CASES = [
    ("critical_mass_exact", {"t_end": 0.01}, {}),
    ("heat_decay", {"t_end": 0.01}, {}),
    ("cyl_blowup", {"t_end": 5e-5}, {}),
    ("cyl_reduction", {"t_end": 5e-3}, {}),
    ("absorbing_m2", {"t_end": 0.01}, {}),  # m = 2: x1^(1/m) c differs from x1 c
    # steps of 1e-9 leave most cells beyond the data's support exact zeros
    # (what diffuses into them underflows), in every committed field
    ("critical_mass_exact", {"t_end": 5e-8}, {"dt_max": 1e-9}),
]
IDS = [f"{name}-stop{i}" for i, (name, _stop, _step) in enumerate(CASES[:-1])] + ["zero_cells"]


def ref_entropy(grid, c):
    s = np.where(c > 1e-300, c * np.log(np.maximum(c, 1e-300)), 0.0)
    return integrate(grid, s)


def ref_x1(grid):
    return grid.axial.centers[:, None] if isinstance(grid, GridCyl) else grid.centers


def ref_record(grid, c, p_list):
    """The functionals record() computed before the audit was shared."""
    return {
        "mass": integrate(grid, c),
        "entropy": ref_entropy(grid, c),
        "lp": {p: lp_norm(grid, c, p) for p in p_list},
        "linf": float(np.max(np.abs(c))),
        "phi": integrate(grid, ref_x1(grid) * c),
    }


def ref_audit(grid, states, m):
    """Report fields of the separate-pass audit over the committed states
    (the initial state first)."""
    cyl = isinstance(grid, GridCyl)
    x1 = ref_x1(grid)
    c0 = states[0].c
    mass0 = integrate(grid, c0)
    marg0 = np.sum(grid.axial.widths[:, None] * c0, axis=0) if cyl else None
    M0 = float(np.max(marg0)) if cyl else None
    monotone = float(np.max(np.diff(c0, axis=0))) <= 1e-12 * float(np.max(np.abs(c0)))
    out = {"min_c": float(np.min(c0)), "mass_drift_max": 0.0}
    ent_prev = ref_entropy(grid, c0)
    ent_inc, mono, xc, marg_inc = [], [], [], []
    for s in states[1:]:
        c = s.c
        assert np.all(np.isfinite(c))
        linf = float(np.max(np.abs(c)))
        out["min_c"] = min(out["min_c"], float(np.min(c)))
        out["mass_drift_max"] = max(out["mass_drift_max"], abs(integrate(grid, c) - mass0) / mass0)
        ent = ref_entropy(grid, c)
        ent_inc.append(ent - ent_prev)
        ent_prev = ent
        if monotone:
            mono.append(float(np.max(np.diff(c, axis=0))) / max(linf, 1e-300))
        xc.append(float(np.max(x1 * c)))
        if cyl:
            marg_inc.append(float(np.max(np.sum(grid.axial.widths[:, None] * c, axis=0))) - M0)
    out["entropy_step_increase_max"] = max(ent_inc)
    out["monotone_violation_max"] = max(mono) if monotone else None
    out["xc_max_ratio"] = max(xc) / mass0
    out["x1c_max_ratio"] = max(xc) / M0 if cyl else None
    out["marginal_increase_max"] = max(marg_inc) if cyl else None
    return out, mass0, M0


def moment_residual_reference(recs, M, B, eps=1e-10):
    """diagnostics.moment_residual as one Python loop over the record pairs,
    each defect folded in by Python's max; a pair with a non-finite linf at
    either end is left out, and None stands for no pair left."""
    t, a, phi, cl, cr, linf = (getattr(recs, key).tolist()
                               for key in ("t", "a", "phi", "c_left", "c_right", "linf"))
    worst = None
    for k in range(len(t) - 1):
        dt = t[k + 1] - t[k]
        if dt <= 0 or not (math.isfinite(linf[k]) and math.isfinite(linf[k + 1])):
            continue
        coupling = 0.5 * (a[k] + a[k + 1]) * M
        boundary = 0.5 * (cr[k] - cl[k] + cr[k + 1] - cl[k + 1]) * B
        res = abs((phi[k + 1] - phi[k]) / dt - coupling + boundary)
        rel = res / max(abs(coupling), abs(boundary), eps)
        if not math.isnan(rel):
            worst = rel if worst is None else max(worst, rel)
    return worst


def poisoned_run(monkeypatch, name, bad, at):
    """(cfg, traj, rep) of the preset's run with one cell of the field that
    step `at` commits set to bad."""
    cfg = presets.preset_config(name)
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    real = solver1d.step

    def poisoned(problem, state, dt, opts):
        new = real(problem, state, dt, opts)
        if new.step_count == at:
            new.c[(1,) * new.c.ndim] = bad
        return new

    monkeypatch.setattr(solver1d, "step", poisoned)
    traj, rep = runner.run(cfg.problem, grid, c0, cfg.step, cfg.stop)
    return cfg, traj, rep


def capture_states(monkeypatch):
    """Wrap the stepper so every committed state and the dt it was asked
    for are kept; returns the list they go into."""
    committed = []
    real = solver1d.step

    def wrapper(problem, state, dt, opts):
        new = real(problem, state, dt, opts)
        committed.append((dt, new))
        return new

    monkeypatch.setattr(solver1d, "step", wrapper)
    return committed


@pytest.mark.parametrize("name,stop,step", CASES, ids=IDS)
def test_one_pass_audit_matches_separate_passes(monkeypatch, name, stop, step):
    cfg = presets.preset_config(name)
    cfg = replace(cfg, stop=replace(cfg.stop, **stop), step=replace(cfg.step, **step))
    prob, opts = cfg.problem, cfg.step
    grid = cfg.grid.build(prob.domain)
    c0 = harness.build_initial(cfg.initial, grid, prob.domain, cfg.seed)
    committed = capture_states(monkeypatch)
    traj, rep = runner.run(prob, grid, c0, opts, cfg.stop, cfg.p_list)
    assert rep.outcome == "BOUNDED" and rep.steps == len(committed) >= 8

    # the initial state as the runner saw it: c0 with its self-consistent a
    state0 = solver1d.make_state(grid, c0)
    state0.a = traj.records.a[0]
    states = [state0] + [s for _dt, s in committed]
    dts = [0.0] + [dt for dt, _s in committed]
    by_t = {s.t: (dt, s) for dt, s in zip(dts, states)}
    if step:  # the zero_cells case
        assert all(s.c.min() == 0.0 for s in states)

    # records bitwise
    recs = traj.records
    assert len(recs) >= 8
    for k, t in enumerate(recs.t):
        dt, s = by_t[t]
        want = ref_record(grid, s.c, cfg.p_list)
        assert (recs.t[k], recs.dt[k], recs.a[k], recs.linf[k]) == (s.t, dt, s.a, want["linf"])
        for key in ("mass", "entropy", "phi"):
            assert getattr(recs, key)[k] == want[key], key
        assert {p: col[k] for p, col in recs.lp.items()} == want["lp"]
        terms = [float(getattr(recs, key)[k]) for key in ("diss_s", "coup_s", "diss_p", "coup_p")]
        if isinstance(grid, GridCyl) or not s.c.min() > 0.0:
            assert np.isnan(terms).all()
        else:
            want_terms = dissipation_terms(grid, s.c, s.a, cfg.p_list[0])
            assert [x.hex() for x in terms] == [x.hex() for x in want_terms]

    # dt of every step from the separate-pass linf (no rejections, no t_end clamp)
    for prev, (dt, _s) in zip(states[:-1], committed):
        linf = float(np.max(np.abs(prev.c)))
        want = min(opts.dt_max, opts.cfl * grid.axial.h_min / max(abs(prev.a), 1e-12),
                   opts.c_bu / (1.0 + linf ** (2.0 * prob.m)))
        assert dt == min(want, cfg.stop.t_end - prev.t)

    want, mass0, M0 = ref_audit(grid, states, prob.m)
    for key in ("min_c", "monotone_violation_max", "mass_drift_max",
                "entropy_step_increase_max", "xc_max_ratio"):
        assert getattr(rep, key) == want[key], key
    if M0 is None:
        assert rep.x1c_max_ratio is None and rep.marginal_increase_max is None
    else:
        assert rep.x1c_max_ratio == pytest.approx(want["x1c_max_ratio"], rel=REL, abs=0.0)
        assert abs(rep.marginal_increase_max - want["marginal_increase_max"]) <= REL * M0

    # x1^(1/m) c of each sample, on its record and split 3:1 as the runner splits it
    xpow = [float(np.max(ref_x1(grid) ** (1.0 / prob.m) * by_t[t][1].c)) for t in recs.t]
    assert recs.xpow.tolist() == xpow
    cut = max(1, (3 * len(xpow)) // 4)
    assert (rep.xpow_sup_early, rep.xpow_sup_late) == (max(xpow[:cut]), max(xpow[cut:]))


def test_cylinder_records_robin_closed_cap_means(monkeypatch):
    # on cyl_blowup the left end stays on its Robin trace and the coarse
    # right end latches into cell mode
    cfg = presets.preset_config("cyl_blowup")
    cfg = replace(cfg, stop=replace(cfg.stop, t_end=5e-5))
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    committed = capture_states(monkeypatch)
    traj, _rep = runner.run(cfg.problem, grid, c0, cfg.step, cfg.stop)
    by_t = {s.t: s for _dt, s in committed}
    h0, B = float(grid.axial.widths[0]), grid.ball_volume
    recs = traj.records
    assert len(recs) > 8
    for t, c_left, c_right in zip(recs.t[1:], recs.c_left[1:], recs.c_right[1:]):
        s = by_t[t]
        assert s.robin_ends == (True, False)
        assert c_left == pytest.approx((grid.vol @ s.c[0] / B) / (1.0 + 0.5 * s.a * h0), rel=1e-14)
        assert c_right == pytest.approx(grid.vol @ s.c[-1] / B, rel=1e-14)


@pytest.mark.parametrize("name", ["critical_mass_exact", "cyl_blowup"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_is_a_numerical_failure(monkeypatch, name, bad):
    cfg, traj, rep = poisoned_run(monkeypatch, name, bad, 3)
    assert (rep.outcome, rep.reason) == ("NUMERICAL_FAILURE", "non-finite field")
    assert rep.steps == 3 and rep.T_detect is None
    assert traj.records.t[-1] == rep.t_final
    # the non-finite final sample is recorded, and its pair is left out of
    # every residual
    recs = traj.records
    assert not math.isfinite(recs.linf[-1])
    want = moment_residual_reference(recs, recs.mass[0], cfg.problem.domain.cross_section_volume)
    assert rep.moment_residual == want
    for res in (rep.moment_residual, rep.entropy_residual, rep.lp_residual):
        assert res is None or math.isfinite(res)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_final_sample_splits_xpow_as_a_loop_does(monkeypatch, bad):
    # cyl_blowup samples every step: 13 samples, split 9:4, the last one
    # non-finite; a NaN never wins either maximum, an inf does
    cfg, traj, rep = poisoned_run(monkeypatch, "cyl_blowup", bad, 12)
    recs = traj.records
    assert (rep.outcome, len(recs)) == ("NUMERICAL_FAILURE", 13)
    xpow = recs.xpow.tolist()
    assert (rep.xpow_sup_early, rep.xpow_sup_late) == (max(xpow[:9]), max(xpow[9:]))
    assert math.isfinite(rep.xpow_sup_early) and math.isfinite(rep.xpow_sup_late) == (bad != np.inf)
    want = moment_residual_reference(recs, recs.mass[0], cfg.problem.domain.cross_section_volume)
    assert rep.moment_residual.hex() == want.hex()


@pytest.mark.parametrize("name", ["critical_mass_exact", "cyl_blowup"])
@pytest.mark.parametrize("cause", ["coupling", "solve"])
def test_rejections_down_to_the_dt_floor_are_a_numerical_failure(monkeypatch, name, cause):
    # every step is rejected, so halving takes dt to dt_min at t = 0: one
    # evaluation of g never converges the coupling, and a NaN face-flux
    # solve fails the pass's finiteness check
    cfg = presets.preset_config(name)
    opts = cfg.step
    if cause == "coupling":
        opts = replace(opts, picard_max_iters=1)
        said = "coupling iteration on a did not converge"
    else:
        def nan_solve(d, e, b, *bind):  # "solves" in place, as solve_banded does
            b.fill(np.nan)
            return b

        monkeypatch.setattr(solver1d, "solve_banded", nan_solve)
        said = "tridiagonal solve produced non-finite values"
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    traj, rep = runner.run(cfg.problem, grid, c0, opts, cfg.stop)
    assert rep.outcome == "NUMERICAL_FAILURE"
    assert rep.reason.startswith(f"step rejected down to the dt floor: {said}")
    assert rep.steps == 0 and rep.t_final == 0.0 and rep.T_detect is None
    assert len(traj.records) == 1
    # no committed step: each per-step maximum is null, never its -inf start
    for key in ("entropy_step_increase_max", "monotone_violation_max", "xc_max_ratio",
                "x1c_max_ratio", "marginal_increase_max"):
        assert getattr(rep, key) is None, key


def test_blowup_clamp_at_the_dt_floor_stays_a_blowup(monkeypatch):
    # dt driven to its floor by adapt_dt, not by rejections, is a blow-up
    cfg = presets.preset_config("critical_mass_exact")
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    monkeypatch.setattr(solver1d, "adapt_dt", lambda problem, state, opts, linf: opts.dt_min)
    _traj, rep = runner.run(cfg.problem, grid, c0, cfg.step, cfg.stop)
    assert (rep.outcome, rep.reason, rep.T_detect) == ("BLOWUP", "dt reached its floor", 0.0)
