import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflux.diagnostics import (
    COLUMNS,
    Audit,
    Records,
    axial_coordinate,
    axial_marginal,
    decay_tail,
    dissipation_residuals,
    entropy_of,
    fit_blowup,
    fit_decay,
    lp_norm,
    moment_residual,
    moment_residual_m1,
    record,
)
from cellflux import solver1d
from cellflux.grid import GridCyl, build_grid_1d, build_grid_cyl, integrate
from cellflux.harness import InitialConfig, build_initial
from cellflux.presets import preset_config
from cellflux.problem import DomainSpec, NonlinearitySpec, ProblemSpec
from cellflux.runner import StopRule, run
from cellflux.solver1d import StepOptions, end_traces, make_state


def interval_problem(m=1.0, kind="signed_power", chi=1.0):
    return ProblemSpec(
        nonlinearity=NonlinearitySpec(kind=kind, m=m),
        domain=DomainSpec(geometry="interval", L=1.0),
        chi=chi,
    )


def table(t, **cols):
    """A Records of samples at the times t, with the given columns, each a
    sequence as long as t; mass is 1 and every other column 0."""
    vals = {name: np.zeros(len(t)) for name in COLUMNS}
    vals["mass"] = np.ones(len(t))
    vals.update(t=t, **cols)
    recs = Records()
    for k in range(len(t)):
        recs.append(**{name: vals[name][k] for name in COLUMNS})
    return recs


# --- record ----------------------------------------------------------------


def audit_of(state) -> Audit:
    """The Audit the runner's per-step audit makes of a state."""
    c = state.c
    x1c = axial_coordinate(state.grid) * c
    return Audit(mass=integrate(state.grid, c), entropy=entropy_of(state.grid, c),
                 linf=float(np.max(np.abs(c))), min=float(np.min(c)), x1c=x1c,
                 x1c_max=float(np.max(x1c)),
                 marg_max=float(np.max(axial_marginal(state.grid, c)))
                 if isinstance(state.grid, GridCyl) else None)


def sample(state, problem, p_list=(2.0,)):
    """The one-row Records that record() makes of a state, with the audit
    and traces the runner passes."""
    recs = Records(p_list)
    record(recs, state, problem, 0.0, end_traces(state), audit_of(state), 0.0)
    assert len(recs) == 1
    return recs


def sampled(grid, ts, cs, a_vals, p=2.0):
    """The Records that record() makes of the 1D fields cs at the times ts
    with the couplings a_vals, one sample each."""
    recs = Records((p,))
    for t, c, a in zip(ts, cs, a_vals):
        s = make_state(grid, c)
        s.t, s.a = t, a
        record(recs, s, interval_problem(), 0.0, end_traces(s), audit_of(s), 0.0)
    return recs


def test_record_constant_state_values():
    g = build_grid_1d(1.0, 64)
    s = make_state(g, np.ones(64))
    r = sample(s, interval_problem())
    assert r.mass[0] == pytest.approx(1.0)
    assert r.entropy[0] == pytest.approx(0.0, abs=1e-15)
    assert r.phi[0] == pytest.approx(0.5, rel=1e-12)
    assert r.lp[2.0][0] == pytest.approx(1.0)

    s2 = make_state(g, np.full(64, 2.0))
    r2 = sample(s2, interval_problem())
    assert r2.entropy[0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert r2.lp[2.0][0] == pytest.approx(2.0)


def test_record_cylinder_mass_and_velocity():
    g = build_grid_cyl(1.0, 1.0, 3, 8, 4)
    s = make_state(g, np.ones((8, 4)))
    s.a = -2.0
    p = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
        domain=DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=3),
        chi=3.0,
    )
    r = sample(s, p)
    assert r.mass[0] == pytest.approx(math.pi, rel=1e-13)
    # u = -chi a / |Omega|
    assert r.u[0] == pytest.approx(3.0 * 2.0 / math.pi, rel=1e-13)


def test_records_columns_grow_and_select():
    # 150 rows outgrow the first buffer twice
    recs = Records((2.0, 3.0))
    for k in range(150):
        recs.append(*[float(k + j) for j in range(len(COLUMNS))], lp=(0.5 * k, 0.25 * k))
    assert len(recs) == 150
    for j, name in enumerate(COLUMNS):
        assert getattr(recs, name).tolist() == [float(k + j) for k in range(150)], name
    assert list(recs.lp) == [2.0, 3.0] and recs.lp[3.0][-1] == 0.25 * 149
    tail = recs[recs.t >= 140.0]
    assert len(tail) == 10 and tail.a.tolist() == recs.a[140:].tolist() and tail.lp[2.0][0] == 70.0
    assert recs[145:].c_left.tolist() == recs.c_left[145:].tolist()
    # a selection is a table of its own: appending to it leaves recs as it was
    tail.append(*[0.0] * len(COLUMNS), lp=(0.0, 0.0))
    assert len(tail) == 11 and len(recs) == 150 and recs.t[-1] == 149.0


def test_a_retained_sample_costs_under_256_bytes():
    # cyl_blowup samples every step; what its trajectory holds is freed with
    # it, so the bytes traced before and after `del traj` are its cost
    cfg = preset_config("cyl_blowup")
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    stop = replace(cfg.stop, t_end=2.5e-4)
    tracemalloc.start()
    try:
        traj, _rep = run(cfg.problem, grid, c0, cfg.step, stop, cfg.p_list)
        n = len(traj.records)
        held = tracemalloc.get_traced_memory()[0]
        del traj
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n >= 2000
    assert freed < 256 * n, f"{freed / n:.0f} bytes per sample"


def test_entropy_extends_by_zero_at_vacuum():
    g = build_grid_1d(1.0, 4)
    c = np.array([0.0, 0.0, 2.0, 0.0])
    assert entropy_of(g, c) == pytest.approx(0.25 * 2.0 * math.log(2.0))


# --- moment residual --------------------------------------------------------


def test_moment_residual_zero_on_constant_records():
    recs = table(0.1 * np.arange(5), phi=np.full(5, 0.5))
    assert moment_residual_m1(recs, M=1.0) == 0.0
    assert moment_residual(recs, M=1.0, B=1.0) == 0.0


def test_moment_residual_exact_on_synthetic_identity():
    # phi(t) = phi0 + (M-1) int a dt with a(t) = sin(t): midpoint-rule error
    # only, far below the 1e-3 scale of real runs
    M = 2.0
    ts = np.linspace(0.0, 1.0, 400)
    recs = table(ts, phi=0.3 + (M - 1.0) * (1.0 - np.cos(ts)), a=np.sin(ts))
    assert moment_residual_m1(recs, M=M) < 2e-6


@pytest.mark.parametrize("B", [1.0, math.pi])
def test_general_moment_residual_exact_on_synthetic_identity(B):
    # phi' = a M - B (c_right - c_left) with a(t) = sin(t) and a trace
    # difference 0.7 cos(2t) that is not a: midpoint-rule error only, about
    # dt^2/24 times the curvature, 2e-6 at dt = 1/399
    M = 1.5
    ts = np.linspace(0.0, 1.0, 400)
    recs = table(ts, phi=0.3 + M * (1.0 - np.cos(ts)) - B * 0.35 * np.sin(2.0 * ts),
                 a=np.sin(ts), c_left=np.full(len(ts), 0.2), c_right=0.2 + 0.7 * np.cos(2.0 * ts))
    assert moment_residual(recs, M=M, B=B) < 1e-5
    # the (M - 1) a form misses the trace term
    assert moment_residual_m1(recs, M=M) > 0.1


def test_moment_residual_needs_two_records():
    with pytest.raises(ValueError):
        moment_residual_m1(table([0.0]), M=1.0)
    with pytest.raises(ValueError):
        moment_residual(table([0.0]), M=1.0, B=1.0)


def test_moment_residual_on_genuine_run_small_and_refining():
    # the m = 1 moment identity phi' = (M-1) a holds up to trace-closure and
    # upwind-bias error, vanishing at first order under simultaneous (h, dt)
    # refinement; the window starts after the boundary-layer equilibration
    def residual(N):
        g = build_grid_1d(1.0, N)
        F = -0.25 * np.clip(1.0 - 4.0 * g.interfaces, 0.0, None) ** 3
        c0 = (F[1:] - F[:-1]) / g.widths
        traj, _rep = run(
            interval_problem(), g, c0,
            StepOptions(dt_max=0.05 / N, trace_mode="cell"),
            StopRule(t_end=0.17, sample_every=1),
        )
        t = traj.records.t
        recs = traj.records[(0.05 <= t) & (t <= 0.15)]
        return moment_residual_m1(recs, recs.mass[0])

    r512 = residual(512)
    assert r512 <= 1e-3
    r1024 = residual(1024)
    assert r1024 <= 0.65 * r512


LAWS = [("signed_power", 1.0), ("signed_power", 2.0), ("negative_power", 1.0),
        ("negative_power", 2.0), ("sublinear_power", 0.5), ("saturating", 1.0)]


@pytest.mark.parametrize("trace_mode", ["cell", "robin"])
@pytest.mark.parametrize("geometry", ["interval", "cylinder"])
@pytest.mark.parametrize("kind,m", LAWS)
def test_general_moment_residual_small_on_every_law(kind, m, geometry, trace_mode):
    # the report's moment_residual checks phi' = a M - B (c_right - c_left),
    # which holds for every law of f (the (M - 1) a form reads 2.0 on the
    # absorbing_m1 preset).  Data of mass 1 on both geometries; the unit
    # cylinder's B = pi enters the identity.
    N = 64
    domain = DomainSpec(geometry="interval", L=1.0)
    grid = build_grid_1d(1.0, N)
    if geometry == "cylinder":
        domain = DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=3)
        grid = build_grid_cyl(1.0, 1.0, 3, N, 4)
    prob = ProblemSpec(nonlinearity=NonlinearitySpec(kind=kind, m=m), domain=domain)
    B = domain.cross_section_volume
    c0 = build_initial(InitialConfig(family="cosine", mean=1.0 / B, amp=0.3 / B), grid, domain)
    _traj, rep = run(prob, grid, c0, StepOptions(dt_max=0.05 / N, trace_mode=trace_mode),
                     StopRule(t_end=0.02))
    assert rep.outcome == "BOUNDED"
    assert rep.moment_residual < 0.2


# --- dissipation residuals ---------------------------------------------------


def test_dissipation_terms_are_nan_where_not_evaluated():
    # a field with a zero cell, and any cylinder field, get no terms
    g = build_grid_1d(1.0, 8)
    c = np.linspace(1.0, 2.0, 8)
    assert np.isfinite(sample(make_state(g, c), interval_problem()).diss_s).all()
    c[3] = 0.0
    r = sample(make_state(g, c), interval_problem())
    assert all(np.isnan(getattr(r, key)[0]) for key in ("diss_s", "coup_s", "diss_p", "coup_p"))
    gc_ = build_grid_cyl(1.0, 1.0, 3, 8, 4)
    r = sample(make_state(gc_, np.ones((8, 4))), ProblemSpec(
        domain=DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=3)))
    assert np.isnan(r.diss_p[0]) and np.isfinite(r.mass[0])


def test_dissipation_residuals_vanish_on_constant_states():
    g = build_grid_1d(1.0, 32)
    c = np.full(32, 1.3)
    ent, lp = dissipation_residuals(sampled(g, [0.0, 0.1], [c, c], [0.0, 0.0]))
    assert ent == 0.0 and lp == 0.0


def test_dissipation_residuals_heat_oracle_first_order():
    # pure diffusion run: the entropy identity d/dt int c log c = -int |c_x|^2/c
    # is the oracle; the defect must shrink roughly first order in h
    prob = interval_problem(kind="saturating")
    prob = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="saturating", level=1e-30, alpha=1.0),
        domain=prob.domain,
    )

    def resid(N):
        g = build_grid_1d(1.0, N)
        c0 = 1.0 + 0.5 * np.cos(math.pi * g.centers)
        traj, rep = run(prob, g, c0, StepOptions(dt_max=0.02 / N), StopRule(t_end=0.02, sample_every=4))
        assert len(traj.fields) == 1  # the residuals read records only
        return rep.entropy_residual, rep.lp_residual

    e1, l1 = resid(64)
    e2, l2 = resid(256)
    assert e2 < 0.6 * e1
    assert l2 < 0.6 * l1
    assert e2 < 5e-3 and l2 < 5e-3


def test_dissipation_residuals_fall_with_dt_on_an_exact_solution():
    # c = 1 + 0.5 cos(pi x) exp(-pi^2 t) solves the equation with a = 0;
    # sampled exactly, the defect is the trapezoid rule's in time and the
    # central difference's in space, so it falls with dt toward the latter
    g = build_grid_1d(1.0, 1024)

    def resid(dt):
        ts = np.arange(0.0, 0.1 + 1e-12, dt)
        cs = [1.0 + 0.5 * np.cos(math.pi * g.centers) * math.exp(-math.pi**2 * t) for t in ts]
        return dissipation_residuals(sampled(g, ts, cs, np.zeros(len(ts))))

    res = [resid(dt) for dt in (0.02, 0.01, 0.005)]
    for (e1, l1), (e2, l2) in zip(res, res[1:]):
        assert e2 < 0.3 * e1 and l2 < 0.3 * l1
    assert res[-1][0] < 2e-3 and res[-1][1] < 2e-3


def test_entropy_sign_check_on_subcritical_run():
    g = build_grid_1d(1.0, 128)
    F = -0.9 * np.clip(1.0 - 4.0 * g.interfaces, 0.0, None) ** 3
    c0 = (F[1:] - F[:-1]) / g.widths
    traj, rep = run(
        interval_problem(), g, c0, StepOptions(dt_max=2e-4),
        StopRule(t_end=0.5, sample_every=10),
    )
    assert np.max(np.diff(traj.records.entropy)) <= 1e-8  # entropy nonincreasing for M <= 1
    assert rep.entropy_step_increase_max <= 1e-8


def dissipation_residuals_reference(records):
    """dissipation_residuals as one Python loop over the record pairs, each
    defect folded in by Python's max: the oracle of the array form."""
    p = records.p_list[0]
    t, linf = records.t.tolist(), records.linf.tolist()
    out = []
    for F, D, C in ((records.entropy, records.diss_s, records.coup_s),
                    (records.lp[p] ** p, records.diss_p, records.coup_p)):
        F, D, C = F.tolist(), D.tolist(), C.tolist()
        worst = None
        for k in range(len(t) - 1):
            dt = t[k + 1] - t[k]
            if dt <= 0 or not (math.isfinite(linf[k]) and math.isfinite(linf[k + 1])):
                continue
            diss, coup = 0.5 * (D[k] + D[k + 1]), 0.5 * (C[k] + C[k + 1])
            rel = abs((F[k + 1] - F[k]) / dt + diss - coup) / max(diss, abs(coup), 1e-10)
            if not math.isnan(rel):
                worst = rel if worst is None else max(worst, rel)
        out.append(worst)
    return tuple(out)


def random_window(rng, pairs):
    """The samples of pairs + 1 fields on a random graded grid, drifting
    smoothly from a random positive profile, with nonzero coupling values;
    when there are two pairs or more, one pair has dt = 0 and one field a
    zero cell (no terms)."""
    N = int(rng.integers(8, 201))
    g = build_grid_1d(1.0, N, float(rng.uniform(1.0, 1.1)))
    base = 1.0 + 0.5 * rng.random(N)
    drift = 0.1 * rng.standard_normal(N)
    dts = rng.uniform(1e-5, 1e-3, pairs)
    if pairs > 1:
        dts[int(rng.integers(pairs))] = 0.0
    ts = np.concatenate([[0.0], np.cumsum(dts)])
    cs = [np.abs(base + t * drift + 1e-3 * rng.standard_normal(N)) for t in ts]
    if pairs > 1:
        cs[int(rng.integers(pairs + 1))][int(rng.integers(N))] = 0.0
    a_vals = rng.choice([-1.0, 1.0], pairs + 1) * rng.uniform(0.1, 2.0, pairs + 1)
    return g, ts, cs, a_vals


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_recorded_dissipation_terms_are_the_face_mean_sums(p):
    # the four columns against the identities' sums written directly in the
    # face mean fm: D_S = sum dc^2/(d fm), C_S = a sum dc,
    # D_P = p(p-1) sum (dc^2/d) fm^(p-2) and C_P = p(p-1) a sum fm^(p-1) dc,
    # with a != 0; a coupling sum is compared on the scale of its terms'
    # absolute values, since its terms cancel
    rng = np.random.default_rng([7, int(10 * p)])
    for _ in range(3):
        g, ts, cs, a_vals = random_window(rng, 16)
        recs = sampled(g, ts, cs, a_vals, p)
        d = np.diff(g.centers)
        skipped = 0
        for k, (c, a) in enumerate(zip(cs, a_vals)):
            got = [recs.diss_s[k], recs.coup_s[k], recs.diss_p[k], recs.coup_p[k]]
            if c.min() <= 0.0:
                assert np.isnan(got).all()
                skipped += 1
                continue
            dc, fm = np.diff(c), 0.5 * (c[1:] + c[:-1])
            want = [np.sum(dc**2 / (d * fm)), a * np.sum(dc),
                    p * (p - 1.0) * np.sum(dc**2 / d * fm ** (p - 2.0)),
                    p * (p - 1.0) * a * np.sum(fm ** (p - 1.0) * dc)]
            scale = [want[0], abs(a) * np.sum(np.abs(dc)), want[2],
                     p * (p - 1.0) * abs(a) * np.sum(fm ** (p - 1.0) * np.abs(dc))]
            for x, w, sc in zip(got, want, scale):
                assert abs(x - w) <= 1e-13 * sc, (k, x, w)
        assert skipped == 1


@pytest.mark.parametrize("pairs", [1, 16, 17, 64, 65, 129])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dissipation_residuals_match_the_per_interval_loop_bitwise(pairs, p):
    rng = np.random.default_rng([pairs, int(10 * p)])
    for _ in range(3):
        recs = sampled(*random_window(rng, pairs), p)
        got = dissipation_residuals(recs)
        want = dissipation_residuals_reference(recs)
        assert all(x is not None and math.isfinite(x) and x > 0.0 for x in want)
        assert [float(x).hex() for x in got] == [x.hex() for x in want]


# --- dissipation residuals of a run ------------------------------------------


@pytest.mark.parametrize("every,steps", [(1, 1), (1, 16), (1, 17), (1, 33), (3, 50)])
def test_run_residuals_do_not_depend_on_the_kept_fields(every, steps):
    # dt = 2^-12 is exact and below the CFL limit, so t_end fixes the step
    # count; with fields kept on a cadence or not at all, and with no
    # snapshot times, the residuals are dissipation_residuals of the records
    g = build_grid_1d(1.0, 32)
    c0 = 0.9 + 0.3 * np.cos(math.pi * g.centers) + 0.01 * np.random.default_rng(3).random(32)
    dt = 2.0**-12
    got = []
    for keep in (every, 0):
        traj, rep = run(interval_problem(), g, c0, StepOptions(dt_max=dt),
                        StopRule(t_end=steps * dt, store_fields_every=keep))
        assert rep.steps == steps and len(traj.records) == steps + 1
        want = dissipation_residuals(traj.records)
        assert [rep.entropy_residual.hex(), rep.lp_residual.hex()] == [x.hex() for x in want]
        got.append(want)
    assert len(traj.fields) == 1 and got[0] == got[1]
    assert rep.entropy_residual > 0.0 and rep.lp_residual > 0.0


def test_run_residuals_drop_a_nan_interval(monkeypatch):
    # a NaN cell at step 30 ends the run; its sample's pair is dropped, and
    # the residuals are those of the samples before it
    cfg = preset_config("heat_decay")
    g = cfg.grid.build(cfg.problem.domain)
    c0 = build_initial(cfg.initial, g, cfg.problem.domain, cfg.seed)
    real = solver1d.step

    def poisoned(problem, state, dt, opts):
        new = real(problem, state, dt, opts)
        if new.step_count == 30:
            new.c[5] = np.nan
        return new

    monkeypatch.setattr(solver1d, "step", poisoned)
    traj, rep = run(cfg.problem, g, c0, cfg.step, cfg.stop)
    assert (rep.outcome, rep.steps) == ("NUMERICAL_FAILURE", 30)
    assert np.isnan(traj.records.linf[-1]) and np.isnan(traj.records.diss_s[-1])
    assert math.isfinite(rep.entropy_residual) and math.isfinite(rep.lp_residual)
    want = dissipation_residuals(traj.records[:-1])
    assert [rep.entropy_residual.hex(), rep.lp_residual.hex()] == [x.hex() for x in want]


def test_step_data_are_covered_from_the_first_positive_sample():
    # step data are 0 beyond their width, so the t = 0 sample has no terms;
    # one step of diffusion makes the field positive, and the residuals
    # cover every pair from there on
    g = build_grid_1d(1.0, 32)
    prob = interval_problem()
    c0 = build_initial(InitialConfig(family="step", mass=0.5, width=0.5), g, prob.domain)
    assert c0.min() == 0.0
    traj, rep = run(prob, g, c0, StepOptions(dt_max=2.0**-12), StopRule(t_end=0.01))
    recs = traj.records
    assert rep.min_c == 0.0 and np.isnan(recs.diss_s[0]) and np.isfinite(recs.diss_s[1:]).all()
    want = dissipation_residuals(recs[1:])
    assert all(math.isfinite(x) for x in want)
    assert [rep.entropy_residual.hex(), rep.lp_residual.hex()] == [x.hex() for x in want]


# --- fits --------------------------------------------------------------------


def test_fit_blowup_synthetic_power_laws():
    # samples must span the two decades the fit demands
    ts = np.linspace(0.0, 0.99995, 400)
    tstar, beta = fit_blowup(table(ts, linf=(1.0 - ts) ** -0.5))
    assert tstar == pytest.approx(1.0, abs=1e-6)
    assert beta == pytest.approx(0.5, abs=1e-6)

    ts = np.linspace(0.0, 1.995, 400)
    tstar, beta = fit_blowup(table(ts, linf=(2.0 - ts) ** -1.0))
    assert tstar == pytest.approx(2.0, abs=1e-6)
    assert beta == pytest.approx(1.0, abs=1e-6)


@given(st.floats(0.2, 3.0), st.floats(0.3, 2.0))
@settings(max_examples=20, deadline=None)
def test_fit_blowup_inverts_any_power_law(tstar_true, beta_true):
    t_max = tstar_true * (1.0 - 10.0 ** (-2.2 / beta_true))
    ts = np.linspace(0.0, t_max, 400)
    got = fit_blowup(table(ts, linf=(tstar_true - ts) ** -beta_true))
    assert got is not None
    assert got[0] == pytest.approx(tstar_true, rel=1e-5)
    assert got[1] == pytest.approx(beta_true, rel=1e-4)


def test_fit_blowup_refuses_insufficient_range():
    ts = np.linspace(0.0, 0.5, 100)
    assert fit_blowup(table(ts, linf=(1.0 - ts) ** -0.5)) is None  # spans < 1 decade
    assert fit_blowup(table(0.1 * np.arange(5), linf=10.0 ** np.arange(5))) is None  # too few


def test_fit_decay_synthetic_and_tail_selection():
    ts = np.linspace(0.0, 3.0, 500)
    recs = table(ts, linf=1.0 + np.exp(-3.0 * ts))
    lam = fit_decay(recs, mean=1.0)
    assert lam == pytest.approx(3.0, abs=1e-8)
    tail = decay_tail(recs, mean=1.0)
    assert len(tail) >= 100
    assert fit_decay(tail, mean=1.0) == pytest.approx(3.0, abs=1e-8)


def test_first_moment_and_lp_cylinder():
    g = build_grid_cyl(1.0, 1.0, 3, 16, 8)
    c = np.ones((16, 8))
    # the first moment as record() takes it: the quadrature of x1 c
    assert integrate(g, axial_coordinate(g) * c) == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert lp_norm(g, c, 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_entropy_bounded_below_by_constant_state():
    # Jensen: int c log c >= M log(M/|Omega|)
    g = build_grid_1d(1.0, 64)
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.random(64) + 1e-6
        M = integrate(g, c)
        assert entropy_of(g, c) >= M * math.log(M / 1.0) - 1e-12
