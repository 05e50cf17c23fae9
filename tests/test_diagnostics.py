import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflux.diagnostics import (
    Audit,
    FunctionalRecord,
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
from cellflux import runner, solver1d
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


def rec(t, linf=1.0, phi=0.0, a=0.0, dt=0.0, c_left=0.0, c_right=0.0):
    return FunctionalRecord(
        t=t, dt=dt, mass=1.0, entropy=0.0, lp={}, linf=linf, phi=phi, a=a,
        u=0.0, c_left=c_left, c_right=c_right,
    )


# --- record ----------------------------------------------------------------


def sample(state, problem, p_list=(2.0,)):
    """record() of a state, with the audit and traces the runner passes."""
    c = state.c
    x1c = axial_coordinate(state.grid) * c
    au = Audit(mass=integrate(state.grid, c), entropy=entropy_of(state.grid, c),
               linf=float(np.max(np.abs(c))), min=float(np.min(c)), x1c=x1c,
               x1c_max=float(np.max(x1c)),
               marg_max=float(np.max(axial_marginal(state.grid, c)))
               if isinstance(state.grid, GridCyl) else None)
    return record(state, problem, 0.0, p_list, end_traces(state), au)


def test_record_constant_state_values():
    g = build_grid_1d(1.0, 64)
    s = make_state(g, np.ones(64))
    r = sample(s, interval_problem())
    assert r.mass == pytest.approx(1.0)
    assert r.entropy == pytest.approx(0.0, abs=1e-15)
    assert r.phi == pytest.approx(0.5, rel=1e-12)
    assert r.lp[2.0] == pytest.approx(1.0)

    s2 = make_state(g, np.full(64, 2.0))
    r2 = sample(s2, interval_problem())
    assert r2.entropy == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert r2.lp[2.0] == pytest.approx(2.0)


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
    assert r.mass == pytest.approx(math.pi, rel=1e-13)
    # u = -chi a / |Omega|
    assert r.u == pytest.approx(3.0 * 2.0 / math.pi, rel=1e-13)


def test_entropy_extends_by_zero_at_vacuum():
    g = build_grid_1d(1.0, 4)
    c = np.array([0.0, 0.0, 2.0, 0.0])
    assert entropy_of(g, c) == pytest.approx(0.25 * 2.0 * math.log(2.0))


# --- moment residual --------------------------------------------------------


def test_moment_residual_zero_on_constant_records():
    recs = [rec(t=0.1 * i, phi=0.5, a=0.0) for i in range(5)]
    assert moment_residual_m1(recs, M=1.0) == 0.0
    assert moment_residual(recs, M=1.0, B=1.0) == 0.0


def test_moment_residual_exact_on_synthetic_identity():
    # phi(t) = phi0 + (M-1) int a dt with a(t) = sin(t): midpoint-rule error
    # only, far below the 1e-3 scale of real runs
    M = 2.0
    ts = np.linspace(0.0, 1.0, 400)
    recs = [rec(t=t, phi=0.3 + (M - 1.0) * (1.0 - math.cos(t)), a=math.sin(t)) for t in ts]
    assert moment_residual_m1(recs, M=M) < 2e-6


@pytest.mark.parametrize("B", [1.0, math.pi])
def test_general_moment_residual_exact_on_synthetic_identity(B):
    # phi' = a M - B (c_right - c_left) with a(t) = sin(t) and a trace
    # difference 0.7 cos(2t) that is not a: midpoint-rule error only, about
    # dt^2/24 times the curvature, 2e-6 at dt = 1/399
    M = 1.5
    ts = np.linspace(0.0, 1.0, 400)
    recs = [
        rec(t=t, phi=0.3 + M * (1.0 - math.cos(t)) - B * 0.35 * math.sin(2.0 * t),
            a=math.sin(t), c_left=0.2, c_right=0.2 + 0.7 * math.cos(2.0 * t))
        for t in ts
    ]
    assert moment_residual(recs, M=M, B=B) < 1e-5
    # the (M - 1) a form misses the trace term
    assert moment_residual_m1(recs, M=M) > 0.1


def test_moment_residual_needs_two_records():
    with pytest.raises(ValueError):
        moment_residual_m1([rec(0.0)], M=1.0)
    with pytest.raises(ValueError):
        moment_residual([rec(0.0)], M=1.0, B=1.0)


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
        recs = [r for r in traj.records if 0.05 <= r.t <= 0.15]
        return moment_residual_m1(recs, recs[0].mass)

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


def entropies(grid, fields):
    """Each field's entropy_of, the values the runner's audit hands the check."""
    return [entropy_of(grid, c) for _t, c in fields]


def test_dissipation_residuals_vanish_on_constant_states():
    g = build_grid_1d(1.0, 32)
    c = np.full(32, 1.3)
    fields = [(0.0, c), (0.1, c)]
    ent, lp, inc = dissipation_residuals(g, fields, [0.0, 0.0], entropies(g, fields), p=2.0)
    assert ent == 0.0 and lp == 0.0 and inc == 0.0


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
        traj, _ = run(
            prob, g, c0, StepOptions(dt_max=0.02 / N),
            StopRule(t_end=0.02, sample_every=4, store_fields_every=1),
        )
        # with a field kept at every sample, fields and records align one to one
        a_vals = [r.a for r in traj.records]
        ent, lp, _ = dissipation_residuals(g, traj.fields, a_vals, entropies(g, traj.fields), p=2.0)
        return ent, lp

    e1, l1 = resid(64)
    e2, l2 = resid(256)
    assert e2 < 0.6 * e1
    assert l2 < 0.6 * l1
    assert e2 < 5e-3 and l2 < 5e-3


def test_entropy_sign_check_on_subcritical_run():
    g = build_grid_1d(1.0, 128)
    F = -0.9 * np.clip(1.0 - 4.0 * g.interfaces, 0.0, None) ** 3
    c0 = (F[1:] - F[:-1]) / g.widths
    traj, rep = run(
        interval_problem(), g, c0, StepOptions(dt_max=2e-4),
        StopRule(t_end=0.5, sample_every=10, store_fields_every=1),
    )
    a_vals = [r.a for r in traj.records]  # one record per kept field
    _, _, inc = dissipation_residuals(g, traj.fields, a_vals, entropies(g, traj.fields), p=2.0)
    assert inc <= 1e-8  # entropy nonincreasing for M <= 1
    assert rep.entropy_step_increase_max <= 1e-8


def dissipation_residuals_reference(grid, fields, a_values, p):
    """dissipation_residuals as one Python loop over the intervals, each
    interval on its own fields: the oracle of the batched evaluation."""
    d = grid.dist
    ent_res = lp_res = 0.0
    ent_inc = -math.inf
    S = [entropy_of(grid, c) for _t, c in fields]
    P = [integrate(grid, np.asarray(c) ** p) for _t, c in fields]
    for k, ((t0, c0), (t1, c1)) in enumerate(zip(fields[:-1], fields[1:])):
        dt = t1 - t0
        if dt <= 0:
            continue
        cm = 0.5 * (np.asarray(c0) + np.asarray(c1))
        am = 0.5 * (a_values[k] + a_values[k + 1])
        dc = np.diff(cm)
        grad = dc / d
        fm = np.maximum(0.5 * (cm[:-1] + cm[1:]), 1e-300)
        flow = float(np.sum(dc))

        dS = (S[k + 1] - S[k]) / dt
        rhs_S = -float(np.sum(d * grad**2 / fm)) + am * flow
        ent_res = max(ent_res, abs(dS - rhs_S) / max(abs(rhs_S), 1e-10))
        ent_inc = max(ent_inc, S[k + 1] - S[k])

        dP = (P[k + 1] - P[k]) / dt
        rhs_P = p * (p - 1.0) * (
            -float(np.sum(d * grad**2 * fm ** (p - 2.0)))
            + am * float(np.sum(fm ** (p - 1.0) * dc))
        )
        lp_res = max(lp_res, abs(dP - rhs_P) / max(abs(rhs_P), 1e-10))
    return ent_res, lp_res, ent_inc


def random_window(rng, pairs):
    """pairs + 1 fields on a random graded grid, drifting smoothly from a
    random positive profile, with nonzero coupling values, one interval of
    dt = 0 (when there are two or more), and zero cells: a run of them (face means at the 1e-300 floor)
    and a lone one (entropy_of's extension by 0)."""
    N = int(rng.integers(8, 201))
    g = build_grid_1d(1.0, N, float(rng.uniform(1.0, 1.1)))
    base = 1.0 + 0.5 * rng.random(N)
    drift = 0.1 * rng.standard_normal(N)
    dts = rng.uniform(1e-5, 1e-3, pairs)
    if pairs > 1:
        dts[int(rng.integers(pairs))] = 0.0
    ts = np.concatenate([[0.0], np.cumsum(dts)])
    cs = [np.abs(base + t * drift + 1e-3 * rng.standard_normal(N)) for t in ts]
    j = int(rng.integers(N - 3))
    for c in cs[: max(2, len(cs) // 3)]:
        c[j : j + 3] = 0.0
    cs[-1][int(rng.integers(N))] = 0.0
    a_vals = list(rng.choice([-1.0, 1.0], pairs + 1) * rng.uniform(0.1, 2.0, pairs + 1))
    return g, [(float(t), c) for t, c in zip(ts, cs)], a_vals


@pytest.mark.parametrize("pairs", [1, 16, 17, 64, 65, 129])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dissipation_residuals_match_the_per_interval_loop_bitwise(pairs, p):
    rng = np.random.default_rng([pairs, int(10 * p)])
    for _ in range(3):
        g, fields, a_vals = random_window(rng, pairs)
        got = dissipation_residuals(g, fields, a_vals, entropies(g, fields), p)
        want = dissipation_residuals_reference(g, fields, a_vals, p)
        assert all(math.isfinite(x) for x in want)
        assert [float(x).hex() for x in got] == [x.hex() for x in want]


# --- dissipation residuals as the runner streams them ------------------------


def field_records(traj):
    """The record of each kept field: every field is kept at a sample."""
    at = {r.t: r for r in traj.records}
    return [at[t] for t, _c in traj.fields]


def streamed_and_batched(monkeypatch, prob, g, c0, opts, stop):
    """(traj, rep, block sizes) of a run whose fields are the covered ones,
    and the residuals of dissipation_residuals over all of them at once."""
    sizes = []
    real = runner.dissipation_residuals

    def counted(grid, fields, *args):
        sizes.append(len(fields))
        return real(grid, fields, *args)

    monkeypatch.setattr(runner, "dissipation_residuals", counted)
    traj, rep = run(prob, g, c0, opts, stop)
    monkeypatch.undo()
    recs = field_records(traj)
    want = dissipation_residuals(g, traj.fields, [r.a for r in recs], [r.entropy for r in recs], 2.0)
    return traj, rep, sizes, want


@pytest.mark.parametrize("every,steps", [(1, 1), (1, 16), (1, 17), (1, 33), (3, 50)])
def test_streamed_residuals_are_the_batched_ones_bitwise(monkeypatch, every, steps):
    # dt = 2^-12 is exact and below the CFL limit, so t_end fixes the step
    # count; with every = 1 the covered fields are the 2, 17, 18 and 34
    # samples that put the intervals at the block edges
    g = build_grid_1d(1.0, 32)
    c0 = 0.9 + 0.3 * np.cos(math.pi * g.centers) + 0.01 * np.random.default_rng(3).random(32)
    dt = 2.0**-12
    traj, rep, sizes, want = streamed_and_batched(
        monkeypatch, interval_problem(), g, c0, StepOptions(dt_max=dt),
        StopRule(t_end=steps * dt, store_fields_every=every))
    assert rep.steps == steps and len(traj.records) == steps + 1
    intervals = len(traj.fields) - 1
    assert sizes == [17] * (intervals // 16) + ([intervals % 16 + 1] if intervals % 16 else [])
    assert [rep.entropy_residual.hex(), rep.lp_residual.hex()] == [x.hex() for x in want[:2]]
    assert rep.entropy_residual > 0.0 and rep.lp_residual > 0.0


def test_streamed_residuals_drop_a_nan_interval(monkeypatch):
    # a NaN cell at step 30 ends the run; its NaN does not lower min_c, so the
    # residuals are reported over the intervals before it
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
    stop = StopRule(t_end=cfg.stop.t_end, sample_every=cfg.stop.sample_every, store_fields_every=1)
    traj, rep, sizes, want = streamed_and_batched(monkeypatch, cfg.problem, g, c0, cfg.step, stop)
    assert (rep.outcome, rep.steps) == ("NUMERICAL_FAILURE", 30)
    assert np.isnan(traj.fields[-1][1][5]) and sizes == [16]
    assert math.isfinite(rep.entropy_residual) and math.isfinite(rep.lp_residual)
    assert [rep.entropy_residual.hex(), rep.lp_residual.hex()] == [x.hex() for x in want[:2]]


def test_streamed_residuals_are_none_once_a_field_is_not_positive(monkeypatch):
    # step data are 0 beyond their width: min_c is 0 from t = 0, so no block
    # is computed and both residuals are None
    g = build_grid_1d(1.0, 32)
    prob = interval_problem()
    c0 = build_initial(InitialConfig(family="step", mass=0.5, width=0.5), g, prob.domain)
    assert c0.min() == 0.0
    _traj, rep, sizes, _want = streamed_and_batched(
        monkeypatch, prob, g, c0, StepOptions(dt_max=2.0**-12), StopRule(t_end=0.01, store_fields_every=1))
    assert rep.min_c == 0.0 and sizes == []
    assert rep.entropy_residual is None and rep.lp_residual is None


# --- fits --------------------------------------------------------------------


def test_fit_blowup_synthetic_power_laws():
    # samples must span the two decades the fit demands
    ts = np.linspace(0.0, 0.99995, 400)
    recs = [rec(t=t, linf=(1.0 - t) ** -0.5) for t in ts]
    tstar, beta = fit_blowup(recs)
    assert tstar == pytest.approx(1.0, abs=1e-6)
    assert beta == pytest.approx(0.5, abs=1e-6)

    recs = [rec(t=t, linf=(2.0 - t) ** -1.0) for t in np.linspace(0.0, 1.995, 400)]
    tstar, beta = fit_blowup(recs)
    assert tstar == pytest.approx(2.0, abs=1e-6)
    assert beta == pytest.approx(1.0, abs=1e-6)


@given(st.floats(0.2, 3.0), st.floats(0.3, 2.0))
@settings(max_examples=20, deadline=None)
def test_fit_blowup_inverts_any_power_law(tstar_true, beta_true):
    t_max = tstar_true * (1.0 - 10.0 ** (-2.2 / beta_true))
    ts = np.linspace(0.0, t_max, 400)
    recs = [rec(t=t, linf=(tstar_true - t) ** -beta_true) for t in ts]
    got = fit_blowup(recs)
    assert got is not None
    assert got[0] == pytest.approx(tstar_true, rel=1e-5)
    assert got[1] == pytest.approx(beta_true, rel=1e-4)


def test_fit_blowup_refuses_insufficient_range():
    ts = np.linspace(0.0, 0.5, 100)
    recs = [rec(t=t, linf=(1.0 - t) ** -0.5) for t in ts]  # spans < 1 decade
    assert fit_blowup(recs) is None
    assert fit_blowup([rec(t=0.1 * i, linf=10.0**i) for i in range(5)]) is None  # too few


def test_fit_decay_synthetic_and_tail_selection():
    ts = np.linspace(0.0, 3.0, 500)
    recs = [rec(t=t, linf=1.0 + math.exp(-3.0 * t)) for t in ts]
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
