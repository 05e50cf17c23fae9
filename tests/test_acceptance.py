"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria exercise the full theory map at its stated tolerances: exact mass
conservation, the critical-mass dichotomy and its sweep localization, the
closed-form blow-up time bound, the moment identity, entropy monotonicity,
steady-state structure, profile bounds, blow-up rate exponents, the global
regimes, and the cylinder-to-interval reduction.  Heavy runs are shared
through a session-scoped cache so each preset executes once.
"""

import math
import time

import numpy as np
import pytest

from cellflux import presets
from cellflux.diagnostics import COLUMNS, Records, fit_blowup, moment_residual_m1
from cellflux.grid import build_grid_1d
from cellflux.harness import run_config, sweep
from cellflux.problem import DomainSpec, NonlinearitySpec, ProblemSpec
from cellflux.runner import BLOWUP, BOUNDED, CONVERGED, StopRule, run
from cellflux.solver1d import StepOptions
from cellflux.steady import find_steady, mass_of_rate

GATED_PRESETS = presets.gated_presets()

_cache = {}


def preset_result(name):
    if name not in _cache:
        cfg = presets.preset_config(name)
        t0 = time.perf_counter()
        grid, traj, rep = run_config(cfg)
        wall = time.perf_counter() - t0
        _cache[name] = (cfg, grid, traj, rep, wall)
    return _cache[name]


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_mass_conservation():
    # every preset conserves mass to 1e-12 relative over >= 1e4 steps in < 10 s
    worst_drift, worst_steps, worst_wall = 0.0, math.inf, 0.0
    for name in GATED_PRESETS:
        _cfg, _grid, _traj, rep, wall = preset_result(name)
        worst_drift = max(worst_drift, rep.mass_drift_max)
        worst_steps = min(worst_steps, rep.steps)
        worst_wall = max(worst_wall, wall)
        assert rep.mass_drift_max <= 1e-12, f"{name}: drift {rep.mass_drift_max:.2e}"
        assert rep.steps >= 10_000, f"{name}: only {rep.steps} steps"
        assert wall < 10.0, f"{name}: {wall:.1f}s"
    report(
        "AC1 mass conservation",
        True,
        f"worst drift {worst_drift:.2e}, min steps {worst_steps}, max wall {worst_wall:.1f}s",
    )


@pytest.mark.parametrize("name", GATED_PRESETS)
def test_gate(name):
    # the verdict `cellflux check` prints, on the run this suite shares
    cfg, _grid, traj, rep, _wall = preset_result(name)
    ok, msgs = presets.judge(name, cfg, traj, rep)
    report(f"gate {name}", ok, "; ".join(msgs))


def test_criterion_2_critical_mass_sweep():
    cfg = presets.preset_config("sweep_critical")
    t0 = time.perf_counter()
    rep = sweep(cfg, "M", (0.9, 1.412), refinements=6)
    wall = time.perf_counter() - t0
    est, ref = rep.threshold_estimate, rep.refined_estimate
    ok = (
        0.95 <= est <= 1.08
        and ref is not None
        and abs(ref - 1.0) < abs(est - 1.0)
        and wall < 300.0
    )
    report(
        "AC2 critical mass",
        ok,
        f"threshold {est:.4f}+-{rep.half_width:.4f} at N=512, {ref:.4f} at N=1024, {wall:.0f}s",
    )


def test_criterion_3_blowup_time_bound():
    _cfg, _grid, _traj, rep, wall = preset_result("moment_bound")
    bound = rep.thresholds["Tstar_upper_bound"]
    ok = (
        rep.outcome == BLOWUP
        and abs(bound - 1.0 / 3.0) < 1e-3
        and rep.T_detect <= (1.0 / 3.0) * 1.10
        and wall < 60.0
    )
    report(
        "AC3 blow-up time bound",
        ok,
        f"T_detect {rep.T_detect:.4f} <= 0.3667 (closed-form bound {bound:.4f})",
    )


def _moment_residual_at(N: int) -> float:
    # m = 1 run with compactly supported monotone data, checked against the
    # f(s) = s form phi' = (M - 1) a; the window starts after the
    # boundary-layer equilibration of the initial data
    g = build_grid_1d(1.0, N)
    F = -0.25 * np.clip(1.0 - 4.0 * g.interfaces, 0.0, None) ** 3
    c0 = (F[1:] - F[:-1]) / g.widths
    prob = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
        domain=DomainSpec(geometry="interval", L=1.0),
    )
    traj, _ = run(
        prob, g, c0, StepOptions(dt_max=0.05 / N, trace_mode="cell"),
        StopRule(t_end=0.17, sample_every=1),
    )
    t = traj.records.t
    recs = traj.records[(0.05 <= t) & (t <= 0.15)]
    return moment_residual_m1(recs, recs.mass[0])


def test_criterion_4_moment_identity():
    r512 = _moment_residual_at(512)
    r1024 = _moment_residual_at(1024)
    ok = r512 <= 1e-3 and r1024 <= 0.65 * r512
    report(
        "AC4 moment identity",
        ok,
        f"residual {r512:.2e} at N=512, {r1024:.2e} at N=1024 (ratio {r1024 / r512:.2f})",
    )


def test_reports_state_only_what_holds_for_the_law():
    # every gated preset checks the first-moment identity that holds for
    # every law, and the absorbing and saturating presets carry none of the
    # constants of f(s) = s
    worst = {}
    for name in GATED_PRESETS:
        rep = preset_result(name)[3]
        assert rep.moment_residual is not None and rep.moment_residual < 0.2, name
        worst[name] = rep.moment_residual
    thr = {name: preset_result(name)[3].thresholds for name in ("absorbing_m1", "absorbing_m2", "heat_decay")}
    assert math.isinf(thr["absorbing_m1"]["Tstar_upper_bound"]) and thr["absorbing_m1"]["N0"] is None
    assert thr["absorbing_m2"]["N0"] is None and thr["absorbing_m2"]["ell"] is None
    assert thr["absorbing_m2"]["K"] is None
    for key in ("N0", "K0_lyapunov", "small_data_radius"):
        assert thr["heat_decay"][key] is None, key
    name = max(worst, key=worst.get)
    report("report fields by law", True, f"worst moment residual {worst[name]:.2e} ({name})")


def test_criterion_5_entropy_monotonicity():
    detail = []
    ok = True
    for name, M in [("entropy_low_mass", 0.5), ("critical_below", 0.9),
                    ("critical_mass_exact", 1.0)]:
        _cfg, _grid, _traj, rep, _w = preset_result(name)
        inc = rep.entropy_step_increase_max
        ok = ok and inc <= presets.ENTROPY_STEP_INCREASE_BOUND
        detail.append(f"M={M}: max step increase {inc:.2e}")
    report("AC5 entropy monotonicity", ok, "; ".join(detail))


def test_criterion_6_steady_state_structure():
    t0 = time.perf_counter()
    a_grid = np.arange(1e-2, 30.0 + 1e-9, 1e-2)
    worst = max(abs(mass_of_rate(1.0, 1.0, float(a)) - 1.0) for a in a_grid)
    ok = worst <= 1e-10

    ss = find_steady(2.0, 1.0, 0.5)
    ok = ok and abs(ss.lm_norm - 2.0**-0.5) <= 1e-8

    N0 = 2.0**-0.5
    for M in np.linspace(0.05, 1.0, 20):
        found = find_steady(2.0, 1.0, float(M), a_max=1e6)
        ok = ok and ((found is not None) == (M < N0))
    wall = time.perf_counter() - t0
    ok = ok and wall < 5.0
    report(
        "AC6 steady-state structure",
        ok,
        f"max |M(a)-1| = {worst:.2e}, |c|_2 = {ss.lm_norm:.10f}, iff-grid ok, {wall:.2f}s",
    )


def test_criterion_7_profile_bounds():
    detail = []
    ok = True
    for name in ("moment_bound", "superlinear_blowup"):
        _cfg, _grid, _traj, rep, _w = preset_result(name)
        ok = ok and rep.xc_max_ratio <= 1.0 + 1e-8
        ok = ok and rep.xpow_sup_late <= 1.25 * rep.xpow_sup_early
        detail.append(
            f"{name}: xc ratio {rep.xc_max_ratio:.4f}, "
            f"x^(1/m)c late/early {rep.xpow_sup_late / rep.xpow_sup_early:.3f}"
        )
    _cfg, _grid, _traj, rep, _w = preset_result("cyl_blowup")
    ok = ok and rep.x1c_max_ratio <= presets.X1C_RATIO_BOUND
    detail.append(f"cyl: x1c/M0 {rep.x1c_max_ratio:.4f}")
    report("AC7 profile bounds", ok, "; ".join(detail))


def test_criterion_8_blowup_rate_exponents():
    def synth(tstar, beta):
        t_max = tstar * (1.0 - 10.0 ** (-2.2 / beta))
        recs = Records()
        for t in np.linspace(0.0, t_max, 400):
            recs.append(**{**dict.fromkeys(COLUMNS, 0.0), "mass": 1.0, "t": t, "linf": (tstar - t) ** -beta})
        return fit_blowup(recs)

    ts1, b1 = synth(1.0, 0.5)
    ts2, b2 = synth(2.0, 1.0)
    ok = abs(ts1 - 1.0) <= 1e-6 and abs(b1 - 0.5) <= 1e-6
    ok = ok and abs(ts2 - 2.0) <= 1e-6 and abs(b2 - 1.0) <= 1e-6

    _c, _g, _t, rep1, _w = preset_result("moment_bound")
    _c, _g, _t, rep2, _w = preset_result("superlinear_blowup")
    ok = ok and rep1.beta_fit is not None and rep1.beta_fit >= 0.5 - 0.1
    ok = ok and rep2.beta_fit is not None and rep2.beta_fit >= 0.25 - 0.1
    report(
        "AC8 rate exponents",
        ok,
        f"synthetic exact; beta(m=1) {rep1.beta_fit:.3f} >= 0.4, "
        f"beta(m=2) {rep2.beta_fit:.3f} >= 0.15",
    )


def test_criterion_9_global_regimes():
    detail = []
    _c, _g, _t, rep, _w = preset_result("subquadratic")
    ok = rep.outcome in (BOUNDED, CONVERGED)
    detail.append(f"m=0.5 M=50: {rep.outcome}")

    for name in ("absorbing_m1", "absorbing_m2"):
        _c, _g, _t, rep, _w = preset_result(name)
        ok = ok and rep.outcome == CONVERGED and rep.lambda_fit > 0
        detail.append(f"{name}: {rep.outcome} lambda {rep.lambda_fit:.2f}")

    cfg, _g, traj, rep, _w = preset_result("small_data_m2")
    l2 = traj.records.lp[2.0]
    radius = rep.thresholds["small_data_radius"]
    ok = ok and l2[0] < radius
    ok = ok and rep.outcome == CONVERGED and rep.lambda_fit > 0
    ok = ok and np.max(np.diff(l2)) <= presets.L2_STEP_INCREASE_BOUND * l2[0]
    detail.append(f"small m=2: {rep.outcome} lambda {rep.lambda_fit:.2f}, L2 monotone")
    report("AC9 global regimes", ok, "; ".join(detail))


def test_criterion_10_dimensional_reduction():
    # rho-independent cylinder data with unit cross-section shadows the 1D
    # run; the gate compares every sample of the run with the interval run's
    cfg, _grid, traj, rep, _wall = preset_result("cyl_reduction")
    ok, msgs = presets.judge("cyl_reduction", cfg, traj, rep)
    report("AC10 dimensional reduction", ok, "; ".join(msgs))
