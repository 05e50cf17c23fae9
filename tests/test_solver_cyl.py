import math
from dataclasses import replace

import numpy as np
import pytest

from cellflux import harness, presets, solver1d
from cellflux.diagnostics import axial_marginal
from cellflux.grid import build_grid_1d, build_grid_cyl, integrate
from cellflux.problem import DomainSpec, NonlinearitySpec, ProblemSpec
from cellflux.solver1d import StepOptions, adapt_dt, compute_a, make_state, step


def cyl_problem(m=1.0, L=1.0, R=0.5, n=2):
    return ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=m),
        domain=DomainSpec(geometry="cylinder", L=L, R=R, n=n),
    )


def axial_bump(grid1d, M, k):
    F = -M * np.clip(1.0 - k * grid1d.interfaces, 0.0, None) ** 3
    return (F[1:] - F[:-1]) / grid1d.widths


def test_constant_state_fixed_point_and_zero_a():
    g = build_grid_cyl(1.0, 1.0, 3, 16, 8)
    s = make_state(g, np.full((16, 8), 2.0))
    prob = cyl_problem(R=1.0, n=3)
    assert compute_a(prob, s, StepOptions()) == pytest.approx(0.0, abs=1e-13)
    out = step(prob, s, 1e-3, StepOptions())
    assert np.max(np.abs(out.c - 2.0)) < 1e-15


def test_a_scales_with_cross_section_volume():
    # rho-independent state: a equals the 1D trace value times |B'_R|
    g = build_grid_cyl(1.0, 1.0, 3, 32, 8)
    prof = np.linspace(0.5, 0.1, 32)
    s = make_state(g, np.tile(prof[:, None], (1, 8)))
    prob = cyl_problem(R=1.0, n=3)
    a2 = compute_a(prob, s, StepOptions())

    g1 = build_grid_1d(1.0, 32)
    s1 = solver1d.make_state(g1, prof.copy())
    prob1 = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
        domain=DomainSpec(geometry="interval", L=1.0),
    )
    # same closure, coupling integrated over the end cap of area pi: the
    # fixed points satisfy a2 = pi * g(a2) vs a1 = g(a1), so compare against
    # a fresh evaluation of the weighted trace difference at a2
    s1.a = a2
    cl, cr = solver1d.end_traces(s1)
    assert a2 == pytest.approx(math.pi * (cr - cl), rel=1e-10)
    assert a2 < 0


def test_mass_conserved_monotone_and_axisymmetric_bound():
    g = build_grid_cyl(1.0, 1.0, 3, 48, 12)
    prof = axial_bump(g.axial, 1.0, 3.0)
    radial = 1.0 + 0.5 * np.cos(math.pi * g.rho_centers / g.R)
    c0 = prof[:, None] * radial[None, :]
    c0 *= 0.8 / integrate(g, c0)
    prob = cyl_problem(R=1.0, n=3)
    opts = StepOptions(dt_max=1e-4)
    s = make_state(g, c0)
    mass0 = integrate(g, s.c)
    M0 = float(np.max(axial_marginal(g, s.c)))
    x1 = g.axial.centers[:, None]
    for _ in range(300):
        dt = adapt_dt(prob, s, opts)
        s = step(prob, s, dt, opts)
        assert np.max(np.diff(s.c, axis=0)) <= 1e-10 * s.c.max()
        assert float(np.max(axial_marginal(g, s.c))) <= M0 * (1.0 + 1e-12)
        assert float(np.max(x1 * s.c)) <= M0 * (1.0 + 1e-6)
    assert abs(integrate(g, s.c) - mass0) <= 1e-13 * mass0
    assert s.c.min() >= -1e-12 * s.c.max()


def test_rho_independent_matches_1d_per_step():
    # unit cross-section (n = 2, R = 1/2) so the coupling integrals agree
    g2 = build_grid_cyl(1.0, 0.5, 2, 64, 6)
    g1 = build_grid_1d(1.0, 64)
    prof = axial_bump(g1, 0.9, 4.0)
    prob2 = cyl_problem(m=1.0, R=0.5, n=2)
    prob1 = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
        domain=DomainSpec(geometry="interval", L=1.0),
    )
    s2 = make_state(g2, np.tile(prof[:, None], (1, 6)))
    s1 = solver1d.make_state(g1, prof.copy())
    opts = StepOptions(dt_max=1e-4)
    for _ in range(200):
        dt = min(adapt_dt(prob1, s1, opts), adapt_dt(prob2, s2, opts))
        s1 = step(prob1, s1, dt, opts)
        s2 = step(prob2, s2, dt, opts)
        assert np.max(np.abs(s2.c - s1.c[:, None])) <= 1e-10


def test_rho_independent_traces_match_1d_in_lockstep():
    # the cyl_reduction setup: the cylinder's cap means through the Robin
    # closure are the interval's end-cell traces, end modes included
    cfg = presets.preset_config("cyl_reduction")
    g2 = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, g2, cfg.problem.domain, cfg.seed)
    g1 = build_grid_1d(cfg.problem.domain.L, cfg.grid.N, cfg.grid.r)
    prob1 = replace(cfg.problem, domain=DomainSpec(geometry="interval", L=cfg.problem.domain.L))
    s2 = make_state(g2, c0)
    s1 = make_state(g1, c0[:, 0].copy())
    for _ in range(300):
        dt = min(adapt_dt(prob1, s1, cfg.step), adapt_dt(cfg.problem, s2, cfg.step))
        s1 = step(prob1, s1, dt, cfg.step)
        s2 = step(cfg.problem, s2, dt, cfg.step)
        assert s2.robin_ends == s1.robin_ends
        t2, t1 = np.array(solver1d.end_traces(s2)), np.array(solver1d.end_traces(s1))
        assert np.all(np.abs(t2 - t1) <= 1e-12 * np.abs(t1))
    assert s1.a < 0 and np.all(t1 != s1.c[[0, -1]])  # the closure is active


@pytest.mark.parametrize("column,at,delta", [("a", 0.5, 1e-9), ("phi", 1.0, 1e-9), ("c_right", 0.0, 1e-9),
                                             ("t", 0.5, 1e-9), ("linf", 0.5, math.nan)])
def test_cyl_reduction_gate_fails_on_one_perturbed_sample(column, at, delta):
    # the gate compares its own run's records with the interval run's, so
    # one sample moved by 1e-9, or made NaN, fails it
    cfg = presets.preset_config("cyl_reduction")
    cfg = replace(cfg, stop=replace(cfg.stop, t_end=0.01))
    _grid, traj, rep = harness.run_config(cfg)
    ok, msgs = presets.judge("cyl_reduction", cfg, traj, rep)
    assert ok and "over 41 samples" in msgs[0], msgs
    getattr(traj.records, column)[int(at * (len(traj.records) - 1))] += delta
    ok, msgs = presets.judge("cyl_reduction", cfg, traj, rep)
    assert not ok, msgs


def test_cyl_reduction_gate_fails_off_a_unit_cross_section():
    # the reduction map is worked out for a unit cross-section only: at
    # R = 1, n = 2 (B = 2) the gate says so and fails
    cfg = presets.preset_config("cyl_reduction")
    domain = replace(cfg.problem.domain, R=1.0)
    cfg = replace(cfg, problem=replace(cfg.problem, domain=domain), stop=replace(cfg.stop, t_end=1e-3))
    _grid, traj, rep = harness.run_config(cfg)
    ok, msgs = presets.judge("cyl_reduction", cfg, traj, rep)
    assert not ok and "only for a unit cross-section, not B = 2" in msgs[0], msgs


def test_x1_independent_data_reduces_to_radial_heat():
    # no axial variation: a = 0 and the run is a radial Neumann heat flow,
    # converging to the radial mean
    g = build_grid_cyl(1.0, 1.0, 3, 8, 24)
    radial = 1.0 + np.cos(math.pi * g.rho_centers / g.R)
    s = make_state(g, np.tile(radial[None, :], (8, 1)))
    prob = cyl_problem(R=1.0, n=3)
    opts = StepOptions(dt_max=2e-4)
    mean = integrate(g, s.c) / (math.pi * 1.0)
    for _ in range(2000):
        s = step(prob, s, adapt_dt(prob, s, opts), opts)
        assert abs(s.a) < 1e-12
        assert np.max(np.abs(np.diff(s.c, axis=0))) < 1e-12
    assert np.max(np.abs(s.c - mean)) < 0.02


def test_axial_marginal_values():
    g = build_grid_cyl(2.0, 1.0, 3, 16, 4)
    s = make_state(g, np.full((16, 4), 3.0))
    assert np.allclose(axial_marginal(g, s.c), 6.0)  # C * L
    gpro = np.cos(g.axial.centers)[:, None] * (1.0 + g.rho_centers)[None, :]
    s2 = make_state(g, gpro)
    expect = float(np.sum(np.cos(g.axial.centers) * g.axial.widths)) * (1.0 + g.rho_centers)
    assert np.allclose(axial_marginal(g, s2.c), expect, rtol=1e-12)
