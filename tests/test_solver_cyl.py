import math

import numpy as np
import pytest

from cellflux import solver1d
from cellflux.grid import build_grid_1d, build_grid_cyl, integrate
from cellflux.problem import DomainSpec, NonlinearitySpec, ProblemSpec
from cellflux.solver1d import StepOptions, make_state
from cellflux.solver_cyl import (
    adapt_dt_cyl,
    axial_marginal,
    compute_a_cyl,
    step_cyl,
)


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
    assert compute_a_cyl(prob, s, StepOptions()) == pytest.approx(0.0, abs=1e-13)
    out = step_cyl(prob, s, 1e-3, StepOptions())
    assert np.max(np.abs(out.c - 2.0)) < 1e-15


def test_a_scales_with_cross_section_volume():
    # rho-independent state: a equals the 1D trace value times |B'_R|
    g = build_grid_cyl(1.0, 1.0, 3, 32, 8)
    prof = np.linspace(0.5, 0.1, 32)
    s = make_state(g, np.tile(prof[:, None], (1, 8)))
    prob = cyl_problem(R=1.0, n=3)
    a2 = compute_a_cyl(prob, s, StepOptions())

    g1 = build_grid_1d(1.0, 32)
    s1 = solver1d.make_state(g1, prof.copy())
    prob1 = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
        domain=DomainSpec(geometry="interval", L=1.0),
    )
    # same closure, coupling integrated over the end cap of area pi: the
    # fixed points satisfy a2 = pi * g(a2) vs a1 = g(a1), so compare against
    # a fresh evaluation of the weighted trace difference at a2
    cl, cr, _ = solver1d.reconstruct_traces(s1, a2, StepOptions())
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
    M0 = float(np.max(axial_marginal(s)))
    x1 = g.axial.centers[:, None]
    for _ in range(300):
        dt = adapt_dt_cyl(prob, s, opts)
        s = step_cyl(prob, s, dt, opts)
        assert np.max(np.diff(s.c, axis=0)) <= 1e-10 * s.c.max()
        assert float(np.max(axial_marginal(s))) <= M0 * (1.0 + 1e-12)
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
        dt = min(solver1d.adapt_dt(prob1, s1, opts), adapt_dt_cyl(prob2, s2, opts))
        s1 = solver1d.step(prob1, s1, dt, opts)
        s2 = step_cyl(prob2, s2, dt, opts)
        assert np.max(np.abs(s2.c - s1.c[:, None])) <= 1e-10


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
        s = step_cyl(prob, s, adapt_dt_cyl(prob, s, opts), opts)
        assert abs(s.a) < 1e-12
        assert np.max(np.abs(np.diff(s.c, axis=0))) < 1e-12
    assert np.max(np.abs(s.c - mean)) < 0.02


def test_axial_marginal_values():
    g = build_grid_cyl(2.0, 1.0, 3, 16, 4)
    s = make_state(g, np.full((16, 4), 3.0))
    assert np.allclose(axial_marginal(s), 6.0)  # C * L
    gpro = np.cos(g.axial.centers)[:, None] * (1.0 + g.rho_centers)[None, :]
    s2 = make_state(g, gpro)
    expect = float(np.sum(np.cos(g.axial.centers) * g.axial.widths)) * (1.0 + g.rho_centers)
    assert np.allclose(axial_marginal(s2), expect, rtol=1e-12)
