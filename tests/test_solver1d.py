import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from cellflux.grid import build_grid_1d, build_grid_cyl, integrate
from cellflux.problem import DomainSpec, NonlinearitySpec, ProblemSpec, ball_volume
from cellflux.runner import StopRule, run
from cellflux.solver1d import (
    StepOptions,
    StepRejected,
    adapt_dt,
    compute_a,
    make_state,
    reconstruct_traces,
    solve_banded,
    step,
)
from cellflux.solver_cyl import step_cyl


def problem(kind="signed_power", m=1.0, L=1.0):
    return ProblemSpec(
        nonlinearity=NonlinearitySpec(kind=kind, m=m),
        domain=DomainSpec(geometry="interval", L=L),
    )


def bump(grid, M, k):
    F = -M * np.clip(1.0 - k * grid.interfaces, 0.0, None) ** 3
    return (F[1:] - F[:-1]) / grid.widths


# --- traces ---------------------------------------------------------------


def test_traces_zero_a_degenerates_to_cell_values():
    g = build_grid_1d(1.0, 8)
    s = make_state(g, np.linspace(2.0, 1.0, 8))
    cl, cr, guarded = reconstruct_traces(s, 0.0, StepOptions())
    assert cl == s.c[0] and cr == s.c[-1] and not guarded


def test_traces_robin_closure_value():
    # (c1 - c_left)/(h/2) = a c_left  =>  c_left = c1/(1 + a h/2)
    g = build_grid_1d(0.8, 8)  # h = 0.1
    c = np.full(8, 2.0)
    s = make_state(g, c)
    cl, cr, _ = reconstruct_traces(s, 1.0, StepOptions())
    assert cl == pytest.approx(2.0 / 1.05, rel=1e-15)
    assert cr == pytest.approx(2.0 / 0.95, rel=1e-15)


def test_traces_cell_mode_ignores_a():
    g = build_grid_1d(1.0, 8)
    s = make_state(g, np.linspace(2.0, 1.0, 8))
    cl, cr, guarded = reconstruct_traces(s, 7.0, StepOptions(trace_mode="cell"))
    assert cl == s.c[0] and cr == s.c[-1] and not guarded


def test_traces_guard_falls_back_per_end():
    g = build_grid_1d(0.8, 8)  # h = 0.1, guard trips at |a| h/2 >= 0.5 i.e. |a| >= 10
    s = make_state(g, np.full(8, 2.0))
    cl, cr, guarded = reconstruct_traces(s, 12.0, StepOptions())
    assert guarded and cl == 2.0 and cr == 2.0


# --- coupling -------------------------------------------------------------


def test_a_vanishes_on_constant_state():
    g = build_grid_1d(1.0, 32)
    s = make_state(g, np.full(32, 3.0))
    assert compute_a(problem(), s, StepOptions()) == pytest.approx(0.0, abs=1e-14)


def test_a_cell_mode_direct_difference():
    g = build_grid_1d(1.0, 2)
    s = make_state(g, np.array([2.0, 1.0]))
    a = compute_a(problem(m=1.0), s, StepOptions(trace_mode="cell"))
    assert a == pytest.approx(-1.0, abs=1e-12)  # f(1) - f(2)


def test_a_negative_for_decreasing_state_and_brute_force_fixed_point():
    # values small enough that the Robin closure has a genuine fixed point
    # (c1 h/2 < 1/4), so the raw damped map is a valid independent oracle
    g = build_grid_1d(1.0, 4)
    s = make_state(g, np.array([0.8, 0.6, 0.4, 0.2]))
    opts = StepOptions()
    a = compute_a(problem(m=1.0), s, opts)
    assert a < 0
    h = g.widths
    b = 0.0
    for _ in range(10000):
        cl = s.c[0] / (1.0 + 0.5 * b * h[0])
        cr = s.c[-1] / (1.0 - 0.5 * b * h[-1])
        b = 0.5 * b + 0.5 * (cr - cl)
    assert a == pytest.approx(b, abs=1e-10)


def test_absorbing_sign_flips_a():
    g = build_grid_1d(1.0, 4)
    s = make_state(g, np.array([4.0, 3.0, 2.0, 1.0]))
    a = compute_a(problem(kind="negative_power", m=1.0), s, StepOptions())
    assert a > 0


# --- single step ----------------------------------------------------------


def test_constant_state_is_fixed_point():
    g = build_grid_1d(1.0, 64, 1.05)
    s = make_state(g, np.full(64, 0.7))
    out = step(problem(m=1.0), s, 1e-3, StepOptions())
    assert np.array_equal(out.c, s.c) or np.max(np.abs(out.c - s.c)) < 1e-16
    assert out.t == pytest.approx(1e-3)
    assert out.step_count == 1


@given(
    st.sampled_from(["interval", "cylinder"]),
    st.integers(8, 200),
    st.floats(1.0, 1.1),
    st.integers(2, 8),
    st.integers(2, 4),
    st.booleans(),
    st.booleans(),
    st.floats(0.2, 5.0),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_mass_conserved_and_nonnegative_on_random_data(
    geometry, N, r, Nr, n, monotone, rho_independent, M, seed
):
    # after every step: mass, positivity and (for nonincreasing data)
    # monotonicity in either geometry; rho-independent data on a cylinder of
    # unit cross-section is also marched on the interval, and must match it
    rng = np.random.default_rng(seed)
    g1 = build_grid_1d(1.0, N, r)
    prof = rng.random(N) + 1e-3
    if monotone:
        prof = np.sort(prof)[::-1]
    prof *= M / integrate(g1, prof)
    # keep the boundary layer resolvable (c1 h/2 < 1/4 is where the Robin
    # closure is well posed); spiky data on coarse grids is the guarded regime
    assume(float(prof[0]) * g1.widths[0] < 0.3)
    opts = StepOptions(dt_max=1e-3)
    runs = []  # (grid, problem, state, stepper)
    if geometry == "cylinder":
        R = ball_volume(n - 1, 1.0) ** (-1.0 / (n - 1))  # |B'_R| = 1
        gc = build_grid_cyl(1.0, R, n, N, Nr, r)
        radial = np.ones(Nr) if rho_independent else 1.0 + rng.random(Nr)
        prob = ProblemSpec(
            nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
            domain=DomainSpec(geometry="cylinder", L=1.0, R=R, n=n),
        )
        runs.append((gc, prob, make_state(gc, prof[:, None] * radial), step_cyl))
    if geometry == "interval" or rho_independent:
        runs.append((g1, problem(m=1.0), make_state(g1, prof), step))
    mass0 = [integrate(g, s.c) for g, _p, s, _f in runs]
    cond = 0.0
    for _ in range(20):
        dt = min(adapt_dt(p, s, opts) for _g, p, s, _f in runs)
        while dt > opts.dt_min:
            try:
                runs = [(g, p, f(p, s, dt, opts), f) for g, p, s, f in runs]
                break
            except StepRejected:
                dt *= 0.5
        else:
            # spiky supercritical data may reach the singular regime, where
            # persistent rejection is the designed exit
            break
        # the increment-form diffusion solve leaves roundoff of up to about
        # eps dt/h_min^2 linf in c, far above 1e-12 linf on strongly graded
        # grids (h_min ~ 1e-9 at N = 200, r = 1.1)
        cond = max(cond, dt / g1.h_min**2)
        for (g, _p, s, _f), m0 in zip(runs, mass0):
            linf = np.abs(s.c).max()
            noise = 32 * np.finfo(float).eps * cond * linf
            assert abs(integrate(g, s.c) - m0) <= 1e-13 * m0
            assert s.c.min() >= -1e-12 * linf
            if monotone:
                assert np.max(np.diff(s.c, axis=0)) <= max(1e-12 * linf, noise)
        if len(runs) == 2:
            assert np.max(np.abs(runs[0][2].c - runs[1][2].c[:, None])) <= max(1e-10, noise)


def test_step_rejects_cfl_violation():
    g = build_grid_1d(1.0, 32)
    s = make_state(g, bump(g, 2.0, 4.0))
    with pytest.raises(StepRejected):
        step(problem(m=1.0), s, 1.0, StepOptions(dt_max=10.0))


def test_monotone_profile_stays_monotone():
    # subcritical mass so the run never approaches the singular regime
    g = build_grid_1d(1.0, 128)
    s = make_state(g, bump(g, 0.8, 4.0))
    prob = problem(m=1.0)
    opts = StepOptions(dt_max=2e-4)
    for _ in range(500):
        s = step(prob, s, adapt_dt(prob, s, opts), opts)
    assert np.max(np.diff(s.c)) <= 1e-10 * s.c.max()


def test_adapt_dt_formula_and_shape():
    g = build_grid_1d(1.0, 10)  # h = 0.1
    prob = problem(m=1.0)
    opts = StepOptions(dt_max=0.05, cfl=0.4, c_bu=0.1)
    s = make_state(g, np.full(10, 1e-6))
    s.a = 0.0
    assert adapt_dt(prob, s, opts) == pytest.approx(0.05)  # dt_max wins
    s = make_state(g, np.full(10, 10.0))
    s.a = 0.0
    # blow-up clamp: 0.1/(1 + 100) for m = 1
    assert adapt_dt(prob, s, opts) == pytest.approx(0.1 / 101.0, rel=1e-12)
    s.a = 300.0
    assert adapt_dt(prob, s, opts) == pytest.approx(0.4 * 0.1 / 300.0, rel=1e-12)
    # nonincreasing in linf
    prev = math.inf
    for linf in (0.1, 1.0, 10.0, 100.0):
        s = make_state(g, np.full(10, linf))
        dt = adapt_dt(prob, s, opts)
        assert dt <= prev
        prev = dt



def diffusion_bands(widths, dist, dt, face_weight):
    """(dl, d, du) of the backward-Euler diffusion matrix the steppers build."""
    w = dt * face_weight / dist
    d = np.ones(len(widths))
    d[:-1] += w / widths[:-1]
    d[1:] += w / widths[1:]
    return -w / widths[1:], d, -w / widths[:-1]


def scipy_reference(dl, d, du, b):
    ab = np.vstack([np.concatenate([[0.0], du]), d, np.concatenate([dl, [0.0]])])
    return scipy.linalg.solve_banded((1, 1), ab, b)


@pytest.mark.parametrize("seed", range(6))
def test_solve_banded_bitwise_equal_to_scipy_on_graded_grids(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 600))
    g = build_grid_1d(float(rng.uniform(0.5, 2.0)), N, float(rng.uniform(1.0, 1.05)))
    dt = 10.0 ** rng.uniform(-7, -2)
    bands = diffusion_bands(g.widths, g.dist, dt, np.ones(N - 1))
    b = rng.standard_normal(N)
    expect = scipy_reference(*bands, b)
    got = solve_banded(*(x.copy() for x in bands), b.copy())
    assert got.shape == (N,)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("seed", range(4))
def test_solve_banded_bitwise_multi_rhs_radial_in_place(seed):
    # the cylinder's radial pass: Nr-point systems, one per axial row, with a
    # Fortran-ordered (Nr, N) right-hand side (the transpose of a C array)
    rng = np.random.default_rng(100 + seed)
    Nx, Nr = int(rng.integers(2, 300)), int(rng.integers(2, 40))
    g = build_grid_cyl(1.0, float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 5)), Nx, Nr,
                       float(rng.uniform(1.0, 1.05)))
    bands = diffusion_bands(g.vol, g.rho_dist, 10.0 ** rng.uniform(-7, -2), g.face_area)
    b = rng.standard_normal((Nx, Nr)).T
    expect = scipy_reference(*bands, b)
    got = solve_banded(*(x.copy() for x in bands), b)
    assert got.shape == (Nr, Nx)
    assert np.array_equal(got, expect)
    assert np.shares_memory(got, b)  # solved in place, no copy


def test_solve_banded_singular_system_rejects_step():
    with pytest.raises(StepRejected):
        solve_banded(np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4))


# --- multi-step behavior against independent oracles ----------------------


def test_pure_heat_cosine_mode_decay_rate():
    # vanishing coupling: the solver must reproduce the Neumann heat kernel
    # decay e^{-pi^2 t} of the half-wavelength cosine mode within 5%
    N = 256
    g = build_grid_1d(1.0, N)
    c0 = 1.0 + 0.1 * np.cos(math.pi * g.centers)
    prob = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="saturating", level=1e-30, alpha=1.0),
        domain=DomainSpec(geometry="interval", L=1.0),
    )
    s = make_state(g, c0)
    opts = StepOptions(dt_max=1e-4)
    t_end = 0.25
    dev0 = np.max(np.abs(s.c - 1.0))
    while s.t < t_end:
        s = step(prob, s, min(adapt_dt(prob, s, opts), t_end - s.t), opts)
    dev1 = np.max(np.abs(s.c - 1.0))
    rate = math.log(dev0 / dev1) / t_end
    assert rate == pytest.approx(math.pi**2, rel=0.05)


def test_symmetric_cosine_keeps_a_zero_and_decays():
    # c0 symmetric under x -> L - x: equal traces force a = 0 exactly, the
    # genuinely coupled m = 1 run is a pure heat flow of the 2pi/L mode
    N = 128
    g = build_grid_1d(1.0, N)
    c0 = 1.0 + 0.1 * np.cos(2.0 * math.pi * g.centers)
    prob = problem(m=1.0)
    s = make_state(g, c0)
    opts = StepOptions(dt_max=5e-5)
    for _ in range(400):
        s = step(prob, s, adapt_dt(prob, s, opts), opts)
        assert abs(s.a) < 1e-12
    assert np.max(np.abs(s.c - 1.0)) < 0.1


def test_first_order_grid_convergence_on_smooth_run():
    # L1 self-convergence against a fine reference on a fixed smooth scenario
    prob = problem(m=1.0)
    t_end = 0.02

    def solve(N):
        g = build_grid_1d(1.0, N)
        s = make_state(g, bump(g, 0.8, 2.0))
        opts = StepOptions(dt_max=0.2 / N)  # dt refines with h
        while s.t < t_end - 1e-14:
            s = step(prob, s, min(adapt_dt(prob, s, opts), t_end - s.t), opts)
        return g, s.c

    g_ref, c_ref = solve(1024)

    def l1_err(N):
        g, c = solve(N)
        ratio = 1024 // N
        coarse_ref = c_ref.reshape(N, ratio).mean(axis=1)
        return integrate(g, np.abs(c - coarse_ref))

    e1, e2 = l1_err(64), l1_err(128)
    assert e1 / e2 == pytest.approx(2.0, rel=0.35)  # first-order convergence


def test_run_rejects_nan_free_but_negative_data_mass():
    g = build_grid_1d(1.0, 16)
    with pytest.raises(ValueError):
        run(problem(), g, np.zeros(16), StepOptions(), StopRule(t_end=0.1))
