import math
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgtsv, dptsv
from hypothesis import assume, given, settings, strategies as st

from cellflux import harness, presets, solver1d
from cellflux.grid import build_grid_1d, build_grid_cyl, integrate
from cellflux.problem import KINDS, DomainSpec, NonlinearitySpec, ProblemSpec, ball_volume, sphere_area
from cellflux.runner import StopRule, run
from cellflux.solver1d import (
    StepOptions,
    StepRejected,
    _advect_diffuse,
    adapt_dt,
    compute_a,
    end_traces,
    make_state,
    solve_banded,
    step,
)


def problem(kind="signed_power", m=1.0, L=1.0):
    return ProblemSpec(
        nonlinearity=NonlinearitySpec(kind=kind, m=m),
        domain=DomainSpec(geometry="interval", L=L),
    )


def bump(grid, M, k):
    F = -M * np.clip(1.0 - k * grid.interfaces, 0.0, None) ** 3
    return (F[1:] - F[:-1]) / grid.widths


# --- traces ---------------------------------------------------------------


GEOMETRIES = ["interval", "cylinder"]


def profile_state(geometry, prof, r=1.0):
    """(problem, state) of the axial profile prof, rho-independent on a unit
    cross-section (n = 2, R = 1/2) in the cylinder, so that both geometries
    share the coupling and the traces."""
    N, L = len(prof), 0.1 * len(prof)
    if geometry == "interval":
        return problem(L=L), make_state(build_grid_1d(L, N, r), np.array(prof, dtype=float))
    prob = ProblemSpec(nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
                       domain=DomainSpec(geometry="cylinder", L=L, R=0.5, n=2))
    return prob, make_state(build_grid_cyl(L, 0.5, 2, N, 3, r), np.tile(np.array(prof, float)[:, None], (1, 3)))


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_traces_zero_a_degenerates_to_cap_values(geometry):
    _, s = profile_state(geometry, np.linspace(2.0, 1.0, 8))
    cl, cr = end_traces(s)
    assert cl == pytest.approx(2.0, rel=1e-15) and cr == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_traces_robin_closure_value(geometry):
    # (c1 - c_left)/(h/2) = a c_left  =>  c_left = c1/(1 + a h/2)
    _, s = profile_state(geometry, np.full(8, 2.0))  # h = 0.1
    s.a = 1.0
    cl, cr = end_traces(s)
    assert cl == pytest.approx(2.0 / 1.05, rel=1e-15)
    assert cr == pytest.approx(2.0 / 0.95, rel=1e-15)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_traces_cell_mode_ignores_a(geometry):
    prob, s = profile_state(geometry, np.linspace(2.0, 1.0, 8))
    s.a = compute_a(prob, s, StepOptions(trace_mode="cell"))
    assert s.a != 0.0 and s.robin_ends == (False, False)
    cl, cr = end_traces(s)
    assert cl == pytest.approx(2.0, rel=1e-15) and cr == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_traces_guard_falls_back_per_end(geometry):
    # graded grid (r = 1.3): an iterate crosses the guard at the coarse right
    # end, which stays in cell mode although the converged a is back inside
    # (|a| hN = 0.93); the fine left end keeps its Robin trace
    prob, s = profile_state(geometry, np.linspace(5.0, 1.0, 8), r=1.3)
    s.a = compute_a(prob, s, StepOptions())
    h = s.grid.axial.widths
    assert s.robin_ends == (True, False)
    assert abs(s.a) * h[-1] == pytest.approx(0.925, abs=1e-3)
    cl, cr = end_traces(s)
    assert cl == pytest.approx(5.0 / (1.0 + 0.5 * s.a * h[0]), rel=1e-15)
    assert cr == pytest.approx(1.0, rel=1e-15)


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


def law(kind: str, u: float) -> NonlinearitySpec:
    """The law of the given kind with m at fraction u of the kind's range:
    [1, 3] for the signed and negative powers, [0.1, 0.9] for the
    sublinear power (saturating has no m)."""
    if kind == "sublinear_power":
        return NonlinearitySpec(kind=kind, m=0.1 + 0.8 * u)
    if kind == "saturating":
        return NonlinearitySpec(kind=kind)
    return NonlinearitySpec(kind=kind, m=1.0 + 2.0 * u)


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
    st.sampled_from(KINDS),
    st.floats(0.0, 1.0),
    st.sampled_from(["cell", "robin"]),
)
@settings(max_examples=40, deadline=None)
def test_mass_conserved_and_nonnegative_on_random_data(
    geometry, N, r, Nr, n, monotone, rho_independent, M, seed, kind, u, trace_mode
):
    # after every step, for every law of f and either trace mode: mass,
    # positivity and (for nonincreasing data) monotonicity in either
    # geometry; rho-independent data on a cylinder of unit cross-section is
    # also marched on the interval, and must match it.  negative_power is
    # exempt from monotonicity: nonincreasing data give a > 0 under an
    # absorbing law, and the no-flux condition c_x = a c then makes c
    # increase near x = L.
    rng = np.random.default_rng(seed)
    g1 = build_grid_1d(1.0, N, r)
    prof = rng.random(N) + 1e-3
    if monotone:
        prof = np.sort(prof)[::-1]
    prof *= M / integrate(g1, prof)
    # keep the boundary layer resolvable (c1 h/2 < 1/4 is where the Robin
    # closure is well posed); spiky data on coarse grids is the guarded regime
    assume(float(prof[0]) * g1.widths[0] < 0.3)
    nl = law(kind, u)
    opts = StepOptions(dt_max=1e-3, trace_mode=trace_mode)
    runs = []  # (grid, problem, state)
    if geometry == "cylinder":
        R = ball_volume(n - 1, 1.0) ** (-1.0 / (n - 1))  # |B'_R| = 1
        gc = build_grid_cyl(1.0, R, n, N, Nr, r)
        radial = np.ones(Nr) if rho_independent else 1.0 + rng.random(Nr)
        prob = ProblemSpec(nonlinearity=nl, domain=DomainSpec(geometry="cylinder", L=1.0, R=R, n=n))
        runs.append((gc, prob, make_state(gc, prof[:, None] * radial)))
    if geometry == "interval" or rho_independent:
        runs.append((g1, problem(kind=nl.kind, m=nl.m), make_state(g1, prof)))
    mass0 = [integrate(g, s.c) for g, _p, s in runs]
    for _ in range(20):
        dt = min(adapt_dt(p, s, opts) for _g, p, s in runs)
        while dt > opts.dt_min:
            try:
                runs = [(g, p, step(p, s, dt, opts)) for g, p, s in runs]
                break
            except StepRejected:
                dt *= 0.5
        else:
            # spiky supercritical data may reach the singular regime, where
            # persistent rejection is the designed exit
            break
        for (g, _p, s), m0 in zip(runs, mass0):
            linf = np.abs(s.c).max()
            assert abs(integrate(g, s.c) - m0) <= 1e-13 * m0
            assert s.c.min() >= -1e-12 * linf
            if monotone and kind != "negative_power":
                assert np.max(np.diff(s.c, axis=0)) <= 1e-12 * linf
        if len(runs) == 2:
            assert np.max(np.abs(runs[0][2].c - runs[1][2].c[:, None])) <= 1e-10


def one_face_pass(c0, c1, dt, w0, w1, k, a=0.0):
    """Hand-solved advect-and-diffuse pass over two cells: upwind advection,
    then the 1x1 face-flux system (1 + k (tl + tr)) F = k (y1 - y0)."""
    tl, tr = dt / w0, dt / w1
    J = -a * (c0 if a >= 0.0 else c1)
    y0, y1 = c0 + tl * J, c1 - tr * J
    F = k * (y1 - y0) / (1.0 + k * (tl + tr))
    return y0 + tl * F, y1 - tr * F


def test_one_interior_face_matches_hand_solved_system():
    # N = 2 cells and Nr = 2 radial cells leave one interior face, so each
    # diffusion solve has a single unknown
    dt = 1e-3
    g = build_grid_1d(1.0, 2)
    s = make_state(g, [2.0, 1.0])
    out = step(problem(m=1.0), s, dt, StepOptions())
    want = one_face_pass(2.0, 1.0, dt, *g.widths, 1.0 / g.dist[0], out.a)
    assert out.c == pytest.approx(want, rel=1e-14)
    assert abs(integrate(g, out.c) - integrate(g, s.c)) <= 1e-13 * integrate(g, s.c)

    gc = build_grid_cyl(1.0, 1.0, 3, 2, 2)
    c0 = np.array([[2.0, 1.5], [1.0, 0.5]])
    prob = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
        domain=DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=3),
    )
    s = make_state(gc, c0)
    out = step(prob, s, dt, StepOptions())
    ax = gc.axial
    axial = np.array([one_face_pass(*c0[:, j], dt, *ax.widths, 1.0 / ax.dist[0], out.a) for j in range(2)]).T
    k = 2.0 * math.pi * 0.5 / 0.5  # sigma_1 rho at the face rho = 1/2, over the center gap 1/2
    want = np.array([one_face_pass(*axial[i], dt, *gc.vol, k) for i in range(2)])
    assert np.allclose(out.c, want, rtol=1e-14, atol=0.0)
    assert abs(integrate(gc, out.c) - integrate(gc, c0)) <= 1e-13 * integrate(gc, c0)


def radial_conductance(g):
    """sigma_{n-2} rho^{n-2} at each interior radial face over the center gap."""
    return sphere_area(g.n - 2) * g.rho_interfaces[1:-1] ** (g.n - 2) / np.diff(g.rho_centers)


def advect_diffuse_reference(c, dt, widths, k, a=0.0, h_min=math.inf):
    """The advect-and-diffuse pass as it was before the grids stored their
    band factors: dt/w rebuilt from the widths, the nonsymmetric bands of
    the face-flux system from k, tl and tr and solved by LAPACK dgtsv, and
    each commit as two strided in-place slice updates."""
    if dt * abs(a) > h_min:
        raise StepRejected(f"advective CFL violated: dt*|a| = {dt * abs(a):.3g} > h_min")
    col = np.s_[:] if c.ndim == 1 else np.s_[:, None]
    tl, tr = dt / widths[:-1], dt / widths[1:]
    sl, sr = tl[col], tr[col]
    out = c.copy(order="K")
    if a != 0.0:
        J = -a * (c[:-1] if a >= 0.0 else c[1:])
        out[:-1] += sl * J
        out[1:] -= sr * J
    F = out[1:] - out[:-1]
    F *= k[col]
    dl, d, du = -k[1:] * tl[1:], 1.0 + k * (tl + tr), -k[:-1] * tr[:-1]
    if len(d) == 1:
        dl = du = np.zeros(1)  # SciPy's dgtsv wrapper wants off-diagonals of one entry
    F, info = dgtsv(dl, d, du, F)[3:]
    if info != 0:
        raise StepRejected(f"tridiagonal solve failed (dgtsv info = {info})")
    if not np.all(np.isfinite(F)):
        raise StepRejected("tridiagonal solve produced non-finite values")
    out[:-1] += sl * F
    out[1:] -= sr * F
    return out


def random_passes(seed):
    """A random graded cylinder grid and the three kinds of pass the
    steppers make: (field, widths, k, geometry, h_min) for an (N,) field
    and an (N, K) Fortran-ordered field along the axis, and the transpose of
    the latter along rho (the radial call)."""
    rng = np.random.default_rng(seed)
    N = 2 if seed == 0 else int(rng.integers(3, 400))
    Nr = 2 if seed == 1 else int(rng.integers(3, 24))
    g = build_grid_cyl(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 5)),
                       N, Nr, float(rng.uniform(1.0, 1.1)))
    ax = g.axial
    c = np.asfortranarray(rng.random((N, Nr)) * 10.0 ** rng.uniform(-3, 3, size=Nr))
    axial = (ax.widths, 1.0 / ax.dist, ax.geom, ax.h_min)
    radial = (g.vol, radial_conductance(g), g.rho_geom, float(g.vol.min()))
    return rng, [(c[:, 0].copy(),) + axial, (c,) + axial, (c.T,) + radial]


@pytest.mark.parametrize("seed", range(16))
def test_advect_diffuse_matches_the_reference_pass(seed):
    # the pass built from the grid's stored factors, solving the symmetric
    # face-flux system by dptsv and committing it as one divergence of a
    # zero-ended flux buffer, against the pass that rebuilt its nonsymmetric
    # bands every call, solved them by dgtsv and committed by two slice
    # updates.  The two round fluxes of size dt/h^2 linf differently, so they
    # agree to eps linf on the scale 1 + dt max k (1/w_l + 1/w_r) of the
    # nonsymmetric system's diagonal
    rng, passes = random_passes(seed)
    eps = np.finfo(float).eps
    for c, widths, k, geom, h_min in passes:
        dt = h_min ** 2 * 10.0 ** rng.uniform(-2, 3)
        for a in (0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0) * h_min / dt)):
            got, _factors = _advect_diffuse(c, dt, geom, a, h_min)
            want = advect_diffuse_reference(c, dt, widths, k, a, h_min)
            assert got.shape == c.shape and got.flags.f_contiguous == c.flags.f_contiguous
            scale = 1.0 + dt * float(np.max(k * (1.0 / widths[:-1] + 1.0 / widths[1:])))
            assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want)) * scale
            # sum(w c) telescopes, column by column
            for j in range(1 if c.ndim == 1 else c.shape[1]):
                cj, gj = (c, got) if c.ndim == 1 else (c[:, j], got[:, j])
                m0 = math.fsum(widths * cj)
                assert abs(math.fsum(widths * gj) - m0) <= 1e-15 * m0


@pytest.mark.parametrize("seed", range(4))
def test_advect_diffuse_keeps_data_constant_along_the_axis_bitwise(seed):
    _rng, passes = random_passes(seed)
    for c, _widths, _k, geom, h_min in passes:
        flat = c.copy(order="K")
        flat[:] = c[:1]
        assert np.array_equal(_advect_diffuse(flat, 1e3 * h_min**2, geom)[0], flat)


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



def diffusion_bands(widths, k, dt):
    """(dl, d, du) of the face-flux system as the pass solved it before each
    row was divided by its conductance: n - 1 unknowns, one per interior
    face of conductance k, with k times the difference of the advected
    field across each face as right-hand side."""
    tl, tr = dt / widths[:-1], dt / widths[1:]
    return -k[1:] * tl[1:], 1.0 + k * (tl + tr), -k[:-1] * tr[:-1]


def assert_solves_the_nonsymmetric_system(x, widths, k, dt, b):
    """x, the solve_banded solution for right-hand side b (one column per
    system), agrees with a dense solve of the nonsymmetric bands for k b to
    8 eps times the infinity-norm condition number."""
    dl, d, du = diffusion_bands(widths, k, dt)
    A = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    want = np.linalg.solve(A, k[:, None] * b.reshape(len(k), -1)).reshape(b.shape)
    eps = np.finfo(float).eps
    assert np.max(np.abs(x - want)) <= 8 * eps * np.linalg.cond(A, np.inf) * np.max(np.abs(want))


def scipy_reference(d, e, b):
    """scipy.linalg.solveh_banded on the lower band form, which also calls
    LAPACK ?ptsv for a tridiagonal matrix."""
    return scipy.linalg.solveh_banded(np.vstack([d, np.append(e, 0.0)]), b, lower=True)


def spd_bands(geom, dt):
    """(d, e) of the symmetric face-flux system of a pass, as it hands them
    to solve_banded."""
    return geom.inv_k + dt * geom.diag, -dt * geom.off


@pytest.mark.parametrize("seed", range(6))
def test_solve_banded_bitwise_equal_to_scipy_on_graded_grids(seed):
    # the axial pass's symmetric system on random graded grids: bitwise
    # SciPy's ptsv solve, and the solution of the nonsymmetric bands
    rng = np.random.default_rng(seed)
    N = int(rng.integers(3, 600))
    g = build_grid_1d(float(rng.uniform(0.5, 2.0)), N, float(rng.uniform(1.0, 1.05)))
    dt = 10.0 ** rng.uniform(-7, -2)
    d, e = spd_bands(g.geom, dt)
    b = rng.standard_normal(N - 1)
    expect = scipy_reference(d, e, b)
    got = solve_banded(d.copy(), e.copy(), b.copy())
    assert got.shape == (N - 1,)
    assert np.array_equal(got, expect)
    assert_solves_the_nonsymmetric_system(got, g.widths, 1.0 / g.dist, dt, b)


@pytest.mark.parametrize("seed", range(4))
def test_solve_banded_bitwise_multi_rhs_radial_in_place(seed):
    # the cylinder's radial pass: (Nr - 1)-unknown systems, one per axial
    # row, with a Fortran-ordered (Nr - 1, Nx) right-hand side
    rng = np.random.default_rng(100 + seed)
    Nx = int(rng.integers(2, 300))
    Nr = int(rng.integers(3, 40))
    g = build_grid_cyl(1.0, float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 5)), Nx, Nr,
                       float(rng.uniform(1.0, 1.05)))
    dt = 10.0 ** rng.uniform(-7, -2)
    d, e = spd_bands(g.rho_geom, dt)
    b = rng.standard_normal((Nx, Nr - 1)).T
    rhs = b.copy(order="F")
    expect = scipy_reference(d, e, b)
    got = solve_banded(d.copy(), e.copy(), b)
    assert got.shape == (Nr - 1, Nx)
    assert np.array_equal(got, expect)
    assert np.shares_memory(got, b)  # solved in place, no copy
    assert_solves_the_nonsymmetric_system(got, g.vol, radial_conductance(g), dt, rhs)


def test_solve_banded_one_face_system():
    # N = 2 cells leave one interior face: a 1 x 1 system with an empty
    # off-diagonal, for one right-hand side or several
    for b in (np.array([3.0]), np.asfortranarray([[3.0, -1.0, 0.5]])):
        got = solve_banded(np.array([4.0]), np.zeros(0), b.copy(order="F"))
        assert got.shape == b.shape and np.array_equal(got, b / 4.0)
    g = build_grid_cyl(1.0, 1.0, 3, 2, 2)
    for geom, widths, k in ((g.axial.geom, g.axial.widths, 1.0 / g.axial.dist),
                            (g.rho_geom, g.vol, radial_conductance(g))):
        assert geom.off.size == 0
        b = np.array([0.7])
        got = solve_banded(*spd_bands(geom, 1e-3), b.copy())
        assert_solves_the_nonsymmetric_system(got, widths, k, 1e-3, b)


@pytest.mark.parametrize("shape", ["vector", "fortran in place", "one face"])
def test_solve_banded_factored_bitwise_equal_to_a_fresh_dptsv(shape):
    # a step at its previous dt solves on the d and e that the previous
    # step's unfactored call overwrote with their LDL^T factors
    rng = np.random.default_rng(7)
    g = build_grid_cyl(1.0, 1.0, 3, 2 if shape == "one face" else 200, 12, 1.03)
    d0, e0 = spd_bands(g.rho_geom if shape == "fortran in place" else g.axial.geom, 3e-4)
    n = len(d0)
    rhs = (n, 5) if shape == "fortran in place" else (n,)
    d, e = d0.copy(), e0.copy()
    solve_banded(d, e, np.ones(rhs, order="F"))
    for _ in range(2):  # the factors stay as they are
        b = np.asfortranarray(rng.standard_normal(rhs))
        # SciPy's dptsv wants an off-diagonal of at least one entry
        want = dptsv(d0.copy(), e0.copy() if n > 1 else np.zeros(1), b.copy(order="F"))[2]
        got = solve_banded(d, e, b, factored=True)
        assert got.shape == b.shape and np.array_equal(got, want)
        assert np.shares_memory(got, b)  # solved in place


def test_solve_banded_singular_system_rejects_step():
    with pytest.raises(StepRejected):
        solve_banded(np.zeros(4), np.zeros(3), np.ones(4))


@pytest.mark.parametrize("d,e", [
    ([-1.0], []),  # one face
    ([2.0, -1.0, 2.0], [0.5, 0.5]),  # a negative pivot
    ([1.0, 1.0], [2.0]),  # positive diagonal, indefinite: det = -3
])
def test_solve_banded_rejects_a_matrix_that_is_not_positive_definite(d, e):
    with pytest.raises(StepRejected):
        solve_banded(np.array(d), np.array(e), np.ones(len(d)))


@pytest.mark.parametrize("geometry", ["interval", "radial"])
@pytest.mark.parametrize("bad", ["nan", "lone +inf", "+inf and -inf"])
def test_pass_rejects_a_non_finite_right_hand_side(geometry, bad):
    # the pass's right-hand side is the difference of the field across each
    # face: a NaN cell gives NaNs, +inf in the last cell a lone +inf at the
    # last face, and +inf in an inner cell +inf and -inf at its two faces
    g = build_grid_cyl(1.0, 1.0, 3, 12, 6)
    c = np.asfortranarray(1.0 + np.random.default_rng(0).random(g.shape))
    c, geom = (c[:, 0].copy(), g.axial.geom) if geometry == "interval" else (c.T, g.rho_geom)
    n = len(c)
    cell, value = {"nan": (n // 2, math.nan), "lone +inf": (n - 1, math.inf),
                   "+inf and -inf": (n // 2, math.inf)}[bad]
    c[cell] = value
    rhs = c[1:] - c[:-1]
    assert np.isposinf(rhs).any() == (bad != "nan") and np.isneginf(rhs).any() == (bad == "+inf and -inf")
    with pytest.raises(StepRejected, match="non-finite"):
        _advect_diffuse(c, 1e-3, geom)


# --- factors reused across steps --------------------------------------------


def factored_run(monkeypatch, cfg, refactor=False, poison=None):
    """harness.run_config(cfg) with the stepper and solve_banded wrapped.
    refactor=True drops the factors of each state before it is stepped, so
    every pass factors afresh.  poison=i fills the solution of the i-th
    solve (counting from 1) with NaN, which the pass then rejects.  Returns
    (records, report, last committed field, the dt of every attempted step,
    the (dt, factored) of every solve)."""
    real_step, real_solve = solver1d.step, solver1d.solve_banded
    dts, solves, last = [], [], []

    def stepper(problem, state, dt, opts):
        dts.append(dt)
        new = real_step(problem, replace(state, factors=(None, None)) if refactor else state, dt, opts)
        last[:] = [new.c]
        return new

    def solve(d, e, b, factored=False):
        x = real_solve(d, e, b, factored)
        solves.append((dts[-1], factored))
        if len(solves) == poison:
            x[...] = math.nan
        return x

    with monkeypatch.context() as mp:
        mp.setattr(solver1d, "step", stepper)
        mp.setattr(solver1d, "solve_banded", solve)
        _grid, traj, rep = harness.run_config(cfg)
    return traj.records, rep, last[0], dts, solves


def assert_bitwise_equal_runs(got, want):
    """Records, report and last field of two factored_run results agree
    bitwise (repr round-trips every float exactly)."""
    assert repr(got[0]) == repr(want[0])
    assert repr(asdict(got[1])) == repr(asdict(want[1]))
    assert got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("name,stop,passes", [
    ("heat_decay", {}, 1),  # dt stays at dt_max: every pass after the first reuses
    ("cyl_reduction", {"t_end": 0.02}, 2),  # both passes reuse
])
def test_reused_factors_are_bitwise_those_of_refactoring_every_pass(monkeypatch, name, stop, passes):
    cfg = presets.preset_config(name)
    cfg = replace(cfg, stop=replace(cfg.stop, **stop))
    got = factored_run(monkeypatch, cfg)
    want = factored_run(monkeypatch, cfg, refactor=True)
    assert_bitwise_equal_runs(got, want)
    dts, solves = got[3], got[4]
    assert got[1].steps == len(dts) > 100  # every attempted step committed
    # a pass reuses exactly when its step's dt is the previous step's
    assert solves == [(dt, i > 0 and dt == dts[i - 1]) for i, dt in enumerate(dts) for _ in range(passes)]
    assert sum(f for _dt, f in solves) >= passes * (len(dts) - 2)
    assert not any(f for _dt, f in want[4])


def test_a_retried_step_and_the_clamped_last_step_factor_afresh(monkeypatch):
    # heat_decay holds dt at dt_max = 1e-4; its fifth step is rejected after
    # a solve on reused factors, retried at dt/2, and t_end leaves a last
    # step of 8e-5
    cfg = presets.preset_config("heat_decay")
    cfg = replace(cfg, grid=replace(cfg.grid, N=32), stop=replace(cfg.stop, t_end=0.00113))
    dt_max = cfg.step.dt_max
    got = factored_run(monkeypatch, cfg, poison=5)
    assert_bitwise_equal_runs(got, factored_run(monkeypatch, cfg, refactor=True, poison=5))
    dts, solves = got[3], got[4]
    assert got[1].outcome == "BOUNDED" and len(dts) == got[1].steps + 1
    assert solves[3:7] == [(dt_max, True), (dt_max, True), (dt_max / 2, False), (dt_max, False)]
    assert solves[7] == (dt_max, True)
    assert dts[-1] < dt_max and solves[-1] == (dts[-1], False)


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
