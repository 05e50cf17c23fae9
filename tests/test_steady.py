import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflux.grid import build_grid_1d, integrate
from cellflux.problem import DomainError, DomainSpec, NonlinearitySpec, ProblemSpec
from cellflux.solver1d import StepOptions, make_state, step
from cellflux.steady import (
    DEGENERATE_FAMILY,
    SteadyStateError,
    find_steady,
    lm_norm_of_rate,
    mass_of_rate,
)


def test_mass_of_rate_m1_is_critical_mass():
    # c0 = a/(e^a - 1) makes the mass telescope to exactly 1
    for a in (0.01, 0.5, 2.0, 10.0, 30.0):
        assert mass_of_rate(1.0, 1.0, a) == pytest.approx(1.0, abs=1e-12)


def test_mass_of_rate_dense_grid():
    a = np.arange(1e-2, 30.0 + 1e-9, 1e-2)
    vals = [mass_of_rate(1.0, 1.0, float(x)) for x in a]
    assert max(abs(v - 1.0) for v in vals) <= 1e-10


def test_mass_of_rate_zero_rate_limit():
    # a -> 0+: M -> m^(-1/m) L^((m-1)/m)
    assert mass_of_rate(2.0, 1.0, 1e-9) == pytest.approx(2.0**-0.5, rel=1e-8)
    assert mass_of_rate(3.0, 2.0, 1e-9) == pytest.approx(3.0 ** (-1 / 3) * 2.0 ** (2 / 3), rel=1e-7)


def test_mass_of_rate_domain_and_overflow():
    with pytest.raises(DomainError):
        mass_of_rate(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        mass_of_rate(1.0, 1.0, -2.0)
    # log-domain evaluation survives huge a L
    assert mass_of_rate(2.0, 1.0, 2000.0) > 0.0
    assert math.isfinite(mass_of_rate(2.0, 10.0, 500.0))


@given(st.floats(1.0, 1.0), st.floats(1e-2, 30.0))
@settings(max_examples=50)
def test_m1_family_always_unit_mass(m, a):
    assert mass_of_rate(m, 1.0, a) == pytest.approx(1.0, abs=1e-10)


def test_lm_norm_is_N0_on_unit_interval():
    # int c^m = 1/m for every member, so the L^m norm is m^(-1/m)
    for m in (1.5, 2.0, 3.0):
        for a in (0.1, 1.0, 10.0, 40.0):
            assert lm_norm_of_rate(m, 1.0, a) == pytest.approx(m ** (-1.0 / m), rel=1e-12)


def test_find_steady_m2():
    ss = find_steady(2.0, 1.0, 0.5)
    assert ss is not None and ss is not DEGENERATE_FAMILY
    assert ss.mass == pytest.approx(0.5, abs=1e-9)
    assert ss.lm_norm == pytest.approx(2.0**-0.5, abs=1e-8)
    assert ss.self_consistency_residual() <= 1e-10 * max(1.0, ss.a)


def test_find_steady_existence_iff_below_N0():
    # a_max large enough that the curve covers the small masses in the grid
    # (M(a) ~ a^(-1/2) for m = 2, all in the log domain)
    N0 = 2.0**-0.5
    for M in np.linspace(0.05, 1.0, 20):
        ss = find_steady(2.0, 1.0, float(M), a_max=1e6)
        if M < N0:
            assert ss is not None, f"missing steady state at M={M}"
            assert ss.lm_norm == pytest.approx(N0, abs=1e-8)
        else:
            assert ss is None, f"spurious steady state at M={M}"


def test_find_steady_m1_degenerate_family():
    assert find_steady(1.0, 1.0, 0.7) is None
    assert find_steady(1.0, 1.0, 1.0) == DEGENERATE_FAMILY


@pytest.mark.parametrize("m,L,M", [
    (2.0, math.inf, 1.0), (math.inf, 1.0, 1.0), (2.0, 1.0, math.inf),
    (math.nan, 1.0, 0.5), (2.0, math.nan, 0.5), (2.0, 1.0, math.nan),
])
def test_find_steady_refuses_non_finite_arguments(m, L, M):
    # an infinite L or m used to give a steady state of NaNs
    with pytest.raises(DomainError, match="finite"):
        find_steady(m, L, M)


def test_find_steady_needs_larger_amax_error():
    with pytest.raises(SteadyStateError):
        find_steady(2.0, 1.0, 1e-12, a_max=5.0)  # mass below the curve end


def test_cell_averages_integrate_to_mass():
    ss = find_steady(2.0, 1.0, 0.5)
    g = build_grid_1d(1.0, 200, 1.02)
    c = ss.cell_averages(g)
    assert integrate(g, c) == pytest.approx(ss.mass, rel=1e-12)


def steady_residual(ss, Ncells: int, dt: float | None = None) -> float:
    """One solver step from the exactly sampled profile at the solver's own
    CFL-proportional dt, returning the relative sup change.

    A true discrete fixed point would return 0.  The boundary cells see an
    O(1) flux-closure defect rate, so the sup residual scales like dt ~ h
    and halves under mesh doubling; an explicit dt overrides the default.
    """
    grid = build_grid_1d(ss.L, Ncells)
    c = ss.cell_averages(grid)
    if dt is None:
        dt = 0.2 * grid.h_min / max(ss.a, 1.0)
    problem = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=ss.m),
        domain=DomainSpec(geometry="interval", L=ss.L),
    )
    state = make_state(grid, c)
    state.a = ss.a
    new = step(problem, state, dt, StepOptions(dt_max=max(dt, 1e-2)))
    return float(np.max(np.abs(new.c - c))) / float(np.max(np.abs(c)))


def test_steady_residual_halves_under_refinement():
    ss = find_steady(2.0, 1.0, 0.5)
    r128 = steady_residual(ss, 128)
    r256 = steady_residual(ss, 256)
    r512 = steady_residual(ss, 512)
    assert r128 / r256 == pytest.approx(2.0, rel=0.5)
    assert r256 / r512 == pytest.approx(2.0, rel=0.5)
    assert r512 < 2e-4


def test_steady_residual_constant_degenerate_case():
    # a constant profile is the degenerate steady state: one step leaves it
    # unchanged to roundoff
    g = build_grid_1d(1.0, 64)
    s = make_state(g, np.full(64, 0.4))
    prob = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=2.0),
        domain=DomainSpec(geometry="interval", L=1.0),
    )
    out = step(prob, s, 1e-4, StepOptions())
    assert np.max(np.abs(out.c - 0.4)) <= 1e-15
