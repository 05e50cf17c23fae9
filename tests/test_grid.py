import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflux import solver1d
from cellflux.grid import GridCyl, build_grid_1d, build_grid_cyl, integrate
from cellflux.harness import run_config
from cellflux.presets import preset_config
from cellflux.problem import ConfigError


def test_uniform_grid():
    g = build_grid_1d(1.0, 4, 1.0)
    assert np.allclose(g.widths, 0.25)
    assert np.allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
    assert g.interfaces[0] == 0.0 and g.interfaces[-1] == 1.0


def test_geometric_grading():
    g = build_grid_1d(1.0, 2, 3.0)
    assert np.allclose(g.widths, [0.25, 0.75])
    g = build_grid_1d(2.0, 64, 1.1)
    # widths grow by r away from x = 0 and sum to L exactly
    assert np.allclose(g.widths[1:] / g.widths[:-1], 1.1, rtol=1e-9)
    assert g.widths.sum() == pytest.approx(2.0, abs=0.0)  # last width absorbs rounding
    assert g.h_min == g.widths[0]


def test_grid_rejects_bad_args():
    with pytest.raises(ConfigError):
        build_grid_1d(1.0, 1)
    with pytest.raises(ConfigError):
        build_grid_1d(1.0, 16, 0.9)
    with pytest.raises(ConfigError):
        build_grid_cyl(1.0, 1.0, 1, 8, 8)
    with pytest.raises(ConfigError):
        build_grid_cyl(1.0, -1.0, 2, 8, 8)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_grid_refuses_a_non_finite_size_by_name(value):
    # NaN passes a bare r < 1 test, and inf a bare R > 0 one
    with pytest.raises(ConfigError, match="grading ratio r"):
        build_grid_1d(1.0, 16, value)
    with pytest.raises(ConfigError, match="length L"):
        build_grid_1d(value, 16)
    with pytest.raises(ConfigError, match="radius R"):
        build_grid_cyl(1.0, value, 3, 8, 8)


@given(st.integers(2, 400), st.floats(1.0, 1.2), st.floats(0.1, 10.0))
@settings(max_examples=60)
def test_grid_invariants(N, r, L):
    g = build_grid_1d(L, N, r)
    assert np.all(np.diff(g.interfaces) > 0)
    assert g.interfaces[-1] == L
    assert abs(g.widths.sum() - L) <= 5e-16 * L * N
    assert integrate(g, np.ones(N)) == pytest.approx(L, rel=1e-12)


def test_cyl_radial_weights_disc():
    g = build_grid_cyl(1.0, 1.0, 3, 4, 2)
    # n = 3: sigma_1 = 2 pi, int rho drho per cell
    assert g.vol.sum() == pytest.approx(math.pi, rel=1e-15)
    g1 = build_grid_cyl(1.0, 1.0, 3, 4, 2)
    assert np.allclose(g1.vol, [math.pi / 4, 3 * math.pi / 4])
    g2 = build_grid_cyl(1.0, 2.0, 3, 4, 2)
    assert np.allclose(g2.vol, [math.pi, 3 * math.pi])


def test_cyl_radial_weights_n2():
    g = build_grid_cyl(1.0, 1.0, 2, 4, 2)
    assert g.vol.sum() == pytest.approx(2.0, rel=1e-15)  # interval (-1, 1)
    assert np.allclose(g.vol, [1.0, 1.0])


@given(st.integers(2, 6), st.floats(0.2, 3.0), st.integers(2, 40))
@settings(max_examples=40)
def test_cyl_ball_volume_exact(n, R, Nr):
    g = build_grid_cyl(1.0, R, n, 4, Nr)
    exact = 2.0 * math.pi ** ((n - 1) / 2) / math.gamma((n - 1) / 2) * R ** (n - 1) / (n - 1)
    assert g.ball_volume == pytest.approx(exact, rel=1e-12)


def test_integrate_examples():
    g = build_grid_1d(1.0, 4)
    assert integrate(g, np.ones(4)) == pytest.approx(1.0)
    ind = np.zeros(4)
    ind[0] = 1.0
    assert integrate(g, ind) == pytest.approx(0.25)
    gc = build_grid_cyl(1.0, 1.0, 3, 8, 4)
    assert integrate(gc, np.ones((8, 4))) == pytest.approx(math.pi, rel=1e-13)
    with pytest.raises(ValueError):
        integrate(g, np.ones(5))
    with pytest.raises(ValueError):
        integrate(gc, np.ones((4, 8)))


def test_refinement_leaves_constant_integral_unchanged():
    for N, r in [(32, 1.1), (64, 1.05), (256, 1.01), (512, 1.0)]:
        g = build_grid_1d(math.pi, N, r)
        assert integrate(g, np.full(N, 2.0)) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_grid_holds_each_pass_s_conductances_read_only():
    g = build_grid_cyl(1.0, 1.0, 3, 8, 5, 1.1)
    assert np.array_equal(g.axial.dist, np.diff(g.axial.centers))  # 1/k of the axial faces
    k_rho = 2.0 * math.pi * g.rho_interfaces[1:-1] / np.diff(g.rho_centers)  # sigma_1 rho over the gap
    assert np.allclose(g.rho_inv_k, 1.0 / k_rho, rtol=1e-15, atol=0.0)
    for a in (g.axial.widths, g.axial.dist, g.vol, g.rho_inv_k):
        assert not a.flags.writeable


@pytest.mark.parametrize("preset,t_end", [("critical_mass_exact", 0.01), ("cyl_blowup", 1e-4)])
def test_runs_leave_the_stored_band_factors_unchanged(monkeypatch, preset, t_end):
    # the LAPACK solve overwrites its bands in place, so a pass that handed
    # it a stored factor would corrupt every later step: after a run, each
    # pass's dt-free factors and the grid arrays they are built from are
    # those of a fresh build
    cfg = preset_config(preset)
    real_step, states = solver1d.step, []
    monkeypatch.setattr(solver1d, "step", lambda problem, state, *args: states.append(state)
                        or real_step(problem, state, *args))
    grid, _traj, rep = run_config(replace(cfg, stop=replace(cfg.stop, t_end=t_end)))
    assert rep.steps > 10
    fresh = solver1d.make_state(cfg.grid.build(cfg.problem.domain), states[-1].c)
    assert len(states[-1].work) == len(fresh.work) == 1 + isinstance(grid, GridCyl)
    for got, want in zip(states[-1].work, fresh.work):
        for name in ("line_inv_k", "diag", "off", "inv_k", "inv_w"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    new = fresh.grid
    pairs = [(grid.axial.widths, new.axial.widths), (grid.axial.dist, new.axial.dist)]
    if isinstance(grid, GridCyl):
        pairs += [(grid.vol, new.vol), (grid.rho_inv_k, new.rho_inv_k)]
    for got, want in pairs:
        assert np.array_equal(got, want)
