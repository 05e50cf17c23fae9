import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflux.grid import GridCyl, PassGeometry, build_grid_1d, build_grid_cyl, integrate
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


def pass_geometries(g):
    return [g.axial.geom, g.rho_geom] if isinstance(g, GridCyl) else [g.geom]


def test_pass_geometry_holds_the_band_factors():
    g = build_grid_cyl(1.0, 1.0, 3, 8, 5, 1.1)
    assert np.array_equal(g.axial.geom.inv_k, g.axial.dist)  # k = 1/dist
    k_rho = 2.0 * math.pi * g.rho_interfaces[1:-1] / np.diff(g.rho_centers)  # sigma_1 rho over the gap
    assert np.allclose(g.rho_geom.inv_k, 1.0 / k_rho, rtol=1e-15, atol=0.0)
    for geom, w in ((g.axial.geom, g.axial.widths), (g.rho_geom, g.vol)):
        assert np.array_equal(geom.inv_w, 1.0 / w)
        assert np.array_equal(geom.diag, 1.0 / w[:-1] + 1.0 / w[1:])
        assert np.array_equal(geom.off, 1.0 / w[1:-1])
        assert not any(getattr(geom, f.name).flags.writeable for f in fields(PassGeometry))


@pytest.mark.parametrize("preset,t_end", [("critical_mass_exact", 0.01), ("cyl_blowup", 1e-4)])
def test_runs_leave_the_stored_band_factors_unchanged(preset, t_end):
    # the LAPACK solve overwrites its bands in place, so a pass that handed
    # it a stored factor would corrupt every later step
    cfg = preset_config(preset)
    grid, _traj, rep = run_config(replace(cfg, stop=replace(cfg.stop, t_end=t_end)))
    assert rep.steps > 10
    fresh = cfg.grid.build(cfg.problem.domain)
    for got, want in zip(pass_geometries(grid), pass_geometries(fresh)):
        for f in fields(PassGeometry):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
