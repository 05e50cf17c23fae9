"""Finite-volume meshes: graded 1D intervals and axisymmetric cylinders.

Radial quadrature weights are closed-form integrals of the surface factor
rho^(n-2), so integrating a cellwise-constant field is exact and the mass
audit never sees quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import ConfigError, sphere_area


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid1D:
    """Cells on (0, L).  Widths grow geometrically by r away from x = 0
    (r = 1 is uniform), so grading refines the proven blow-up end."""

    L: float
    N: int
    r: float
    interfaces: np.ndarray
    widths: np.ndarray
    centers: np.ndarray
    dist: np.ndarray = field(repr=False)  # center-to-center gaps, N-1 interior faces

    @property
    def h_min(self) -> float:
        return float(self.widths[0] if self.r >= 1.0 else self.widths.min())

    @property
    def shape(self) -> tuple:
        return (self.N,)


def build_grid_1d(L: float, N: int, r: float = 1.0) -> Grid1D:
    if N < 2:
        raise ConfigError(f"need at least 2 cells, got {N}")
    if r < 1.0:
        raise ConfigError(f"grading ratio must be >= 1, got {r}")
    if not L > 0:
        raise ConfigError(f"length must be positive, got {L}")
    if r == 1.0:
        interfaces = np.linspace(0.0, L, N + 1)
    else:
        h1 = L * (r - 1.0) / (r**N - 1.0)
        interfaces = np.concatenate([[0.0], np.cumsum(h1 * r ** np.arange(N))])
        interfaces[-1] = L  # last width absorbs the accumulated rounding
    widths = np.diff(interfaces)
    centers = 0.5 * (interfaces[:-1] + interfaces[1:])
    return Grid1D(
        L=L,
        N=N,
        r=r,
        interfaces=_freeze(interfaces),
        widths=_freeze(widths),
        centers=_freeze(centers),
        dist=_freeze(centers[1:] - centers[:-1]),
    )


@dataclass(frozen=True)
class GridCyl:
    """Axisymmetric mesh on (0, L) x B'_R: an axial Grid1D times uniform
    radial cells with exact volume weights vol[j] = sigma_{n-2} * int rho^{n-2}."""

    axial: Grid1D
    R: float
    n: int
    Nr: int
    rho_interfaces: np.ndarray
    rho_centers: np.ndarray
    rho_widths: np.ndarray
    vol: np.ndarray  # radial volume weight per cell
    face_area: np.ndarray = field(repr=False)  # sigma_{n-2} rho^{n-2} at the Nr-1 interior faces
    rho_dist: np.ndarray = field(repr=False)  # radial center-to-center gaps, Nr-1 interior faces

    @property
    def ball_volume(self) -> float:
        return float(self.vol.sum())

    @property
    def h_min(self) -> float:
        """Smallest axial width, the advective CFL length."""
        return self.axial.h_min

    @property
    def shape(self) -> tuple:
        return (self.axial.N, self.Nr)


def build_grid_cyl(
    L: float, R: float, n: int, Nx: int, Nr: int, r_axial: float = 1.0
) -> GridCyl:
    if n < 2:
        raise ConfigError(f"cylinder needs ambient dimension >= 2, got {n}")
    if Nr < 2:
        raise ConfigError(f"need at least 2 radial cells, got {Nr}")
    if not R > 0:
        raise ConfigError(f"radius must be positive, got {R}")
    axial = build_grid_1d(L, Nx, r_axial)
    rho_if = np.linspace(0.0, R, Nr + 1)
    sigma = sphere_area(n - 2)
    # exact antiderivative of rho^(n-2): rho^(n-1)/(n-1)
    vol = sigma * (rho_if[1:] ** (n - 1) - rho_if[:-1] ** (n - 1)) / (n - 1)
    rho_centers = 0.5 * (rho_if[:-1] + rho_if[1:])
    return GridCyl(
        axial=axial,
        R=R,
        n=n,
        Nr=Nr,
        rho_interfaces=_freeze(rho_if),
        rho_centers=_freeze(rho_centers),
        rho_widths=_freeze(np.diff(rho_if)),
        vol=_freeze(vol),
        face_area=_freeze(sigma * rho_if[1:-1] ** (n - 2)),
        rho_dist=_freeze(rho_centers[1:] - rho_centers[:-1]),
    )


def integrate(grid, field) -> float:
    """Integral of a cellwise-constant field over the domain; exact up to roundoff."""
    if not isinstance(grid, (Grid1D, GridCyl)):
        raise TypeError(f"not a grid: {type(grid)!r}")
    field = np.asarray(field)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    if isinstance(grid, Grid1D):
        return float(np.sum(field * grid.widths))
    return float(grid.axial.widths @ field @ grid.vol)
