"""Finite-volume meshes: graded 1D intervals and axisymmetric cylinders.

Radial quadrature weights are closed-form integrals of the surface factor
rho^(n-2), so integrating a cellwise-constant field is exact and the mass
audit never sees quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    dist: np.ndarray = field(repr=False)  # center-to-center gaps, N-1 interior faces: 1/k of the axial pass

    @property
    def h_min(self) -> float:
        return float(self.widths[0])  # build_grid_1d rejects r < 1

    @cached_property  # solver1d.compute_a reads it on every step
    def end_widths(self) -> tuple[float, float]:
        return float(self.widths[0]), float(self.widths[-1])

    @property
    def axial(self) -> Grid1D:
        """The grid itself, as GridCyl.axial is the cylinder's axial grid."""
        return self

    @property
    def shape(self) -> tuple:
        return (self.N,)


def build_grid_1d(L: float, N: int, r: float = 1.0) -> Grid1D:
    if N < 2:
        raise ConfigError(f"need at least 2 cells, got {N}")
    # NaN fails every comparison, so these bounds refuse it too
    if not 1.0 <= r < math.inf:
        raise ConfigError(f"grading ratio r must be finite and >= 1, got {r}")
    if not 0.0 < L < math.inf:
        raise ConfigError(f"length L must be finite and positive, got {L}")
    if r == 1.0:
        interfaces = np.linspace(0.0, L, N + 1)
    else:
        h1 = L * (r - 1.0) / (r**N - 1.0)
        interfaces = np.concatenate([[0.0], np.cumsum(h1 * r ** np.arange(N))])
        interfaces[-1] = L  # last width absorbs the accumulated rounding
    widths = np.diff(interfaces)
    centers = 0.5 * (interfaces[:-1] + interfaces[1:])
    dist = centers[1:] - centers[:-1]
    return Grid1D(
        L=L,
        N=N,
        r=r,
        interfaces=_freeze(interfaces),
        widths=_freeze(widths),
        centers=_freeze(centers),
        dist=_freeze(dist),
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
    vol: np.ndarray  # radial volume weight per cell
    rho_inv_k: np.ndarray = field(repr=False)  # 1/k of the radial pass, k = sigma_{n-2} rho^{n-2}/center gap

    @cached_property  # solver1d.end_traces reads it on every cylinder sample
    def ball_volume(self) -> float:
        return float(self.vol.sum())

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
    if not 0.0 < R < math.inf:
        raise ConfigError(f"radius R must be finite and positive, got {R}")
    axial = build_grid_1d(L, Nx, r_axial)
    rho_if = np.linspace(0.0, R, Nr + 1)
    sigma = sphere_area(n - 2)
    # exact antiderivative of rho^(n-2): rho^(n-1)/(n-1)
    vol = sigma * (rho_if[1:] ** (n - 1) - rho_if[:-1] ** (n - 1)) / (n - 1)
    rho_centers = 0.5 * (rho_if[:-1] + rho_if[1:])
    inv_k = (rho_centers[1:] - rho_centers[:-1]) / (sigma * rho_if[1:-1] ** (n - 2))
    return GridCyl(
        axial=axial,
        R=R,
        n=n,
        Nr=Nr,
        rho_interfaces=_freeze(rho_if),
        rho_centers=_freeze(rho_centers),
        vol=_freeze(vol),
        rho_inv_k=_freeze(inv_k),
    )


def integrate(grid, field) -> float:
    """Integral of a cellwise-constant field over the domain, exact up to
    roundoff: dot products with the axial widths and, on the cylinder, the
    radial volumes.  It is the package's one domain quadrature."""
    if not isinstance(grid, (Grid1D, GridCyl)):
        raise TypeError(f"not a grid: {type(grid)!r}")
    field = np.asarray(field)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    return quadrature(grid, field)


def quadrature(grid, field: np.ndarray) -> float:
    """integrate without its checks, for an array shaped like the grid;
    ndarray.dot makes the BLAS calls of @ without the matmul overhead."""
    if isinstance(grid, GridCyl):
        return float(grid.axial.widths.dot(field).dot(grid.vol))
    return float(grid.widths.dot(field))
