"""Model definition: nonlinearity, domain geometry, and closed-form threshold constants.

The simulated equation is the nondimensionalized conservation law

    c_t = div(grad c - c * A(t)),      A(t) = integral_{boundary} f(c) nu dsigma,

with zero total flux through the boundary.  Everything in this module is pure
arithmetic on the model parameters; nothing here touches a mesh or a solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

KINDS = ("signed_power", "negative_power", "sublinear_power", "saturating")
HOMOGENEOUS = ("signed_power", "negative_power", "sublinear_power")  # f(s/lam) = lam^-m f(s), lam > 0
GEOMETRIES = ("interval", "cylinder")
# a measured mass within this of 1 is the critical mass: the mass bound a
# run holds to, so which side of 1 the sum lands on is roundoff
CRITICAL_MASS_TOL = 1e-12


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """Structurally invalid configuration (bad kind, bad geometry, bad counts)."""


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^d in R^{d+1}; sigma_0 = 2."""
    if d < 0:
        raise ConfigError(f"sphere dimension must be >= 0, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ball_volume(d: int, radius: float) -> float:
    """Volume of the d-dimensional ball of given radius."""
    return sphere_area(d - 1) * radius**d / d


@dataclass(frozen=True)
class NonlinearitySpec:
    """Boundary production law f.

    kind:
      signed_power    f(s) = |s|^(m-1) s        (m >= 1, defined on all of R)
      negative_power  f(s) = -s^m               (m >= 1, s >= 0)
      sublinear_power f(s) = s^m                (0 < m < 1, s >= 0)
      saturating      f(s) = level*s/(s+alpha)

    The three power kinds (HOMOGENEOUS) are homogeneous of degree m:
    f(s/lam) = lam^-m f(s) for every lam > 0, which the coupling solve uses
    to sum f over each boundary once per solve.  saturating is not.
    """

    kind: str = "signed_power"
    m: float = 1.0
    level: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ConfigError(f"exponent m must be positive, got {self.m}")
        if self.kind == "sublinear_power" and not self.m < 1:
            raise ConfigError("sublinear_power requires 0 < m < 1")
        if self.kind in ("signed_power", "negative_power") and self.m < 1:
            raise ConfigError(f"{self.kind} requires m >= 1")
        if self.kind == "saturating" and not (self.level > 0 and self.alpha > 0):
            raise ConfigError("saturating requires positive level and alpha")


def eval_f(spec: NonlinearitySpec, s):
    """f(s), the one body of f, for s a float or an ndarray.  Kinds defined
    on s >= 0 take the nonnegative part of s, since cells may carry roundoff
    negatives: one comparison of a float, which stays a Python float, or one
    np.maximum of an array.  Neither can overflow, and NaN stays NaN."""
    k = spec.kind
    if k == "signed_power":
        return s * abs(s) ** (spec.m - 1.0)
    s = (0.0 if s <= 0.0 else s) if isinstance(s, float) else np.maximum(s, 0.0)
    if k == "negative_power":
        return -(s**spec.m)
    if k == "sublinear_power":
        return s**spec.m
    return spec.level * s / (s + spec.alpha)  # saturating


@dataclass(frozen=True)
class DomainSpec:
    """Interval (0, L) or finite cylinder (0, L) x B'_R in ambient dimension n."""

    geometry: str = "interval"
    L: float = 1.0
    R: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ConfigError(f"length L must be positive, got {self.L}")
        if self.geometry == "cylinder":
            if self.R is None or not self.R > 0:
                raise ConfigError("cylinder requires R > 0")
            if self.n is None or self.n < 2:
                raise ConfigError("cylinder requires ambient dimension n >= 2")

    @property
    def cross_section_volume(self) -> float:
        """|B'_R|, the (n-1)-ball volume; 1 for the interval."""
        if self.geometry == "interval":
            return 1.0
        return ball_volume(self.n - 1, self.R)

    @cached_property  # record() reads it on every sample
    def volume(self) -> float:
        return self.L * self.cross_section_volume


@dataclass(frozen=True)
class ProblemSpec:
    """Full model: f, the domain, and the velocity-report factor.

    chi enters only the reported cell velocity u = -chi a/|Omega|; the
    simulated dynamics is the nondimensionalized equation and never sees it.
    """

    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    domain: DomainSpec = field(default_factory=DomainSpec)
    chi: float = 1.0

    def __post_init__(self):
        if self.chi < 0:
            raise ConfigError(f"chi must be >= 0, got {self.chi}")

    @property
    def m(self) -> float:
        return self.nonlinearity.m


@dataclass(frozen=True)
class ThresholdReport:
    """Closed-form constants governing the global-vs-blow-up dichotomies.

    Each entry holds only for some laws of f; for the others it is None
    (inf for the T* bound):
      critical_mass_m1   signed_power
      N0                 signed_power, the steady family's threshold
      ell, K             signed_power with m > 1
      Tstar_upper_bound  signed_power with m = 1, finite only for
                         M > 1 + CRITICAL_MASS_TOL and phi0 < M L / 2
      K0_lyapunov,       the HOMOGENEOUS kinds, for an exponent p with
      small_data_radius  p > 1 and m <= p < 2m
    half_moment_bound, M L / 2, holds for every law.
    """

    N0: float | None
    critical_mass_m1: float | None
    half_moment_bound: float
    ell: float | None
    K: float | None
    Tstar_upper_bound: float
    K0_lyapunov: float | None
    small_data_radius: float | None


def thresholds(
    spec: ProblemSpec,
    M: float,
    phi0: float = 0.0,
    p: float | None = None,
    M0: float | None = None,
) -> ThresholdReport:
    """Evaluate every threshold that holds for spec's law of f, for mass M
    and first moment phi0, with the Lyapunov exponent p (when None, 2 for
    1 < m <= 2, else 1.5 m, which is admissible for m > 2/3).

    For the cylinder branch of ell the caller must supply M0, the sup over the
    cross-section of the axial marginal of the initial data (this module does
    no quadrature).
    """
    if not M > 0:
        raise DomainError(f"mass must be positive, got {M}")
    if phi0 < 0:
        raise DomainError(f"first moment must be >= 0, got {phi0}")
    m = spec.m
    L = spec.domain.L
    kind = spec.nonlinearity.kind
    signed = kind == "signed_power"  # signed_power has m >= 1
    half_moment = 0.5 * M * L

    ell = K = None
    if signed and m > 1.0:
        # 2^{-(m+1)/(m-1)} M^{m/(m-1)} in the log domain; the exponents blow
        # up as m -> 1+ and a harmless overflow just drops this term from min
        lpw = (-(m + 1.0) * math.log(2.0) + m * math.log(M)) / (m - 1.0)
        pw = math.exp(lpw) if lpw < 700.0 else math.inf
        if spec.domain.geometry == "interval":
            ell = min(L / 2.0, pw)
        else:
            if M0 is None or not M0 > 0:
                raise DomainError("cylinder ell requires the caller-supplied M0 > 0")
            B = spec.domain.cross_section_volume
            ell = min(L / 2.0, M * L / (4.0 * B * M0), pw / B)
        K = 0.5 * ell * M

    Tstar = math.inf
    if signed and m == 1.0 and M - 1.0 > CRITICAL_MASS_TOL and phi0 < half_moment:
        Tstar = phi0 / ((M - 1.0) * (M - 2.0 * phi0 / L) / L)

    K0 = radius = None
    if p is None:
        p = 2.0 if 1.0 < m <= 2.0 else 1.5 * m
    if kind in HOMOGENEOUS and p > 1.0 and m <= p < 2.0 * m:
        K0 = m / (p - 1.0) * spec.domain.volume ** ((p - m) / p)
        radius = K0 ** (-1.0 / m)

    return ThresholdReport(
        N0=m ** (-1.0 / m) if signed else None,
        critical_mass_m1=1.0 if signed else None,
        half_moment_bound=half_moment,
        ell=ell,
        K=K,
        Tstar_upper_bound=Tstar,
        K0_lyapunov=K0,
        small_data_radius=radius,
    )
