"""Nonconstant 1D steady states of the coupled problem.

With a constant coupling value a, a steady profile satisfies c_x = a c, so
every candidate is an exponential c(x) = c0 exp(a x).  Self-consistency of
the coupling for f(s) = s^m then pins the left value,

    a = f(c(L)) - f(c(0)) = c0^m (exp(a m L) - 1),

which gives the one-parameter family c0(a) = (a / (exp(a m L) - 1))^(1/m) and
the mass curve M(a) = c0(a) (exp(a L) - 1)/a.  For m = 1 the mass curve is
identically 1 (the critical mass); for m > 1 it decreases from the zero-rate
limit m^(-1/m) L^((m-1)/m) to 0, so on the unit interval a steady state with
mass M exists exactly when M is below N0 = m^(-1/m), and every member has
L^m norm equal to N0.  Negative rates give the mirror images x -> L - x,
which find_steady does not return.

All exponentials are evaluated in the log domain so large a L never
overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import CRITICAL_MASS_TOL, DomainError


class SteadyStateError(RuntimeError):
    """The bracket could not be certified or the bisection failed; never a
    silent absence."""


def _log_expm1(x: float) -> float:
    """log(exp(x) - 1) for x > 0, stable for both tiny and huge x."""
    if x > 36.0:  # exp(-x) below double precision resolution of log1p
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def mass_of_rate(m: float, L: float, a: float) -> float:
    """Mass M(a) of the self-consistent steady profile with rate a > 0."""
    if not a > 0:
        raise DomainError(f"rate must be positive (a < 0 is the reflection), got {a}")
    if not (m > 0 and L > 0):
        raise DomainError("m and L must be positive")
    # log c0 = (log a - log(e^{amL}-1))/m ; log M = log c0 + log(e^{aL}-1) - log a
    log_c0 = (math.log(a) - _log_expm1(a * m * L)) / m
    return math.exp(log_c0 + _log_expm1(a * L) - math.log(a))


def lm_norm_of_rate(m: float, L: float, a: float) -> float:
    """L^m norm of the steady profile.

    The closed form telescopes: int c^m = c0^m (e^{amL} - 1)/(am) = 1/m, so
    every member of the family carries the norm m^(-1/m)."""
    if not a > 0:
        raise DomainError(f"rate must be positive, got {a}")
    log_c0 = (math.log(a) - _log_expm1(a * m * L)) / m
    # int c0^m e^{amx} dx = c0^m (e^{amL}-1)/(am)
    log_int = m * log_c0 + _log_expm1(a * m * L) - math.log(a * m)
    return math.exp(log_int / m)


@dataclass(frozen=True)
class SteadyState1D:
    """One member of the exponential steady family, c(x) = c0_left e^{a x}."""

    a: float
    c0_left: float
    L: float
    m: float
    mass: float
    lm_norm: float

    def cell_averages(self, grid) -> np.ndarray:
        """Exact cell averages over a Grid1D (closed-form antiderivative)."""
        e = np.exp(self.a * grid.interfaces)
        return self.c0_left * (e[1:] - e[:-1]) / (self.a * grid.widths)

    def self_consistency_residual(self) -> float:
        """|c0^m (e^{amL} - 1) - a|, zero for a true member of the family."""
        return abs(self.c0_left**self.m * math.expm1(self.a * self.m * self.L) - self.a)


def _make(m: float, L: float, a: float) -> SteadyState1D:
    c0 = math.exp((math.log(a) - _log_expm1(a * m * L)) / m)
    return SteadyState1D(
        a=a,
        c0_left=c0,
        L=L,
        m=m,
        mass=mass_of_rate(m, L, a),
        lm_norm=lm_norm_of_rate(m, L, a),
    )


# marker returned for m = 1 at the critical mass, where every rate solves
DEGENERATE_FAMILY = "degenerate-family"


def find_steady(
    m: float,
    L: float,
    M: float,
    a_max: float = 50.0,
    tol_a: float = 1e-10,
    scan_points: int = 256,
):
    """Solve M(a) = M for the steady rate.

    Returns a SteadyState1D, or None when no steady state with that mass
    exists, or DEGENERATE_FAMILY for m = 1 at M = 1 where the whole family
    qualifies.  The mass curve is checked for monotonicity on a log-spaced
    scan before bisecting; a non-monotone bracket raises SteadyStateError
    rather than silently failing.
    """
    if not (1.0 <= m < math.inf and 0.0 < M < math.inf and 0.0 < L < math.inf):
        raise DomainError(f"find_steady expects finite m >= 1, M > 0 and L > 0, got m={m}, M={M}, L={L}")
    if m == 1.0:
        # the mass curve is identically 1 for every rate
        return DEGENERATE_FAMILY if abs(M - 1.0) <= CRITICAL_MASS_TOL else None

    a_grid = np.logspace(-8, math.log10(a_max), scan_points)
    vals = np.array([mass_of_rate(m, L, a) for a in a_grid])
    if np.any(np.diff(vals) > 1e-14 * vals[:-1]):
        raise SteadyStateError("mass curve is not monotone on the scanned bracket")

    M_top = vals[0]  # numerically the a -> 0+ limit
    if M >= M_top:
        return None  # at or above the zero-rate limit (N0 on the unit interval)
    if M < vals[-1]:
        raise SteadyStateError(
            f"target mass {M} below the a_max = {a_max} end of the curve; raise a_max"
        )

    lo, hi = a_grid[0], a_max  # M(lo) > M >= M(hi)
    while hi - lo > tol_a * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mass_of_rate(m, L, mid) > M:
            lo = mid
        else:
            hi = mid
    return _make(m, L, 0.5 * (lo + hi))
