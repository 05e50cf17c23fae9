import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellflux.problem import (
    ConfigError,
    DomainError,
    DomainSpec,
    NonlinearitySpec,
    ProblemSpec,
    ball_volume,
    eval_f,
    sphere_area,
    thresholds,
)


def spec(kind, m=1.0, **kw):
    return NonlinearitySpec(kind=kind, m=m, **kw)


@pytest.mark.parametrize(
    "kind,m,s,expected",
    [
        ("signed_power", 2.0, 3.0, 9.0),
        ("signed_power", 1.0, -2.0, -2.0),
        ("negative_power", 1.0, 2.0, -2.0),
        ("sublinear_power", 0.5, 4.0, 2.0),
    ],
)
def test_eval_f_table(kind, m, s, expected):
    assert eval_f(spec(kind, m), s) == pytest.approx(expected, rel=1e-15)


def test_eval_f_zero_everywhere():
    for kind, m in [("signed_power", 2.0), ("negative_power", 1.5),
                    ("sublinear_power", 0.5), ("saturating", 1.0)]:
        assert eval_f(spec(kind, m), 0.0) == 0.0


def test_eval_f_takes_the_nonnegative_part_on_floats_and_arrays():
    s = np.array([-1.0, -1e-17, 0.0, 0.25, 4.0])
    for kind, m in [("negative_power", 2.0), ("sublinear_power", 0.5), ("saturating", 1.0)]:
        f = spec(kind, m)
        assert eval_f(f, -1.0) == 0.0 and eval_f(f, -1e-17) == 0.0
        assert np.array_equal(eval_f(f, s), eval_f(f, np.maximum(s, 0.0)))
    # signed_power is defined on all of R and odd there
    f = spec("signed_power", 1.5)
    assert np.array_equal(eval_f(f, -s), -eval_f(f, s))
    assert eval_f(f, -4.0) == -8.0


@pytest.mark.parametrize("kind,m,want", [
    ("saturating", 1.0, 1.0),  # level 1, alpha 1: 1e308 / (1e308 + 1)
    ("sublinear_power", 0.5, 1e154),
    ("negative_power", 1.0, -1e308),
])
def test_eval_f_nonnegative_part_does_not_overflow(kind, m, want):
    # 2s overflows at s = 1e308; f must not, as a float or in an array
    f = spec(kind, m)
    got = eval_f(f, 1e308)
    assert type(got) is float and got == want
    assert eval_f(f, np.array([1e308, -1e308])).tolist() == [want, 0.0]
    assert math.isnan(eval_f(f, math.nan)) and np.isnan(eval_f(f, np.array([math.nan]))).all()


@pytest.mark.parametrize("kind,m", [("signed_power", 2.5), ("negative_power", 2.5),
                                    ("sublinear_power", 0.5), ("saturating", 1.0)])
def test_eval_f_of_a_float_is_its_array_form_where_a_power_overflows(kind, m):
    # (1e300)^2.5 overflows: Python's float ** raises where numpy's gives inf
    f = spec(kind, m)
    s = np.array([1e300, -1e300])
    with np.errstate(over="ignore"):
        want = eval_f(f, s).tolist()
    got = [eval_f(f, v) for v in s.tolist()]
    assert all(type(v) is float for v in got) and got == want
    if m == 2.5:
        assert want == ([math.inf, -math.inf] if kind == "signed_power" else [-math.inf, 0.0])


@pytest.mark.parametrize("kind,m", [("saturating", 1.0), ("sublinear_power", 0.5), ("negative_power", 1.0)])
def test_eval_f_nonnegative_part_equals_the_sum_form_where_2s_is_finite(kind, m):
    # (s + |s|) / 2, the nonnegative part before it took one operation
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.standard_normal(64) * 10.0 ** rng.integers(-320, 300, 64),
                        [0.0, -0.0, 5e-324, -5e-324, 8.9e307, -8.9e307]])
    f = spec(kind, m)
    # f of an argument that is already nonnegative takes it as it is
    assert (eval_f(f, s) == eval_f(f, (s + abs(s)) * 0.5)).all()
    assert all(eval_f(f, v) == eval_f(f, (v + abs(v)) * 0.5) for v in s.tolist())


# The two bodies of f that eval_f replaced, kept as references: the
# interval's scalar f at a trace and the cylinder's vectorized f.
def f_at_trace_reference(nl, s):
    if nl.kind != "signed_power" and s < 0.0:
        s = 0.0
    k = nl.kind
    if k == "signed_power":
        return math.copysign(abs(s) ** nl.m, s)
    if k == "negative_power":
        return -(s**nl.m)
    if k == "sublinear_power":
        return s**nl.m
    return nl.level * s / (s + nl.alpha) if s > 0.0 else 0.0


def f_np_reference(nl, s):
    k = nl.kind
    if k == "signed_power":
        return np.sign(s) * np.abs(s) ** nl.m
    s = np.maximum(s, 0.0)
    if k == "negative_power":
        return -(s**nl.m)
    if k == "sublinear_power":
        return s**nl.m
    return nl.level * s / (s + nl.alpha)


DIFFERENTIAL_SPECS = [
    ("signed_power", 1.0), ("signed_power", 1.5), ("signed_power", 2.0), ("signed_power", 3.7),
    ("negative_power", 1.0), ("negative_power", 2.0), ("negative_power", 2.5),
    ("sublinear_power", 0.5), ("sublinear_power", 0.3), ("saturating", 1.0),
]


@pytest.mark.parametrize("kind,m", DIFFERENTIAL_SPECS)
def test_eval_f_matches_the_scalar_and_array_references(kind, m):
    nl = NonlinearitySpec(kind=kind, m=m, level=0.7, alpha=0.3)
    rng = np.random.default_rng(5)
    mag = 10.0 ** rng.uniform(-12.0, 4.0, 400)
    s = np.concatenate([mag * rng.choice([-1.0, 1.0], 400), [0.0, -0.0, 1.0, -1.0]])
    scalar = np.array([eval_f(nl, float(v)) for v in s])
    scalar_ref = np.array([f_at_trace_reference(nl, float(v)) for v in s])
    array, array_ref = eval_f(nl, s), f_np_reference(nl, s)
    if kind != "signed_power" or m == 1.0:
        # same operations on the same values: bitwise
        assert np.array_equal(scalar, scalar_ref)
        assert np.array_equal(array, array_ref)
    else:
        # s |s|^(m-1) against sign(s) |s|^m: two roundings either way
        assert np.all(np.abs(scalar - scalar_ref) <= 2.0 * np.spacing(np.abs(scalar_ref)))
        assert np.all(np.abs(array - array_ref) <= 2.0 * np.spacing(np.abs(array_ref)))


def test_bad_specs_rejected():
    with pytest.raises(ConfigError):
        NonlinearitySpec(kind="cubic_spline")
    with pytest.raises(ConfigError):
        NonlinearitySpec(kind="sublinear_power", m=1.0)
    with pytest.raises(ConfigError):
        NonlinearitySpec(kind="signed_power", m=0.5)
    with pytest.raises(ConfigError):
        NonlinearitySpec(kind="saturating", level=0.0)
    with pytest.raises(ConfigError):
        DomainSpec(geometry="interval", L=-1.0)
    with pytest.raises(ConfigError):
        DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=1)


@given(st.floats(1.0, 4.0), st.floats(1e-3, 1e3))
def test_signed_power_is_odd(m, s):
    f = spec("signed_power", m)
    assert eval_f(f, -s) == pytest.approx(-eval_f(f, s), rel=1e-12)


@given(
    st.sampled_from(["signed_power", "sublinear_power", "saturating"]),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
)
def test_monotone_kinds_nondecreasing(kind, s1, s2):
    m = 0.5 if kind == "sublinear_power" else 1.5
    f = spec(kind, m)
    lo, hi = sorted((s1, s2))
    assert eval_f(f, lo) <= eval_f(f, hi) + 1e-12


def test_geometry_volumes():
    assert sphere_area(0) == pytest.approx(2.0)
    assert sphere_area(1) == pytest.approx(2.0 * math.pi)
    assert ball_volume(1, 0.5) == pytest.approx(1.0)  # interval (-R, R)
    assert ball_volume(2, 1.0) == pytest.approx(math.pi)
    d = DomainSpec(geometry="cylinder", L=2.0, R=1.0, n=3)
    assert d.volume == pytest.approx(2.0 * math.pi)
    assert DomainSpec(geometry="interval", L=3.0).volume == 3.0


def interval_problem(m, L=1.0, kind="signed_power"):
    return ProblemSpec(
        nonlinearity=NonlinearitySpec(kind=kind, m=m),
        domain=DomainSpec(geometry="interval", L=L),
    )


def test_thresholds_m2_values():
    # N0 = m^(-1/m); ell, K from the explicit superquadratic construction
    t = thresholds(interval_problem(2.0), M=0.5, phi0=0.0, p=2.0)
    assert t.N0 == pytest.approx(0.7071067811865476, abs=1e-15)
    assert t.ell == pytest.approx(0.03125, abs=1e-15)  # min(1/2, 2^-3 * 0.25)
    assert t.K == pytest.approx(0.0078125, abs=1e-15)
    assert t.K0_lyapunov == pytest.approx(2.0)
    assert t.small_data_radius == pytest.approx(2.0**-0.5)
    assert t.critical_mass_m1 == 1.0


def test_thresholds_m1_blowup_time():
    t = thresholds(interval_problem(1.0), M=2.0, phi0=0.4, p=1.5)
    assert t.Tstar_upper_bound == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert t.ell is None and t.K is None  # not applicable at m = 1
    t2 = thresholds(interval_problem(1.0), M=0.9, phi0=0.4, p=1.5)
    assert math.isinf(t2.Tstar_upper_bound)  # no bound below critical mass
    t3 = thresholds(interval_problem(1.0), M=2.0, phi0=1.5, p=1.5)
    assert math.isinf(t3.Tstar_upper_bound)  # moment above M L / 2


@pytest.mark.parametrize("M,finite", [(1.0 + 4.4e-16, False), (1.0 - 4.4e-16, False), (1.5, True)])
def test_thresholds_critical_mass_has_no_blowup_time_bound(M, finite):
    # a mass that sums to 1 up to roundoff is the critical mass on either side
    t = thresholds(interval_problem(1.0), M=M, phi0=0.1, p=1.5)
    assert math.isfinite(t.Tstar_upper_bound) == finite


def test_thresholds_cylinder_needs_M0():
    p = ProblemSpec(
        nonlinearity=NonlinearitySpec(kind="signed_power", m=2.0),
        domain=DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=3),
    )
    with pytest.raises(DomainError):
        thresholds(p, M=1.0, phi0=0.0, p=2.0)
    t = thresholds(p, M=1.0, phi0=0.0, p=2.0, M0=2.0)
    B = math.pi
    assert t.ell == pytest.approx(min(0.5, 1.0 / (4 * B * 2.0), 2.0**-3 / B))
    assert t.K == pytest.approx(0.5 * t.ell)


def test_thresholds_sublinear_has_no_lyapunov_constant():
    t = thresholds(interval_problem(0.5, kind="sublinear_power"), M=50.0, phi0=0.0, p=0.0)
    assert t.K0_lyapunov is None and t.small_data_radius is None


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_half_moment_bound_scales_linearly_in_L(M, L):
    t1 = thresholds(interval_problem(1.0, L=L), M=M, phi0=0.0, p=1.5)
    t2 = thresholds(interval_problem(1.0, L=2 * L), M=M, phi0=0.0, p=1.5)
    assert t2.half_moment_bound == 2.0 * t1.half_moment_bound  # exact doubling


@given(st.floats(1.0 + 1e-6, 6.0), st.floats(0.05, 20.0), st.floats(0.1, 10.0))
def test_K_at_most_quarter_ML(m, M, L):
    t = thresholds(interval_problem(m, L=L), M=M, phi0=0.0, p=1.5 * m)
    assert t.K <= M * L / 4.0 + 1e-15  # ell <= L/2 always


# which constants hold for which law: (kind, m) -> the entries that are set
THRESHOLD_TABLE = [
    ("signed_power", 1.0, {"N0", "critical_mass_m1", "Tstar_upper_bound", "K0_lyapunov", "small_data_radius"}),
    ("signed_power", 2.0, {"N0", "critical_mass_m1", "ell", "K", "K0_lyapunov", "small_data_radius"}),
    ("negative_power", 1.0, {"K0_lyapunov", "small_data_radius"}),
    ("negative_power", 2.0, {"K0_lyapunov", "small_data_radius"}),
    ("sublinear_power", 0.8, {"K0_lyapunov", "small_data_radius"}),
    ("saturating", 1.0, set()),
]


@pytest.mark.parametrize("kind,m,present", THRESHOLD_TABLE)
def test_thresholds_report_only_what_holds_for_the_law(kind, m, present):
    # M = 2 and phi0 = 0.4 make the m = 1 T* bound finite wherever it holds
    t = thresholds(interval_problem(m, kind=kind), M=2.0, phi0=0.4)
    for name in ("N0", "critical_mass_m1", "ell", "K", "K0_lyapunov", "small_data_radius"):
        assert (getattr(t, name) is not None) == (name in present), name
    assert math.isfinite(t.Tstar_upper_bound) == ("Tstar_upper_bound" in present)
    assert t.half_moment_bound == 1.0  # M L / 2 holds for every law


@pytest.mark.parametrize("m,p", [(0.5, None), (1.0, 1.5), (1.5, 2.0), (2.0, 2.0), (3.0, 4.5)])
def test_thresholds_default_lyapunov_exponent(m, p):
    # without p: 2 for 1 < m <= 2, else 1.5 m, and no constant where 1.5 m
    # is not admissible (p > 1 and m <= p < 2m)
    kind = "sublinear_power" if m < 1.0 else "signed_power"
    prob = interval_problem(m, L=2.0, kind=kind)
    t = thresholds(prob, M=1.0)
    if p is None:
        assert t.K0_lyapunov is None and t.small_data_radius is None
    else:
        assert t == thresholds(prob, M=1.0, p=p)
        assert t.K0_lyapunov == pytest.approx(m / (p - 1.0) * 2.0 ** ((p - m) / p), rel=1e-14)
