"""Differential test of the coupling solve against the damped Picard
iteration a <- (a + g(a))/2 that it replaced.

Both solvers start from identical states (the cell data and the committed a)
and must agree to 1e-10 max(1, |a|) on the coupling value, and exactly on
each end's mode (Robin trace or cell mode) at the end of the solve.  The reference evaluates f on every trace;
the solver sums f over each end once per solve for the homogeneous kinds.

The map g that compute_a iterates on is also pinned bitwise to an earlier
form of it (coupling_integral_at), which divided cached end sums by lam^m
through per-end helpers: the same float operations in the same order.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from cellflux import harness, presets, solver1d
from cellflux.grid import build_grid_1d, build_grid_cyl
from cellflux.problem import HOMOGENEOUS, DomainSpec, NonlinearitySpec, ProblemSpec, eval_f
from cellflux.solver1d import StepOptions, StepRejected, adapt_dt, compute_a, make_state, solve_coupling, step

POWER_LAWS = [("signed_power", 1.0), ("signed_power", 2.5), ("negative_power", 2.0), ("sublinear_power", 0.5)]

AGREE = 1e-10


def picard(g, a, h0, hN, robin, opts):
    """Reference: the damped Picard loop, with the guard latching an end into
    cell mode once |a| h >= 1 there.  Returns (a, (robin_l, robin_r))."""
    robin_l = robin_r = robin
    for _ in range(opts.picard_max_iters):
        if robin_l and abs(a) * h0 >= 1.0:
            robin_l = False
        if robin_r and abs(a) * hN >= 1.0:
            robin_r = False
        a_new = 0.5 * (a + g(a, robin_l, robin_r))
        if abs(a_new - a) <= opts.picard_tol * max(1.0, abs(a_new)):
            return a_new, (robin_l, robin_r)
        a = a_new
    raise StepRejected("reference picard iteration did not converge")


def coupling_1d(problem, state):
    """(g, hoisted, h0, hN) of the interval: g(a) = f(c_right(a)) - f(c_left(a))
    with f evaluated on every trace, and hoisted the same map as compute_a
    builds it (solver1d.coupling_integral)."""
    nl = problem.nonlinearity
    c0, cN = float(state.c[0]), float(state.c[-1])
    h0, hN = float(state.grid.widths[0]), float(state.grid.widths[-1])

    def f(c):
        return solver1d._f_at_trace(nl, c)

    def g(a, robin_l, robin_r):
        cl = c0 / (1.0 + 0.5 * a * h0) if robin_l else c0
        cr = cN / (1.0 - 0.5 * a * hN) if robin_r else cN
        return f(cr) - f(cl)

    return g, solver1d.coupling_integral(nl, f, c0, cN, h0, hN), h0, hN


def coupling_cyl(problem, state):
    """(g, hoisted, h0, hN) of the cylinder: the volume-weighted end-cap
    integral, with f evaluated on every trace, and the same map as
    compute_a builds it."""
    nl = problem.nonlinearity
    c0, cN = state.c[0, :], state.c[-1, :]
    h0, hN = float(state.grid.axial.widths[0]), float(state.grid.axial.widths[-1])
    w = state.grid.vol

    def cap(c):
        return float(w @ solver1d._f_at_trace(nl, c))

    def g(a, robin_l, robin_r):
        cl = c0 / (1.0 + 0.5 * a * h0) if robin_l else c0
        cr = cN / (1.0 - 0.5 * a * hN) if robin_r else cN
        return cap(cr) - cap(cl)

    return g, solver1d.coupling_integral(nl, cap, c0, cN, h0, hN), h0, hN


def preset_states(name, n_steps, every):
    """(problem, opts, states) along the first n_steps steps of a preset,
    every `every`-th state kept as a copy (c and committed a)."""
    cfg = presets.preset_config(name)
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    prob, opts = cfg.problem, cfg.step
    state = make_state(grid, c0)
    state.a = compute_a(prob, state, opts)
    states = []
    for k in range(n_steps):
        if k % every == 0:
            states.append(make_state(grid, state.c.copy()))
            states[-1].a = state.a
        state = step(prob, state, adapt_dt(prob, state, opts), opts)
    return prob, opts, states


def assert_agrees(coupling, prob, opts, states):
    """compute_a against the reference on every state;
    returns the end modes (robin_l, robin_r) and the mean number of g
    evaluations of the shared iteration."""
    ends, evals = [], 0
    for s in states:
        g, hoisted, h0, hN = coupling(prob, s)
        a_ref, ends_ref = picard(g, s.a, h0, hN, opts.trace_mode == "robin", opts)
        a = compute_a(prob, s, opts)
        assert abs(a - a_ref) <= AGREE * max(1.0, abs(a_ref)), (s.a, a, a_ref)
        assert s.robin_ends == ends_ref
        ends.append(s.robin_ends)

        def counted(*args):
            nonlocal evals
            evals += 1
            return hoisted(*args)

        assert solve_coupling(counted, s.a, h0, hN, opts.trace_mode == "robin", opts)[0] == a
    return ends, evals / len(states)


def test_coupling_matches_picard_along_critical_mass_exact():
    prob, opts, states = preset_states("critical_mass_exact", 900, 3)
    assert len(states) == 300
    ends, evals = assert_agrees(coupling_1d, prob, opts, states)
    assert set(ends) == {(True, True)}  # Robin traces at both ends throughout
    assert evals <= 4.0


def test_coupling_matches_picard_along_cyl_blowup_with_latched_guard():
    prob, opts, states = preset_states("cyl_blowup", 400, 2)
    ends, evals = assert_agrees(coupling_cyl, prob, opts, states)
    assert not any(all(e) for e in ends)  # an end in cell mode on every state
    assert evals <= 4.0


def test_coupling_matches_picard_in_cell_trace_mode():
    prob, opts, states = preset_states("critical_mass_exact", 300, 10)
    opts = StepOptions(trace_mode="cell", dt_max=opts.dt_max)
    ends, _ = assert_agrees(coupling_1d, prob, opts, states)
    assert set(ends) == {(False, False)}


@pytest.mark.parametrize("r", [1.0, 1.3])
def test_coupling_matches_picard_when_iterates_cross_the_guard(r):
    # the committed a = 0 is inside the guard at both ends, but the fixed
    # point of the cell-mode map (cN - c0 = -29) lies beyond it; on the
    # uniform grid both ends trip at the first iterate (a = -14.5), on the
    # graded one the coarse right end (h = 0.26) trips there and the fine
    # left end (h = 0.042) one iterate later
    prob = ProblemSpec(nonlinearity=NonlinearitySpec(kind="signed_power", m=1.0),
                       domain=DomainSpec(geometry="interval", L=1.0))
    grid = build_grid_1d(1.0, 8, r)
    s = make_state(grid, np.linspace(30.0, 1.0, 8))
    opts = StepOptions()
    g, _, h0, hN = coupling_1d(prob, s)
    assert abs(s.a) * hN < 1.0
    assert abs(0.5 * g(0.0, True, True)) * hN >= 1.0  # the first iterate trips the guard
    ends, _ = assert_agrees(coupling_1d, prob, opts, [s])
    assert ends == [(False, False)]


def test_tiny_iteration_budget_rejects_the_step():
    prob, opts, states = preset_states("critical_mass_exact", 1, 1)
    s = states[0]
    s.a = 0.0  # far from the fixed point a ~ -12
    tiny = StepOptions(picard_max_iters=2, dt_max=opts.dt_max)
    g, _, h0, hN = coupling_1d(prob, s)
    with pytest.raises(StepRejected):
        picard(g, s.a, h0, hN, True, tiny)
    with pytest.raises(StepRejected):
        compute_a(prob, s, tiny)
    with pytest.raises(StepRejected):
        step(prob, s, 1e-6, tiny)


@pytest.mark.parametrize("kind, m", POWER_LAWS)
def test_homogeneous_kinds_scale_the_cap_integral_by_lam_to_the_minus_m(kind, m):
    # sum_j w_j f(c_j/lam) = lam^-m sum_j w_j f(c_j) for lam in (1/2, 3/2),
    # the range the Robin guard allows, on caps that carry roundoff negatives
    nl = NonlinearitySpec(kind=kind, m=m)
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for _ in range(500):
        n = int(rng.integers(1, 40))
        w = rng.uniform(0.1, 2.0, n)
        c = rng.random(n) * 10.0 ** rng.uniform(-3, 3)
        c[rng.random(n) < 0.2] *= -1e-16
        lam = float(rng.uniform(0.5, 1.5)) or 1.0
        got = float(w @ eval_f(nl, c)) / lam**m
        want = float(w @ eval_f(nl, c / lam))
        assert abs(got - want) <= 8 * eps * float(w @ np.abs(eval_f(nl, c / lam))), (n, lam)


def decreasing_state(geometry, kind, m):
    """(problem, state) of a decreasing profile with the committed a = 0."""
    nl = NonlinearitySpec(kind=kind, m=m, level=5.0, alpha=0.5)
    if geometry == "interval":
        grid = build_grid_1d(1.0, 32, 1.05)
        c = 2.0 - grid.centers
        dom = DomainSpec(geometry="interval", L=1.0)
    else:
        grid = build_grid_cyl(1.0, 0.5, 3, 32, 6, 1.05)
        c = (2.0 - grid.axial.centers)[:, None] * (1.5 - grid.rho_centers)[None, :]
        dom = DomainSpec(geometry="cylinder", L=1.0, R=0.5, n=3)
    return ProblemSpec(nonlinearity=nl, domain=dom), make_state(grid, c)


@pytest.mark.parametrize("geometry", ["interval", "cylinder"])
@pytest.mark.parametrize("kind, m", POWER_LAWS)
def test_homogeneous_solve_evaluates_f_at_most_twice(monkeypatch, geometry, kind, m):
    calls = []

    def counted(f):
        def wrapped(*args):
            calls.append(1)
            return f(*args)
        return wrapped

    monkeypatch.setattr(solver1d, "_f_at_trace", counted(solver1d._f_at_trace))
    prob, s = decreasing_state(geometry, kind, m)
    coupling = coupling_1d if geometry == "interval" else coupling_cyl
    opts = StepOptions()
    a = compute_a(prob, s, opts)
    assert len(calls) <= 2 and s.robin_ends == (True, True)
    # the reference iterates on f over every trace: several evaluations
    calls.clear()
    g, _, h0, hN = coupling(prob, s)
    a_ref = solve_coupling(g, 0.0, h0, hN, True, opts)[0]
    assert len(calls) >= 6
    assert abs(a - a_ref) <= AGREE * max(1.0, abs(a_ref))


def test_coupling_matches_picard_on_a_saturating_cylinder():
    # saturating is not homogeneous, so each Robin iterate evaluates f on
    # the traces of both end caps
    prob, state = decreasing_state("cylinder", "saturating", 1.0)
    opts = StepOptions(dt_max=1e-3)
    state.a = compute_a(prob, state, opts)
    states = []
    for _ in range(40):
        states.append(make_state(state.grid, state.c.copy()))
        states[-1].a = state.a
        state = step(prob, state, adapt_dt(prob, state, opts), opts)
    ends, evals = assert_agrees(coupling_cyl, prob, opts, states)
    assert set(ends) == {(True, True)}
    assert evals > 2.0  # secant iterates, each evaluating f on both traces


def coupling_integral_at(nl, cap, c0, cN, h0, hN):
    """Reference: solver1d.coupling_integral as it was before each iterate
    became plain scalar arithmetic.  Each end's cap(c) is summed at most
    once, on first use; a homogeneous f divides that sum by lam^m, and
    saturating evaluates cap on the trace wherever lam != 1."""
    ends, sums = (c0, cN), [None, None]
    hom, m = nl.kind in HOMOGENEOUS, nl.m

    def at(i, lam):
        if not hom and lam != 1.0:
            return cap(ends[i] / lam)
        if sums[i] is None:
            sums[i] = cap(ends[i])
        return sums[i] / lam**m

    def g(a, robin_l, robin_r):
        lam_l, lam_r = solver1d._lams(a, h0, hN, robin_l, robin_r)
        return at(1, lam_r) - at(0, lam_l)

    return g


# the states of the bitwise check: (preset, steps, keep every, trace mode)
PINNED = {
    "critical_mass_exact": ("critical_mass_exact", 300, 10, "robin"),
    "cyl_blowup_latched": ("cyl_blowup", 200, 10, "robin"),
    "cell_mode": ("critical_mass_exact", 300, 30, "cell"),
    "saturating_cylinder": (None, 40, 2, "robin"),
}
LAWS = POWER_LAWS + [("saturating", 1.0)]


@functools.lru_cache(maxsize=None)
def pinned_states(case):
    """(problem, grid, opts, ((c, a), ...)) of a PINNED case; each caller
    builds its own states from the kept copies."""
    preset, n_steps, every, mode = PINNED[case]
    if preset is None:
        prob, state = decreasing_state("cylinder", "saturating", 1.0)
        opts = StepOptions(dt_max=1e-3)
        state.a = compute_a(prob, state, opts)
        kept = []
        for k in range(n_steps):
            if k % every == 0:
                kept.append((state.c.copy(), state.a))
            state = step(prob, state, adapt_dt(prob, state, opts), opts)
        return prob, state.grid, opts, tuple(kept)
    prob, opts, states = preset_states(preset, n_steps, every)
    if mode == "cell":
        opts = StepOptions(trace_mode="cell", dt_max=opts.dt_max)
    return prob, states[0].grid, opts, tuple((s.c, s.a) for s in states)


def caps(nl, s):
    """(cap, c0, cN, h0, hN) of a state as compute_a builds them."""
    h0, hN = float(s.grid.axial.widths[0]), float(s.grid.axial.widths[-1])
    if s.c.ndim == 1:
        return lambda x: solver1d._f_at_trace(nl, x), float(s.c[0]), float(s.c[-1]), h0, hN
    vol = s.grid.vol
    return lambda row: float(vol @ solver1d._f_at_trace(nl, row)), s.c[0], s.c[-1], h0, hN


@pytest.mark.parametrize("kind, m", LAWS)
@pytest.mark.parametrize("case", list(PINNED))
def test_coupling_integral_is_bitwise_the_reference_on_every_iterate(case, kind, m):
    own, grid, opts, kept = pinned_states(case)
    nl = NonlinearitySpec(kind=kind, m=m, level=5.0, alpha=0.5)
    prob = replace(own, nonlinearity=nl)
    robin = opts.trace_mode == "robin"
    modes, n_iterates = set(), 0
    for c, a in kept:
        s = make_state(grid, c)
        s.a = a
        cap, c0, cN, h0, hN = caps(nl, s)
        ref = coupling_integral_at(nl, cap, c0, cN, h0, hN)
        new = solver1d.coupling_integral(nl, cap, c0, cN, h0, hN)
        iterates = []

        def traced(*args):
            iterates.append(args)
            return ref(*args)

        try:
            want = solve_coupling(traced, a, h0, hN, robin, opts)
        except StepRejected:
            want = None
        for args in iterates:
            assert float(new(*args)).hex() == float(ref(*args)).hex(), (case, args)
        modes |= {args[1:] for args in iterates}
        n_iterates += len(iterates)
        # compute_a gives the reference solve's a and end modes, bitwise
        if want is None:
            with pytest.raises(StepRejected):
                compute_a(prob, s, opts)
        else:
            assert compute_a(prob, s, opts).hex() == want[0].hex() and s.robin_ends == want[1]
    assert n_iterates > len(kept)
    if not robin:
        assert modes == {(False, False)}
    else:
        assert any(any(mode) for mode in modes)  # iterates on a Robin trace
    if case == "cyl_blowup_latched":
        assert any(not all(mode) for mode in modes)  # and with an end latched
