"""Differential test of the coupling solve against the damped Picard
iteration a <- (a + g(a))/2 that it replaced.

Both solvers start from identical states (the cell data and the committed a)
and must agree to 1e-10 max(1, |a|) on the coupling value, and exactly on
whether the Robin guard engaged.
"""

import numpy as np
import pytest

from cellflux import harness, presets, solver1d, solver_cyl
from cellflux.grid import build_grid_1d
from cellflux.problem import DomainSpec, NonlinearitySpec, ProblemSpec
from cellflux.solver1d import StepOptions, StepRejected, compute_a, make_state, solve_coupling
from cellflux.solver_cyl import compute_a_cyl

AGREE = 1e-10


def picard(g, a, h0, hN, robin, opts):
    """Reference: the damped Picard loop, with the guard latching an end into
    cell mode once |a| h >= 1 there.  Returns (a, guarded)."""
    robin_l = robin_r = robin
    for _ in range(opts.picard_max_iters):
        if robin_l and abs(a) * h0 >= 1.0:
            robin_l = False
        if robin_r and abs(a) * hN >= 1.0:
            robin_r = False
        a_new = 0.5 * (a + g(a, robin_l, robin_r))
        if abs(a_new - a) <= opts.picard_tol * max(1.0, abs(a_new)):
            return a_new, robin and not (robin_l and robin_r)
        a = a_new
    raise StepRejected("reference picard iteration did not converge")


def coupling_1d(problem, state):
    """(g, h0, hN) of the interval: g(a) = f(c_right(a)) - f(c_left(a))."""
    nl = problem.nonlinearity
    c0, cN = float(state.c[0]), float(state.c[-1])
    h0, hN = float(state.grid.widths[0]), float(state.grid.widths[-1])

    def g(a, robin_l, robin_r):
        cl = c0 / (1.0 + 0.5 * a * h0) if robin_l else c0
        cr = cN / (1.0 - 0.5 * a * hN) if robin_r else cN
        return solver1d._f_at_trace(nl, cr) - solver1d._f_at_trace(nl, cl)

    return g, h0, hN


def coupling_cyl(problem, state):
    """(g, h0, hN) of the cylinder: the volume-weighted end-cap integral."""
    nl = problem.nonlinearity
    c0, cN = state.c[0, :], state.c[-1, :]
    h0, hN = float(state.grid.axial.widths[0]), float(state.grid.axial.widths[-1])
    w = state.grid.vol

    def g(a, robin_l, robin_r):
        cl = c0 / (1.0 + 0.5 * a * h0) if robin_l else c0
        cr = cN / (1.0 - 0.5 * a * hN) if robin_r else cN
        return float(w @ solver_cyl._f_np(nl, cr)) - float(w @ solver_cyl._f_np(nl, cl))

    return g, h0, hN


def preset_states(name, n_steps, every):
    """(problem, opts, states) along the first n_steps steps of a preset,
    every `every`-th state kept as a copy (c and committed a)."""
    cfg = presets.preset_config(name)
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    cyl = cfg.problem.domain.geometry == "cylinder"
    if cyl:
        make, comp, step, adapt = (solver_cyl.make_state_cyl, compute_a_cyl,
                                   solver_cyl.step_cyl, solver_cyl.adapt_dt_cyl)
    else:
        make, comp, step, adapt = solver1d.make_state, compute_a, solver1d.step, solver1d.adapt_dt
    prob, opts = cfg.problem, cfg.step
    state = make(grid, c0)
    state.a = comp(prob, state, opts)
    states = []
    for k in range(n_steps):
        if k % every == 0:
            states.append(make(grid, state.c.copy()))
            states[-1].a = state.a
        state = step(prob, state, adapt(prob, state, opts), opts)
    return prob, opts, states


def assert_agrees(comp, coupling, prob, opts, states):
    """compute_a / compute_a_cyl against the reference on every state;
    returns the guard flags and the mean number of g evaluations of the
    shared iteration."""
    guarded, evals = [], 0
    for s in states:
        g, h0, hN = coupling(prob, s)
        a_ref, guarded_ref = picard(g, s.a, h0, hN, opts.trace_mode == "robin", opts)
        a = comp(prob, s, opts)
        assert abs(a - a_ref) <= AGREE * max(1.0, abs(a_ref)), (s.a, a, a_ref)
        assert s.trace_guarded == guarded_ref
        guarded.append(s.trace_guarded)

        def counted(*args):
            nonlocal evals
            evals += 1
            return g(*args)

        assert solve_coupling(counted, s.a, h0, hN, opts.trace_mode == "robin", opts)[0] == a
    return guarded, evals / len(states)


def test_coupling_matches_picard_along_critical_mass_exact():
    prob, opts, states = preset_states("critical_mass_exact", 900, 3)
    assert len(states) == 300
    guarded, evals = assert_agrees(compute_a, coupling_1d, prob, opts, states)
    assert not any(guarded)  # Robin traces at both ends throughout
    assert evals <= 4.0


def test_coupling_matches_picard_along_cyl_blowup_with_latched_guard():
    prob, opts, states = preset_states("cyl_blowup", 400, 2)
    guarded, evals = assert_agrees(compute_a_cyl, coupling_cyl, prob, opts, states)
    assert all(guarded)
    assert evals <= 4.0


def test_coupling_matches_picard_in_cell_trace_mode():
    prob, opts, states = preset_states("critical_mass_exact", 300, 10)
    opts = StepOptions(trace_mode="cell", dt_max=opts.dt_max)
    guarded, _ = assert_agrees(compute_a, coupling_1d, prob, opts, states)
    assert not any(guarded)


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
    g, h0, hN = coupling_1d(prob, s)
    assert abs(s.a) * hN < 1.0
    assert abs(0.5 * g(0.0, True, True)) * hN >= 1.0  # the first iterate trips the guard
    guarded, _ = assert_agrees(compute_a, coupling_1d, prob, opts, [s])
    assert guarded == [True]


def test_tiny_iteration_budget_rejects_the_step():
    prob, opts, states = preset_states("critical_mass_exact", 1, 1)
    s = states[0]
    s.a = 0.0  # far from the fixed point a ~ -12
    tiny = StepOptions(picard_max_iters=2, dt_max=opts.dt_max)
    g, h0, hN = coupling_1d(prob, s)
    with pytest.raises(StepRejected):
        picard(g, s.a, h0, hN, True, tiny)
    with pytest.raises(StepRejected):
        compute_a(prob, s, tiny)
    with pytest.raises(StepRejected):
        solver1d.step(prob, s, 1e-6, tiny)
