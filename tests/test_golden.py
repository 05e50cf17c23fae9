"""Differential test against trajectories recorded from an earlier solver.

Each file in tests/data holds the first STEPS steps of one preset, marched
with the runner's step loop (adapt dt, halve it on StepRejected): the
committed `a`, the `dt` taken and the `trace_guarded` flag of every step, and
the final cell averages `c`.

The cylinder trajectories must agree bitwise: the shared advect-and-diffuse
kernel keeps the cylinder's order of operations.  The interval ones agree to
1e-12 relative: the flux-form commit is now summed as (c* + delta) first,
then differenced, as the cylinder always did, which moves the last bits.

Regenerate (only when a change to the results is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from cellflux import harness, presets, solver1d, solver_cyl
from cellflux.solver1d import StepRejected

DATA = Path(__file__).parent / "data"
STEPS = 300
INTERVAL = ("critical_mass_exact", "heat_decay", "superlinear_blowup")
CYLINDER = ("cyl_blowup", "cyl_reduction")
REL = 1e-12


def trajectory(name: str) -> dict:
    cfg = presets.preset_config(name)
    prob, opts = cfg.problem, cfg.step
    grid = cfg.grid.build(prob.domain)
    c0 = harness.build_initial(cfg.initial, grid, prob.domain, cfg.seed)
    if prob.domain.geometry == "cylinder":
        compute, step, adapt = solver_cyl.compute_a_cyl, solver_cyl.step_cyl, solver_cyl.adapt_dt_cyl
    else:
        compute, step, adapt = solver1d.compute_a, solver1d.step, solver1d.adapt_dt
    state = solver1d.make_state(grid, c0)
    state.a = compute(prob, state, opts)
    a, dts, guarded = [], [], []
    for _ in range(STEPS):
        dt = adapt(prob, state, opts)
        while True:
            try:
                state = step(prob, state, dt, opts)
                break
            except StepRejected:
                dt *= 0.5
        a.append(state.a)
        dts.append(dt)
        guarded.append(state.trace_guarded)
    return {"a": np.array(a), "dt": np.array(dts), "trace_guarded": np.array(guarded), "c": state.c}


@pytest.mark.parametrize("name", CYLINDER)
def test_cylinder_trajectory_bitwise(name):
    want = np.load(DATA / f"golden_{name}.npz")
    got = trajectory(name)
    for key in ("a", "dt", "trace_guarded", "c"):
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("name", INTERVAL)
def test_interval_trajectory_within_roundoff(name):
    want = np.load(DATA / f"golden_{name}.npz")
    got = trajectory(name)
    assert np.array_equal(got["trace_guarded"], want["trace_guarded"])
    assert np.all(np.abs(got["a"] - want["a"]) <= REL * np.maximum(1.0, np.abs(want["a"])))
    assert np.all(np.abs(got["dt"] - want["dt"]) <= REL * want["dt"])
    assert np.max(np.abs(got["c"] - want["c"])) <= REL * np.max(np.abs(want["c"]))


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in INTERVAL + CYLINDER:
        np.savez(DATA / f"golden_{name}.npz", **trajectory(name))
