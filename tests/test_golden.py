"""Differential test against trajectories recorded from an earlier solver.

Each file in tests/data holds the first STEPS steps of one preset, marched
with the runner's step loop (adapt dt, halve it on StepRejected): the
committed `a`, the `dt` taken and the `trace_guarded` flag of every step
(Robin mode asked for, and an end left in cell mode by the coupling solve),
and the final cell averages `c`.

All five agree to 1e-12 relative in `a`, `dt` and `c`, with `trace_guarded`
equal.  The files were recorded from the increment-form diffusion solve; the
face-flux solve that replaced it (solver1d._advect_diffuse) does the same
arithmetic in a different order, which moves the last bits in both
geometries (up to about 1e-13 relative on cyl_blowup).

Regenerate (only when a change to the results is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from cellflux import harness, presets, solver1d
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
    state = solver1d.make_state(grid, c0)
    state.a = solver1d.compute_a(prob, state, opts)
    a, dts, guarded = [], [], []
    for _ in range(STEPS):
        dt = solver1d.adapt_dt(prob, state, opts)
        while True:
            try:
                state = solver1d.step(prob, state, dt, opts)
                break
            except StepRejected:
                dt *= 0.5
        a.append(state.a)
        dts.append(dt)
        guarded.append(opts.trace_mode == "robin" and not all(state.robin_ends))
    return {"a": np.array(a), "dt": np.array(dts), "trace_guarded": np.array(guarded), "c": state.c}


def assert_matches_golden(name):
    want = np.load(DATA / f"golden_{name}.npz")
    got = trajectory(name)
    assert np.array_equal(got["trace_guarded"], want["trace_guarded"])
    assert np.all(np.abs(got["a"] - want["a"]) <= REL * np.maximum(1.0, np.abs(want["a"])))
    assert np.all(np.abs(got["dt"] - want["dt"]) <= REL * want["dt"])
    assert np.max(np.abs(got["c"] - want["c"])) <= REL * np.max(np.abs(want["c"]))


@pytest.mark.parametrize("name", INTERVAL)
def test_interval_trajectory_within_roundoff(name):
    assert_matches_golden(name)


@pytest.mark.parametrize("name", CYLINDER)
def test_cylinder_trajectory_within_roundoff(name):
    assert_matches_golden(name)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in INTERVAL + CYLINDER:
        np.savez(DATA / f"golden_{name}.npz", **trajectory(name))
