"""The benchmark's tracer (perfbench/child.py) wraps solver functions by their
module attribute names to split one step into layers.  A refactor that
renames one of them, or moves a call off the looked-up name, crashes traced
runs or silently zeroes a per-layer metric; this test catches both on short
runs in each geometry.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cellflux.harness
import cellflux.presets
import cellflux.runner
import cellflux.solver1d
import cellflux.solver_cyl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (preset, stop-rule overrides, the geometry's step, compute_a and adapt_dt
# span names, tridiagonal solves per step, f-evaluation counter)
CASES = [
    ("critical_mass_exact", {"t_end": 0.01}, ("solver1d.step", "solver1d.compute_a", "solver1d.adapt_dt"),
     1, "solver1d.f_evals"),
    ("cyl_blowup", {"t_end": 5e-4}, ("solver_cyl.step_cyl", "solver_cyl.compute_a_cyl", "solver_cyl.adapt_dt_cyl"),
     2, "solver_cyl.f_evals"),
]


@pytest.mark.parametrize("preset,stop,names,solves,f_counter", CASES)
def test_traced_run_records_every_solver_layer(monkeypatch, preset, stop, names, solves, f_counter):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install_trace
    from spans import Tracer

    cfg = cellflux.presets.preset_config(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, N=32), stop=replace(cfg.stop, **stop))
    tr = Tracer()
    try:
        install_trace(tr, cellflux)
        _grid, _traj, rep = cellflux.harness.run_config(cfg)
    finally:
        tr.restore()
    layers = tr.summary()
    step_name = names[0]
    assert rep.steps > 0 and not tr.errors
    for name in names:
        assert layers[name]["calls"] > 0, name
    assert layers[step_name]["calls"] == rep.steps
    solve_calls = sum(layers.get(f"{mod}.solve_banded", {}).get("calls", 0) for mod in ("solver1d", "solver_cyl"))
    assert solve_calls == solves * rep.steps
    assert tr.counts[f_counter] > 0
    # restored: the module attributes are the package's own functions again
    assert cellflux.solver1d.step.__module__ == "cellflux.solver1d"
    assert cellflux.solver_cyl.step_cyl.__module__ == "cellflux.solver_cyl"
