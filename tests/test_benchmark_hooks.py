"""The benchmark's tracer (perfbench/child.py) wraps solver and runner
functions by their module attribute names to split one step into layers.  A
refactor that renames one of them, or moves a call off the looked-up name,
crashes traced runs or silently zeroes a per-layer metric; this test catches
both on short runs in each geometry: every solver layer, the runner's
entropy_of and record, adapt_dt once per attempted step, and the post-run
dissipation check once per interval run and never on the cylinder; on a
short scenario, that check and both CSV writers; on short runs that end in
BLOWUP and in CONVERGED, each post-run fit and residual; and on a short
check_preset, its run and its gate.

Both geometries run solver1d's functions.  The tracer still wraps five names
of cellflux.solver_cyl, which are aliases of them that nothing calls; the
last test pins that module to exactly those aliases.
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
from cellflux.grid import Grid1D

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SOLVER_NAMES = ("solver1d.step", "solver1d.compute_a", "solver1d.adapt_dt")
# (preset, stop-rule overrides, the step, compute_a and adapt_dt span names,
# tridiagonal solves per step, f-evaluation counter)
CASES = [
    ("critical_mass_exact", {"t_end": 0.01}, SOLVER_NAMES, 1, "solver1d.f_evals"),
    ("cyl_blowup", {"t_end": 5e-4}, SOLVER_NAMES, 2, "solver1d.f_evals"),
    # dt holds at dt_max, so every step after the first solves on reused factors
    ("heat_decay", {"t_end": 0.01}, SOLVER_NAMES, 1, "solver1d.f_evals"),
]
# the aliases perfbench/child.py wraps, each with the solver1d name it stands for
SHIM = {"step_cyl": "step", "compute_a_cyl": "compute_a", "adapt_dt_cyl": "adapt_dt",
        "solve_banded": "solve_banded", "_f_np": "_f_at_trace"}


@pytest.mark.parametrize("preset,stop,names,solves,f_counter", CASES)
def test_traced_run_records_every_solver_layer(monkeypatch, preset, stop, names, solves, f_counter):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install_trace
    from spans import Tracer

    cfg = cellflux.presets.preset_config(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, N=32), stop=replace(cfg.stop, **stop))
    tr = Tracer()
    try:
        tr.patch(cellflux.runner, "dissipation_residuals", lambda fn: tr.counted("dissipation_residuals", fn))
        install_trace(tr, cellflux)
        grid, _traj, rep = cellflux.harness.run_config(cfg)
    finally:
        tr.restore()
    layers = tr.summary()
    step_name, _compute_a_name, adapt_name = names
    assert rep.steps > 0 and not tr.errors
    for name in names + ("runner.entropy_of", "runner.record"):
        assert layers[name]["calls"] > 0, name
    # no rejections here, so every attempted step is a committed one
    assert layers[step_name]["calls"] == rep.steps
    assert layers[adapt_name]["calls"] == rep.steps
    assert layers["solver1d.solve_banded"]["calls"] == solves * rep.steps
    # f is evaluated twice per coupling solve, one solve before the first
    # step and one per step: once per end cap on the homogeneous kinds, and
    # so on heat_decay's saturating f too, whose a (below 1e-31, level
    # 1e-30) rounds every lam to 1.0, where each end's cell sum serves
    assert tr.counts[f_counter] == 2 * (rep.steps + 1)
    # the dissipation check runs once after an interval run's loop, inside
    # the diagnostics.post_run span, and never on the cylinder
    # (these short runs end BOUNDED, so the moment residual is the only other)
    interval = isinstance(grid, Grid1D)
    assert tr.counts.get("dissipation_residuals", 0) == int(interval)
    assert layers["diagnostics.post_run"]["calls"] == 1 + interval
    # no call goes through the aliases
    assert not [name for name in layers if name.startswith("solver_cyl.")]
    assert set(tr.counts) - {"dissipation_residuals"} == {f_counter}
    # restored: the module attributes are the package's own functions again
    assert cellflux.solver1d.step.__module__ == "cellflux.solver1d"
    assert cellflux.solver_cyl.step_cyl is cellflux.solver1d.step


def test_traced_scenario_records_the_post_run_check_and_both_writers(monkeypatch, tmp_path):
    # heat_scenario's tail: the runner's dissipation check covers every
    # sample in one call after the loop, and run_scenario writes both CSVs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install_trace
    from spans import Tracer

    cfg = cellflux.presets.preset_config("heat_decay")
    cfg = replace(cfg, grid=replace(cfg.grid, N=32), stop=replace(cfg.stop, t_end=0.01),
                  snapshot_times=(0.002, 0.005))
    tr = Tracer()
    try:
        tr.patch(cellflux.runner, "dissipation_residuals", lambda fn: tr.counted("dissipation_residuals", fn))
        install_trace(tr, cellflux)
        rep = cellflux.harness.run_scenario(cfg, str(tmp_path / "run"))
    finally:
        tr.restore()
    layers = tr.summary()
    assert rep.entropy_residual is not None and not tr.errors
    assert tr.counts["dissipation_residuals"] == 1
    for name in ("diagnostics.post_run", "harness.write_timeseries", "harness.write_snapshots"):
        assert layers[name]["calls"] > 0, name
    assert layers["harness.write_timeseries"]["calls"] == layers["harness.write_snapshots"]["calls"] == 1
    assert cellflux.runner.dissipation_residuals.__module__ == "cellflux.diagnostics"


def test_traced_check_preset_records_its_run_and_its_gate(monkeypatch):
    # the gated workloads run check_preset: presets.gate_pct is the span of
    # the gate entry the verdict looks up, and the run goes through the
    # run_config name presets imported
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install_trace
    from spans import Tracer

    preset_config = cellflux.presets.preset_config

    def short(name):
        cfg = preset_config(name)
        return replace(cfg, grid=replace(cfg.grid, N=32), stop=replace(cfg.stop, t_end=0.01))

    monkeypatch.setattr(cellflux.presets, "preset_config", short)
    tr = Tracer()
    try:
        install_trace(tr, cellflux)
        ok, msgs = cellflux.presets.check_preset("critical_mass_exact")
    finally:
        tr.restore()
    layers = tr.summary()
    assert ok and not tr.errors, msgs
    assert layers["presets.gate"]["calls"] == 1
    assert layers["harness.run_config"]["calls"] == 1


POST_RUN = ("fit_blowup", "fit_decay", "decay_tail", "moment_residual", "dissipation_residuals")


@pytest.mark.parametrize("preset,grid,step,stop,outcome,calls", [
    # threshold 100 ends the m = 2 spike after 71 steps; on a coarser grid
    # it settles and never blows up
    ("superlinear_blowup", {}, {"blowup_linf_threshold": 100.0}, {}, "BLOWUP", (1, 0, 0, 1, 1)),
    ("heat_decay", {"N": 32}, {}, {"converged_tol": 0.05}, "CONVERGED", (0, 1, 1, 1, 1)),
])
def test_traced_post_run_calls_each_fit_and_residual(monkeypatch, preset, grid, step, stop, outcome, calls):
    # diagnostics.post_run.s sums the spans of these runner names: a post-run
    # stage that stopped calling through them would zero it silently
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install_trace
    from spans import Tracer

    cfg = cellflux.presets.preset_config(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, **grid), step=replace(cfg.step, **step),
                  stop=replace(cfg.stop, **stop))
    tr = Tracer()
    try:
        for name in POST_RUN:
            tr.patch(cellflux.runner, name, lambda fn, name=name: tr.counted(name, fn))
        install_trace(tr, cellflux)
        _grid, _traj, rep = cellflux.harness.run_config(cfg)
    finally:
        tr.restore()
    assert rep.outcome == outcome and not tr.errors
    assert tuple(tr.counts.get(name, 0) for name in POST_RUN) == calls
    assert tr.summary()["diagnostics.post_run"]["calls"] == sum(calls)
    assert rep.moment_residual is not None


def test_solver_cyl_holds_only_the_benchmark_aliases():
    names = {name for name in vars(cellflux.solver_cyl) if not name.startswith("__")}
    assert names == set(SHIM)
    for alias, name in SHIM.items():
        assert getattr(cellflux.solver_cyl, alias) is getattr(cellflux.solver1d, name), alias
