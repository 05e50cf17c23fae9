"""One iteration of one benchmark workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED MODE SHORT WORKDIR

MODE is `setup` (import cellflux and build the workload's inputs, then
stop), `run` (also run the workload and check its result) or `trace` (run it
with spans recorded around the layer entry points).  Set-up and `run` times
are also given rescaled to the reference host speed of hostclock.py, with a
calibration tick at every solver step of a `run`; a `trace` has no ticks, so
its spans add up to its wall time.  SHORT=1 shortens the
simulated interval, for the self-test.  The result goes to
WORKDIR/result.json; a traced run also writes its spans to WORKDIR/spans.csv.
cellflux is imported from the PYTHONPATH the caller sets.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from hostclock import KERNEL_REF_S, HostClock
from spans import Tracer

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))
MASS_DRIFT_MAX = 1e-12

SWEEP_BRACKET = (0.9, 1.412)
SWEEP_REFINE = 1
# heat_scenario: seeded cosine noise on the heat_decay config, written out
# through run_scenario like `cellflux run`
HEAT_NOISE_AMP = 0.01
HEAT_SNAPSHOT_TIMES = (0.02, 0.25, 0.5)
# shortened inputs for the self-test: stop-rule overrides, and a coarse grid
# that keeps the sweep's bisection and refined level cheap
SHORT_STOP = {"critical_mass_exact": {"t_end": 0.05}, "cyl_blowup": {"t_end": 2e-5},
              "heat_decay": {"converged_tol": 0.05}, "sweep_critical": {}}
SHORT_SWEEP_N = 64
SETUP_CALIBRATIONS = 5  # set-up is rescaled by the median kernel time of these


def _short(cfg, name):
    cfg = replace(cfg, stop=replace(cfg.stop, **SHORT_STOP[name]))
    if name == "sweep_critical":
        cfg = replace(cfg, grid=replace(cfg.grid, N=SHORT_SWEEP_N))
    return cfg


def workload_config(cf, workload: str, seed: int, short: bool):
    """The RunConfig a workload runs, built through the package's config
    entry points."""
    if workload == "heat_scenario":
        doc = cf.harness.config_to_dict(cf.presets.preset_config("heat_decay"))
        doc["initial"]["noise_amp"] = HEAT_NOISE_AMP
        doc["seed"] = seed
        doc["snapshot_times"] = list(HEAT_SNAPSHOT_TIMES)
        if short:
            doc["stop"].update(SHORT_STOP["heat_decay"])
        return cf.harness.config_from_dict(doc)
    name = EXPECTED[workload]["preset"]
    cfg = cf.presets.preset_config(name)
    return _short(cfg, name) if short else cfg


def install_trace(tr: Tracer, cf) -> None:
    h, p, r, s1, sc = cf.harness, cf.presets, cf.runner, cf.solver1d, cf.solver_cyl
    spans = [
        (h, "run", "runner.run"),
        (h, "run_config", "harness.run_config"),
        (p, "run_config", "harness.run_config"),  # presets imported it by name
        (h, "_bisect", "harness.sweep.level"),
        (h, "write_timeseries", "harness.write_timeseries"),
        (h, "write_snapshots", "harness.write_snapshots"),
        (r, "record", "runner.record"),
        (r, "entropy_of", "runner.entropy_of"),
        (r, "dissipation_residuals", "diagnostics.post_run"),
        (r, "fit_blowup", "diagnostics.post_run"),
        (r, "fit_decay", "diagnostics.post_run"),
        (r, "decay_tail", "diagnostics.post_run"),
        (r, "moment_residual", "diagnostics.post_run"),
        (s1, "adapt_dt", "solver1d.adapt_dt"),
        (s1, "step", "solver1d.step"),
        (s1, "compute_a", "solver1d.compute_a"),
        (s1, "solve_banded", "solver1d.solve_banded"),
        (sc, "adapt_dt_cyl", "solver_cyl.adapt_dt_cyl"),
        (sc, "step_cyl", "solver_cyl.step_cyl"),
        (sc, "compute_a_cyl", "solver_cyl.compute_a_cyl"),
        (sc, "solve_banded", "solver_cyl.solve_banded"),
    ]
    spans += [(p._GATES, name, "presets.gate") for name in list(p._GATES)]
    for owner, key, name in spans:
        tr.patch(owner, key, lambda fn, name=name: tr.timed(name, fn))
    tr.patch(s1, "_f_at_trace", lambda fn: tr.counted("solver1d.f_evals", fn))
    tr.patch(sc, "_f_np", lambda fn: tr.counted("solver_cyl.f_evals", fn))


def run_workload(cf, tr: Tracer, workload: str, cfg, out: Path, clock: HostClock | None):
    """Call the workload's entry point inside the root span; returns (wall
    seconds of that call, the same rescaled by `clock` or None without one,
    its return value)."""
    if workload == "heat_scenario":
        name, entry, args = "harness.run_scenario", cf.harness.run_scenario, (cfg, str(out))
    elif workload == "critical_sweep":
        name, entry, args = "harness.sweep", cf.harness.sweep, (cfg, "M", SWEEP_BRACKET, SWEEP_REFINE)
    else:
        name, entry, args = "presets.check_preset", cf.presets.check_preset, (EXPECTED[workload]["preset"],)
    entry = tr.timed(name, entry)
    if clock is not None:
        return clock.measure(entry, *args)
    t0 = time.perf_counter()
    ret = entry(*args)
    return time.perf_counter() - t0, None, ret


def check(workload: str, ret, runs: list, short: bool) -> list:
    """(name, passed, detail) per check.  runs holds (steps, outcome, mass
    drift, fields retained) per runner.run call.  Recorded step counts and
    verdicts hold for the full-length inputs only."""
    drift = max(r[2] for r in runs)
    checks = [("mass_drift", drift <= MASS_DRIFT_MAX, f"{drift:.3e}")]
    if workload == "heat_scenario":
        checks.append(("outcome", ret.outcome == "CONVERGED", ret.outcome))
    if short or workload == "heat_scenario":
        return checks
    exp = EXPECTED[workload]
    got = {"steps": [r[0] for r in runs], "outcomes": [r[1] for r in runs]}
    if workload == "critical_sweep":
        got.update(
            probes=[list(p) for p in ret.probes],
            refined_probes=[list(p) for p in ret.refined_probes],
            threshold_estimate=ret.threshold_estimate,
            refined_estimate=ret.refined_estimate,
        )
    else:
        ok, msgs = ret
        checks.append(("gate", ok, "; ".join(msgs)))
    return checks + [(key, val == exp[key], repr(val)) for key, val in got.items()]


def main(argv) -> int:
    workload, seed, mode, short, workdir = argv
    seed, short, workdir = int(seed), short == "1", Path(workdir)
    t0 = time.perf_counter()
    import cellflux.harness
    import cellflux.presets
    import cellflux.runner
    import cellflux.solver1d
    import cellflux.solver_cyl
    import numpy
    import scipy

    cf = cellflux
    cfg = workload_config(cf, workload, seed, short)
    grid = cfg.grid.build(cfg.problem.domain)
    cf.harness.build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    setup_s = time.perf_counter() - t0
    clock = HostClock()
    clock.calibrate()  # warm-up
    kernel = [clock.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * KERNEL_REF_S / statistics.median(kernel),
              "cellflux": os.path.dirname(cf.__file__),
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if mode == "setup":
        (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    tr = Tracer()
    runs = []  # (steps, outcome, mass drift, fields retained) per runner.run call

    def capture(fn):
        def wrapper(*args, **kwargs):
            traj, rep = fn(*args, **kwargs)
            runs.append((rep.steps, rep.outcome, rep.mass_drift_max, len(traj.fields)))
            return traj, rep
        return wrapper

    tr.patch(cf.harness, "run", capture)
    if short:
        # check_preset takes only a name; shorten the config it looks up
        tr.patch(cf.presets, "preset_config", lambda fn: lambda name: _short(fn(name), name))
    if mode == "trace":
        install_trace(tr, cf)
        clock = None
    else:
        tr.patch(cf.solver1d, "step", clock.ticking)
        tr.patch(cf.solver_cyl, "step_cyl", clock.ticking)
    out = workdir / "scenario"
    try:
        wall, ref_wall, ret = run_workload(cf, tr, workload, cfg, out, clock)
    finally:
        tr.restore()

    if workload == "heat_scenario":
        result["timeseries_sha256"] = hashlib.sha256((out / "timeseries.csv").read_bytes()).hexdigest()
        result["output_bytes"] = sum(f.stat().st_size for f in out.iterdir())
    result.update(
        wall_s=wall,
        ref_wall_s=ref_wall,
        steps=sum(r[0] for r in runs),
        runs=[list(r) for r in runs],
        checks=[list(c) for c in check(workload, ret, runs, short)],
    )
    if mode == "trace":
        result["layers"] = tr.summary()
        result["counts"] = dict(tr.counts)
        result["level_s"] = [end - start for name, start, end, _p in tr.spans if name == "harness.sweep.level"]
        tr.write_spans(workdir / "spans.csv")
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
