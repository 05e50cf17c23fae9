"""Scenario runner, presets, parameter sweeps, and file I/O.

Configs are plain JSON documents mirroring the dataclasses below; unknown
keys are rejected by name so typos never silently change an experiment.  A
run writes three artifacts into its output directory:

  timeseries.csv   one row per sampled FunctionalRecord (RFC 4180, 17
                   significant digits, '.' decimal separator)
  snapshots.csv    cellwise fields at t = 0 and at the first sample at or
                   after each requested snapshot time
  report.json      RunReport + threshold constants + the echoed config

Identical configs produce byte-identical CSV files: the dt sequence, the
splitting order, and the formatting are all deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .grid import Grid1D, GridCyl, build_grid_1d, build_grid_cyl, integrate
from .problem import ConfigError, DomainSpec, NonlinearitySpec, ProblemSpec
from .runner import BLOWUP, BOUNDED, CONVERGED, NUMERICAL_FAILURE, StopRule, run
from .solver1d import StepOptions

OUT_ROOT_ENV = "CELLFLUX_OUT_ROOT"


@dataclass
class GridConfig:
    N: int = 128  # axial cell count
    r: float = 1.0  # geometric grading ratio toward x = 0
    Nr: int = 16  # radial cells (cylinder only)

    def build(self, domain: DomainSpec):
        if domain.geometry == "interval":
            return build_grid_1d(domain.L, self.N, self.r)
        return build_grid_cyl(domain.L, domain.R, domain.n, self.N, self.Nr, self.r)


@dataclass
class InitialConfig:
    """Named initial-data families.

    constant       c = mass/|Omega|
    cosine         mean + amp cos(modes pi x1 / L) (+ seeded noise)
    concentration  mass-normalized k g(k x1) h(rho), g(s) = (1-s)_+^2,
                   h(rho) = 1 + radial_amp cos(pi rho / R); nonincreasing in
                   x1, compactly supported near x1 = 0
    step           mass spread uniformly over x1 < width
    custom         explicit cell-average table
    """

    family: str = "constant"
    mass: float | None = None
    mean: float | None = None
    amp: float = 0.0
    modes: int = 1
    k: float = 4.0
    width: float = 0.25
    radial_amp: float = 0.0
    noise_amp: float = 0.0
    values: list | None = None


@dataclass
class RunConfig:
    problem: ProblemSpec
    grid: GridConfig
    initial: InitialConfig
    step: StepOptions
    stop: StopRule
    seed: int = 0
    snapshot_times: tuple = ()
    out_dir: str = "out/run"


def _axial_cell_averages(grid1d: Grid1D, antiderivative) -> np.ndarray:
    F = antiderivative(grid1d.interfaces)
    return (F[1:] - F[:-1]) / grid1d.widths


def build_initial(cfg: InitialConfig, grid, domain: DomainSpec, seed: int = 0) -> np.ndarray:
    """Exact cell averages of the requested family, mass-normalized where the
    family is specified by mass."""
    cyl = isinstance(grid, GridCyl)
    ax = grid.axial if cyl else grid
    L = domain.L
    shape = grid.shape

    if cfg.family == "custom":
        if cfg.values is None:
            raise ConfigError("custom initial data requires 'values'")
        c = np.asarray(cfg.values, dtype=float)
        if c.shape != shape:
            raise ConfigError(f"custom values shape {c.shape} does not match grid {shape}")
        return c.copy()

    if cfg.family == "constant":
        if cfg.mass is None:
            raise ConfigError("constant initial data requires 'mass'")
        return np.full(shape, cfg.mass / domain.volume)

    if cfg.family == "cosine":
        if cfg.mean is None:
            raise ConfigError("cosine initial data requires 'mean'")
        w = cfg.modes * math.pi / L
        prof = _axial_cell_averages(ax, lambda x: cfg.mean * x + cfg.amp * np.sin(w * x) / w)
        if cfg.noise_amp > 0.0:
            rng = np.random.default_rng(seed)
            noise = rng.uniform(-cfg.noise_amp, cfg.noise_amp, ax.N)
            prof = prof + noise - integrate(ax, noise) / L  # mass-preserving
        if np.any(prof < 0):
            raise ConfigError("cosine data went negative; reduce amp/noise_amp")
        return np.tile(prof[:, None], (1, grid.Nr)) if cyl else prof

    if cfg.family == "concentration":
        if cfg.mass is None:
            raise ConfigError("concentration initial data requires 'mass'")
        k = cfg.k
        # antiderivative of k (1 - k x)_+^2 is -(1 - k x)_+^3 / 3
        prof = _axial_cell_averages(ax, lambda x: -np.clip(1.0 - k * x, 0.0, None) ** 3 / 3.0)
    elif cfg.family == "step":
        if cfg.mass is None:
            raise ConfigError("step initial data requires 'mass'")
        w = cfg.width
        prof = _axial_cell_averages(ax, lambda x: np.minimum(x, w))
    else:
        raise ConfigError(f"unknown initial-data family {cfg.family!r}")

    if cyl:
        if not 0.0 <= cfg.radial_amp <= 1.0:
            raise ConfigError("radial_amp must lie in [0, 1]")
        radial = 1.0 + cfg.radial_amp * np.cos(math.pi * grid.rho_centers / grid.R)
        c = prof[:, None] * radial[None, :]
    else:
        c = prof
    total = integrate(grid, c)
    if not total > 0:
        raise ConfigError("initial data has no mass")
    return c * (cfg.mass / total)


# ---------------------------------------------------------------------------
# JSON config parsing


_SCHEMA = {
    "problem": {
        "nonlinearity": {"kind", "m", "level", "alpha"},
        "domain": {"geometry", "L", "R", "n"},
        "chi": None,
    },
    "grid": {"N", "r", "Nr"},
    "initial": {
        "family", "mass", "mean", "amp", "modes", "k", "width",
        "radial_amp", "noise_amp", "values",
    },
    "step": {
        "trace_mode", "picard_tol", "picard_max_iters", "cfl", "dt_max",
        "dt_min", "blowup_linf_threshold", "c_bu",
    },
    "stop": {"t_end", "converged_tol", "sample_every", "store_fields_every"},
    "p_list": None,
    "seed": None,
    "snapshot_times": None,
    "out_dir": None,
}


def _check_keys(doc: dict, schema, path: str):
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown config key {path}{key!r}")
        sub = schema[key]
        if isinstance(sub, (set, dict)):
            val = doc[key]
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path}{key!r} must be an object")
            if isinstance(sub, set):
                for k2 in val:
                    if k2 not in sub:
                        raise ConfigError(f"unknown config key {path}{key}.{k2!r}")
            else:
                _check_keys(val, sub, f"{path}{key}.")


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and instantiate a RunConfig, filling defaults; unknown keys
    are rejected with their name."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _SCHEMA, "")
    prob = doc.get("problem", {})
    nl = NonlinearitySpec(
        kind=prob.get("nonlinearity", {}).get("kind", "signed_power"),
        m=prob.get("nonlinearity", {}).get("m", 1.0),
        level=prob.get("nonlinearity", {}).get("level", 1.0),
        alpha=prob.get("nonlinearity", {}).get("alpha", 1.0),
    )
    dom_doc = prob.get("domain", {})
    dom = DomainSpec(
        geometry=dom_doc.get("geometry", "interval"),
        L=dom_doc.get("L", 1.0),
        R=dom_doc.get("R"),
        n=dom_doc.get("n"),
    )
    problem = ProblemSpec(nonlinearity=nl, domain=dom, chi=prob.get("chi", 1.0))
    grid = GridConfig(**doc.get("grid", {}))
    initial = InitialConfig(**doc.get("initial", {}))
    step = StepOptions(**doc.get("step", {}))
    stop_doc = dict(doc.get("stop", {}))
    stop_doc.setdefault("t_end", 1.0)
    stop = StopRule(**stop_doc, p_list=tuple(doc.get("p_list", (2.0,))))
    return RunConfig(
        problem=problem,
        grid=grid,
        initial=initial,
        step=step,
        stop=stop,
        seed=doc.get("seed", 0),
        snapshot_times=tuple(doc.get("snapshot_times", ())),
        out_dir=doc.get("out_dir", "out/run"),
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = {
        "problem": {
            "nonlinearity": asdict(cfg.problem.nonlinearity),
            "domain": asdict(cfg.problem.domain),
            "chi": cfg.problem.chi,
        },
        "grid": asdict(cfg.grid),
        "initial": asdict(cfg.initial),
        "step": asdict(cfg.step),
        "stop": {
            "t_end": cfg.stop.t_end,
            "converged_tol": cfg.stop.converged_tol,
            "sample_every": cfg.stop.sample_every,
            "store_fields_every": cfg.stop.store_fields_every,
        },
        "p_list": list(cfg.stop.p_list),
        "seed": cfg.seed,
        "snapshot_times": list(cfg.snapshot_times),
        "out_dir": cfg.out_dir,
    }
    return doc


# ---------------------------------------------------------------------------
# Scenario execution and file output


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _json_ready(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return None
        return obj
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _json_ready(obj.item())
    return obj


def resolve_out_dir(out_dir: str) -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    p = Path(out_dir)
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def write_timeseries(path: Path, records, p_list) -> None:
    cols = ["t", "dt", "mass", "entropy", "linf"]
    cols += [f"lp_{_fmt(p)}" for p in p_list]
    cols += ["phi", "a", "u", "c_left", "c_right"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in records:
            row = [r.t, r.dt, r.mass, r.entropy, r.linf]
            row += [r.lp[p] for p in p_list]
            row += [r.phi, r.a, r.u, r.c_left, r.c_right]
            w.writerow([_fmt(v) for v in row])


def write_snapshots(path: Path, snaps, grid) -> None:
    cyl = isinstance(grid, GridCyl)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if cyl:
            w.writerow(["t", "i", "j", "x1", "rho", "c"])
            xs = grid.axial.centers
            rs = grid.rho_centers
            for t, c in snaps:
                for i in range(c.shape[0]):
                    for j in range(c.shape[1]):
                        w.writerow([_fmt(t), i, j, _fmt(xs[i]), _fmt(rs[j]), _fmt(c[i, j])])
        else:
            w.writerow(["t", "i", "x", "c"])
            for t, c in snaps:
                for i in range(len(c)):
                    w.writerow([_fmt(t), i, _fmt(grid.centers[i]), _fmt(c[i])])


def run_config(cfg: RunConfig):
    """Execute the run described by cfg in memory; returns (grid, traj, report)."""
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    traj, rep = run(cfg.problem, grid, c0, cfg.step, cfg.stop)
    return grid, traj, rep


def run_scenario(cfg: RunConfig, out_dir: str | None = None):
    """Execute a config and write timeseries.csv, snapshots.csv, report.json.

    Returns the RunReport.  snapshots.csv holds the initial data and the
    field at the first sample at or after each requested time; a requested
    time the run never reaches gets no row.
    """
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)

    want = sorted(cfg.snapshot_times)
    snaps = [(0.0, np.array(c0, dtype=float))]
    stop = cfg.stop
    if want and stop.store_fields_every == 0:
        stop = replace(stop, store_fields_every=1)
    traj, rep = run(cfg.problem, grid, c0, cfg.step, stop)
    for t, c, _a in traj.fields:
        while want and t >= want[0]:
            want.pop(0)
            snaps.append((t, c))

    out = resolve_out_dir(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_timeseries(out / "timeseries.csv", traj.records, cfg.stop.p_list)
    write_snapshots(out / "snapshots.csv", snaps, grid)
    doc = {"config": config_to_dict(cfg), "report": _json_ready(asdict(rep))}
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return rep


# ---------------------------------------------------------------------------
# Parameter sweep


@dataclass
class SweepReport:
    parameter: str
    bracket: tuple
    probes: list  # (value, outcome) in evaluation order
    threshold_estimate: float
    half_width: float
    refined_estimate: float | None = None
    refined_probes: list = field(default_factory=list)
    drift: float | None = None
    non_monotone: bool = False


def _set_parameter(cfg: RunConfig, name: str, value: float) -> RunConfig:
    if name == "M":
        return replace(cfg, initial=replace(cfg.initial, mass=value))
    if name == "k":
        return replace(cfg, initial=replace(cfg.initial, k=value))
    if name == "m":
        return replace(
            cfg, problem=replace(cfg.problem, nonlinearity=replace(cfg.problem.nonlinearity, m=value))
        )
    raise ConfigError(f"sweep parameter must be one of M, k, m; got {name!r}")


def _refine_grid(cfg: RunConfig) -> RunConfig:
    g = cfg.grid
    # doubling N while taking sqrt(r) halves every cell of the graded mesh,
    # so the refined mesh is a true refinement of the same geometry
    return replace(cfg, grid=replace(g, N=2 * g.N, r=math.sqrt(g.r)))


def _classify(cfg: RunConfig) -> str:
    _grid, _traj, rep = run_config(cfg)
    if rep.outcome == NUMERICAL_FAILURE:
        raise RuntimeError(f"probe failed numerically: {rep.reason}")
    return rep.outcome


def _bisect(cfg: RunConfig, parameter: str, lo: float, hi: float, refinements: int):
    probes = []

    def blowup_at(v: float) -> bool:
        out = _classify(_set_parameter(cfg, parameter, v))
        probes.append((v, out))
        return out == BLOWUP

    b_lo = blowup_at(lo)
    b_hi = blowup_at(hi)
    if b_lo == b_hi:
        return None, probes, False
    for _ in range(refinements):
        mid = 0.5 * (lo + hi)
        if blowup_at(mid) == b_lo:
            lo = mid
        else:
            hi = mid
    # the probe set must classify monotonically across the bracket
    ordered = [o == BLOWUP for _v, o in sorted(probes)]
    flips = sum(1 for x, y in zip(ordered[:-1], ordered[1:]) if x != y)
    return 0.5 * (lo + hi), probes, flips > 1


def sweep(cfg: RunConfig, parameter: str, bracket, refinements: int) -> SweepReport:
    """Bisect the outcome boundary (blow-up vs. not) in the given parameter.

    Endpoints must classify differently; otherwise a no-bisection report is
    returned.  The bisection is repeated at doubled grid resolution and the
    drift of the estimate is reported (first-order schemes should drift
    toward the continuum threshold).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    est, probes, nonmono = _bisect(cfg, parameter, lo, hi, refinements)
    if est is None:
        return SweepReport(
            parameter=parameter, bracket=(lo, hi), probes=probes,
            threshold_estimate=math.nan, half_width=math.nan, non_monotone=True,
        )
    half = (hi - lo) / 2.0 ** (refinements + 1)
    est2, probes2, nonmono2 = _bisect(_refine_grid(cfg), parameter, lo, hi, refinements)
    return SweepReport(
        parameter=parameter,
        bracket=(lo, hi),
        probes=probes,
        threshold_estimate=est,
        half_width=half,
        refined_estimate=est2,
        refined_probes=probes2,
        drift=None if est2 is None else est2 - est,
        non_monotone=nonmono or est2 is None or nonmono2,
    )


def write_sweep_report(rep: SweepReport, out_dir) -> None:
    out = resolve_out_dir(str(out_dir))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(_json_ready(asdict(rep)), fh, indent=2)
        fh.write("\n")
