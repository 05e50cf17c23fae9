"""Scenario runner, presets, parameter sweeps, and file I/O.

Configs are plain JSON documents mirroring the dataclasses below; unknown
keys are rejected by name so typos never silently change an experiment.  A
run writes three artifacts into its output directory:

  timeseries.csv   one row per sample of the run's Records table (RFC 4180,
                   17 significant digits, '.' decimal separator)
  snapshots.csv    cellwise fields at t = 0 and at the first sample at or
                   after each requested snapshot time
  report.json      RunReport + threshold constants + the echoed config

Identical configs produce byte-identical CSV files: the dt sequence, the
splitting order, and the formatting are all deterministic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .diagnostics import check_p_list
from .grid import Grid1D, GridCyl, build_grid_1d, build_grid_cyl, integrate
from .problem import ConfigError, DomainSpec, ProblemSpec
from .runner import BLOWUP, NUMERICAL_FAILURE, StopRule, run
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

    def __post_init__(self):
        if self.modes < 1:
            raise ConfigError(f"modes must be >= 1, got {self.modes}")
        for name in ("mass", "mean", "amp", "k", "width", "radial_amp", "noise_amp"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")


@dataclass
class RunConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    grid: GridConfig = field(default_factory=GridConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    step: StepOptions = field(default_factory=StepOptions)
    stop: StopRule = field(default_factory=StopRule)
    p_list: tuple[float, ...] = (2.0,)  # exponents of the recorded L^p norms
    seed: int = 0
    snapshot_times: tuple[float, ...] = ()
    out_dir: str = "out/run"

    def __post_init__(self):
        check_p_list(self.p_list)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if any(math.isnan(t) for t in self.snapshot_times):  # a NaN has no place in sorted order
            raise ConfigError(f"snapshot_times must be numbers; got {list(self.snapshot_times)}")


def _axial_cell_averages(grid1d: Grid1D, antiderivative) -> np.ndarray:
    F = antiderivative(grid1d.interfaces)
    return (F[1:] - F[:-1]) / grid1d.widths


def build_initial(cfg: InitialConfig, grid, domain: DomainSpec, seed: int = 0) -> np.ndarray:
    """Exact cell averages of the requested family, mass-normalized where the
    family is specified by mass.  Finite data whose integral is not > 0 are
    a ConfigError, whatever the family; non-finite custom values are the
    runner's to classify (NUMERICAL_FAILURE)."""
    cyl = isinstance(grid, GridCyl)
    ax = grid.axial
    L = domain.L
    shape = grid.shape
    needs = {"custom": "values", "constant": "mass", "cosine": "mean", "concentration": "mass", "step": "mass"}
    if cfg.family not in needs:
        raise ConfigError(f"unknown initial-data family {cfg.family!r}")
    if getattr(cfg, needs[cfg.family]) is None:
        raise ConfigError(f"{cfg.family} initial data requires '{needs[cfg.family]}'")

    if cfg.family == "custom":
        c = np.array(cfg.values, dtype=float)
        if c.shape != shape:
            raise ConfigError(f"custom values shape {c.shape} does not match grid {shape}")
    elif cfg.family == "constant":
        c = np.full(shape, cfg.mass / domain.volume)
    elif cfg.family == "cosine":
        w = cfg.modes * math.pi / L
        prof = _axial_cell_averages(ax, lambda x: cfg.mean * x + cfg.amp * np.sin(w * x) / w)
        if cfg.noise_amp > 0.0:
            rng = np.random.default_rng(seed)
            noise = rng.uniform(-cfg.noise_amp, cfg.noise_amp, ax.N)
            prof = prof + noise - integrate(ax, noise) / L  # mass-preserving
        if np.any(prof < 0):
            raise ConfigError("cosine data went negative; reduce amp/noise_amp")
        c = np.tile(prof[:, None], (1, grid.Nr)) if cyl else prof
    else:  # an axial profile, times a radial one on the cylinder, scaled to mass
        if cfg.family == "concentration":
            k = cfg.k
            # antiderivative of k (1 - k x)_+^2 is -(1 - k x)_+^3 / 3
            prof = _axial_cell_averages(ax, lambda x: -np.clip(1.0 - k * x, 0.0, None) ** 3 / 3.0)
        else:
            w = cfg.width
            prof = _axial_cell_averages(ax, lambda x: np.minimum(x, w))
        if cyl:
            if not 0.0 <= cfg.radial_amp <= 1.0:
                raise ConfigError("radial_amp must lie in [0, 1]")
            radial = 1.0 + cfg.radial_amp * np.cos(math.pi * grid.rho_centers / grid.R)
            prof = prof[:, None] * radial[None, :]
        total = integrate(grid, prof)
        c = prof * (cfg.mass / total) if total > 0 else prof
    if np.isfinite(c).all() and not integrate(grid, c) > 0:
        raise ConfigError("initial data has no mass")
    return c


# ---------------------------------------------------------------------------
# JSON config parsing


# the JSON values a scalar field accepts; a bool is none of them, though
# Python counts it as an int
_SCALAR_TYPES = {int: int, float: (int, float), str: str}


def _check_scalar(kind, val, name: str) -> None:
    opts = get_args(kind) or (kind,)
    if val is None and type(None) in opts:
        return
    for t in opts:
        if t in _SCALAR_TYPES and (isinstance(val, bool) or not isinstance(val, _SCALAR_TYPES[t])):
            raise ConfigError(f"config key {name} must be {t.__name__}, got {type(val).__name__}")


def _read(cls, doc: dict, path: str = ""):
    """Instantiate the config dataclass `cls` from its JSON object.

    The keys are the dataclass fields and a missing key takes the field
    default.  A dataclass-typed field is read from a nested object, a
    tuple[T, ...] field from a list whose elements are checked as T, and an
    int, float or str field must hold a value of that JSON type (None where
    the hint is Optional).
    """
    types = get_type_hints(cls)
    kw = {}
    for key, val in doc.items():
        name = f"{path}{key!r}"
        if key not in types:
            raise ConfigError(f"unknown config key {name}")
        kind = types[key]
        if is_dataclass(kind):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {name} must be an object")
            val = _read(kind, val, f"{path}{key}.")
        elif get_origin(kind) is tuple:
            if not isinstance(val, (list, tuple)):
                raise ConfigError(f"config key {name} must be a list")
            val = tuple(val)
            for i, v in enumerate(val):
                _check_scalar(get_args(kind)[0], v, f"{name}[{i}]")
        else:
            _check_scalar(kind, val, name)
        kw[key] = val
    return cls(**kw)


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and instantiate a RunConfig, filling defaults; unknown keys
    are rejected with their name."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return _read(RunConfig, doc)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return config_from_dict(doc)


def _json_object(pairs) -> dict:
    # asdict's dict_factory: tuple fields are written as JSON lists
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def config_to_dict(cfg: RunConfig) -> dict:
    """The JSON document of cfg."""
    return asdict(cfg, dict_factory=_json_object)


# ---------------------------------------------------------------------------
# Scenario execution and file output


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


def _row_format(*specs: str) -> str:
    """A %-format string for one CSV row: the specs joined by ',' and ended
    by CRLF, as csv.writer lays out fields that need no quoting."""
    return ",".join(specs) + "\r\n"


_ROWS = 1024  # rows of timeseries.csv formatted per batch


def write_timeseries(path: Path, records, p_list) -> None:
    cols = ["t", "dt", "mass", "entropy", "linf"]
    cols += [f"lp_{p:.17g}" for p in p_list]
    cols += ["phi", "a", "u", "c_left", "c_right"]
    row = _row_format(*["%.17g"] * len(cols))
    columns = [records.t, records.dt, records.mass, records.entropy, records.linf,
               *[records.lp[p] for p in p_list], records.phi, records.a, records.u,
               records.c_left, records.c_right]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_row_format(*cols))
        # _ROWS rows at a time become Python floats, never every column at once
        for i in range(0, len(records), _ROWS):
            fh.writelines(row % vals for vals in zip(*[col[i : i + _ROWS].tolist() for col in columns]))


def write_snapshots(path: Path, snaps, grid) -> None:
    xs = grid.axial.centers.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if isinstance(grid, GridCyl):
            fh.write(_row_format("t", "i", "j", "x1", "rho", "c"))
            row = _row_format("%.17g", "%d", "%d", "%.17g", "%.17g", "%.17g")
            rs = grid.rho_centers.tolist()
            for t, c in snaps:
                for i, ci in enumerate(c.tolist()):
                    fh.writelines(row % (t, i, j, xs[i], rs[j], cij) for j, cij in enumerate(ci))
        else:
            fh.write(_row_format("t", "i", "x", "c"))
            row = _row_format("%.17g", "%d", "%.17g", "%.17g")
            for t, c in snaps:
                fh.writelines(row % (t, i, xs[i], ci) for i, ci in enumerate(c.tolist()))


def run_config(cfg: RunConfig):
    """Execute the run described by cfg in memory; returns (grid, traj, report)."""
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    traj, rep = run(cfg.problem, grid, c0, cfg.step, cfg.stop, cfg.p_list, cfg.snapshot_times)
    return grid, traj, rep


def run_scenario(cfg: RunConfig, out_dir: str | None = None):
    """run_config(cfg), then write timeseries.csv, snapshots.csv, report.json.

    Returns the RunReport.  snapshots.csv holds traj.fields as the runner
    keeps them: the initial field, then the first sample at or after each
    requested time, in sorted order; a time the run never reaches gets no
    row.  report.json echoes cfg as given.
    """
    grid, traj, rep = run_config(cfg)
    out = resolve_out_dir(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_timeseries(out / "timeseries.csv", traj.records, cfg.p_list)
    write_snapshots(out / "snapshots.csv", traj.fields, grid)
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


class _ProbeFailed(Exception):
    """A sweep probe ended in NUMERICAL_FAILURE."""


def _bisect(cfg: RunConfig, parameter: str, lo: float, hi: float, refinements: int):
    """(estimate, probes, non_monotone) of one level; the estimate is None when
    the endpoints classify alike, NaN when a probe ends in NUMERICAL_FAILURE."""
    probes = []

    def blowup_at(v: float) -> bool:
        _grid, _traj, rep = run_config(_set_parameter(cfg, parameter, v))
        probes.append((v, rep.outcome))
        if rep.outcome == NUMERICAL_FAILURE:
            raise _ProbeFailed
        return rep.outcome == BLOWUP

    try:
        b_lo = blowup_at(lo)
        if blowup_at(hi) == b_lo:
            return None, probes, False
        for _ in range(refinements):
            mid = 0.5 * (lo + hi)
            if blowup_at(mid) == b_lo:
                lo = mid
            else:
                hi = mid
    except _ProbeFailed:
        return math.nan, probes, False
    # the probe set must classify monotonically across the bracket
    ordered = [o == BLOWUP for _v, o in sorted(probes)]
    flips = sum(1 for x, y in zip(ordered[:-1], ordered[1:]) if x != y)
    return 0.5 * (lo + hi), probes, flips > 1


def sweep(cfg: RunConfig, parameter: str, bracket, refinements: int) -> SweepReport:
    """Bisect the outcome boundary (blow-up vs. not) in the given parameter.

    Endpoints must classify differently; otherwise a no-bisection report is
    returned.  The bisection is repeated at doubled grid resolution and the
    drift of the estimate is reported (first-order schemes should drift
    toward the continuum threshold).  A probe that ends in NUMERICAL_FAILURE
    is recorded with that outcome and ends the sweep: no further probe is
    made, and the estimate of its level is NaN.
    """
    if refinements < 0:
        raise ConfigError(f"refinements must be >= 0, got {refinements}")
    lo, hi = float(bracket[0]), float(bracket[1])
    est, probes, nonmono = _bisect(cfg, parameter, lo, hi, refinements)
    if est is None or math.isnan(est):
        return SweepReport(
            parameter=parameter, bracket=(lo, hi), probes=probes,
            threshold_estimate=math.nan, half_width=math.nan, non_monotone=est is None,
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
