import csv
import json
import math
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cellflux.harness
import cellflux.runner
from cellflux import cli as cellflux_cli
from cellflux import presets
from cellflux.diagnostics import Records
from cellflux.grid import GridCyl, build_grid_1d, build_grid_cyl, integrate
from cellflux.harness import (
    InitialConfig,
    RunConfig,
    SweepReport,
    build_initial,
    config_from_dict,
    config_to_dict,
    load_config,
    run_config,
    run_scenario,
    sweep,
    write_snapshots,
    write_timeseries,
)
from cellflux.presets import list_presets, preset_config
from cellflux.problem import ConfigError, DomainSpec
from cellflux.runner import BLOWUP, BOUNDED, CONVERGED, NUMERICAL_FAILURE


MINIMAL = {
    "problem": {"nonlinearity": {"m": 1.0}, "domain": {"L": 1.0}},
    "grid": {"N": 128},
    "initial": {"family": "constant", "mass": 0.5},
}


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.problem.nonlinearity.kind == "signed_power"
    assert cfg.problem.domain.geometry == "interval"
    assert cfg.step.picard_tol == 1e-12
    assert cfg.step.cfl == 0.4
    assert cfg.step.blowup_linf_threshold == 1e8
    assert cfg.stop.t_end == 1.0
    assert cfg.grid.N == 128
    assert config_from_dict({}) == RunConfig()


def test_config_rejects_negative_length():
    doc = {"problem": {"domain": {"L": -1.0}}}
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_rejects_unknown_key_with_name():
    doc = {"problem": {"viscosity": 2.0}}
    with pytest.raises(ConfigError, match="viscosity"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="slope_limiter"):
        config_from_dict({"step": {"slope_limiter": "minmod"}})
    # keys of removed options are unknown like any other
    with pytest.raises(ConfigError, match="coupling_mode"):
        config_from_dict({"step": {"coupling_mode": "picard"}})
    with pytest.raises(ConfigError, match="a_frac"):
        config_from_dict({"problem": {"a_frac": 1.0}})
    with pytest.raises(ConfigError, match="store_fields_every"):
        config_from_dict({"stop": {"store_fields_every": 0}})
    # p_list is a top-level key only
    with pytest.raises(ConfigError, match="p_list"):
        config_from_dict({"stop": {"p_list": [2.0]}})


@pytest.mark.parametrize(
    "extra,key",
    [
        ({"stop": {"sample_every": 0}}, "sample_every"),
        ({"p_list": [0.0]}, "p_list"),
        ({"p_list": []}, "p_list"),
        # dt halves to 0 without reaching the floor: ValueError out of run
        ({"step": {"dt_min": -1.0, "picard_max_iters": 0}}, "picard_max_iters"),
        ({"step": {"dt_min": -1.0}}, "dt_min"),
        ({"step": {"dt_min": math.nan}}, "dt_min"),
        ({"step": {"c_bu": 0.0}}, "c_bu"),  # BLOWUP at step 0
        ({"step": {"c_bu": math.inf}}, "c_bu"),
        ({"step": {"blowup_linf_threshold": -5.0}}, "blowup_linf_threshold"),  # BLOWUP at step 1
        ({"step": {"blowup_linf_threshold": math.nan}}, "blowup_linf_threshold"),
        ({"step": {"picard_tol": -1.0}}, "picard_tol"),  # NUMERICAL_FAILURE at step 0
        ({"step": {"picard_tol": math.inf}}, "picard_tol"),
        ({"stop": {"t_end": 0.0}}, "t_end"),
        ({"stop": {"t_end": math.inf}}, "t_end"),
        ({"stop": {"t_end": math.nan}}, "t_end"),
        ({"stop": {"converged_tol": -1e-6}}, "converged_tol"),
        ({"stop": {"converged_tol": math.nan}}, "converged_tol"),
    ],
)
def test_config_rejects_stop_values_that_crash_the_run(extra, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({**MINIMAL, **extra})


@pytest.mark.parametrize("section,key,value,named", [
    ("grid", "r", math.nan, "grading ratio r"),
    ("grid", "r", math.inf, "grading ratio r"),
    ("domain", "R", math.inf, "finite radius R"),
    ("domain", "R", math.nan, "finite radius R"),
])
def test_config_rejects_a_non_finite_grid_ratio_or_radius(tmp_path, section, key, value, named):
    # each used to fail only once the run had started, as initial data
    # with no mass, after numpy warnings
    doc = config_to_dict(preset_config("cyl_blowup"))
    (doc["grid"] if section == "grid" else doc["problem"]["domain"])[key] = value
    with pytest.raises(ConfigError, match=named):
        run_config(config_from_dict(doc))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))  # Infinity and NaN, which json reads back
    r = cli("run", "--config", str(p))
    assert r.returncode == 2 and named in r.stderr and "Warning" not in r.stderr


CONFIG_ECHO = json.loads((Path(__file__).parent / "data" / "config_echo.json").read_text())


@pytest.mark.parametrize("name", list_presets())
def test_preset_config_echo_is_unchanged_and_round_trips(name):
    # echoes recorded before the schema was derived from the dataclasses;
    # string equality, so the key order counts
    cfg = preset_config(name)
    assert json.dumps(config_to_dict(cfg)) == CONFIG_ECHO[name]
    assert config_from_dict(config_to_dict(cfg)) == cfg


def lists_for_tuples(obj):
    if isinstance(obj, dict):
        return {k: lists_for_tuples(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [lists_for_tuples(v) for v in obj]
    return obj


@pytest.mark.parametrize("name", list_presets())
def test_config_document_is_the_dataclass_tree(name):
    # the schema has no exception: every key is the field of that name
    cfg = preset_config(name)
    assert config_to_dict(cfg) == lists_for_tuples(asdict(cfg))


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(MINIMAL))
    cfg = load_config(p)
    assert cfg.initial.mass == 0.5
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


# --- initial data families ---------------------------------------------------


def test_initial_families_masses_exact():
    g = build_grid_1d(1.0, 200, 1.01)
    dom = DomainSpec(geometry="interval", L=1.0)
    for fam, kw in [
        ("constant", dict(mass=0.7)),
        ("concentration", dict(mass=2.0, k=4.0)),
        ("step", dict(mass=1.3, width=0.2)),
    ]:
        c = build_initial(InitialConfig(family=fam, **kw), g, dom)
        assert integrate(g, c) == pytest.approx(kw["mass"], rel=1e-12)
        assert np.all(c >= 0)
    c = build_initial(InitialConfig(family="cosine", mean=1.0, amp=0.3), g, dom)
    assert integrate(g, c) == pytest.approx(1.0, rel=1e-12)


def test_concentration_family_is_monotone_and_supported_near_zero():
    g = build_grid_1d(1.0, 256)
    dom = DomainSpec(geometry="interval", L=1.0)
    c = build_initial(InitialConfig(family="concentration", mass=1.0, k=8.0), g, dom)
    assert np.all(np.diff(c) <= 1e-12)
    assert c[0] == pytest.approx(3.0 * 8.0, rel=0.05)  # 3 M k at x = 0
    assert np.all(c[g.centers > 1.0 / 8.0 + g.widths.max()] == 0.0)
    phi0 = float(np.sum(g.centers * c * g.widths))
    assert phi0 == pytest.approx(1.0 / (4.0 * 8.0), rel=1e-3)  # M/(4k)


def test_cylinder_initial_radial_profile():
    g = build_grid_cyl(1.0, 1.0, 3, 32, 16)
    dom = DomainSpec(geometry="cylinder", L=1.0, R=1.0, n=3)
    c = build_initial(
        InitialConfig(family="concentration", mass=2.0, k=4.0, radial_amp=0.5), g, dom
    )
    assert integrate(g, c) == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.diff(c, axis=0) <= 1e-12)  # axially nonincreasing
    assert np.all(np.diff(c[0, :]) <= 1e-12)  # radially nonincreasing


def test_noise_is_seeded_and_mass_preserving():
    g = build_grid_1d(1.0, 64)
    dom = DomainSpec(geometry="interval", L=1.0)
    ic = InitialConfig(family="cosine", mean=1.0, amp=0.1, noise_amp=0.02)
    a = build_initial(ic, g, dom, seed=3)
    b = build_initial(ic, g, dom, seed=3)
    c = build_initial(ic, g, dom, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert integrate(g, a) == pytest.approx(1.0, rel=1e-12)


def test_custom_values_shape_checked():
    g = build_grid_1d(1.0, 8)
    dom = DomainSpec(geometry="interval", L=1.0)
    with pytest.raises(ConfigError):
        build_initial(InitialConfig(family="custom", values=[1.0] * 7), g, dom)


# --- scenario output ---------------------------------------------------------


def quick_config(tmp_path, **stop):
    doc = {
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 64},
        "initial": {"family": "concentration", "mass": 0.5, "k": 4.0},
        "step": {"dt_max": 1e-3},
        "stop": {"t_end": 0.05, "sample_every": 5, **stop},
        "snapshot_times": [0.02],
        "out_dir": str(tmp_path / "run"),
    }
    return config_from_dict(doc)


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = quick_config(tmp_path)
    rep = run_scenario(cfg)
    out = tmp_path / "run"
    assert (out / "timeseries.csv").exists()
    assert (out / "snapshots.csv").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["report"]["outcome"] in (BOUNDED, CONVERGED)
    assert doc["report"]["mass_drift_max"] <= 1e-12
    assert doc["config"]["grid"]["N"] == 64
    header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "t", "dt", "mass", "entropy", "linf", "lp_2", "phi", "a", "u",
        "c_left", "c_right",
    ]
    # rows at 17 significant digits, '.' decimal, CRLF line ends (RFC 4180)
    raw = (out / "timeseries.csv").read_bytes()
    assert b"\r\n" in raw
    assert b"," in raw and b";" not in raw.splitlines()[0]


def test_report_echoes_the_p_list_the_run_uses(tmp_path):
    cfg = quick_config(tmp_path)
    cfg = replace(cfg, p_list=(3.0,))
    run_scenario(cfg)
    out = tmp_path / "run"
    assert json.loads((out / "report.json").read_text())["config"]["p_list"] == [3.0]
    assert "lp_3" in (out / "timeseries.csv").read_text().splitlines()[0].split(",")
    assert config_from_dict(config_to_dict(cfg)).p_list == (3.0,)


@pytest.mark.parametrize("p_list", [(), (math.nan,), (math.inf,), (-1.0,), (0.0,), (2.0, 2.0), (2, 3.0, 2.0)])
def test_run_and_config_refuse_the_same_p_lists(tmp_path, p_list):
    # one check, in RunConfig and in runner.run: an empty list used to die
    # in record with an IndexError, NaN and -1 ran silently, and a repeated
    # exponent wrote two identical lp columns
    cfg = preset_config("heat_decay")
    grid = cfg.grid.build(cfg.problem.domain)
    c0 = build_initial(cfg.initial, grid, cfg.problem.domain, cfg.seed)
    with pytest.raises(ConfigError, match="p_list"):
        cellflux.runner.run(cfg.problem, grid, c0, cfg.step, cfg.stop, p_list)
    with pytest.raises(ConfigError, match="p_list"):
        config_from_dict({**MINIMAL, "p_list": list(p_list)})
    if p_list == (2.0, 2.0):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({**MINIMAL, "p_list": [2, 2]}))
        r = cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert r.returncode == 2 and "p_list" in r.stderr
        assert not (tmp_path / "out").exists()


def test_run_scenario_deterministic_bytes(tmp_path):
    cfg1 = quick_config(tmp_path / "a")
    cfg2 = quick_config(tmp_path / "b")
    run_scenario(cfg1)
    run_scenario(cfg2)
    a = (tmp_path / "a" / "run" / "timeseries.csv").read_bytes()
    b = (tmp_path / "b" / "run" / "timeseries.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "a" / "run" / "snapshots.csv").read_bytes()
    sb = (tmp_path / "b" / "run" / "snapshots.csv").read_bytes()
    assert sa == sb


def heat_scenario_config(tmp_path, t_end, snapshot_times):
    """heat_decay with seeded noise and the given snapshot times, stopped at t_end."""
    doc = config_to_dict(preset_config("heat_decay"))
    doc["initial"]["noise_amp"] = 0.01
    doc["seed"] = 1
    doc["snapshot_times"] = list(snapshot_times)
    doc["stop"]["t_end"] = t_end
    doc["out_dir"] = str(tmp_path / "run")
    return config_from_dict(doc)


def capture_runs(monkeypatch):
    """The (traj, rep) of each runner.run call that harness makes."""
    runs, real_run = [], cellflux.harness.run

    def kept(*args):
        runs.append(real_run(*args))
        return runs[-1]

    monkeypatch.setattr(cellflux.harness, "run", kept)
    return runs


def test_kept_fields_are_the_snapshot_rows(monkeypatch, tmp_path):
    # snapshot times unsorted, duplicated, at t = 0 and past t_end: the run
    # keeps t = 0 and then one entry per time it reaches, the first sample at
    # or after that time, with one copy of a field shared by the times due at
    # its sample; snapshots.csv writes exactly those entries
    runs = capture_runs(monkeypatch)
    times = (0.03, 0.0, 9.0, 0.01, 0.03)
    run_scenario(heat_scenario_config(tmp_path, 0.05, times))
    (traj, _rep), = runs
    samples = [float(line.split(",")[0]) for line in
               (tmp_path / "run" / "timeseries.csv").read_text().splitlines()[1:]]
    first = [min(t for t in samples if t >= want) for want in (0.0, 0.01, 0.03, 0.03)]
    assert [t for t, _c in traj.fields] == [0.0] + first
    assert [round(t, 4) for t in first] == [0.0, 0.0102, 0.0302, 0.0302]
    assert traj.fields[1][1] is traj.fields[0][1] and traj.fields[4][1] is traj.fields[3][1]

    with open(tmp_path / "run" / "snapshots.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    N = len(traj.fields[0][1])
    assert len(rows) == N * len(traj.fields)
    for k, (t, c) in enumerate(traj.fields):
        block = rows[k * N : (k + 1) * N]
        assert {float(r[0]) for r in block} == {t}
        assert [float(r[3]) for r in block] == c.tolist()


def test_run_scenario_keeps_only_the_snapshot_fields(monkeypatch, tmp_path):
    # the dissipation check covers every sample from the records alone, once
    # after the loop, and the runner keeps t = 0 and the two snapshots
    runs, checked = capture_runs(monkeypatch), []
    real_check = cellflux.runner.dissipation_residuals

    def check(records):
        checked.append(len(records))
        return real_check(records)

    monkeypatch.setattr(cellflux.runner, "dissipation_residuals", check)
    rep = run_scenario(heat_scenario_config(tmp_path, 0.05, (0.01, 0.03)))
    (traj, _rep), = runs
    assert len(traj.fields) == 3 and rep.entropy_residual is not None
    assert checked == [len(traj.records)]


def _fmt_reference(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def write_timeseries_reference(path, records, p_list):
    """timeseries.csv by csv.writer with one formatted string per value: the
    oracle of the bytes write_timeseries lays out row by row."""
    cols = ["t", "dt", "mass", "entropy", "linf"]
    cols += [f"lp_{_fmt_reference(p)}" for p in p_list]
    cols += ["phi", "a", "u", "c_left", "c_right"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for k in range(len(records)):
            row = [records.t[k], records.dt[k], records.mass[k], records.entropy[k], records.linf[k]]
            row += [records.lp[p][k] for p in p_list]
            row += [records.phi[k], records.a[k], records.u[k], records.c_left[k], records.c_right[k]]
            w.writerow([_fmt_reference(float(v)) for v in row])


def write_snapshots_reference(path, snaps, grid):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if isinstance(grid, GridCyl):
            w.writerow(["t", "i", "j", "x1", "rho", "c"])
            xs, rs = grid.axial.centers, grid.rho_centers
            for t, c in snaps:
                for i in range(c.shape[0]):
                    for j in range(c.shape[1]):
                        w.writerow([_fmt_reference(t), i, j, _fmt_reference(xs[i]),
                                    _fmt_reference(rs[j]), _fmt_reference(c[i, j])])
        else:
            w.writerow(["t", "i", "x", "c"])
            for t, c in snaps:
                for i in range(len(c)):
                    w.writerow([_fmt_reference(t), i, _fmt_reference(grid.centers[i]),
                                _fmt_reference(c[i])])


# every kind of value a record or a field can hold, including the ones 17
# significant digits spell out specially
ODD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1.0 / 3.0,
              np.float64(2.5e-8), np.float64(-math.inf), -1.7976931348623157e308]


def test_write_timeseries_matches_csv_writer_bytes(tmp_path):
    p_list = (2.0, 1.5)
    rng = np.random.default_rng(3)
    records = Records(p_list)
    for k in range(2500):  # more rows than write_timeseries formats per batch
        v = [ODD_VALUES[(k + i) % len(ODD_VALUES)] if i % 3 == k % 3 else float(rng.standard_normal())
             for i in range(12)]
        records.append(t=v[0], dt=v[1], mass=v[2], entropy=v[3], lp=(v[4], v[5]), linf=v[6], phi=v[7],
                       a=v[8], u=v[9], c_left=v[10], c_right=v[11], xpow=0.0,
                       diss_s=math.nan, coup_s=math.nan, diss_p=math.nan, coup_p=math.nan)
    write_timeseries(tmp_path / "new.csv", records, p_list)
    write_timeseries_reference(tmp_path / "ref.csv", records, p_list)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().startswith(b"t,dt,mass,entropy,linf,lp_2,lp_1.5,phi,")


@pytest.mark.parametrize("grid", [build_grid_1d(1.0, 13, 1.07), build_grid_cyl(1.0, 0.5, 3, 7, 4, 1.05)],
                         ids=["interval", "cylinder"])
def test_write_snapshots_matches_csv_writer_bytes(tmp_path, grid):
    rng = np.random.default_rng(5)
    snaps = []
    for t in (0.0, np.float64(0.25), 1.0 / 3.0):
        c = rng.standard_normal(grid.shape)
        c.flat[: len(ODD_VALUES)] = ODD_VALUES[: c.size]
        snaps.append((t, np.asfortranarray(c) if c.ndim == 2 else c))
    write_snapshots(tmp_path / "new.csv", snaps, grid)
    write_snapshots_reference(tmp_path / "ref.csv", snaps, grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_out_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CELLFLUX_OUT_ROOT", str(tmp_path / "root"))
    doc = dict(MINIMAL)
    doc["stop"] = {"t_end": 0.01}
    doc["out_dir"] = "rel/run"
    cfg = config_from_dict(doc)
    run_scenario(cfg)
    assert (tmp_path / "root" / "rel" / "run" / "report.json").exists()


def test_negative_data_aborts_as_numerical_failure(tmp_path):
    # clipping is never performed: a genuinely negative field aborts loudly
    values = [0.5] * 32
    values[7] = -0.5
    doc = {
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 32},
        "initial": {"family": "custom", "values": values},
        "stop": {"t_end": 0.05},
        "out_dir": str(tmp_path / "neg"),
    }
    rep = run_scenario(config_from_dict(doc))
    assert rep.outcome == "NUMERICAL_FAILURE"
    assert "negativity" in rep.reason

    p = tmp_path / "neg.json"
    p.write_text(json.dumps(doc))
    r = cli("run", "--config", str(p))
    assert r.returncode == 3  # numerical failure is a distinct exit code


def test_a_sq_integral_monitoring():
    # the squared-coupling integral diverges along blow-ups and stays small
    # on settled runs (the continuum version is infinite at T*)
    blow = {
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 128, "r": 1.02},
        "initial": {"family": "concentration", "mass": 2.0, "k": 4.0},
        "step": {"dt_max": 1e-4, "blowup_linf_threshold": 500.0},
        "stop": {"t_end": 1.0, "sample_every": 10},
    }
    calm = {
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 128},
        "initial": {"family": "concentration", "mass": 0.5, "k": 4.0},
        "step": {"dt_max": 1e-4},
        "stop": {"t_end": 1.0, "sample_every": 10},
    }
    _g, _t, rep_blow = run_config(config_from_dict(blow))
    _g, _t, rep_calm = run_config(config_from_dict(calm))
    assert rep_blow.outcome == "BLOWUP"
    assert rep_blow.a_sq_integral > 10.0 * rep_calm.a_sq_integral


# --- sweep -------------------------------------------------------------------


def test_sweep_degenerate_bracket_reports_no_bisection():
    doc = {
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 32},
        "initial": {"family": "concentration", "mass": 0.3, "k": 4.0},
        "step": {"dt_max": 1e-3},
        "stop": {"t_end": 0.05, "sample_every": 50},
    }
    cfg = config_from_dict(doc)
    rep = sweep(cfg, "M", (0.2, 0.4), refinements=2)
    assert rep.non_monotone
    assert math.isnan(rep.threshold_estimate)
    assert len(rep.probes) == 2  # endpoints only, no bisection


def test_sweep_rejects_unknown_parameter():
    cfg = config_from_dict(MINIMAL)
    with pytest.raises(ConfigError):
        sweep(cfg, "viscosity", (0.0, 1.0), 1)


def test_sweep_m2_blows_up_at_both_bracket_ends():
    # superquadratic growth has no mass threshold: sufficiently concentrated
    # data blows up at arbitrarily small mass, so the bracket degenerates
    doc = {
        "problem": {"nonlinearity": {"kind": "signed_power", "m": 2.0}},
        "grid": {"N": 512, "r": 1.01},
        "initial": {"family": "concentration", "mass": 0.1, "k": 64.0},
        "step": {"dt_max": 1e-4, "blowup_linf_threshold": 500.0,
                 "trace_mode": "cell", "c_bu": 1.0},
        "stop": {"t_end": 0.5, "sample_every": 20},
    }
    rep = sweep(config_from_dict(doc), "M", (0.1, 0.5), refinements=3)
    assert rep.non_monotone
    assert [o for _v, o in rep.probes] == ["BLOWUP", "BLOWUP"]


def fake_run_config(fail_at):
    """run_config stand-in: BLOWUP above M = 1, BOUNDED below, and
    NUMERICAL_FAILURE at the (M, N) pairs in fail_at."""
    calls = []

    def run_config(cfg):
        M, N = cfg.initial.mass, cfg.grid.N
        calls.append((M, N))
        outcome = NUMERICAL_FAILURE if (M, N) in fail_at else "BLOWUP" if M > 1.0 else BOUNDED
        return None, None, SimpleNamespace(outcome=outcome, reason="")

    return run_config, calls


@pytest.mark.parametrize("fail_at,n_probes,n_refined", [
    ({(0.5, 32)}, 1, 0),  # the first endpoint
    ({(1.25, 32)}, 4, 0),  # the second midpoint
    ({(1.25, 64)}, 5, 4),  # a midpoint of the refined level
], ids=["endpoint", "midpoint", "refined_level"])
def test_sweep_keeps_its_probes_when_one_fails_numerically(monkeypatch, fail_at, n_probes, n_refined):
    run_config, calls = fake_run_config(fail_at)
    monkeypatch.setattr(cellflux.harness, "run_config", run_config)
    cfg = config_from_dict({**MINIMAL, "grid": {"N": 32}})
    rep = sweep(cfg, "M", (0.5, 1.5), refinements=3)
    assert len(rep.probes) == n_probes and len(rep.refined_probes) == n_refined
    # the failed probe is recorded, and it is the last probe made
    made = rep.probes + rep.refined_probes
    assert made[-1] == (next(iter(fail_at))[0], NUMERICAL_FAILURE)
    assert calls == [(v, 32) for v, _o in rep.probes] + [(v, 64) for v, _o in rep.refined_probes]
    est = rep.refined_estimate if n_refined else rep.threshold_estimate
    assert math.isnan(est) and not rep.non_monotone


# --- CLI ---------------------------------------------------------------------


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cellflux.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_cli_run_and_exit_codes(tmp_path):
    p = tmp_path / "cfg.json"
    doc = dict(MINIMAL)
    doc["stop"] = {"t_end": 0.01}
    doc["out_dir"] = str(tmp_path / "o")
    p.write_text(json.dumps(doc))
    r = cli("run", "--config", str(p))
    assert r.returncode == 0, r.stderr
    assert "outcome" in r.stdout

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": {"viscosity": 1}}))
    r = cli("run", "--config", str(bad))
    assert r.returncode == 2
    assert "viscosity" in r.stderr

    r = cli("run", "--config", str(tmp_path / "missing.json"))
    assert r.returncode == 2

    r = cli("run", "--config", str(tmp_path))  # a directory
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")

    # malformed values are config errors too, named on stderr
    for i, (extra, key) in enumerate([
        ({"step": {"cfl": 2.0}}, "cfl"),
        ({"p_list": 2.0}, "p_list"),
        ({"snapshot_times": 0.5}, "snapshot_times"),
        ({"p_list": [0.0]}, "p_list"),
        ({"p_list": ["x"]}, "p_list"),
        ({"snapshot_times": ["x"]}, "snapshot_times"),
        ({"snapshot_times": [0.1, math.nan]}, "snapshot_times"),
        ({"step": {"c_bu": 0.0}}, "c_bu"),
        ({"step": {"dt_min": -1.0, "picard_max_iters": 0}}, "picard_max_iters"),
        ({"grid": {"N": "64"}}, "grid.'N'"),
        ({"problem": {"domain": {"L": "x"}}}, "domain.'L'"),
        ({"grid": {"N": True}}, "grid.'N'"),
    ]):
        bad = tmp_path / f"malformed{i}.json"
        bad.write_text(json.dumps({**doc, **extra}))
        r = cli("run", "--config", str(bad))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and key in r.stderr

    # a detected blow-up is a classified physical outcome: exit 0
    blow = tmp_path / "blow.json"
    blow.write_text(json.dumps({
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 128, "r": 1.02},
        "initial": {"family": "concentration", "mass": 2.0, "k": 4.0},
        "step": {"dt_max": 1e-4, "blowup_linf_threshold": 500.0},
        "stop": {"t_end": 1.0, "sample_every": 10},
        "out_dir": str(tmp_path / "blow_out"),
    }))
    r = cli("run", "--config", str(blow))
    assert r.returncode == 0
    assert "BLOWUP" in r.stdout


@pytest.mark.parametrize("values, code, said", [
    ([4.0, 0.0, 0.0, math.nan], 3, "non-finite field in the initial data"),
    ([4.0, 0.0, 0.0, math.inf], 3, "non-finite field in the initial data"),
    ([4.0, 0.0, 0.0, -1.0], 3, "negativity beyond tolerance"),
    ([0.0, 0.0, 0.0, 0.0], 2, "error: initial data has no mass"),
])
def test_cli_bad_custom_data_exit_codes(tmp_path, values, code, said):
    # bad initial data end as a classified failure (3) or a config error
    # (2), never as a traceback (1)
    p = tmp_path / "custom.json"
    p.write_text(json.dumps({
        "grid": {"N": 4},
        "initial": {"family": "custom", "values": values},
        "stop": {"t_end": 0.01},
        "out_dir": str(tmp_path / "o"),
    }))
    r = cli("run", "--config", str(p))
    assert r.returncode == code, r.stderr
    assert said in r.stdout + r.stderr
    if code == 3:
        assert "NUMERICAL_FAILURE" in r.stdout and "after 0 steps" in r.stdout


def test_nan_initial_cell_records_nan_entropy():
    # a NaN cell is not vacuum: the t = 0 record's entropy is NaN like its
    # mass, linf and phi
    cfg = config_from_dict({
        "grid": {"N": 4},
        "initial": {"family": "custom", "values": [4.0, 0.0, 0.0, math.nan]},
    })
    _g, traj, rep = run_config(cfg)
    assert rep.outcome == NUMERICAL_FAILURE
    r = traj.records
    assert len(r) == 1 and all(math.isnan(v) for v in (r.mass[0], r.entropy[0], r.linf[0], r.phi[0]))


def test_sweep_probe_with_rejected_steps_ends_the_sweep(tmp_path):
    # one evaluation of g never converges the coupling: every step is
    # rejected down to the dt floor, a numerical failure and not a blow-up
    doc = {
        "problem": {"nonlinearity": {"m": 1.0}},
        "grid": {"N": 32},
        "initial": {"family": "concentration", "mass": 0.3, "k": 4.0},
        "step": {"dt_max": 1e-3, "picard_max_iters": 1},
        "stop": {"t_end": 0.05},
    }
    rep = sweep(config_from_dict(doc), "M", (0.5, 1.5), refinements=2)
    assert rep.probes == [(0.5, NUMERICAL_FAILURE)] and rep.refined_probes == []
    assert math.isnan(rep.threshold_estimate)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    r = cli("sweep", "--config", str(p), "--bracket", "0.5,1.5", "--refine", "2")
    assert r.returncode == 3, r.stderr
    assert "a probe failed numerically" in r.stdout


def test_cli_steady_and_list():
    r = cli("steady", "--m", "2", "--mass", "0.5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["lm_norm"] == pytest.approx(2**-0.5, abs=1e-8)
    r = cli("steady", "--m", "2", "--mass", "0.9")
    assert "no nonconstant steady state" in r.stdout
    r = cli("list-presets")
    assert r.returncode == 0
    assert "moment_bound" in r.stdout


@pytest.mark.parametrize("args", [("--m", "2", "--L", "inf"), ("--m", "inf")])
def test_cli_steady_refuses_a_non_finite_argument(args):
    # it used to print a steady state of NaNs and exit 0
    r = cli("steady", *args, "--mass", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: find_steady expects finite m")


GATED = presets.gated_presets()


@pytest.mark.parametrize("failing", [None, "heat_decay"])
def test_cli_check_without_preset_checks_every_gated_preset(monkeypatch, capsys, failing):
    seen = []

    def check_preset(name):
        seen.append(name)
        return name != failing, [f"detail of {name}"]

    monkeypatch.setattr(presets, "check_preset", check_preset)
    assert cellflux_cli.main(["check"]) == (0 if failing is None else 1)
    assert seen == GATED and len(seen) == 14
    out = capsys.readouterr().out
    assert "  detail of cyl_blowup\ncyl_blowup: PASS (" in out
    if failing:
        assert f"\n{failing}: FAIL (" in out


@pytest.mark.parametrize("name", ["critical_mass_exact", "entropy_low_mass", "cyl_blowup", "cyl_reduction"])
def test_a_numerical_failure_fails_its_gate_on_its_reason(name):
    # one coupling iteration rejects the first step down to the dt floor;
    # read anyway, these gates would format the maxima of no step, or march
    # the solvers into the same rejection
    cfg = preset_config(name)
    cfg = replace(cfg, step=replace(cfg.step, picard_max_iters=1))
    _grid, traj, rep = run_config(cfg)
    assert (rep.outcome, rep.steps) == (NUMERICAL_FAILURE, 0)
    ok, msgs = presets.judge(name, cfg, traj, rep)
    assert not ok
    assert rep.reason and rep.reason in " ".join(msgs)


@pytest.mark.parametrize("name", ["critical_mass_exact", "cyl_blowup"])
def test_a_run_with_no_step_fails_its_gate_on_its_reason(name):
    # a blow-up clamp this tight takes dt to its floor before the first step:
    # BLOWUP with no per-step maxima, which the gates would format
    cfg = preset_config(name)
    cfg = replace(cfg, step=replace(cfg.step, c_bu=1e-20))
    _grid, traj, rep = run_config(cfg)
    assert (rep.outcome, rep.steps, rep.entropy_step_increase_max) == (BLOWUP, 0, None)
    ok, msgs = presets.judge(name, cfg, traj, rep)
    assert not ok
    assert rep.reason and rep.reason in " ".join(msgs)


def test_cli_config_takes_a_preset_name_unless_a_file_has_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfgs = []

    def run_scenario(cfg, out_dir=None):
        cfgs.append(cfg)
        return SimpleNamespace(outcome=CONVERGED, reason="", steps=1, t_final=0.0,
                               mass_drift_max=0.0)

    monkeypatch.setattr(cellflux_cli, "run_scenario", run_scenario)
    assert cellflux_cli.main(["run", "--config", "heat_decay"]) == 0
    assert cfgs[-1] == preset_config("heat_decay")

    (tmp_path / "heat_decay").write_text(json.dumps(MINIMAL))
    assert cellflux_cli.main(["run", "--config", "heat_decay"]) == 0
    assert cfgs[-1] == config_from_dict(MINIMAL)

    assert cellflux_cli.main(["run", "--config", "no_such_preset"]) == 2
    assert "no_such_preset" in capsys.readouterr().err
    assert len(cfgs) == 2


def test_cli_sweep_prints_the_probes_of_both_levels(monkeypatch, capsys):
    calls = []

    def fake_sweep(cfg, parameter, bracket, refinements):
        calls.append((cfg, parameter, bracket, refinements))
        probes = [(0.9, "BOUNDED"), (1.412, "BLOWUP"), (1.156, "BLOWUP")]
        return SweepReport(parameter=parameter, bracket=bracket, probes=probes,
                           threshold_estimate=1.028, half_width=0.128,
                           refined_estimate=1.028, refined_probes=list(probes), drift=0.0)

    monkeypatch.setattr(cellflux_cli, "sweep", fake_sweep)
    argv = ["sweep", "--config", "sweep_critical", "--bracket", "0.9,1.412", "--refine", "1"]
    assert cellflux_cli.main(argv) == 0
    assert calls == [(preset_config("sweep_critical"), "M", (0.9, 1.412), 1)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == [
        "  M = 0.9: BOUNDED",
        "  M = 1.412: BLOWUP",
        "  M = 1.156: BLOWUP",
        "  M = 0.9 at 2x resolution: BOUNDED",
        "  M = 1.412 at 2x resolution: BLOWUP",
        "  M = 1.156 at 2x resolution: BLOWUP",
    ]
    assert lines[6].startswith("threshold estimate: 1.028")
    assert lines[7].startswith("at 2x resolution:   1.028")


def test_sweep_rejects_a_negative_refinement_count(monkeypatch, capsys):
    # refinements = -1 used to run the endpoints, no bisection, and report
    # half = (hi - lo) / 2**0, twice the bracket's own half-width
    run_config, calls = fake_run_config(set())
    monkeypatch.setattr(cellflux.harness, "run_config", run_config)
    cfg = preset_config("sweep_critical")
    with pytest.raises(ConfigError, match="refinements must be >= 0, got -1"):
        sweep(cfg, "M", (0.9, 1.1), -1)
    argv = ["sweep", "--config", "sweep_critical", "--bracket", "0.9,1.1", "--refine", "-1"]
    assert cellflux_cli.main(argv) == 2
    assert "refinements must be >= 0" in capsys.readouterr().err
    assert calls == []
    # no refinement is still a sweep: the endpoints, at both levels
    rep = sweep(cfg, "M", (0.9, 1.1), 0)
    assert rep.half_width == pytest.approx(0.1) and len(rep.probes) == len(rep.refined_probes) == 2


def test_check_names_an_unknown_preset_apart_from_one_with_no_gate(capsys):
    with pytest.raises(ConfigError, match="unknown preset 'nope'; try one of "):
        presets.check_preset("nope")
    with pytest.raises(ConfigError, match="preset 'sweep_critical' has no gate"):
        presets.check_preset("sweep_critical")
    assert cellflux_cli.main(["check", "--preset", "nope"]) == 2
    assert "error: unknown preset 'nope'; try one of " in capsys.readouterr().err
    assert cellflux_cli.main(["check", "--preset", "sweep_critical"]) == 2
    assert "error: preset 'sweep_critical' has no gate" in capsys.readouterr().err


def test_cli_sweep_exits_3_with_every_probe_when_one_fails(tmp_path, monkeypatch, capsys):
    run_config, _calls = fake_run_config({(1.25, 32)})
    monkeypatch.setattr(cellflux.harness, "run_config", run_config)
    (tmp_path / "cfg.json").write_text(json.dumps({**MINIMAL, "grid": {"N": 32}}))
    argv = ["sweep", "--config", str(tmp_path / "cfg.json"), "--bracket", "0.5,1.5",
            "--refine", "3", "--out", str(tmp_path / "o")]
    assert cellflux_cli.main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "  M = 0.5: BOUNDED",
        "  M = 1.5: BLOWUP",
        "  M = 1: BOUNDED",
        "  M = 1.25: NUMERICAL_FAILURE",
    ]
    doc = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert doc["probes"][-1] == [1.25, NUMERICAL_FAILURE] and len(doc["probes"]) == 4


@pytest.mark.parametrize("bracket", ["0.9", "a,b", "1.4,0.9", "0.9,0.9", "0.9,1.4,2", "-inf,1.4", "nan,1.4"])
def test_cli_sweep_rejects_a_malformed_bracket(monkeypatch, capsys, bracket):
    monkeypatch.setattr(cellflux_cli, "sweep", lambda *args: pytest.fail("sweep ran"))
    argv = ["sweep", "--config", "sweep_critical", f"--bracket={bracket}"]
    assert cellflux_cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --bracket ")

