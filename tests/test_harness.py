import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cellflux.grid import build_grid_1d, build_grid_cyl, integrate
from cellflux.harness import (
    InitialConfig,
    SweepReport,
    build_initial,
    config_from_dict,
    config_to_dict,
    load_config,
    run_config,
    run_scenario,
    sweep,
)
from cellflux.problem import ConfigError, DomainSpec
from cellflux.runner import BOUNDED, CONVERGED


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
    cfg = replace(cfg, stop=replace(cfg.stop, p_list=(3.0,)))
    run_scenario(cfg)
    out = tmp_path / "run"
    assert json.loads((out / "report.json").read_text())["config"]["p_list"] == [3.0]
    assert "lp_3" in (out / "timeseries.csv").read_text().splitlines()[0].split(",")
    assert config_from_dict(config_to_dict(cfg)).stop.p_list == (3.0,)


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


def test_cli_steady_and_list():
    r = cli("steady", "--m", "2", "--mass", "0.5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["lm_norm"] == pytest.approx(2**-0.5, abs=1e-8)
    r = cli("steady", "--m", "2", "--mass", "0.9")
    assert "no nonconstant steady state" in r.stdout
    r = cli("list-presets")
    assert r.returncode == 0
    assert "moment_bound" in r.stdout
