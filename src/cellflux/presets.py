"""One preset per qualitative regime of the model, each with a pass/fail gate.

The preset map is the executable form of the theory checklist: critical mass
below/above, the explicit blow-up time bound, the subquadratic global regime,
absorbing (sign-reversed) nonlinearities, small-data exponential convergence,
superquadratic blow-up at small mass, entropy monotonicity, pure-heat decay
oracles, and the cylinder runs.  Each `_PRESETS` entry states its regime
once: a description, a gate and a config document.  `judge` gives a run's
verdict; `check_preset` runs one preset and judges it, as `cellflux check`
does for every gated preset.  The full map is what CI executes:
tests/test_acceptance.py runs each gated preset once and judges every run.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .harness import RunConfig, config_from_dict, run_config
from .problem import ConfigError, DomainSpec
from .runner import BLOWUP, BOUNDED, CONVERGED, NUMERICAL_FAILURE

PI2 = math.pi**2
# the largest relative mass drift a gated run may show (AC1's bound)
MASS_DRIFT_BOUND = 1e-12
# the largest entropy increase over one step (_gate_entropy, AC5)
ENTROPY_STEP_INCREASE_BOUND = 1e-8
# the largest L2 increase from one sample to the next, relative to L2 at
# t = 0 (_gate_small_data, AC9)
L2_STEP_INCREASE_BOUND = 1e-10
# the largest max x1 c over the initial max axial marginal M0 on the
# cylinder (_gate_cyl_blowup, AC7)
X1C_RATIO_BOUND = 1.0 + 1e-6


def _gate_converged(traj, rep, cfg, msgs) -> bool:
    ok = rep.outcome == CONVERGED
    msgs.append(f"outcome {rep.outcome}")
    if rep.lambda_fit is None or not rep.lambda_fit > 0:
        msgs.append(f"decay rate not positive: {rep.lambda_fit}")
        return False
    msgs.append(f"lambda_fit {rep.lambda_fit:.4g}")
    return ok


def _gate_blowup_bound(traj, rep, cfg, msgs) -> bool:
    msgs.append(f"outcome {rep.outcome}, T_detect {rep.T_detect}")
    if rep.outcome != BLOWUP:
        return False
    bound = rep.thresholds["Tstar_upper_bound"]
    msgs.append(f"bound {bound:.6g}, ratio {rep.tstar_bound_ratio}")
    return rep.half_moment_ok and rep.tstar_bound_ratio is not None and rep.tstar_bound_ratio <= 1.1


def _gate_no_blowup(traj, rep, cfg, msgs) -> bool:
    msgs.append(f"outcome {rep.outcome}")
    return rep.outcome in (BOUNDED, CONVERGED)


def _gate_entropy(traj, rep, cfg, msgs) -> bool:
    msgs.append(f"outcome {rep.outcome}, max entropy step increase {rep.entropy_step_increase_max:.3e}")
    return rep.outcome in (BOUNDED, CONVERGED) and rep.entropy_step_increase_max <= ENTROPY_STEP_INCREASE_BOUND


def _gate_small_data(traj, rep, cfg, msgs) -> bool:
    if not _gate_converged(traj, rep, cfg, msgs):
        return False
    radius = rep.thresholds["small_data_radius"]
    l2 = traj.records.lp[2.0]
    l2_0 = float(l2[0])
    msgs.append(f"initial L2 {l2_0:.4g} vs radius {radius:.4g}")
    if not l2_0 < radius:
        return False
    worst = float(np.max(np.diff(l2)))
    msgs.append(f"max L2 increase per sample {worst:.3e}")
    return worst <= L2_STEP_INCREASE_BOUND * l2_0


def _gate_superlinear(traj, rep, cfg, msgs) -> bool:
    msgs.append(f"outcome {rep.outcome}, beta_fit {rep.beta_fit}")
    if rep.outcome != BLOWUP or rep.beta_fit is None:
        return False
    phi0 = float(traj.records.phi[0])
    K = rep.thresholds["K"]
    msgs.append(f"phi(0) {phi0:.4g} vs K {K:.4g}")
    return phi0 <= K and rep.beta_fit >= 1.0 / (2.0 * cfg.problem.m) - 0.1


def _gate_rate(target: float):
    def gate(traj, rep, cfg, msgs) -> bool:
        msgs.append(f"outcome {rep.outcome}, lambda_fit {rep.lambda_fit}")
        if rep.outcome != CONVERGED or rep.lambda_fit is None:
            return False
        rel = abs(rep.lambda_fit - target) / target
        msgs.append(f"target {target:.4g}, relative error {rel:.3%}")
        return rel <= 0.05

    return gate


def _gate_sym_cosine(traj, rep, cfg, msgs) -> bool:
    a_max = float(np.max(np.abs(traj.records.a)))
    msgs.append(f"max |a| {a_max:.3e}")
    return a_max <= 1e-10 and _gate_rate(4.0 * PI2)(traj, rep, cfg, msgs)


def _gate_cyl_reduction(traj, rep, cfg, msgs) -> bool:
    # rho-independent data c of mass M on a cylinder whose cross-section
    # has volume B shadow the interval run of mass M B^(1/m - 1), whose
    # field is B^(1/m) c for an f homogeneous of degree m: the same sample
    # times and a, the interval's linf and end traces B^(1/m) times the
    # cylinder's and its phi B^(1/m - 1) times, all to 1e-10
    B, m = cfg.problem.domain.cross_section_volume, cfg.problem.m
    field, moment = B ** (1.0 / m), B ** (1.0 / m - 1.0)
    interval = DomainSpec(geometry="interval", L=cfg.problem.domain.L)
    one_cfg = replace(cfg, problem=replace(cfg.problem, domain=interval),
                      initial=replace(cfg.initial, mass=cfg.initial.mass * moment))
    cyl, one = traj.records, run_config(one_cfg)[1].records
    if len(cyl) != len(one) or not np.array_equal(cyl.t, one.t):
        msgs.append(f"sample times differ: {len(cyl)} samples vs {len(one)} on the interval")
        return False
    worst = float(np.max(np.abs([cyl.a - one.a, field * cyl.linf - one.linf, moment * cyl.phi - one.phi,
                                 field * cyl.c_left - one.c_left, field * cyl.c_right - one.c_right])))
    msgs.append(f"max deviation from the interval run over {len(cyl)} samples: {worst:.3e}")
    return worst <= 1e-10


def _gate_cyl_blowup(traj, rep, cfg, msgs) -> bool:
    msgs.append(
        f"outcome {rep.outcome}, x1c ratio {rep.x1c_max_ratio}, "
        f"marginal increase {rep.marginal_increase_max:.3e}"
    )
    return (
        rep.outcome == BLOWUP
        and rep.x1c_max_ratio is not None
        and rep.x1c_max_ratio <= X1C_RATIO_BOUND
        and rep.marginal_increase_max <= 1e-8
    )


class _Preset(NamedTuple):
    description: str
    gate: Callable | None  # gate(traj, rep, cfg, msgs) -> ok; None for a sweep base config
    doc: dict  # the config document, less its out_dir


def _preset(description: str, gate: Callable | None, **doc) -> _Preset:
    return _Preset(description, gate, doc)


_PRESETS = {
    "critical_below": _preset(
        "m=1, M=0.9 concentrated: converges to the mean", _gate_converged,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 0.9, "k": 4.0},
        step={"dt_max": 5e-4},
        stop={"t_end": 12.0, "converged_tol": 1e-4, "sample_every": 5},
    ),
    "critical_above": _preset(
        "m=1, M=1.5 concentrated: blow-up within the moment bound", _gate_blowup_bound,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512, "r": 1.012},
        initial={"family": "concentration", "mass": 1.5, "k": 4.0},
        step={"dt_max": 1e-4, "blowup_linf_threshold": 2000.0},
        stop={"t_end": 3.0},
    ),
    "moment_bound": _preset(
        "m=1, M=2, phi(0)=0.4: detection beats the 1/3 bound", _gate_blowup_bound,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512, "r": 1.01},
        initial={"family": "concentration", "mass": 2.0, "k": 1.25},
        step={"dt_max": 1e-4, "blowup_linf_threshold": 2000.0},
        stop={"t_end": 2.0},
    ),
    "subquadratic": _preset(
        "m=0.5, M=50: stays bounded, no blow-up", _gate_no_blowup,
        problem={"nonlinearity": {"kind": "sublinear_power", "m": 0.5}},
        grid={"N": 256},
        initial={"family": "concentration", "mass": 50.0, "k": 16.0},
        step={"dt_max": 1e-4, "blowup_linf_threshold": 1e5},
        stop={"t_end": 1.0, "converged_tol": 1e-5, "sample_every": 5},
    ),
    "absorbing_m1": _preset(
        "f=-c, M=2: global, converges with positive rate", _gate_converged,
        problem={"nonlinearity": {"kind": "negative_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 2.0, "k": 4.0},
        step={"dt_max": 5e-5},
        stop={"t_end": 5.0, "converged_tol": 1e-6, "sample_every": 5},
    ),
    "absorbing_m2": _preset(
        "f=-c^2, M=2: global, converges with positive rate", _gate_converged,
        problem={"nonlinearity": {"kind": "negative_power", "m": 2.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 2.0, "k": 2.0},
        step={"dt_max": 2e-5},
        stop={"t_end": 5.0, "converged_tol": 1e-6, "sample_every": 5},
    ),
    "small_data_m2": _preset(
        "m=2 small L2 data: L2 monotone, exponential convergence", _gate_small_data,
        problem={"nonlinearity": {"kind": "signed_power", "m": 2.0}},
        grid={"N": 256},
        initial={"family": "cosine", "mean": 0.35, "amp": 0.2},
        step={"dt_max": 1e-4},
        stop={"t_end": 5.0, "converged_tol": 1e-7, "sample_every": 5},
    ),
    # cell traces here: the Robin closure's fixed point degenerates once
    # |a| h/2 nears 1/(m+1), which for m = 2 sits inside the fit range
    "superlinear_blowup": _preset(
        "m=2, M=1 concentrated: blow-up below critical mass", _gate_superlinear,
        problem={"nonlinearity": {"kind": "signed_power", "m": 2.0}},
        grid={"N": 512, "r": 1.01},
        initial={"family": "concentration", "mass": 1.0, "k": 4.5},
        step={
            "dt_max": 1e-4, "blowup_linf_threshold": 1600.0, "c_bu": 0.35,
            "dt_min": 1e-14, "trace_mode": "cell",
        },
        stop={"t_end": 1.0},
    ),
    # the entropy is nonincreasing for m = 1 whenever M <= 1
    "entropy_low_mass": _preset(
        "m=1, M=0.5: per-step entropy decrease", _gate_entropy,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 0.5, "k": 4.0},
        step={"dt_max": 2e-4},
        stop={"t_end": 8.0, "converged_tol": 1e-5, "sample_every": 5},
    ),
    "critical_mass_exact": _preset(
        "m=1, M=1.0: bounded with per-step entropy decrease", _gate_entropy,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 1.0, "k": 4.0},
        step={"dt_max": 2e-4},
        stop={"t_end": 5.0, "sample_every": 5},
    ),
    # a saturating law with a tiny level makes the coupling vanish, so the
    # decay rate is the first Neumann eigenvalue pi^2/L^2
    "heat_decay": _preset(
        "vanishing coupling: decay rate pi^2 (heat oracle)", _gate_rate(PI2),
        problem={"nonlinearity": {"kind": "saturating", "level": 1e-30, "alpha": 1.0}},
        grid={"N": 256},
        initial={"family": "cosine", "mean": 1.0, "amp": 0.1},
        step={"dt_max": 1e-4},
        stop={"t_end": 2.0, "converged_tol": 1e-6, "sample_every": 2},
    ),
    # a genuinely coupled run: mirror-symmetric data make a vanish, so the
    # mode decays at the heat rate of its own wavelength, (2 pi / L)^2
    "sym_cosine_m1": _preset(
        "m=1 symmetric cosine: a=0, decay rate (2pi)^2", _gate_sym_cosine,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 256},
        initial={"family": "cosine", "mean": 1.0, "amp": 0.1, "modes": 2},
        step={"dt_max": 2e-5},
        stop={"t_end": 0.5, "converged_tol": 1e-6, "sample_every": 2},
    ),
    "cyl_reduction": _preset(
        "cylinder, rho-independent data: shadows the 1D run", _gate_cyl_reduction,
        problem={
            "nonlinearity": {"kind": "signed_power", "m": 1.0},
            "domain": {"geometry": "cylinder", "L": 1.0, "R": 0.5, "n": 2},
        },
        grid={"N": 256, "Nr": 8},
        initial={"family": "concentration", "mass": 0.9, "k": 4.0},
        step={"dt_max": 2.5e-5},
        stop={"t_end": 0.3, "sample_every": 10},
    ),
    "cyl_blowup": _preset(
        "n=3 cylinder blow-up with the x1*c <= M0 bound", _gate_cyl_blowup,
        problem={
            "nonlinearity": {"kind": "signed_power", "m": 1.0},
            "domain": {"geometry": "cylinder", "L": 1.0, "R": 1.0, "n": 3},
        },
        grid={"N": 256, "r": 1.03, "Nr": 16},
        initial={"family": "concentration", "mass": 2.0, "k": 6.0, "radial_amp": 0.5},
        step={"dt_max": 2e-5, "cfl": 0.35, "blowup_linf_threshold": 600.0},
        stop={"t_end": 2.0},
    ),
    "sweep_critical": _preset(
        "base config for the critical-mass sweep", None,
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512, "r": 1.002},
        initial={"family": "concentration", "mass": 1.0, "k": 8.0},
        step={"dt_max": 1e-3, "cfl": 0.8, "blowup_linf_threshold": 100.0},
        stop={"t_end": 2.0, "converged_tol": 1e-3, "sample_every": 50},
    ),
}

# name -> gate, looked up at each verdict (perfbench wraps its entries)
_GATES = {name: p.gate for name, p in _PRESETS.items() if p.gate is not None}


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def gated_presets() -> list[str]:
    """The presets with a gate, sorted: what `cellflux check` runs by default."""
    return sorted(_GATES)


def description(name: str) -> str:
    return _PRESETS[name].description


def preset_config(name: str) -> RunConfig:
    """The preset's RunConfig, writing to out/NAME."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; try one of {', '.join(list_presets())}")
    return config_from_dict({**_PRESETS[name].doc, "out_dir": f"out/{name}"})


def judge(name: str, cfg: RunConfig, traj, rep) -> tuple[bool, list[str]]:
    """The gated preset's verdict on a run of `cfg`: (ok, messages).  A run
    that ended NUMERICAL_FAILURE, or committed no step (so has no per-step
    maxima), fails on its reason, before the gate; any other run must pass
    its gate and hold mass to MASS_DRIFT_BOUND."""
    if rep.outcome == NUMERICAL_FAILURE or rep.steps == 0:
        return False, [f"outcome {rep.outcome} after {rep.steps} steps: {rep.reason}"]
    msgs: list[str] = []
    ok = _GATES[name](traj, rep, cfg, msgs)
    if rep.mass_drift_max > MASS_DRIFT_BOUND:
        ok = False
        msgs.append(f"mass drift {rep.mass_drift_max:.3e} exceeds {MASS_DRIFT_BOUND:g}")
    msgs.append(f"mass drift {rep.mass_drift_max:.2e} over {rep.steps} steps")
    return ok, msgs


def check_preset(name: str) -> tuple[bool, list[str]]:
    """Run the preset and judge it.  Returns (ok, messages)."""
    cfg = preset_config(name)  # raises ConfigError on a name that is no preset
    if name not in _GATES:
        raise ConfigError(f"preset {name!r} has no gate (is it a sweep base config?)")
    _grid, traj, rep = run_config(cfg)
    return judge(name, cfg, traj, rep)
