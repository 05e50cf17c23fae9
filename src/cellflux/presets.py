"""One preset per qualitative regime of the model, each with a pass/fail gate.

The preset map is the executable form of the theory checklist: critical mass
below/above, the explicit blow-up time bound, the subquadratic global regime,
absorbing (sign-reversed) nonlinearities, small-data exponential convergence,
superquadratic blow-up at small mass, entropy monotonicity, pure-heat decay
oracles, and the cylinder runs.  `check_preset` runs one preset and verifies
its gate; the full map is what CI executes.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import fit_decay
from .grid import integrate
from .harness import RunConfig, config_from_dict, run_config
from .problem import ConfigError
from .runner import BLOWUP, BOUNDED, CONVERGED

PI2 = math.pi**2


_PRESETS: dict[str, dict] = {
    # m = 1, mass below critical: global existence and convergence to the mean
    "critical_below": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 0.9, "k": 4.0},
        step={"dt_max": 5e-4},
        stop={"t_end": 12.0, "converged_tol": 1e-4, "sample_every": 5},
        out_dir="out/critical_below",
    ),
    # m = 1, supercritical mass, concentrated monotone data: finite-time
    # blow-up within the explicit moment bound
    "critical_above": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512, "r": 1.012},
        initial={"family": "concentration", "mass": 1.5, "k": 4.0},
        step={"dt_max": 1e-4, "blowup_linf_threshold": 2000.0},
        stop={"t_end": 3.0},
        out_dir="out/critical_above",
    ),
    # m = 1, M = 2, first moment 0.4: detection must beat the closed-form
    # upper bound 1/3 (with 10% slack)
    "moment_bound": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512, "r": 1.01},
        initial={"family": "concentration", "mass": 2.0, "k": 1.25},
        step={"dt_max": 1e-4, "blowup_linf_threshold": 2000.0},
        stop={"t_end": 2.0},
        out_dir="out/moment_bound",
    ),
    # subquadratic growth: global for arbitrarily large mass
    "subquadratic": dict(
        problem={"nonlinearity": {"kind": "sublinear_power", "m": 0.5}},
        grid={"N": 256},
        initial={"family": "concentration", "mass": 50.0, "k": 16.0},
        step={"dt_max": 1e-4, "blowup_linf_threshold": 1e5},
        stop={"t_end": 1.0, "converged_tol": 1e-5, "sample_every": 5},
        out_dir="out/subquadratic",
    ),
    # absorbing coupling f = -c: global and convergent for any mass
    "absorbing_m1": dict(
        problem={"nonlinearity": {"kind": "negative_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 2.0, "k": 4.0},
        step={"dt_max": 5e-5},
        stop={"t_end": 5.0, "converged_tol": 1e-6, "sample_every": 5},
        out_dir="out/absorbing_m1",
    ),
    "absorbing_m2": dict(
        problem={"nonlinearity": {"kind": "negative_power", "m": 2.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 2.0, "k": 2.0},
        step={"dt_max": 2e-5},
        stop={"t_end": 5.0, "converged_tol": 1e-6, "sample_every": 5},
        out_dir="out/absorbing_m2",
    ),
    # m = 2 with small L2 data: the L2 norm is a Lyapunov functional and the
    # solution converges exponentially
    "small_data_m2": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 2.0}},
        grid={"N": 256},
        initial={"family": "cosine", "mean": 0.35, "amp": 0.2},
        step={"dt_max": 1e-4},
        stop={"t_end": 5.0, "converged_tol": 1e-7, "sample_every": 5},
        out_dir="out/small_data_m2",
    ),
    # m = 2: blow-up at mass well below the m = 1 critical value, under the
    # explicit small-first-moment condition
    # cell traces here: the Robin closure's fixed point degenerates once
    # |a| h/2 nears 1/(m+1), which for m = 2 sits inside the fit range
    "superlinear_blowup": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 2.0}},
        grid={"N": 512, "r": 1.01},
        initial={"family": "concentration", "mass": 1.0, "k": 4.5},
        step={
            "dt_max": 1e-4, "blowup_linf_threshold": 1600.0, "c_bu": 0.35,
            "dt_min": 1e-14, "trace_mode": "cell",
        },
        stop={"t_end": 1.0},
        out_dir="out/superlinear_blowup",
    ),
    # entropy is nonincreasing for m = 1 whenever M <= 1
    "entropy_low_mass": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 0.5, "k": 4.0},
        step={"dt_max": 2e-4},
        stop={"t_end": 8.0, "converged_tol": 1e-5, "sample_every": 5},
        out_dir="out/entropy_low_mass",
    ),
    "critical_mass_exact": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512},
        initial={"family": "concentration", "mass": 1.0, "k": 4.0},
        step={"dt_max": 2e-4},
        stop={"t_end": 5.0, "sample_every": 5},
        out_dir="out/critical_mass_exact",
    ),
    # vanishing coupling (saturating with tiny level): a pure heat run whose
    # decay rate is the first Neumann eigenvalue pi^2/L^2
    "heat_decay": dict(
        problem={"nonlinearity": {"kind": "saturating", "level": 1e-30, "alpha": 1.0}},
        grid={"N": 256},
        initial={"family": "cosine", "mean": 1.0, "amp": 0.1},
        step={"dt_max": 1e-4},
        stop={"t_end": 2.0, "converged_tol": 1e-6, "sample_every": 2},
        out_dir="out/heat_decay",
    ),
    # genuinely coupled m = 1 run with mirror-symmetric data: a vanishes by
    # symmetry and the mode decays at the heat rate of its own wavelength,
    # (2 pi / L)^2
    "sym_cosine_m1": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 256},
        initial={"family": "cosine", "mean": 1.0, "amp": 0.1, "modes": 2},
        step={"dt_max": 2e-5},
        stop={"t_end": 0.5, "converged_tol": 1e-6, "sample_every": 2},
        out_dir="out/sym_cosine_m1",
    ),
    # cylinder with unit cross-section and rho-independent data: must shadow
    # the 1D run (checked stepwise by its gate)
    "cyl_reduction": dict(
        problem={
            "nonlinearity": {"kind": "signed_power", "m": 1.0},
            "domain": {"geometry": "cylinder", "L": 1.0, "R": 0.5, "n": 2},
        },
        grid={"N": 256, "Nr": 8},
        initial={"family": "concentration", "mass": 0.9, "k": 4.0},
        step={"dt_max": 2.5e-5},
        stop={"t_end": 0.3, "sample_every": 10},
        out_dir="out/cyl_reduction",
    ),
    # axisymmetric cylinder blow-up with the axial-marginal profile bound
    "cyl_blowup": dict(
        problem={
            "nonlinearity": {"kind": "signed_power", "m": 1.0},
            "domain": {"geometry": "cylinder", "L": 1.0, "R": 1.0, "n": 3},
        },
        grid={"N": 256, "r": 1.03, "Nr": 16},
        initial={"family": "concentration", "mass": 2.0, "k": 6.0, "radial_amp": 0.5},
        step={"dt_max": 2e-5, "cfl": 0.35, "blowup_linf_threshold": 600.0},
        stop={"t_end": 2.0},
        out_dir="out/cyl_blowup",
    ),
    # sweep base config for the critical-mass bisection (use with `sweep`)
    "sweep_critical": dict(
        problem={"nonlinearity": {"kind": "signed_power", "m": 1.0}},
        grid={"N": 512, "r": 1.002},
        initial={"family": "concentration", "mass": 1.0, "k": 8.0},
        step={"dt_max": 1e-3, "cfl": 0.8, "blowup_linf_threshold": 100.0},
        stop={"t_end": 2.0, "converged_tol": 1e-3, "sample_every": 50},
        out_dir="out/sweep_critical",
    ),
}

DESCRIPTIONS = {
    "critical_below": "m=1, M=0.9 concentrated: converges to the mean",
    "critical_above": "m=1, M=1.5 concentrated: blow-up within the moment bound",
    "moment_bound": "m=1, M=2, phi(0)=0.4: detection beats the 1/3 bound",
    "subquadratic": "m=0.5, M=50: stays bounded, no blow-up",
    "absorbing_m1": "f=-c, M=2: global, converges with positive rate",
    "absorbing_m2": "f=-c^2, M=2: global, converges with positive rate",
    "small_data_m2": "m=2 small L2 data: L2 monotone, exponential convergence",
    "superlinear_blowup": "m=2, M=1 concentrated: blow-up below critical mass",
    "entropy_low_mass": "m=1, M=0.5: per-step entropy decrease",
    "critical_mass_exact": "m=1, M=1.0: bounded with per-step entropy decrease",
    "heat_decay": "vanishing coupling: decay rate pi^2 (heat oracle)",
    "sym_cosine_m1": "m=1 symmetric cosine: a=0, decay rate (2pi)^2",
    "cyl_reduction": "cylinder, rho-independent data: shadows the 1D run",
    "cyl_blowup": "n=3 cylinder blow-up with the x1*c <= M0 bound",
    "sweep_critical": "base config for the critical-mass sweep",
}


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def preset_config(name: str) -> RunConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; try one of {', '.join(list_presets())}")
    return config_from_dict(_PRESETS[name])


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
    return rep.outcome in (BOUNDED, CONVERGED) and rep.entropy_step_increase_max <= 1e-8


def _gate_small_data(traj, rep, cfg, msgs) -> bool:
    if not _gate_converged(traj, rep, cfg, msgs):
        return False
    radius = rep.thresholds["small_data_radius"]
    l2 = [r.lp[2.0] for r in traj.records]
    msgs.append(f"initial L2 {l2[0]:.4g} vs radius {radius:.4g}")
    if not l2[0] < radius:
        return False
    worst = max(b - a for a, b in zip(l2[:-1], l2[1:]))
    msgs.append(f"max L2 increase per sample {worst:.3e}")
    return worst <= 1e-10 * l2[0]


def _gate_superlinear(traj, rep, cfg, msgs) -> bool:
    msgs.append(f"outcome {rep.outcome}, beta_fit {rep.beta_fit}")
    if rep.outcome != BLOWUP or rep.beta_fit is None:
        return False
    phi0 = traj.records[0].phi
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
    a_max = max(abs(r.a) for r in traj.records)
    msgs.append(f"max |a| {a_max:.3e}")
    return a_max <= 1e-10 and _gate_rate(4.0 * PI2)(traj, rep, cfg, msgs)


def _gate_cyl_reduction(traj, rep, cfg, msgs) -> bool:
    # stepwise shadowing of the 1D run is checked directly on the solvers
    from .harness import build_initial
    from .runner import StopRule as _SR
    from . import solver1d, solver_cyl
    from .grid import build_grid_1d

    grid_c = cfg.grid.build(cfg.problem.domain)
    c0c = build_initial(cfg.initial, grid_c, cfg.problem.domain, cfg.seed)
    grid_1 = build_grid_1d(cfg.problem.domain.L, cfg.grid.N, cfg.grid.r)
    prob_1 = _interval_twin(cfg)
    s2 = solver1d.make_state(grid_c, c0c)
    s1 = solver1d.make_state(grid_1, c0c[:, 0].copy())
    worst = 0.0
    for _ in range(1000):
        dt = min(
            solver1d.adapt_dt(prob_1, s1, cfg.step),
            solver_cyl.adapt_dt_cyl(cfg.problem, s2, cfg.step),
        )
        s1 = solver1d.step(prob_1, s1, dt, cfg.step)
        s2 = solver_cyl.step_cyl(cfg.problem, s2, dt, cfg.step)
        worst = max(worst, float(np.max(np.abs(s2.c - s1.c[:, None]))))
    msgs.append(f"max per-step deviation over 1000 steps: {worst:.3e}")
    return worst <= 1e-10


def _interval_twin(cfg: RunConfig):
    """The 1D problem shadowed by a unit-cross-section cylinder run."""
    from dataclasses import replace

    from .problem import DomainSpec

    return replace(
        cfg.problem, domain=DomainSpec(geometry="interval", L=cfg.problem.domain.L)
    )


def _gate_cyl_blowup(traj, rep, cfg, msgs) -> bool:
    msgs.append(
        f"outcome {rep.outcome}, x1c ratio {rep.x1c_max_ratio}, "
        f"marginal increase {rep.marginal_increase_max:.3e}"
    )
    return (
        rep.outcome == BLOWUP
        and rep.x1c_max_ratio is not None
        and rep.x1c_max_ratio <= 1.0 + 1e-6
        and rep.marginal_increase_max <= 1e-8
    )


_GATES = {
    "critical_below": _gate_converged,
    "critical_above": _gate_blowup_bound,
    "moment_bound": _gate_blowup_bound,
    "subquadratic": _gate_no_blowup,
    "absorbing_m1": _gate_converged,
    "absorbing_m2": _gate_converged,
    "small_data_m2": _gate_small_data,
    "superlinear_blowup": _gate_superlinear,
    "entropy_low_mass": _gate_entropy,
    "critical_mass_exact": _gate_entropy,
    "heat_decay": _gate_rate(PI2),
    "sym_cosine_m1": _gate_sym_cosine,
    "cyl_reduction": _gate_cyl_reduction,
    "cyl_blowup": _gate_cyl_blowup,
}


def run_preset(name: str):
    cfg = preset_config(name)
    grid, traj, rep = run_config(cfg)
    return cfg, grid, traj, rep


def check_preset(name: str):
    """Run the preset and evaluate its gate.  Returns (ok, messages)."""
    if name not in _GATES:
        raise ConfigError(f"preset {name!r} has no gate (is it a sweep base config?)")
    cfg, _grid, traj, rep = run_preset(name)
    msgs: list[str] = []
    ok = _GATES[name](traj, rep, cfg, msgs)
    if rep.mass_drift_max > 1e-12:
        ok = False
        msgs.append(f"mass drift {rep.mass_drift_max:.3e} exceeds 1e-12")
    msgs.append(f"mass drift {rep.mass_drift_max:.2e} over {rep.steps} steps")
    return ok, msgs
