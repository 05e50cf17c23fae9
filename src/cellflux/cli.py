"""Command-line interface.

    cellflux run --config cfg.json|PRESET [--out DIR]
    cellflux sweep --config cfg.json|PRESET --param M --bracket 0.9,1.4 --refine 8 [--out DIR]
    cellflux steady --m 2 --L 1 --mass 0.5
    cellflux check [--preset NAME]
    cellflux list-presets

--config takes a JSON file, or a preset name when no file of that name
exists.  check without --preset checks every gated preset in turn.

Exit codes: 0 for any classified physical outcome (CONVERGED, BOUNDED,
BLOWUP) and for passing checks; 1 for a failing check gate; 2 for config
errors; 3 for a NUMERICAL_FAILURE outcome (of a run, or of a sweep probe).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import presets
from .harness import load_config, run_scenario, sweep, write_sweep_report
from .problem import ConfigError, DomainError
from .runner import NUMERICAL_FAILURE
from .steady import DEGENERATE_FAMILY, find_steady


def _load(config: str):
    """The config file at `config`, or the preset of that name if no such file exists."""
    if not os.path.exists(config) and config in presets.list_presets():
        return presets.preset_config(config)
    return load_config(config)


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    rep = run_scenario(cfg, out_dir=args.out)
    print(f"outcome: {rep.outcome} ({rep.reason}) after {rep.steps} steps, t = {rep.t_final:.6g}")
    print(f"mass drift: {rep.mass_drift_max:.3e}")
    return 3 if rep.outcome == NUMERICAL_FAILURE else 0


def _bracket(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"--bracket must be two finite numbers lo,hi with lo < hi; got {text!r}")
    return lo, hi


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    rep = sweep(cfg, args.param, _bracket(args.bracket), args.refine)
    if args.out:
        write_sweep_report(rep, args.out)
    for v, out in rep.probes:
        print(f"  {args.param} = {v:.6g}: {out}")
    for v, out in rep.refined_probes:
        print(f"  {args.param} = {v:.6g} at 2x resolution: {out}")
    if any(out == NUMERICAL_FAILURE for _v, out in rep.probes + rep.refined_probes):
        print("a probe failed numerically; the sweep stopped there")
        return 3
    if rep.non_monotone and rep.threshold_estimate != rep.threshold_estimate:
        print("endpoints classify identically; no bisection performed")
        return 0
    print(f"threshold estimate: {rep.threshold_estimate:.6g} +- {rep.half_width:.2g}")
    if rep.refined_estimate is not None:
        print(f"at 2x resolution:   {rep.refined_estimate:.6g} (drift {rep.drift:+.4g})")
    return 0


def _cmd_steady(args) -> int:
    ss = find_steady(args.m, args.L, args.mass)
    if ss is None:
        print("no nonconstant steady state with that mass")
    elif ss == DEGENERATE_FAMILY:
        print("degenerate family: every rate a > 0 carries this mass (m = 1, M = 1)")
    else:
        print(json.dumps({
            "a": ss.a,
            "c0_left": ss.c0_left,
            "mass": ss.mass,
            "lm_norm": ss.lm_norm,
            "self_consistency_residual": ss.self_consistency_residual(),
        }, indent=2))
    return 0


def _cmd_check(args) -> int:
    names = [args.preset] if args.preset else presets.gated_presets()
    all_ok = True
    for name in names:
        t0 = time.perf_counter()
        ok, msgs = presets.check_preset(name)
        for m in msgs:
            print(f"  {m}")
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:.1f} s)")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_list(_args) -> int:
    for name in presets.list_presets():
        print(f"{name:22s} {presets.description(name)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cellflux", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one scenario from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="bisect an outcome threshold in a parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", default="M")
    p.add_argument("--bracket", required=True, help="lo,hi")
    p.add_argument("--refine", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("steady", help="solve for a nonconstant steady state")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--mass", type=float, required=True)
    p.set_defaults(fn=_cmd_steady)

    p = sub.add_parser("check", help="run a preset (default: every gated one) and assert its gate")
    p.add_argument("--preset")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("list-presets", help="list preset names")
    p.set_defaults(fn=_cmd_list)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
