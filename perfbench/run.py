"""Benchmark of the cellflux simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root; cellflux is imported from ./src.  Each
workload is a closed loop: one caller, and the next iteration starts when the
previous one has ended.  Every iteration runs in a fresh child process
(perfbench/child.py), so its peak RSS is that child's own, and every
iteration checks its result against perfbench/expected.json.

--trace 0 prints the end-to-end metrics: the median wall time of one
iteration, wall time per committed step, the highest peak RSS, and the median
set-up time (import plus config, grid and initial-data build, taken from
extra set-up-only children and from every iteration).  The three times are
rescaled to a reference host speed by a calibration kernel interleaved with
the run (perfbench/hostclock.py), because a shared vCPU changes speed by
up to half for seconds at a time; the raw times go to standard error.  --trace 1 alternates
untraced and traced iterations and prints the per-layer split of one step,
recorded by wrappers installed from outside the package, with the tracing
overhead as traced minus untraced wall time.  --selftest runs every workload
on shortened inputs and checks that every metric in BENCHMARK.json is printed
with its unit and that the traced self times add up to the traced wall time.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Details, the environment and any failed check go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("coupled_interval", "heat_scenario", "cylinder", "critical_sweep")
SETUP_RUNS = 2  # set-up-only children per measured run, besides one per iteration
CHILD_LIMIT_S = 170.0  # a run must end within 180 s

# Which end-to-end metric each layer should move, on which workload.  The
# solver.* metrics are solver1d's on the 1-D workloads and solver_cyl's on
# cylinder, the only workload on solver_cyl; every time below is taken on
# every workload, and a layer that only some workloads reach is given as its
# share of the traced wall time (0 where it is not reached).
#   coupling (compute_a, f_evals_per_step): us_per_step on coupled_interval,
#     cylinder and critical_sweep; no change on heat_scenario (~1 iteration)
#   diffusion (solve_banded): us_per_step on heat_scenario (dt fixed) and
#     cylinder (two solves a step); only per-call overhead on coupled_interval
#   step self time (advection, assembly, commit) and adapt_dt: us_per_step on
#     every workload
#   runner self time (per-step audits) and entropy_of: us_per_step on every
#     workload, most on heat_scenario
#   record: us_per_step on heat_scenario and cylinder, which sample often
#   step_rejections: a robustness check, not expected to move
#   post_run (fits, moment and dissipation residuals), harness self time
#     (which includes writing output), output_bytes, fields_retained: wall_s
#     and peak_rss_mb on heat_scenario only
#   runs, run_s_max, sweep.refined_level_pct: wall_s on critical_sweep only
END_TO_END = {"wall_s": "s", "us_per_step": "us", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "solver.compute_a.us_per_step": "us",
    "solver.compute_a.f_evals_per_step": "count",
    "solver.solve_banded.us_per_step": "us",
    "solver.solve_banded.calls_per_step": "count",
    "solver.step.self_us_per_step": "us",
    "solver.adapt_dt.us_per_step": "us",
    "runner.run.self_us_per_step": "us",
    "runner.entropy_of.us_per_step": "us",
    "runner.steps": "count",
    "runner.step_rejections": "count",
    "diagnostics.record.us_per_sample": "us",
    "diagnostics.record.samples": "count",
    "diagnostics.post_run.s": "s",
    "harness.self_s": "s",
    "harness.output_bytes": "bytes",
    "harness.fields_retained": "count",
    "harness.runs": "count",
    "harness.run_s_max": "s",
    "harness.sweep.refined_level_pct": "%",
    "presets.gate_pct": "%",
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}

# harness code outside the runner: config, grid and initial-data build,
# snapshot selection, report writing and bisection bookkeeping
HARNESS_SPANS = ("harness.run_config", "harness.run_scenario", "harness.sweep",
                 "harness.sweep.level", "harness.write_timeseries", "harness.write_snapshots")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # numpy's BLAS gets no more threads than cores; one keeps runs repeatable
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: Path, workdir: Path, workload: str, seed: int, mode: str,
              short: bool, deadline: float) -> dict:
    """One child process; returns its result with its peak RSS, or a result
    carrying a failed 'child' check when it crashed or overran."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed), mode,
           "1" if short else "0", str(workdir)]
    log_path = workdir / "child.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=log,
                                stderr=subprocess.STDOUT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"checks": [["child", False, f"exit {proc.returncode}: {tail}"]]}
    res = json.loads(result_path.read_text(encoding="utf-8"))
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kB on Linux
    res.setdefault("checks", [])
    if Path(res["cellflux"]).resolve() != (root / "src" / "cellflux").resolve():
        res["checks"].append(["import", False, f"cellflux imported from {res['cellflux']}"])
    return res


def failed_checks(res: dict) -> list:
    return [c for c in res["checks"] if not c[1]]


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    layers, counts, steps, wall = res["layers"], res["counts"], res["steps"], res["wall_s"]

    def get(key, *names):
        return sum(layers.get(n, {}).get(key, 0.0) for n in names)

    def us_per_step(x):
        return x / steps * 1e6

    def pct_of_wall(x):
        return 100.0 * x / wall

    samples = get("calls", "runner.record")
    levels = res["level_s"]
    return {
        "solver.compute_a.us_per_step":
            us_per_step(get("total", "solver1d.compute_a", "solver_cyl.compute_a_cyl")),
        "solver.compute_a.f_evals_per_step": sum(counts.values()) / steps,
        "solver.solve_banded.us_per_step":
            us_per_step(get("total", "solver1d.solve_banded", "solver_cyl.solve_banded")),
        "solver.solve_banded.calls_per_step":
            get("calls", "solver1d.solve_banded", "solver_cyl.solve_banded") / steps,
        "solver.step.self_us_per_step": us_per_step(get("self", "solver1d.step", "solver_cyl.step_cyl")),
        "solver.adapt_dt.us_per_step":
            us_per_step(get("total", "solver1d.adapt_dt", "solver_cyl.adapt_dt_cyl")),
        "runner.run.self_us_per_step": us_per_step(get("self", "runner.run")),
        "runner.entropy_of.us_per_step": us_per_step(get("total", "runner.entropy_of")),
        "runner.steps": steps,
        "runner.step_rejections": get("errors", "solver1d.step", "solver_cyl.step_cyl"),
        "diagnostics.record.us_per_sample": get("total", "runner.record") / max(samples, 1) * 1e6,
        "diagnostics.record.samples": samples,
        "diagnostics.post_run.s": get("total", "diagnostics.post_run"),
        "harness.self_s": get("self", *HARNESS_SPANS),
        "harness.output_bytes": res.get("output_bytes", 0),
        "harness.fields_retained": sum(r[3] for r in res["runs"]),
        "harness.runs": len(res["runs"]),
        "harness.run_s_max": get("max", "runner.run"),
        "harness.sweep.refined_level_pct": pct_of_wall(levels[1]) if len(levels) > 1 else 0.0,
        "presets.gate_pct": pct_of_wall(get("total", "presets.gate")),
    }


def self_time_gap(res: dict) -> float:
    """Relative gap between the sum of every span's self time and the traced
    wall time; 0 up to rounding when every span nests in the root span."""
    total_self = sum(s["self"] for s in res["layers"].values())
    return abs(total_self - res["wall_s"]) / res["wall_s"]


def measure(root: Path, workdir: Path, workload: str, seed: int, seconds: float,
            trace: bool, short: bool = False):
    """Run iterations for about `seconds`; returns (iterations, setups),
    each iteration a (mode, result) pair."""
    deadline = time.monotonic() + CHILD_LIMIT_S
    n = 0

    def child(mode):
        nonlocal n
        n += 1
        return run_child(root, workdir / f"{n:03d}-{mode}", workload, seed, mode, short, deadline)

    setups = [] if trace else [child("setup") for _ in range(SETUP_RUNS)]
    modes = ("run", "trace") if trace else ("run",)
    iters = []
    t0 = time.monotonic()
    rounds = 0
    while True:
        iters += [(mode, child(mode)) for mode in modes]
        rounds += 1
        elapsed = time.monotonic() - t0
        # start another round only if it should end within `seconds`
        if elapsed + elapsed / rounds > seconds:
            break
    return iters, setups


def mark_output_mismatch(iters) -> None:
    """heat_scenario: timeseries.csv must be byte-identical across repeats of
    one seed, traced or not."""
    ref = next((r["timeseries_sha256"] for _m, r in iters if "timeseries_sha256" in r), None)
    for _mode, res in iters:
        if "timeseries_sha256" in res and res["timeseries_sha256"] != ref:
            res["checks"].append(["timeseries_identical", False, res["timeseries_sha256"]])


def tail_percentile(values):
    """(percent, value) of the highest percentile with at least ten samples
    above it, or None with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def summarize(workload: str, iters, setups, trace: bool) -> dict:
    """The result object of one run; raises RuntimeError when no iteration
    produced a timing."""
    if workload == "heat_scenario":
        mark_output_mismatch(iters)
    failed = 0
    for mode, res in iters:
        bad = failed_checks(res)
        failed += bool(bad)
        for name, _ok, detail in bad:
            print(f"FAILED check {name} ({mode}): {detail}", file=sys.stderr)
    timed = [(m, r) for m, r in iters if "wall_s" in r]
    untraced = [r for m, r in timed if m == "run"]
    if not untraced:
        raise RuntimeError("no iteration produced a timing")
    walls = [r["wall_s"] for r in untraced]
    ref_walls = [r["ref_wall_s"] for r in untraced]
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {untraced[0]['numpy']}, scipy {untraced[0]['scipy']}", file=sys.stderr)
    print(f"{workload}: {len(iters)} iterations, {failed} failed "
          f"(failed_frac {failed / len(iters):.3g})", file=sys.stderr)
    print(f"  raw wall_s median {statistics.median(walls):.4f} over {len(walls)} untraced runs",
          file=sys.stderr)
    tail = tail_percentile(ref_walls)
    if tail:
        print(f"  wall_s p{tail[0]:.0f} {tail[1]:.4f}", file=sys.stderr)

    if trace:
        traced = [r for m, r in timed if m == "trace"]
        if not traced:
            raise RuntimeError("no traced iteration produced a timing")
        per_iter = [layer_metrics(r) for r in traced]
        metrics = {k: statistics.median(d[k] for d in per_iter) for k in per_iter[0]}
        metrics["bench.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["bench.untraced_wall_s"] = statistics.median(walls)
        metrics["bench.trace_overhead_s"] = metrics["bench.traced_wall_s"] - metrics["bench.untraced_wall_s"]
        units = PER_LAYER
    else:
        with_setup = [r for r in setups + untraced if "setup_s" in r]
        print(f"  raw setup_s median {statistics.median(r['setup_s'] for r in with_setup):.4f}",
              file=sys.stderr)
        metrics = {
            "wall_s": statistics.median(ref_walls),
            "us_per_step": sum(ref_walls) / sum(r["steps"] for r in untraced) * 1e6,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(r["setup_ref_s"] for r in with_setup),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(iters),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def selftest(root: Path, workdir: Path) -> int:
    """Every workload on shortened inputs: every metric named in
    BENCHMARK.json is printed with its unit, and traced self times add up to
    the traced wall time."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            iters, setups = measure(root, workdir / f"{workload}-{int(trace)}", workload, 1,
                                    0.0, trace, short=True)
            out = summarize(workload, iters, setups, trace)
            if out["failed"]:
                problems.append(f"{workload}: {out['failed']} failed iterations")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {key}: printed {got}, BENCHMARK.json names {want}")
            for _m, res in iters:
                if "layers" in res and self_time_gap(res) > 1e-3:
                    problems.append(f"{workload}: self times miss the traced wall time "
                                    f"by {self_time_gap(res):.2e}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    # a terminated run still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "cellflux" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/cellflux is missing", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.selftest:
            return selftest(root, workdir)
        iters, setups = measure(root, workdir, args.workload, args.seed, args.seconds,
                                bool(args.trace))
        try:
            out = summarize(args.workload, iters, setups, bool(args.trace))
        except RuntimeError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        if args.trace:
            # spans of the last traced iteration outlive the run, for inspection
            kept = scratch / f"{args.workload}.spans.csv"
            shutil.move(sorted(workdir.glob("*-trace/spans.csv"))[-1], kept)
            print(f"spans: {kept}", file=sys.stderr)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
