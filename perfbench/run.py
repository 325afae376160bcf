"""mfirange benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run starts one fresh child process after
another (closed loop, one compute thread, ``MFIRANGE_WORKERS`` removed)
until ``--seconds`` have passed, each timing set-up and the workload's CLI
commands, and reports the medians of the end-to-end metrics, with timings
rescaled to a fixed machine speed by a reference kernel (``speed.py``).  With
``--trace 1`` it runs the workload in-process with spans around every
layer call and reports the per-layer metrics.  Both check the outputs;
every check is one attempted operation.  The last line of stdout is the
JSON result.  See RATIONALE.md for why the workloads and metrics are what
they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks as ck
import child
import speed
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 3

# Figures from the ROADMAP re-anchor, printed next to the traced values.
REANCHOR = {
    "estimator.scan.ns_per_cell": "~9 ns per trial x grid point x frequency, 1 worker",
    "montecarlo.synth_trial_matrix.us_per_trial": "~69 us per trial",
    "estimator.workers2.speedup": "1.8x at MFIRANGE_WORKERS=4 on 2 cores",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measured_run(workload: str, seed: int, seconds: float, work: Path, checks: ck.Checks):
    """Fresh children until ``seconds`` have passed; (metrics, report lines)."""
    input_path = wl.write_inputs(workload, seed, work / "inputs")
    samples = []
    start = time.perf_counter()
    child_s = 0.0
    # Start a child only if it should end within ``seconds``, after the first few.
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start + child_s <= seconds:
        t = time.perf_counter()
        out = work / f"child-{len(samples)}" / "out"
        commands = wl.cli_commands(workload, input_path, out)
        samples.append((out, child.spawn(workload, commands, out.parent)))
        child_s = time.perf_counter() - t

    plans = {label: repr(plan) for label, plan in wl.build_plans(workload).items()}
    reference = None
    good = []
    for k, (out, res) in enumerate(samples):
        if not checks.check(f"child {k} ran", "calls" in res, res.get("stderr", "")):
            continue
        ck.check_calls(checks, res["calls"], f"child {k}")
        checks.check(f"child {k} MFIRANGE_WORKERS unset", res["workers_env"] is None)
        local = Path(res["package"]).resolve().is_relative_to(child.SRC)
        checks.check(f"child {k} imports the checkout", local)
        checks.check(f"child {k} plans", res["plans"] == plans)
        found = ck.digests(out)
        if reference is None:
            reference = found
            ck.check_outputs(checks, workload, out, input_path, seed)
        else:
            ck.compare_digests(checks, reference, found, f"child {k}")
        good.append(res)
    if not good:
        raise RuntimeError("no child completed; " + "; ".join(checks.failures[:3]))

    # Each timing is rescaled to the reference machine speed, child by child,
    # by the kernel of its kind (see speed.py); raw medians are printed too.
    setup, calls = [], []
    for r in good:
        f = speed.factors(r["reference_s"])
        setup.append(r["setup_s"] * f["python"])
        calls.append([c["s"] * f[speed.command_kernel(workload, c["argv"][0])] for c in r["calls"]])
    per_child = {
        "setup_s": setup,
        "cli_s": [sum(c) for c in calls],
        "estimates_per_s": [wl.estimates(workload) / c[-1] for c in calls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    units = {"setup_s": "s", "cli_s": "s", "estimates_per_s": "1/s", "peak_rss_mb": "MB"}
    unset = all(r["workers_env"] is None for r in good)
    lines = [f"samples = {len(good)} fresh children; MFIRANGE_WORKERS unset in all: {unset}"]
    for name in good[0]["reference_s"]:
        per_pass = [statistics.median(r["reference_s"][name]) for r in good]
        lines.append(f"kernel {name}: {statistics.median(per_pass):.6g} s per pass"
                     f" (REF_S {speed.REF_S[name]:g} s), child medians from"
                     f" {min(per_pass):.6g} to {max(per_pass):.6g}")
    metrics = {}
    for name, values in per_child.items():
        q1, med, q3 = _quartiles(values)
        metrics[name] = (med, units[name])
        spread = f"q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"
        lines.append(f"{name} = {med:.6g} {units[name]} ({spread})")
    raw_cli = statistics.median(sum(c["s"] for c in r["calls"]) for r in good)
    raw_est = statistics.median(wl.estimates(workload) / r["calls"][-1]["s"] for r in good)
    lines.append(f"raw (not rescaled): setup_s = {statistics.median(r['setup_s'] for r in good):.6g} s,"
                 f" cli_s = {raw_cli:.6g} s, estimates_per_s = {raw_est:.6g} 1/s")
    # The same figures under the names the workload's users read them by.
    if workload == "plan-replay":
        design_s = statistics.median(c[0] for c in calls)
        lines.append(f"design_s = {design_s:.6g} s")
        lines.append(f"replay_exps_per_s = {metrics['estimates_per_s'][0]:.6g} 1/s")
    else:
        lines.append(f"trials_per_s = {metrics['estimates_per_s'][0]:.6g} 1/s")
    lines += [f"digest {name} = {digest}" for name, digest in sorted((reference or {}).items())]
    return metrics, lines


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if (index / "level").read_text().strip() == str(level) and kind != "Instruction":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (child.SRC / "mfirange" / "__init__.py").is_file():
        print(f"error: no mfirange package under {child.SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.pop(child.WORKERS_ENV, None)
    sys.path.insert(0, str(child.SRC))

    checks = ck.Checks()
    work = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            import tracing

            result = tracing.traced_run(args.workload, args.seed, args.seconds, work, checks)
            metrics = result["metrics"]
            lines = [f"passes = {result['passes']} (replica untraced + traced, then probes)"]
            lines += [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
            lines += [
                f"compare: {name} = {metrics[name][0]:.4g} {metrics[name][1]} vs re-anchor {ref}"
                for name, ref in REANCHOR.items()
            ]
            lines += [f"digest {name} = {d}" for name, d in sorted(result["digests"].items())]
        else:
            metrics, lines = measured_run(args.workload, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print("machine: " + json.dumps(machine_record()))
    for line in lines:
        print(line)
    rate = checks.failed / checks.attempted
    print(f"error_rate = {rate!r} ({checks.failed} failed / {checks.attempted} checks)")
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
