"""One measured sample in a fresh process, and the launcher that starts it.

``spawn`` writes a spec (workload, CLI argv lists, result path) and runs
``python3 child.py SPEC.json`` to completion.  The child times ``import
mfirange`` plus building the workload's plans (the set-up every CLI
invocation pays), then each ``mfirange.cli.main`` call, then passes of the
machine-speed reference kernel (``speed.py``), and writes the timings, exit
codes and its peak resident memory as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS_ENV = "MFIRANGE_WORKERS"
TIMEOUT_S = 150


def spawn(workload: str, commands: list[list[str]], directory: Path, workers=None) -> dict:
    """Run one child to completion; its result record, or ``{"stderr": ...}``.

    ``MFIRANGE_WORKERS`` is removed from the child's environment unless
    ``workers`` sets it, and the package is imported from the checkout.
    """
    directory.mkdir(parents=True, exist_ok=True)
    spec = directory / "spec.json"
    result = directory / "result.json"
    spec.write_text(
        json.dumps({"workload": workload, "commands": commands, "result": str(result)}),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    if workers is not None:
        env[WORKERS_ENV] = str(workers)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"stderr": f"child timed out after {TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"stderr": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result.read_text(encoding="utf-8"))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import mfirange
    import mfirange.cli

    plans = workloads.build_plans(spec["workload"])
    setup_s = time.perf_counter() - t0

    calls = []
    for argv in spec["commands"]:
        t = time.perf_counter()
        try:
            rc = mfirange.cli.main(argv)
        except Exception as exc:  # reported as a failed call, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        calls.append({"argv": argv, "rc": rc, "s": time.perf_counter() - t})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import speed  # after the measured part, so it moves neither set-up nor memory

    result = {
        "setup_s": setup_s,
        "calls": calls,
        "reference_s": speed.sample(spec["workload"], [c[0] for c in spec["commands"]]),
        "peak_rss_mb": peak_rss_mb,
        "package": mfirange.__file__,
        "workers_env": os.environ.get(WORKERS_ENV),
        "plans": {label: repr(plan) for label, plan in plans.items()},
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
