"""Correctness checks behind the benchmark's ``attempted``/``failed`` counts.

The LS cost reference here is written from the formula,
``sum_i wrap(phi_i - 2*pi*q*f_i/c)^2``, with plain numpy.  It shares no code
with the package's scan kernel or ``ls_cost``, so a kernel change cannot
move the reference along with it.  Each check counts as one attempted
operation; a failed check is a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import workloads as wl

# A returned grid index passes when its reference cost is within this
# relative tolerance (floored at 1.0 in absolute cost) of the reference
# minimum, so exact ties and last-digit rounding both count as an argmin.
TIE_RTOL = 1e-9
# Refined ranges come from the same three costs on both sides; the
# tolerance only absorbs rounding in those costs.
REFINE_ATOL_M = 1e-9
# 30 dB sits far above the threshold, so the MSE should reach the CRB.
MSE_OVER_CRB_MAX = 1.5
ARGMIN_SAMPLES = 8  # seeded trials per campaign (plan, SNR) block
REPLAY_SAMPLES = 64  # seeded experiments of the replay record


class Checks:
    """Counts attempted and failed checks and keeps the failures' names."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def wrap(x):
    """Reference wrap to [-pi, pi); squared, the boundary side is irrelevant."""
    return np.mod(np.asarray(x) + math.pi, 2.0 * math.pi) - math.pi


def reference_grid(lo_m: float, hi_m: float, step_m: float) -> np.ndarray:
    return lo_m + step_m * np.arange(wl.grid_points(lo_m, hi_m, step_m))


def reference_costs(phases, freqs: np.ndarray, c: float, grid: np.ndarray) -> np.ndarray:
    """(trials x grid) LS cost, one trial at a time to bound memory."""
    model = (2.0 * math.pi / c) * np.outer(grid, freqs)
    out = np.empty((len(phases), grid.size))
    for t, row in enumerate(np.asarray(phases, dtype=float)):
        d = wrap(row[None, :] - model)
        out[t] = (d * d).sum(axis=1)
    return out


def is_argmin(costs: np.ndarray, index: int) -> bool:
    best = float(costs.min())
    return 0 <= index < costs.size and float(costs[index]) <= best + TIE_RTOL * max(best, 1.0)


def reference_refined(costs: np.ndarray, grid: np.ndarray, step_m: float) -> float:
    """Grid argmin plus the three-point parabolic refine of an interior minimum."""
    i = int(np.argmin(costs))
    if not 0 < i < grid.size - 1:
        return float(grid[i])
    c0, c1, c2 = costs[i - 1], costs[i], costs[i + 1]
    denom = c0 - 2.0 * c1 + c2
    delta = 0.5 * (c0 - c2) / denom * step_m if denom > 0 else 0.0
    return float(grid[i] + min(max(delta, -step_m / 2.0), step_m / 2.0))


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file a command wrote, by file name (none if it wrote none)."""
    directory = Path(directory)
    if not directory.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def compare_digests(checks: Checks, reference: dict, other: dict, who: str) -> None:
    for name in sorted(set(reference) | set(other)):
        want, got = reference.get(name), other.get(name)
        checks.check(f"digest {who} {name}", want is not None and want == got, f"{want} != {got}")


def check_calls(checks: Checks, calls: list[dict], who: str) -> None:
    """Every CLI call must return exit code 0."""
    for call in calls:
        checks.check(f"exit {who} {call['argv'][0]}", call["rc"] == 0, f"exit {call['rc']!r}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(rows: list[dict], columns) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in columns)


def check_campaign_outputs(checks: Checks, workload: str, out_dir: Path, seed: int) -> None:
    camp = wl.CAMPAIGNS[workload]
    blocks = len(camp.labels) * len(camp.snr_db)
    numeric = ("snr_db", "value", "stderr", "mmse", "hmse", "crb")
    for name in wl.expected_outputs(workload):
        path = out_dir / name
        if not checks.check(f"exists {name}", path.is_file()):
            continue
        rows = _read_csv(path)
        per_block = 1 if name == "pf.csv" else 2  # mse plus mse_excl_outlier
        checks.check(f"rows {name}", len(rows) == per_block * blocks, f"{len(rows)} rows")
        checks.check(f"finite {name}", _finite(rows, numeric))
        checks.check(f"seed {name}", all(int(r["seed"]) == seed for r in rows))
        if name == "pf.csv":
            checks.check("pf in [0, 1]", all(0.0 <= float(r["value"]) <= 1.0 for r in rows))
    if workload == "campaign-fine" and (out_dir / "mse.csv").is_file():
        top = [
            r
            for r in _read_csv(out_dir / "mse.csv")
            if r["metric"] == "mse" and float(r["snr_db"]) == 30.0
        ]
        ratio = float(top[0]["value"]) / float(top[0]["crb"]) if top else math.inf
        checks.check("mse <= 1.5 crb at 30 dB", ratio <= MSE_OVER_CRB_MAX, f"mse/crb = {ratio}")


def check_campaign_argmin(checks: Checks, workload: str, seed: int) -> None:
    """Regenerate a seeded sample of each (plan, SNR) block's trials and
    check the estimator's grid index against the reference argmin."""
    from mfirange.core import NoiseModel
    from mfirange.estimator import EstimatorConfig, ls_estimate_batch
    from mfirange.montecarlo import synth_trial_matrix

    camp = wl.CAMPAIGNS[workload]
    cfg = EstimatorConfig(camp.lo_m, camp.hi_m, wl.STEP_M, refine=camp.refine)
    grid = reference_grid(camp.lo_m, camp.hi_m, wl.STEP_M)
    rng = np.random.default_rng([seed, 1])
    for label, plan in wl.build_plans(workload).items():
        for si, snr in enumerate(camp.snr_db):
            noise = NoiseModel.phase_gaussian(snr_db=snr)
            phases = synth_trial_matrix(plan, wl.Q0_M, noise, seed, label, si, camp.trials)
            size = min(ARGMIN_SAMPLES, camp.trials)
            rows = np.sort(rng.choice(camp.trials, size=size, replace=False))
            _, _, index = ls_estimate_batch(phases[rows], plan, cfg, workers=1)
            costs = reference_costs(phases[rows], plan.frequencies, plan.c, grid)
            for r, cost_row, i in zip(rows, costs, index):
                ok = is_argmin(cost_row, int(i))
                checks.check(f"argmin {label} {snr} dB trial {r}", ok, f"index {i}")


def check_replay_outputs(checks: Checks, out_dir: Path, record_path: Path, seed: int) -> None:
    from mfirange.cli import read_plan_file
    from mfirange.records import read_record

    r = wl.REPLAY
    names = wl.expected_outputs("plan-replay")
    present = {n: checks.check(f"exists {n}", (out_dir / n).is_file()) for n in names}
    plan = wl.build_plans("plan-replay")[wl.REPLAY_LABEL]
    plan_file, report, estimates, summary, histogram = names
    if present[plan_file]:
        checks.check("design plan", read_plan_file(out_dir / plan_file) == plan)
    if present[report]:
        rows = _read_csv(out_dir / report)
        # Everything but the coprime flag and the primes list is a number.
        numbers = [x["value"] for x in rows if x["metric"] not in ("coprime", "primes")]
        checks.check("design report rows", len(rows) == 16, f"{len(rows)} rows")
        checks.check("design report finite", all(math.isfinite(float(v)) for v in numbers))
    record = read_record(record_path)
    if present[estimates]:
        rows = _read_csv(out_dir / estimates)
        checks.check("replay rows", len(rows) == r.experiments, f"{len(rows)} rows")
        checks.check(
            "replay ids and q0",
            [(x["experiment_id"], float(x["q0_m"])) for x in rows]
            == [(e.experiment_id, e.q0) for e in record.experiments],
        )
        checks.check("replay finite", _finite(rows, ("q_hat_m", "error_m", "cost_at_min")))
        checks.check("replay unwrap_ok", all(x["unwrap_ok"] in ("0", "1") for x in rows))
        grid = reference_grid(r.lo_m, r.hi_m, wl.STEP_M)
        rng = np.random.default_rng([seed, 2])
        size = min(REPLAY_SAMPLES, len(rows))
        pick = np.sort(rng.choice(len(rows), size=size, replace=False))
        phases = [record.experiments[i].phases for i in pick]
        costs = reference_costs(phases, plan.frequencies, plan.c, grid)
        for i, cost_row in zip(pick, costs):
            want = reference_refined(cost_row, grid, wl.STEP_M)
            got = float(rows[i]["q_hat_m"])
            ok = abs(got - want) <= REFINE_ATOL_M
            checks.check(f"q_hat {rows[i]['experiment_id']}", ok, f"{got} vs {want}")
    if present[summary]:
        values = {x["metric"]: float(x["value"]) for x in _read_csv(out_dir / summary)}
        mse_ok = math.isfinite(values.get("mse_m2", math.nan))
        checks.check("replay summary", values.get("experiments") == r.experiments and mse_ok)
    if present[histogram]:
        counts = [int(x["count"]) for x in _read_csv(out_dir / histogram)]
        checks.check("replay histogram", len(counts) == 20 and sum(counts) == r.experiments)


def check_outputs(checks: Checks, workload: str, out_dir: Path, input_path: Path, seed: int):
    """All output checks of one workload's CLI outputs."""
    if workload == "plan-replay":
        check_replay_outputs(checks, out_dir, input_path, seed)
    else:
        check_campaign_outputs(checks, workload, out_dir, seed)
        check_campaign_argmin(checks, workload, seed)
