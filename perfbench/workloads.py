"""The benchmark's three workloads: fixed plans, seeded inputs and CLI commands.

Every workload is a closed-loop batch job: one process, one compute
thread, each CLI command starting only after the previous one ended.  The
workload seed reaches the package only through the files written here (the
campaign config's ``seed`` and the replay record's phases).  Nothing in
this module imports ``mfirange`` at import time, so a measured child can
import it first and time the package import on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("campaign-pf", "campaign-fine", "plan-replay")

# Campaign plans: f1 = 400 MHz, B = 20 MHz, N = 21, resolution 65 Hz, with
# the rounded propagation speed (c_mode = paper-repro).  The uniform plan
# keeps its natural grid unit B/(N-1), because 1 MHz is not a multiple of
# 65 Hz.
C_MODE = "paper-repro"
F1_HZ = 400e6
B_HZ = 20e6
N_FREQ = 21
RES_HZ = 65.0
Q0_M = 0.1237  # off the 0.01 m grid, so refine has something to do

# The 0.01 m step is below the plan-derived grid bound of every campaign
# plan (0.017-0.027 m), so the workloads stay valid once the estimator
# refuses coarse steps.  At 0.05 m an on-grid q0 makes Pf a grid artefact.
STEP_M = 0.01


@dataclass(frozen=True)
class Campaign:
    kind: str  # "pf" writes mse.csv and pf.csv, "mse" writes mse.csv
    labels: tuple[str, ...]
    snr_db: tuple[float, ...]
    trials: int  # per (plan, SNR)
    lo_m: float
    hi_m: float
    refine: bool


CAMPAIGNS = {
    # Full 30001-point scan, refine off: the scan kernel is ~99% of the time.
    "campaign-pf": Campaign(
        kind="pf",
        labels=("min_error", "uniform", "max_error"),
        snr_db=(10.0, 12.0, 13.0),
        trials=50,
        lo_m=-150.0,
        hi_m=150.0,
        refine=False,
    ),
    # 601-point scan, refine on: synthesis and scan split the time.
    "campaign-fine": Campaign(
        kind="mse",
        labels=("uniform",),
        snr_db=(20.0, 26.0, 30.0),
        trials=4000,
        lo_m=-3.0,
        hi_m=3.0,
        refine=True,
    ),
}


@dataclass(frozen=True)
class Replay:
    f1_hz: float = 410e6
    b_hz: float = 40.378e6
    n: int = 31
    res_hz: float = 65.0
    prime_index: int = 12
    experiments: int = 1500
    snr_db: float = 14.0
    q0_lo_m: float = -2.0
    q0_hi_m: float = 2.0
    lo_m: float = -3.0
    hi_m: float = 3.0
    refine: bool = True


REPLAY = Replay()
REPLAY_LABEL = "replay"
RECORD_NAME = "replay_record.csv"


def grid_points(lo_m: float, hi_m: float, step_m: float = STEP_M) -> int:
    """Grid points of a search window, counted without the package."""
    return int(round((hi_m - lo_m) / step_m)) + 1


def build_plans(workload: str) -> dict:
    """The workload's frequency plans, built with the package's designers."""
    from mfirange.core import C_PAPER
    from mfirange.design import (
        DesignParams,
        design_prime_max_error,
        design_prime_min_error,
        design_rips,
    )

    if workload == "plan-replay":
        r = REPLAY
        params = DesignParams(
            bandwidth=r.b_hz, n=r.n, resolution=r.res_hz, prime_index=r.prime_index
        )
        return {REPLAY_LABEL: design_prime_min_error(params, r.f1_hz, c=C_PAPER)}
    params = DesignParams(bandwidth=B_HZ, n=N_FREQ, resolution=RES_HZ)
    makers = {
        "min_error": lambda: design_prime_min_error(params, F1_HZ, c=C_PAPER),
        "uniform": lambda: design_rips(F1_HZ, B_HZ, N_FREQ, c=C_PAPER),
        "max_error": lambda: design_prime_max_error(params, F1_HZ, c=C_PAPER),
    }
    return {label: makers[label]() for label in CAMPAIGNS[workload].labels}


def _config_text(camp: Campaign, seed: int) -> str:
    lines = [f"kind = {camp.kind}"]
    lines += [f"plan.{label} = {label}.plan" for label in camp.labels]
    lines += [
        f"q0_m = {Q0_M!r}",
        "snr_db = " + ",".join(repr(s) for s in camp.snr_db),
        f"trials = {camp.trials}",
        f"seed = {seed}",
        f"search_lo_m = {camp.lo_m!r}",
        f"search_hi_m = {camp.hi_m!r}",
        f"step_m = {STEP_M!r}",
        f"refine = {'true' if camp.refine else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def make_experiments(plan, seed: int) -> list:
    """Seeded replay experiments: q0 uniform in [-2, 2] m, phases at 14 dB."""
    import numpy as np
    from mfirange.core import NoiseModel, synth_phases
    from mfirange.records import Experiment

    rng = np.random.default_rng(seed)
    noise = NoiseModel.phase_gaussian(snr_db=REPLAY.snr_db)
    out = []
    for e in range(REPLAY.experiments):
        q0 = float(rng.uniform(REPLAY.q0_lo_m, REPLAY.q0_hi_m))
        phases = synth_phases(plan, q0, noise, rng).as_array()
        out.append(Experiment(experiment_id=f"e{e:05d}", phases=phases, q0=q0))
    return out


def write_inputs(workload: str, seed: int, directory: Path) -> Path:
    """Write the workload's plan, config and record files; return the
    file the workload's main command reads."""
    from mfirange import cli, records

    directory.mkdir(parents=True, exist_ok=True)
    plans = build_plans(workload)
    if workload == "plan-replay":
        path = directory / RECORD_NAME
        records.write_record(path, plans[REPLAY_LABEL], make_experiments(plans[REPLAY_LABEL], seed))
        return path
    for label, plan in plans.items():
        cli.write_plan_file(directory / f"{label}.plan", plan)
    path = directory / "campaign.cfg"
    path.write_text(_config_text(CAMPAIGNS[workload], seed), encoding="utf-8")
    return path


def cli_commands(workload: str, input_path: Path, out_dir: Path) -> list[list[str]]:
    """argv lists for ``mfirange.cli.main``, in the order they run."""
    if workload != "plan-replay":
        return [["simulate", "--config", str(input_path), "--out", str(out_dir)]]
    r = REPLAY
    design = ["design", "--method", "prime-min-error", "--c-mode", C_MODE, "--label", REPLAY_LABEL]
    design += ["--f1", repr(r.f1_hz), "--B", repr(r.b_hz), "--N", str(r.n), "--res", repr(r.res_hz)]
    design += ["--i", str(r.prime_index), "--out", str(out_dir)]
    replay = ["replay", "--record", str(input_path), "--out", str(out_dir)]
    replay += ["--lo", repr(r.lo_m), "--hi", repr(r.hi_m), "--step", repr(STEP_M)]
    if r.refine:
        replay.append("--refine")
    return [design, replay]


def expected_outputs(workload: str) -> tuple[str, ...]:
    if workload == "plan-replay":
        stem = Path(RECORD_NAME).stem
        return (
            f"{REPLAY_LABEL}.plan",
            f"{REPLAY_LABEL}_report.csv",
            f"{stem}_estimates.csv",
            f"{stem}_summary.csv",
            f"{stem}_histogram.csv",
        )
    return ("mse.csv", "pf.csv") if CAMPAIGNS[workload].kind == "pf" else ("mse.csv",)


def estimates(workload: str) -> int:
    """LS estimates made by the workload's estimating command."""
    if workload == "plan-replay":
        return REPLAY.experiments
    camp = CAMPAIGNS[workload]
    return len(camp.labels) * len(camp.snr_db) * camp.trials


def scan_cells(workload: str) -> int:
    """Computed scan work of the workload: trials x grid points x N."""
    if workload == "plan-replay":
        return REPLAY.experiments * grid_points(REPLAY.lo_m, REPLAY.hi_m) * REPLAY.n
    camp = CAMPAIGNS[workload]
    return estimates(workload) * grid_points(camp.lo_m, camp.hi_m) * N_FREQ
