"""Tests of the benchmark's own checker and counts: ``python3 -m pytest perfbench``.

They plant the failures the checker must catch (a wrong estimate, a
nonzero CLI exit, a digest mismatch) and confirm the computed scan-cell
counts against the package's own grid.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from mfirange.core import NoiseModel  # noqa: E402
from mfirange.estimator import EstimatorConfig, ls_estimate_batch  # noqa: E402
from mfirange.montecarlo import synth_trial_matrix  # noqa: E402


@pytest.fixture(scope="module")
def fine_block():
    """A few campaign-fine trials at 30 dB with the estimator's answers."""
    camp = wl.CAMPAIGNS["campaign-fine"]
    plan = wl.build_plans("campaign-fine")["uniform"]
    noise = NoiseModel.phase_gaussian(snr_db=30.0)
    phases = synth_trial_matrix(plan, wl.Q0_M, noise, 7, "uniform", 2, 6)
    cfg = EstimatorConfig(camp.lo_m, camp.hi_m, wl.STEP_M, refine=camp.refine)
    q_hat, _, index = ls_estimate_batch(phases, plan, cfg, workers=1)
    grid = ck.reference_grid(camp.lo_m, camp.hi_m, wl.STEP_M)
    return plan, grid, ck.reference_costs(phases, plan.frequencies, plan.c, grid), q_hat, index


def test_estimator_answers_pass_the_reference(fine_block):
    plan, grid, costs, q_hat, index = fine_block
    assert all(ck.is_argmin(row, int(i)) for row, i in zip(costs, index))
    refined = [ck.reference_refined(row, grid, wl.STEP_M) for row in costs]
    assert np.allclose(q_hat, refined, rtol=0.0, atol=ck.REFINE_ATOL_M)


def test_estimate_one_carrier_cycle_off_is_flagged(fine_block):
    plan, grid, costs, _, index = fine_block
    cycle = int(round(plan.lambda_min / wl.STEP_M))
    checks = ck.Checks()
    for row, i in zip(costs, index):
        checks.check("argmin", ck.is_argmin(row, int(i) + cycle))
    assert checks.attempted == len(index) and checks.failed == len(index)


def test_nonzero_cli_exit_is_flagged():
    checks = ck.Checks()
    calls = [{"argv": ["design"], "rc": 0, "s": 1.0}, {"argv": ["replay"], "rc": 2, "s": 1.0}]
    ck.check_calls(checks, calls, "child 0")
    assert checks.attempted == 2 and checks.failures == ["exit child 0 replay: exit 2"]


def test_digest_mismatch_is_flagged(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "mse.csv").write_text("label,value\nx,1.0\n")
    (b / "pf.csv").write_text("label,value\nx,0.5\n")
    checks = ck.Checks()
    ck.compare_digests(checks, ck.digests(a), ck.digests(a), "same")
    assert checks.failed == 0
    (b / "mse.csv").write_text("label,value\nx,1.0000000000000002\n")
    ck.compare_digests(checks, ck.digests(a), ck.digests(b), "other")
    flagged = sorted(f.split(":")[0] for f in checks.failures)
    assert flagged == ["digest other mse.csv", "digest other pf.csv"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_scan_cells_equal_trials_times_grid_times_n(workload):
    plans = wl.build_plans(workload)
    if workload == "plan-replay":
        r = wl.REPLAY
        grid = EstimatorConfig(r.lo_m, r.hi_m, wl.STEP_M).grid().size
        expected = r.experiments * grid * plans[wl.REPLAY_LABEL].n
    else:
        camp = wl.CAMPAIGNS[workload]
        grid = EstimatorConfig(camp.lo_m, camp.hi_m, wl.STEP_M).grid().size
        expected = sum(camp.trials * grid * plan.n for plan in plans.values()) * len(camp.snr_db)
    assert wl.scan_cells(workload) == expected


def test_step_is_below_the_estimator_warning_threshold():
    """0.01 m stays under lambda_min/4 for every plan the workloads use."""
    for workload in wl.WORKLOADS:
        for plan in wl.build_plans(workload).values():
            assert wl.STEP_M < plan.lambda_min / 4.0


def test_reference_wrap_matches_the_interval_convention():
    x = np.array([-3 * math.pi, -math.pi, 0.0, math.pi, 7.0])
    w = ck.wrap(x)
    assert np.all(w >= -math.pi) and np.all(w < math.pi)
    assert np.allclose(np.cos(w), np.cos(x)) and np.allclose(np.sin(w), np.sin(x))


def test_rescaling_cancels_a_uniform_slowdown():
    """A child on a machine three times slower, kernels included, reads the same."""
    fast = {"python": [0.031, 0.035, 0.033], "sidelobe": [0.05, 0.047, 0.052, 0.049]}
    slow = {name: [3.0 * t for t in ts] for name, ts in fast.items()}
    fast_f, slow_f = speed.factors(fast), speed.factors(slow)
    for name in fast:
        assert math.isclose(2.0 * fast_f[name], 6.0 * slow_f[name])
    assert speed.factors({"python": [speed.REF_S["python"]]}) == {"python": 1.0}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_command_has_a_kernel(workload):
    commands = [argv[0] for argv in wl.cli_commands(workload, Path("in"), Path("out"))]
    names = {speed.command_kernel(workload, c) for c in commands} | {"python"}
    assert names <= set(speed.REF_S)
    for name in names:
        speed.kernel(name)()
