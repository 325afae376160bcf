"""Golden digests: campaign outputs stay byte-identical across changes.

The digests below were computed on the per-trial synthesis loop that the
batch synthesis path replaced.  A change that alters the noise stream or
the campaign arithmetic on purpose updates them and says so in its change
notes; any other change must leave them as they are.
"""

import hashlib

import numpy as np
import pytest

from mfirange import C_PAPER, NoiseModel, design_rips, synth_trial_matrix
from mfirange.cli import main, write_plan_file

SIMULATE_SHA256 = {
    "mse.csv": "22d5fb36b008eded483e755f77dfb1579088690d1e90912ca7081e3ab2d3f34f",
    "pf.csv": "5d6c1a367f1c8c59f607c1e90e9dff8d10b6ae7cb6c8495ec7955f3e7133b9df",
}

MATRIX_SHA256 = {
    "phase-gaussian": "5048dd327b35fabfdf1b96fd94e72d498bec9aa743ccd4cafa21a65809106a97",
    "phase-gaussian-bias": "3d983018bb4ebc06860790300dd03132abe858402325764706cdbb95ab8ac302",
    "complex-awgn-bias": "c3a1c5801e2d8917bd082c8c09dd41538807c387d944b3737f299c7b5d891b32",
    "none-bias": "4d1fb178dd44a5202af1abb64ea7fd18cbdc0cfbe530ff39ecae3edb0d83c1a6",
}

PLAN21 = design_rips(400e6, 20e6, 21, c=C_PAPER)
BIAS = tuple(0.01 * k for k in range(21))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulate_csv_digests(tmp_path):
    # 2 plans x 2 SNRs x 50 trials over a narrow 601-cell window, refined.
    write_plan_file(tmp_path / "rips.plan", PLAN21)
    write_plan_file(tmp_path / "rips11.plan", design_rips(400e6, 20e6, 11, c=C_PAPER))
    fields = {
        "kind": "pf",
        "plan.rips": "rips.plan",
        "plan.rips11": "rips11.plan",
        "q0_m": "0.1237",
        "snr_db": "10,20",
        "trials": "50",
        "seed": "2024",
        "search_lo_m": "-3.0",
        "search_hi_m": "3.0",
        "step_m": "0.01",
        "refine": "true",
    }
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in SIMULATE_SHA256}
    assert got == SIMULATE_SHA256


@pytest.mark.parametrize(
    "name, noise",
    [
        ("phase-gaussian", NoiseModel.phase_gaussian(snr_db=10.0)),
        ("phase-gaussian-bias", NoiseModel.phase_gaussian(snr_db=10.0, bias=BIAS)),
        ("complex-awgn-bias", NoiseModel.complex_awgn(snr_db=5.0, bias=BIAS)),
        ("none-bias", NoiseModel(kind="none", bias=BIAS)),
    ],
)
def test_synth_trial_matrix_digest(name, noise):
    m = synth_trial_matrix(PLAN21, 0.1237, noise, 2024, "golden", 1, 64)
    assert sha256(np.ascontiguousarray(m, dtype="<f8").tobytes()) == MATRIX_SHA256[name]
