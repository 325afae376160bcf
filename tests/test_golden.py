"""Golden digests: campaign, design and replay outputs stay byte-identical
across changes.

The campaign digests below were computed on the per-trial synthesis loop
that the batch synthesis path replaced, the design and replay digests on
the row-at-a-time record parser and fixed-size sidelobe chunks, the
analyze digests on the full (unpruned) sidelobe scan, the ambiguity
and PUMR digests on the round-scheduled branch and bound, and the
full-block synthesis digest on the re-keying loop that hashed the whole
key per trial and assigned the state dict that Philox returns.  The
refined outputs (the campaign's ``mse.csv`` and the refined replay) were
computed with the refine on the scan's cost kernel.  A
change that alters the noise stream or the arithmetic on purpose updates
them and says so in its change notes; any other change must leave them as
they are.
"""

import hashlib

import numpy as np
import pytest

from mfirange import (
    C_PAPER,
    DesignParams,
    NoiseModel,
    design_prime_max_error,
    design_prime_min_error,
    design_rips,
    synth_phases,
    synth_trial_matrix,
    write_record,
)
from mfirange.cli import main, read_plan_file, write_plan_file
from mfirange.records import Experiment

SIMULATE_SHA256 = {
    "mse.csv": "ea2562aac1db0dc6094babe398aa39d90253ef70c2348beb66115866b808e423",
    "pf.csv": "5d6c1a367f1c8c59f607c1e90e9dff8d10b6ae7cb6c8495ec7955f3e7133b9df",
}

MATRIX_SHA256 = {
    "phase-gaussian": "5048dd327b35fabfdf1b96fd94e72d498bec9aa743ccd4cafa21a65809106a97",
    "phase-gaussian-bias": "3d983018bb4ebc06860790300dd03132abe858402325764706cdbb95ab8ac302",
    "complex-awgn-bias": "c3a1c5801e2d8917bd082c8c09dd41538807c387d944b3737f299c7b5d891b32",
    "none-bias": "4d1fb178dd44a5202af1abb64ea7fd18cbdc0cfbe530ff39ecae3edb0d83c1a6",
}

FULL_BLOCK_SHA256 = "ad9020f0760e54769cbe6f7d75417d039d92b3964d34940df673deac22f022ba"

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


def test_synth_trial_matrix_digest_full_block():
    # One campaign-fine block (uniform plan, 4000 trials, 30 dB at SNR
    # index 2), so a re-keying slip late in a block moves the digest.
    noise = NoiseModel.phase_gaussian(snr_db=30.0)
    m = synth_trial_matrix(PLAN21, 0.1237, noise, 2024, "uniform", 2, 4000)
    assert m.shape == (4000, 21)
    assert sha256(np.ascontiguousarray(m, dtype="<f8").tobytes()) == FULL_BLOCK_SHA256


# The replay path: the plan-replay design (prime min-error, N=31, whose
# sidelobe scan spans several chunks) and a small seeded record replayed
# with and without refine.
DESIGN_SHA256 = {
    "replay.plan": "38a77515e75bd779d021ccc70356d9ff03530b7f36c7fbe0be2650788378a767",
    "replay_report.csv": "d3aa43c625587a635a157785216d55f4168cc643b51baebd9ab5eab0a460bab1",
}

REPLAY_SHA256 = {
    False: {
        "golden_estimates.csv": "490529e9431aa4607d98927e7acadfdb3f400b3a5bf3a01cd4c6cca7eed89992",
        "golden_summary.csv": "1a59ab9141bea25439a13008d5e25fd89996625d973a414844f98809ab1f7e34",
        "golden_histogram.csv": "f0ee6732fd795207cb307af105ff3d5a278c7c17943e035495c389ab0539f710",
    },
    True: {
        "golden_estimates.csv": "3cdd7c39879eeaebbc4b5cb8a687d6187f8cc92af7be96cb01fdaa5f0e757986",
        "golden_summary.csv": "018e2f05ec2a6397e1e266ccd39bf4b7bd17db001eb596e69a7c2cc22b27b6c6",
        "golden_histogram.csv": "bb0c2f0138d734dad7d53cc48a23e5a729c6ddb45218fab2366a77aa6e6f9347",
    },
}

DESIGN_ARGV = [
    "design", "--method", "prime-min-error", "--c-mode", "paper-repro", "--label", "replay",
    "--f1", "410000000.0", "--B", "40378000.0", "--N", "31", "--res", "65.0", "--i", "12",
]


@pytest.fixture(scope="module")
def designed(tmp_path_factory):
    out = tmp_path_factory.mktemp("design")
    assert main(DESIGN_ARGV + ["--out", str(out)]) == 0
    return out


def test_design_digests(designed):
    got = {name: sha256((designed / name).read_bytes()) for name in DESIGN_SHA256}
    assert got == DESIGN_SHA256


@pytest.mark.parametrize("refine", [False, True])
def test_replay_digests(designed, tmp_path, refine):
    plan = read_plan_file(designed / "replay.plan")
    rng = np.random.default_rng(2024)
    noise = NoiseModel.phase_gaussian(snr_db=14.0)
    exps = []
    for e in range(60):
        q0 = float(rng.uniform(-2.0, 2.0))
        phases = synth_phases(plan, q0, noise, rng).as_array()
        exps.append(Experiment(f"e{e:03d}", phases, q0))
    record = tmp_path / "golden.csv"
    write_record(record, plan, exps)
    argv = ["replay", "--record", str(record), "--out", str(tmp_path / "out")]
    argv += ["--lo", "-3.0", "--hi", "3.0", "--step", "0.01"] + (["--refine"] if refine else [])
    assert main(argv) == 0
    expected = REPLAY_SHA256[refine]
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in expected}
    assert got == expected


# The analyze report of the three N=21 campaign plans at 10 dB: the
# sidelobe peak sits at 3.6 km for min-error and at the scan start for
# max-error and uniform.
ANALYZE_SHA256 = {
    "min_error": "d2678722f195c57652124f82b1addbe5417ca0d71130e428068cfa0a551fa2ff",
    "uniform": "b47eb321d506e704700668a91601335ff61013cc52630172e559091bb4bb5a03",
    "max_error": "8e8f963c2b7a352f4fff1b9a164bf2385b24668a2416b43662fb0cf7f9fd6eff",
}

CAMPAIGN_PARAMS = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
CAMPAIGN_PLANS = {
    "min_error": design_prime_min_error(CAMPAIGN_PARAMS, 400e6, c=C_PAPER),
    "uniform": PLAN21,
    "max_error": design_prime_max_error(CAMPAIGN_PARAMS, 400e6, c=C_PAPER),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_digests(tmp_path, name):
    write_plan_file(tmp_path / f"{name}.plan", CAMPAIGN_PLANS[name])
    argv = ["analyze", "--plan", str(tmp_path / f"{name}.plan"), "--snr", "10"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    got = sha256((tmp_path / "out" / f"{name}_report.csv").read_bytes())
    assert got == ANALYZE_SHA256[name]


# The ambiguity and PUMR campaigns: an off-grid N=11 plan (practical UMR
# 149.9 m) and its on-grid twin (UMR 150 m), 40 trials each over a +-160 m
# window that holds both dips; about half of either plan's 0 dB estimates
# land on a far cluster.  The 10 dB pumr rates happen to be the same from
# SNR-index stream 0 as from stream 1, so this digest does not pin which
# stream an SNR draws from; test_cli's per-block spy test does.
SWEEP_SHA256 = {
    "ambiguity": {
        "ambiguity_errors.csv": "9038374ac08b0b4c04873d8e6f676437b95b2e922b7842fe46e136d413b29386",
        "ambiguity_hist.csv": "458a6292de49ca7299fd8efcf75de7d907bb0448f25d5bded65bab2d3c3ad7a9",
    },
    "pumr": {
        "pumr.csv": "58bbdcd97af04c79966bb7d533f25924c20ef4a35c0c48c4c1e074e11d20da1e",
    },
}


@pytest.mark.parametrize("kind, snr_db", [("ambiguity", "0"), ("pumr", "0,10")])
def test_sweep_digests(tmp_path, kind, snr_db):
    write_plan_file(tmp_path / "off.plan", design_rips(400.3e6, 20e6, 11, c=C_PAPER))
    write_plan_file(tmp_path / "rips11.plan", design_rips(400e6, 20e6, 11, c=C_PAPER))
    fields = {
        "kind": kind,
        "plan.off": "off.plan",
        "plan.rips11": "rips11.plan",
        "q0_m": "0.1237",
        "trials": "40",
        "seed": "2024",
        "search_lo_m": "-160.0",
        "search_hi_m": "160.0",
        "step_m": "0.01",
        "snr_db": snr_db,
    }
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    expected = SWEEP_SHA256[kind]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(expected)
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in expected}
    assert got == expected
