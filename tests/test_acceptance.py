"""Acceptance gate: end-to-end checks of the package's headline claims.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (bypassing
pytest capture) so a full run doubles as a checklist.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from mfirange import (
    C_PAPER,
    CampaignSpec,
    DesignParams,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    confusion_bound,
    crb,
    design_prime_max_error,
    design_prime_min_error,
    design_rips,
    hmse,
    log_pdf_multi,
    log_pdf_multi_via_pairs,
    ls_estimate,
    permute_max_error,
    permute_min_error,
    practical_umr,
    prime_window_select,
    quadform,
    campaign_errors,
    confusion_bound_for_plan,
    sigma_theta_from_snr_db,
    synth_phases,
    synth_trial_matrix,
    ls_estimate_batch,
    umr,
    unwrap_ok,
)
from mfirange.montecarlo import far_cluster, pumr_confusion_rate, rows_from_errors
from mfirange.cli import main as cli_main

ACCEPT_SEED = 20260810


def report(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})", file=sys.__stdout__, flush=True)


def quadform_scaled_int(perm) -> int:
    """N * quadform for integer spacings, exact in integer arithmetic."""
    partial = 0
    sums = [0]
    for v in perm:
        partial += v
        sums.append(partial)
    n = len(sums)
    total = sum(sums)
    return n * sum(s * s for s in sums) - total * total


def sweep_multisets():
    for size in range(1, 8):
        yield from itertools.combinations_with_replacement(range(1, 7), size)


def random_multisets(count=200, size=8, hi=9, seed=99):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple(sorted(int(v) for v in rng.integers(1, hi + 1, size=size)))


def test_confusion_bound_reference_values():
    five = confusion_bound(10.0, 1.0, 40, 0.1, 5.0)
    ten = confusion_bound(10.0, 1.0, 40, 0.1, 10.0)
    ok = abs(five.value - 0.308) <= 0.002 and abs(ten.value - 0.187) <= 0.002
    report(
        "confusion-bound reference values", ok,
        f"5 dB -> {five.value:.4f} (target 0.308+-0.002), 10 dB -> {ten.value:.4f} (target 0.187+-0.002)",
    )
    assert ok


def test_unambiguous_range_reference_values():
    rips = design_rips(400e6, 40e6, 41, c=C_PAPER)
    prime = design_prime_min_error(
        DesignParams(bandwidth=40e6, n=41, resolution=65.0), 400e6, c=C_PAPER
    )
    field = design_prime_min_error(
        DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, prime_index=12), 410e6, c=C_PAPER
    )
    u_rips = umr(rips)
    p_prime = practical_umr(prime)
    p_field = practical_umr(field)
    ok = (
        abs(u_rips - 300.0) <= 0.001 * 300.0
        and abs(p_prime - 23193.0) <= 0.002 * 23193.0
        and abs(p_field - 23077.0) <= 0.001 * 23077.0
    )
    report(
        "unambiguous-range reference values", ok,
        f"uniform {u_rips:.3f} m, 199x65Hz practical {p_prime:.1f} m, field-style practical {p_field:.1f} m",
    )
    assert ok


def test_prime_window_reference_selection():
    w1 = prime_window_select(DesignParams(bandwidth=40e6, n=41, resolution=65.0), c=C_PAPER)
    w2 = prime_window_select(
        DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, prime_index=12), c=C_PAPER
    )
    exact = w2.common_factor * 65.0 * sum(w2.primes) == 40.378e6
    ok = (
        w1.common_factor == 199
        and (w1.primes[0], w1.primes[-1]) == (2, 173)
        and w2.common_factor == 200
        and (w2.primes[0], w2.primes[-1]) == (37, 179)
        and exact
    )
    report(
        "prime-window reference selection", ok,
        f"K1={w1.common_factor} primes {w1.primes[0]}..{w1.primes[-1]}; "
        f"K2={w2.common_factor} primes {w2.primes[0]}..{w2.primes[-1]}; exact-fit={exact}",
    )
    assert ok


def test_min_error_arrangement_attains_brute_force_max():
    checked = 0
    for ms in itertools.chain(sweep_multisets(), random_multisets()):
        best = max(quadform_scaled_int(p) for p in set(itertools.permutations(ms)))
        got = quadform_scaled_int(permute_min_error(list(ms)))
        assert got == best, f"multiset {ms}: arrangement {got} != brute-force max {best}"
        checked += 1
    report(
        "min-error arrangement optimality", True,
        f"{checked} multisets (exhaustive size<=7 of 1..6, plus 200 random size-8): exact max everywhere",
    )


def test_max_error_arrangement_attains_brute_force_min():
    # On a miss, the message names the first multiset whose arrangement
    # is above the brute-force minimum.
    failures = []
    checked = 0
    for ms in itertools.chain(sweep_multisets(), random_multisets()):
        worst = min(quadform_scaled_int(p) for p in set(itertools.permutations(ms)))
        got = quadform_scaled_int(permute_max_error(list(ms)))
        if got != worst:
            failures.append((ms, got, worst))
        checked += 1
    ok = not failures
    detail = (
        f"{checked} multisets: exact min everywhere"
        if ok
        else (
            f"{len(failures)}/{checked} multisets miss the exact minimum; first counterexample "
            f"{failures[0][0]} -> arrangement value {failures[0][1]} vs brute-force min {failures[0][2]}"
        )
    )
    report("max-error arrangement minimality", ok, detail)
    assert ok, detail


def test_closed_form_identities():
    # Uniform-spacing quadratic form.
    worst_rel = 0.0
    for n in range(3, 201):
        d = 1e6
        expected = d * d * n * (n * n - 1) / 12.0
        worst_rel = max(worst_rel, abs(quadform([d] * (n - 1)) - expected) / expected)
    assert worst_rel <= 1e-9

    # High-SNR MSE equals the Cramer-Rao bound at matched noise.
    rng = np.random.default_rng(4)
    worst_id = 0.0
    plans = []
    for _ in range(20):
        spacings = tuple(int(k) for k in rng.integers(1, 5000, size=rng.integers(1, 30)))
        plans.append(
            FrequencyPlan(f1=float(rng.uniform(50e6, 900e6)), resolution=65.0, spacings=spacings)
        )
    for plan in plans:
        sigma = float(rng.uniform(0.01, 1.0))
        a = hmse(plan, sigma)
        b = crb(plan, math.sqrt(2.0) * sigma)
        worst_id = max(worst_id, abs(a - b) / a)
    assert worst_id <= 1e-14

    # Pair-product route equals the plain product of single-frequency
    # likelihoods.
    worst_pdf = 0.0
    for plan in plans[:10]:
        for q in (0.0, 3.3, -271.5):
            a = log_pdf_multi(plan, q, 1.25, 0.3)
            b = log_pdf_multi_via_pairs(plan, q, 1.25, 0.3)
            worst_pdf = max(worst_pdf, abs(a - b) / abs(a))
    assert worst_pdf <= 1e-12
    report(
        "closed-form identities", True,
        f"uniform quadform rel err {worst_rel:.2e}; hmse/crb rel {worst_id:.2e}; "
        f"pair-product rel {worst_pdf:.2e}",
    )


def test_double_threshold_mse_curve():
    plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
    snrs = (0.0, 4.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 23.0, 26.0)
    spec = CampaignSpec.build(
        plans={"uniform": plan},
        q0=0.1237,
        snr_grid=snrs,
        trials=2000,
        seed=ACCEPT_SEED,
        estimator=EstimatorConfig(-150.0, 150.0, 0.01, refine=True),
    )
    rows = [r for r in rows_from_errors(spec, campaign_errors(spec), "mse") if r.metric == "mse"]
    ratios_m = [r.value / r.mmse for r in rows]
    ratios_c = [r.value / r.crb for r in rows]
    plateau = [i for i in range(len(rows)) if 0.5 <= ratios_m[i] <= 2.0 and ratios_c[i] > 4.0]
    floor = [i for i in range(len(rows)) if ratios_c[i] <= 1.5]
    ok_bands = bool(plateau) and bool(floor) and max(plateau) < min(floor)
    tracks = any(abs(ratios_m[i] - 1.0) <= 0.15 for i in plateau)
    seg = [rows[i].value for i in range(plateau[0], floor[0] + 1)] if ok_bands else []
    monotone = all(b <= a * 1.10 for a, b in zip(seg, seg[1:]))
    ok = ok_bands and tracks and monotone
    report(
        "double-threshold error curve", ok,
        f"plateau snrs {[rows[i].snr_db for i in plateau]}, floor snrs {[rows[i].snr_db for i in floor]}, "
        f"plateau-track={tracks}, monotone transition={monotone}",
    )
    assert ok


def test_unwrap_failure_ordering():
    params = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
    plans = {
        "min_error": design_prime_min_error(params, 400e6, c=C_PAPER),
        "uniform": design_rips(400e6, 20e6, 21, c=C_PAPER),
        "max_error": design_prime_max_error(params, 400e6, c=C_PAPER),
    }
    spec = CampaignSpec.build(
        plans=plans,
        q0=0.0,
        snr_grid=(10.0, 12.0, 13.0),
        trials=10_000,
        seed=ACCEPT_SEED,
        estimator=EstimatorConfig(-150.0, 150.0, 0.05),
    )
    rows = rows_from_errors(spec, campaign_errors(spec), "pf")
    by = {(r.label, r.snr_db): r for r in rows}

    def sep(lo, hi):
        gap = hi.value - lo.value
        sigma = math.sqrt(lo.stderr**2 + hi.stderr**2)
        return gap > 3.0 * sigma

    in_band, ordered = [], True
    for snr in spec.snr_grid:
        uni = by[("uniform", snr)]
        if 1e-3 <= uni.value <= 1e-1:
            in_band.append(snr)
            ordered &= sep(by[("min_error", snr)], uni) and sep(uni, by[("max_error", snr)])
    ok = bool(in_band) and ordered
    pf_at = {s: by[("uniform", s)].value for s in spec.snr_grid}
    report(
        "unwrap-failure ordering", ok,
        f"band snrs {in_band} (uniform pf {pf_at}); min<uniform<max beyond 3-sigma: {ordered}",
    )
    assert ok


def test_wide_window_far_cluster():
    plan = design_prime_min_error(
        DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, prime_index=12), 410e6, c=C_PAPER
    )
    spec = CampaignSpec.build(
        plans={"sweep": plan}, q0=19.19, snr_grid=[14.0], trials=500, seed=ACCEPT_SEED,
        estimator=EstimatorConfig(-1000.0, 24000.0, 0.05),
    )
    errors = campaign_errors(spec)[("sweep", 0)]
    far = far_cluster(errors, plan)
    far_rate = far.mean()
    far_mean = errors[far].mean() if far.any() else math.nan
    concentration = unwrap_ok(errors + spec.q0, spec.q0, plan).mean() + far_rate
    dl_p = practical_umr(plan)
    ok = concentration >= 0.99 and far_rate > 0.0 and abs(far_mean - dl_p) <= 2.0
    report(
        "wide-window far cluster", ok,
        f"cluster mass {concentration:.4f} (>=0.99), far cluster at {far_mean:.2f} m "
        f"vs predicted {dl_p:.2f} m (+-2 m)",
    )
    assert ok


def test_confusion_rate_vs_bound():
    narrow = FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER)
    phases = synth_trial_matrix(
        narrow, 0.0, NoiseModel.phase_gaussian(snr_db=5.0), ACCEPT_SEED, "pumr", 0, 10_000
    )
    rate_n = pumr_confusion_rate(phases, narrow, 0.0)
    bound_n = confusion_bound_for_plan(narrow, 5.0)
    sigma3 = 3.0 * math.sqrt(bound_n.value * (1 - bound_n.value) / 10_000)
    ok_narrow = bound_n.within_validity and rate_n >= bound_n.value - sigma3

    wide = FrequencyPlan(f1=105e6, resolution=10e6, spacings=(1,) * 40, c=C_PAPER)
    spec = CampaignSpec.build(
        plans={"pumr": wide}, q0=0.0, snr_grid=[-35.0], trials=10_000, seed=ACCEPT_SEED,
        estimator=EstimatorConfig(-32.0, 32.0, 0.02),
    )
    far = float(far_cluster(campaign_errors(spec)[("pumr", 0)], wide).mean())
    bound_w = confusion_bound_for_plan(wide, -35.0)
    sigma3_w = 3.0 * math.sqrt(max(far, 1e-6) * (1 - far) / 10_000)
    ok_wide = (not bound_w.within_validity) and (far + sigma3_w < bound_w.value)
    ok = ok_narrow and ok_wide
    report(
        "confusion rate vs bound", ok,
        f"narrowband rate {rate_n:.4f} >= bound {bound_n.value:.4f} - 3sig; "
        f"wideband far rate {far:.4f} below bound {bound_w.value:.4f} with validity flag off",
    )
    assert ok


def test_estimator_sanity_and_determinism(tmp_path):
    plan = design_rips(400e6, 20e6, 21, c=C_PAPER)

    # Noise-free on-grid recovery is exact.
    pv = synth_phases(plan, 12.34, NoiseModel.none())
    est = ls_estimate(pv, plan, EstimatorConfig(-150.0, 150.0, 0.01))
    exact = est.q_hat == pytest.approx(12.34, abs=1e-9) and est.cost_at_min <= 1e-18

    # 200-trial error at 30 dB sits on the Cramer-Rao floor.
    q0 = 0.1237
    phases = synth_trial_matrix(
        plan, q0, NoiseModel.phase_gaussian(snr_db=30.0), ACCEPT_SEED, "sanity", 0, 200
    )
    q_hat, _, _ = ls_estimate_batch(
        phases, plan, EstimatorConfig(-150.0, 150.0, 0.01, refine=True)
    )
    mse = float(np.mean((q_hat - q0) ** 2))
    floor = crb(plan, math.sqrt(2.0) * sigma_theta_from_snr_db(30.0))
    stderr_fraction = math.sqrt(2.0 / 200)
    on_floor = floor * (1.0 - 3.0 * stderr_fraction) <= mse <= 1.5 * floor

    # Equal seeds give byte-identical campaign CSVs.
    cli_main([
        "design", "--method", "rips", "--B", "20e6", "--N", "21", "--f1", "400e6",
        "--c-mode", "paper-repro", "--out", str(tmp_path), "--label", "rips",
        "--skip-sidelobe",
    ])
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(
        "kind = pf\n"
        "plan.rips = rips.plan\n"
        "q0_m = 0.0\n"
        "snr_db = 12,14\n"
        "trials = 300\n"
        f"seed = {ACCEPT_SEED}\n"
        "search_lo_m = -150.0\n"
        "search_hi_m = 150.0\n"
        "step_m = 0.05\n"
    )
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    r1, r2 = ((tmp_path / run / "pf.csv").read_bytes() for run in ("r1", "r2"))
    identical = r1 == r2

    ok = exact and on_floor and identical
    report(
        "estimator sanity and determinism", ok,
        f"noise-free exact={exact}; 30 dB mse/crb={mse / floor:.3f} in [1-3se, 1.5]; "
        f"byte-identical reruns={identical}",
    )
    assert ok
