import math
import tracemalloc

import numpy as np
import pytest

from mfirange import (
    C_PAPER,
    CampaignSpec,
    CampaignValidationError,
    DesignParams,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    batch_slice,
    confusion_bound_for_plan,
    crb,
    campaign_errors,
    design_prime_min_error,
    design_rips,
    ls_estimate_batch,
    sigma_theta_from_snr_db,
    synth_phases,
    synth_trial_matrix,
    trial_stream,
    unwrap_ok,
)
from mfirange import estimator
from mfirange.montecarlo import far_cluster, pumr_confusion_rate, rows_from_errors, run_campaign


@pytest.fixture(scope="module")
def plan21():
    return design_rips(400e6, 20e6, 21, c=C_PAPER)


class TestTrialStreams:
    def test_reproducible_and_distinct(self):
        a = trial_stream(42, "x", 0, 0).standard_normal(4)
        b = trial_stream(42, "x", 0, 0).standard_normal(4)
        c = trial_stream(42, "x", 0, 1).standard_normal(4)
        d = trial_stream(42, "y", 0, 0).standard_normal(4)
        e = trial_stream(43, "x", 0, 0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert not np.array_equal(a, e)

    def test_matrix_determinism(self, plan21):
        m1 = synth_trial_matrix(plan21, 1.0, NoiseModel.phase_gaussian(snr_db=10.0), 9, "p", 2, 50)
        m2 = synth_trial_matrix(plan21, 1.0, NoiseModel.phase_gaussian(snr_db=10.0), 9, "p", 2, 50)
        assert np.array_equal(m1, m2)


SNR_REFUSED = "snr_db must be finite and give a finite, positive sigma_theta"

NOISES = {
    "phase-gaussian": NoiseModel.phase_gaussian(snr_db=10.0),
    "complex-awgn": NoiseModel.complex_awgn(snr_db=5.0),
    "bias": NoiseModel.phase_gaussian(snr_db=10.0, bias=tuple(0.3 * k - 3.0 for k in range(21))),
    "none": NoiseModel.none(),
}


def per_trial_reference(plan, q0, noise, seed, label, si, trials):
    """The matrix built one trial at a time from fresh trial streams."""
    ref = np.empty((trials, plan.n))
    for t in range(trials):
        ref[t] = synth_phases(plan, q0, noise, trial_stream(seed, label, si, t)).as_array()
    return ref


def assert_same_bytes(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


class TestBatchSynthesis:
    """The batch synthesis path reproduces the per-trial streams bit for bit."""

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("trials", [0, 1, 257])
    def test_matrix_equals_per_trial_streams(self, plan21, noise, trials):
        args = (plan21, 0.1237, NOISES[noise], 101, "uniform", 2, trials)
        assert_same_bytes(synth_trial_matrix(*args), per_trial_reference(*args))

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize(
        "seed, label, si",
        [
            (0, "uniform", 2),
            (2**63, "uniform", 2),
            (2**64 - 1, "uniform", 2),
            (7, "Δf plan ü", 0),
            # A BLAKE2b block is 128 bytes: label plus the 16 packed index
            # bytes fill one block, span two, and the label alone fills one
            # (held unprocessed in the copied prefix hash).
            (7, "p" * 112, 1),
            (7, "p" * 113, 1),
            (7, "ü" * 64, 1),
            (101, "uniform", 2**31),
        ],
    )
    @pytest.mark.parametrize("trials", [1, 257])
    def test_edge_keys_match_per_trial_streams(self, plan21, noise, seed, label, si, trials):
        args = (plan21, 0.1237, NOISES[noise], seed, label, si, trials)
        assert_same_bytes(synth_trial_matrix(*args), per_trial_reference(*args))

    @pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_refused_by_every_entry_point(self, plan21, seed):
        # numpy would wrap -5 to 2**64 - 5 in one path and raise in the
        # other, depending on its version; both must refuse it alike.
        msg = rf"seed must be in \[0, 2\*\*64\), got {seed}"
        with pytest.raises(ValueError, match=msg):
            trial_stream(seed, "uniform", 2, 0)
        with pytest.raises(ValueError, match=msg):
            synth_trial_matrix(plan21, 0.1237, NOISES["phase-gaussian"], seed, "uniform", 2, 3)

    def test_back_to_back_calls_do_not_share_state(self, plan21):
        # Alternate draw counts (2N, N) and keys so a leaked counter, key
        # or buffered word would shift a later call's rows.
        calls = [
            (NOISES["complex-awgn"], "a", 0, 5),
            (NOISES["phase-gaussian"], "b", 3, 7),
            (NOISES["bias"], "a", 1, 3),
            (NOISES["complex-awgn"], "a", 0, 5),
        ]
        got = [synth_trial_matrix(plan21, -2.5, nz, 7, lb, si, n) for nz, lb, si, n in calls]
        for (nz, lb, si, n), m in zip(calls, got):
            assert_same_bytes(m, per_trial_reference(plan21, -2.5, nz, 7, lb, si, n))
        assert_same_bytes(got[0], got[3])

    @pytest.mark.parametrize("noise", sorted(NOISES))
    def test_iterables_of_generators(self, plan21, noise):
        ref = per_trial_reference(plan21, 4.2, NOISES[noise], 5, "it", 0, 6)
        as_list = [trial_stream(5, "it", 0, t) for t in range(6)]
        unsized = (trial_stream(5, "it", 0, t) for t in range(6))
        assert_same_bytes(synth_phases(plan21, 4.2, NOISES[noise], as_list), ref)
        assert_same_bytes(synth_phases(plan21, 4.2, NOISES[noise], unsized), ref)

    @pytest.mark.parametrize(
        "q0, noise, streams",
        [
            (math.inf, NOISES["phase-gaussian"], "gen"),
            (math.nan, NOISES["none"], None),
            (0.0, NoiseModel.phase_gaussian(snr_db=10.0, bias=(0.1, 0.2)), "gen"),
            (0.0, NoiseModel(kind="none", bias=(0.1,)), None),
            (0.0, NOISES["phase-gaussian"], None),
            (0.0, NOISES["complex-awgn"], None),
        ],
    )
    def test_iterable_form_raises_like_single_form(self, plan21, q0, noise, streams):
        def rng():
            return None if streams is None else trial_stream(1, "err", 0, 0)

        with pytest.raises(ValueError) as single:
            synth_phases(plan21, q0, noise, rng())
        with pytest.raises(ValueError) as batch:
            synth_phases(plan21, q0, noise, [rng(), rng()])
        assert str(batch.value) == str(single.value)

class TestCampaignValidation:
    def test_all_problems_reported_at_once(self, plan21):
        with pytest.raises(CampaignValidationError) as err:
            CampaignSpec.build(
                plans=[("a", plan21), ("a", plan21)],
                q0=0.0,
                snr_grid=[],
                trials=0,
                seed=1,
                estimator=EstimatorConfig(-1.0, 1.0, 0.1),
                noise_kind="bogus",
            )
        msg = str(err.value)
        assert "labels" in msg and "snr grid" in msg and "trials" in msg and "noise_kind" in msg

    def test_zero_trials_rejected(self, plan21):
        with pytest.raises(CampaignValidationError):
            CampaignSpec.build(
                plans={"a": plan21},
                q0=0.0,
                snr_grid=[10.0],
                trials=0,
                seed=1,
                estimator=EstimatorConfig(-1.0, 1.0, 0.1),
            )


    @pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, plan21, seed):
        with pytest.raises(CampaignValidationError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            CampaignSpec.build(
                plans={"a": plan21},
                q0=0.0,
                snr_grid=[10.0],
                trials=1,
                seed=seed,
                estimator=EstimatorConfig(-1.0, 1.0, 0.1),
            )

    @pytest.mark.parametrize(
        "q0, snrs, problem",
        [(0.0, [10.0, math.nan], f"{SNR_REFUSED}, got nan"),
         (0.0, [math.inf], f"{SNR_REFUSED}, got inf"),
         (0.0, [-math.inf, 10.0], f"{SNR_REFUSED}, got -inf"),
         (0.0, [10.0, 4000.0], f"{SNR_REFUSED}, got 4000.0"),
         (math.nan, [10.0], "q0 must be finite, got nan"),
         (-math.inf, [10.0], "q0 must be finite, got -inf")],
    )
    def test_bad_snr_and_q0_rejected(self, plan21, q0, snrs, problem):
        # 4000 dB is finite, but its sigma_theta underflows to 0.
        with pytest.raises(CampaignValidationError) as err:
            CampaignSpec.build(
                plans={"a": plan21}, q0=q0, snr_grid=snrs, trials=1, seed=1,
                estimator=EstimatorConfig(-1.0, 1.0, 0.1),
            )
        assert err.value.problems == [problem]

    def test_direct_construction_is_validated(self, plan21):
        with pytest.raises(CampaignValidationError, match="trials must be >= 1"):
            CampaignSpec(
                plans=(("a", plan21),), q0=0.0, snr_grid=(10.0,), trials=0, seed=1,
                estimator=EstimatorConfig(-1.0, 1.0, 0.1),
            )

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, plan21, seed):
        spec = CampaignSpec.build(
            plans={"a": plan21},
            q0=0.0,
            snr_grid=[10.0],
            trials=1,
            seed=seed,
            estimator=EstimatorConfig(-1.0, 1.0, 0.1),
        )
        assert spec.seed == seed


class TestCurves:
    def test_single_trial_repeatable(self, plan21):
        spec = CampaignSpec.build(
            plans={"rips": plan21},
            q0=0.0,
            snr_grid=[10.0],
            trials=1,
            seed=77,
            estimator=EstimatorConfig(-150.0, 150.0, 0.05),
        )
        rows1 = rows_from_errors(spec, campaign_errors(spec), "mse")
        rows2 = rows_from_errors(spec, campaign_errors(spec), "mse")
        assert rows1 == rows2

    def test_quantization_floor_at_high_snr(self, plan21):
        # On-grid truth, essentially no noise: the grid minimum snaps to
        # the truth, so the MSE sits at or below the quantization floor.
        step = 0.01
        spec = CampaignSpec.build(
            plans={"rips": plan21},
            q0=0.0,
            snr_grid=[60.0],
            trials=200,
            seed=5,
            estimator=EstimatorConfig(-150.0, 150.0, step),
        )
        (row,) = [r for r in rows_from_errors(spec, campaign_errors(spec), "mse") if r.metric == "mse"]
        assert row.value <= step**2 / 12.0 + 1e-12

    def test_theory_columns_and_diagnostic_row(self, plan21):
        spec = CampaignSpec.build(
            plans={"rips": plan21},
            q0=0.0,
            snr_grid=[20.0],
            trials=50,
            seed=3,
            estimator=EstimatorConfig(-150.0, 150.0, 0.05),
        )
        rows = rows_from_errors(spec, campaign_errors(spec), "mse")
        metrics = {r.metric for r in rows}
        assert metrics == {"mse", "mse_excl_outlier"}
        sigma = sigma_theta_from_snr_db(20.0)
        for r in rows:
            assert r.hmse == pytest.approx(r.crb, rel=1e-12)
            assert r.crb == pytest.approx(crb(plan21, math.sqrt(2) * sigma))
            assert r.trials >= 1 and r.stderr >= 0.0

    def test_pf_zero_far_above_threshold(self, plan21):
        spec = CampaignSpec.build(
            plans={"rips": plan21},
            q0=0.0,
            snr_grid=[60.0],
            trials=500,
            seed=21,
            estimator=EstimatorConfig(-150.0, 150.0, 0.05),
        )
        (row,) = rows_from_errors(spec, campaign_errors(spec), "pf")
        assert row.metric == "pf" and row.value == 0.0

    def test_pf_zero_when_window_inside_wavelength(self, plan21):
        # A window that cannot produce an error beyond lambda_min forces
        # every trial to count as correctly unwrapped.
        lam = plan21.lambda_min
        spec = CampaignSpec.build(
            plans={"rips": plan21},
            q0=0.0,
            snr_grid=[0.0],
            trials=200,
            seed=2,
            estimator=EstimatorConfig(-lam / 2, lam / 2, 0.01),
        )
        (row,) = rows_from_errors(spec, campaign_errors(spec), "pf")
        assert row.value == 0.0

    def test_high_snr_tail_not_below_crb(self, plan21):
        spec = CampaignSpec.build(
            plans={"rips": plan21},
            q0=0.1237,
            snr_grid=[25.0],
            trials=400,
            seed=13,
            estimator=EstimatorConfig(-150.0, 150.0, 0.01, refine=True),
        )
        (row,) = [r for r in rows_from_errors(spec, campaign_errors(spec), "mse") if r.metric == "mse"]
        stderr_fraction = math.sqrt(2.0 / row.trials)
        assert row.value >= row.crb * (1.0 - 3.0 * stderr_fraction)


def test_campaign_builds_one_search_per_plan(monkeypatch):
    # Shaped like the campaign-pf benchmark: 3 plans x 3 SNRs, one config.
    # The grid and comb layout depend on (plan, config) alone, so the
    # SNRs of a plan share one layout.
    from mfirange import estimator

    layouts = []
    combs = estimator._combs

    def spy(coef, grid, step):
        layouts.append(coef[0])
        return combs(coef, grid, step)

    monkeypatch.setattr(estimator, "_combs", spy)
    estimator._search.cache_clear()
    plans = {f"p{k}": design_rips(f1, 20e6, 21, c=C_PAPER)
             for k, f1 in enumerate((400e6, 410e6, 420e6))}
    spec = CampaignSpec.build(
        plans=plans,
        q0=0.0,
        snr_grid=[10.0, 11.5, 13.0],
        trials=10,
        seed=4242,
        estimator=EstimatorConfig(-20.0, 20.0, 0.01),
    )
    errors = campaign_errors(spec)
    assert len(errors) == 9
    assert len(layouts) == len(set(layouts)) == 3


def pumr_phases(plan, snr_db, trials, seed):
    """The block that ``kind = pumr`` draws at q0 = 0 for a plan labeled
    "pumr" at its first SNR."""
    noise = NoiseModel.phase_gaussian(snr_db=snr_db)
    return synth_trial_matrix(plan, 0.0, noise, seed, "pumr", 0, trials)


class TestPumrCheck:
    def test_symmetric_at_zero_offset(self, plan21):
        # With f1 an exact grid multiple the dip sits at the true ambiguity,
        # where the two costs are equal in exact arithmetic: every trial is
        # a tie within rounding and counts 1/2, at any SNR.
        for snr_db in (10.0, 0.0):
            assert pumr_confusion_rate(pumr_phases(plan21, snr_db, 4000, 17), plan21, 0.0) == 0.5

    def test_narrowband_rate_exceeds_bound(self):
        plan = FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER)
        rate = pumr_confusion_rate(pumr_phases(plan, 5.0, 2000, 777), plan, 0.0)
        bound = confusion_bound_for_plan(plan, 5.0)
        sigma3 = 3 * math.sqrt(bound.value * (1 - bound.value) / 2000)
        assert bound.value == pytest.approx(0.3087, abs=0.002)
        assert bound.within_validity
        assert rate >= bound.value - sigma3

    def test_wideband_flag_fires(self):
        plan = FrequencyPlan(f1=105e6, resolution=10e6, spacings=(1,) * 40, c=C_PAPER)
        assert not confusion_bound_for_plan(plan, 5.0).within_validity
        assert plan.f1 / plan.bandwidth < 1.0

    def test_window_reports_far_cluster(self):
        plan = FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER)
        spec = CampaignSpec.build(
            plans={"pumr": plan},
            q0=0.0,
            snr_grid=[5.0],
            trials=400,
            seed=778,
            estimator=EstimatorConfig(-320.0, 320.0, 0.05),
        )
        assert far_cluster(campaign_errors(spec)[("pumr", 0)], plan).mean() > 0.0


class TestAmbiguitySweep:
    def test_single_cluster_when_window_excludes_alias(self, plan21):
        spec = CampaignSpec.build(
            plans={"sweep": plan21},
            q0=0.0,
            snr_grid=[20.0],
            trials=200,
            seed=31,
            estimator=EstimatorConfig(-140.0, 140.0, 0.05),
        )
        errors = campaign_errors(spec)[("sweep", 0)]
        assert unwrap_ok(errors, 0.0, plan21).all()
        assert not far_cluster(errors, plan21).any()

    def test_confusion_bound_is_stochastic_floor(self):
        # At moderate SNR the realized dip-confusion frequency stays above
        # the closed-form floor (checked one-sided on the two-point costs).
        plan = FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER)
        rate = pumr_confusion_rate(pumr_phases(plan, 5.0, 2000, 424), plan, 0.0)
        bound = confusion_bound_for_plan(plan, 5.0)
        sigma3 = 3 * math.sqrt(bound.value * (1 - bound.value) / 2000)
        assert rate >= bound.value - sigma3


class TestStackedBlocks:
    """``run_campaign`` stacks a plan's consecutive SNR blocks into one
    ``ls_estimate_batch`` call of at most max(trials, S) trials, S being
    ``batch_slice``; every result must equal a search of each block on
    its own, bit for bit."""

    PLANS = {
        "uniform": design_rips(400e6, 20e6, 21, c=C_PAPER),
        "min_error": design_prime_min_error(DesignParams(20e6, 21, 65.0), 400e6, c=C_PAPER),
    }
    SNRS = (4.0, 8.0, 12.0, 16.0, 20.0)
    # 3001 cells take the comb branch and bound, 601 the cosine bound.
    GRIDS = {"bnb": EstimatorConfig(-15.0, 15.0, 0.01), "cosine": EstimatorConfig(-3.0, 3.0, 0.01)}
    # Trials per block from S: below S (all five blocks in one call),
    # dividing S (two blocks fill a call), not dividing S (two blocks per
    # call, the last call holding one), above S/2 (one block per call),
    # equal to S and above S (the search slices the block itself).
    TRIALS = {
        "below": lambda s: 7,
        "dividing": lambda s: s // 2,
        "not-dividing": lambda s: s // 3 + 1,
        "over-half": lambda s: s // 2 + 1,
        "equal": lambda s: s,
        "above": lambda s: s + s // 2,
    }

    def spec(self, grid, trials, snrs=SNRS):
        return CampaignSpec.build(
            plans=self.PLANS, q0=0.1237, snr_grid=snrs, trials=trials, seed=2718,
            estimator=self.GRIDS[grid],
        )

    @pytest.mark.parametrize("case", sorted(TRIALS))
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_equals_a_search_per_block(self, grid, case):
        cfg = self.GRIDS[grid]
        (s,) = {batch_slice(plan, cfg) for plan in self.PLANS.values()}
        assert (estimator.LsSearch(self.PLANS["uniform"], cfg).phasors is None) == (grid == "bnb")
        spec = self.spec(grid, self.TRIALS[case](s))
        ref = {}
        for label, plan in spec.plans:
            for si, snr in enumerate(spec.snr_grid):
                phases = synth_trial_matrix(
                    plan, spec.q0, spec.noise_at(snr), spec.seed, label, si, spec.trials
                )
                ref[(label, si)] = phases, ls_estimate_batch(phases, plan, cfg)[0] - spec.q0

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        # The errors of every block, as the mse, pf and ambiguity kinds read them.
        errors = campaign_errors(spec)
        assert list(errors) == list(ref)
        assert all(same(errors[key], ref[key][1]) for key in ref)
        # Each block's own phases and errors reach ``measure``, in order, and
        # so does the practical-UMR check's summary of them.
        seen = []

        def measure(plan, si, phases, err):
            seen.append((si, phases.copy(), err.copy()))
            return pumr_confusion_rate(phases, plan, spec.q0), float(far_cluster(err, plan).mean())

        pumr = run_campaign(spec, measure)
        assert list(pumr) == list(ref)
        for ((label, si), (phases, err)), (si_seen, ph_seen, err_seen) in zip(ref.items(), seen):
            assert si_seen == si and same(ph_seen, phases) and same(err_seen, err)
            plan = self.PLANS[label]
            want = pumr_confusion_rate(phases, plan, spec.q0), float(far_cluster(err, plan).mean())
            assert pumr[(label, si)] == want
        # The ambiguity kind's one-SNR campaign.
        one = campaign_errors(self.spec(grid, spec.trials, self.SNRS[:1]))
        assert all(same(one[(label, 0)], ref[(label, 0)][1]) for label in self.PLANS)

    def test_memory_does_not_grow_with_the_snr_count(self):
        # campaign-pf's block shape: 50 trials of an N = 21 plan, so ten
        # blocks fill one 520-trial call, and 10 SNRs already make a full
        # call.  Held at once are one call's ten blocks and their stacked
        # copy (82 KiB each) and one slice's search temporaries.  A loop
        # that kept every block's phases would add 8.2 KiB per SNR, 246 KiB
        # at 40 SNRs against 10; the outputs and the data-dependent visit
        # sizes add under 18 KiB.
        cfg = self.GRIDS["bnb"]
        plan = self.PLANS["uniform"]
        assert batch_slice(plan, cfg) // 50 == 10

        def spec(count):
            return CampaignSpec.build(
                plans={"uniform": plan}, q0=0.1237, snr_grid=np.linspace(10.0, 13.0, count),
                trials=50, seed=31, estimator=cfg,
            )

        def measure(plan, si, phases, err):
            return None

        run_campaign(spec(10), measure)  # one-time set-up outside the trace
        peaks = []
        for count in (10, 40):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_campaign(spec(count), measure)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 32 * 1024, peaks
