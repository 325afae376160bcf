import math

import numpy as np
import pytest

from mfirange import (
    C_PAPER,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    coherence_cost,
    design_rips,
    grid_offset,
    ls_cost,
    ls_estimate,
    ls_estimate_batch,
    practical_umr,
    synth_phases,
    synth_trial_matrix,
    umr,
    unwrap_ok,
    wrap_phase,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def plan21():
    return design_rips(400e6, 20e6, 21, c=C_PAPER)


class TestLsCost:
    def test_zero_at_truth(self, plan21):
        pv = synth_phases(plan21, 12.34, NoiseModel.none())
        assert ls_cost(pv, plan21, 12.34) <= 1e-20

    def test_zero_at_ambiguity(self, plan21):
        pv = synth_phases(plan21, 12.34, NoiseModel.none())
        assert ls_cost(pv, plan21, 12.34 + umr(plan21)) <= 1e-18

    def test_dip_obeys_offset_ceiling(self):
        plan = FrequencyPlan(f1=400.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER)
        eps = grid_offset(plan)
        ceiling = 4 * plan.n * math.pi**2 * eps**2 * (plan.bandwidth / plan.f1) ** 2
        pv = synth_phases(plan, 5.0, NoiseModel.none())
        assert ls_cost(pv, plan, 5.0 + practical_umr(plan)) <= ceiling

    def test_invariant_under_phase_wraps(self, plan21):
        pv = synth_phases(plan21, 3.21, NoiseModel.none())
        shifted = wrap_phase(pv.as_array() + TWO_PI)
        qs = np.array([0.0, 3.21, 100.0])
        assert ls_cost(shifted, plan21, qs) == pytest.approx(
            ls_cost(pv, plan21, qs), abs=1e-12
        )

    def test_length_mismatch(self, plan21):
        with pytest.raises(ValueError):
            ls_cost(np.zeros(5), plan21, 0.0)

    def test_block_with_per_row_q_equals_row_calls(self, plan21):
        phases = synth_trial_matrix(
            plan21, 0.3, NoiseModel.phase_gaussian(snr_db=8.0), 5, "block", 0, 6
        )
        q = np.linspace(-1.0, 2.0, 6)
        block = ls_cost(phases, plan21, q)
        assert block.shape == (6,)
        assert block.tolist() == [ls_cost(phases[t], plan21, q[t]) for t in range(6)]


class TestCoherenceCost:
    def test_coherent_at_truth(self, plan21):
        pv = synth_phases(plan21, 7.0, NoiseModel.none())
        assert coherence_cost(pv, plan21, 7.0) == pytest.approx(1.0, abs=1e-12)

    def test_argmax_matches_ls_argmin_on_shared_grid(self, plan21):
        # Exact grid-index agreement requires the envelope error to stay
        # below half a cell, hence the high SNR and on-grid truth.
        cfg = EstimatorConfig(-150.0, 150.0, 0.15)
        grid = cfg.grid()
        phases = synth_trial_matrix(
            plan21, 0.45, NoiseModel.phase_gaussian(snr_db=40.0), 31415, "agree", 0, 100
        )
        for t in range(100):
            i_ls = int(np.argmin(ls_cost(phases[t], plan21, grid)))
            i_coh = int(np.argmax(coherence_cost(phases[t], plan21, grid)))
            assert i_ls == i_coh


class TestLsEstimate:
    def test_exact_recovery_on_grid(self, plan21):
        pv = synth_phases(plan21, 12.34, NoiseModel.none())
        est = ls_estimate(pv, plan21, EstimatorConfig(-150.0, 150.0, 0.01))
        assert est.q_hat == pytest.approx(12.34, abs=1e-9)
        assert est.cost_at_min <= 1e-20
        assert not est.refined

    def test_protocol_window(self, plan21):
        # Search from -c/(2 df) to +c/(2 df) with df the uniform spacing.
        df = 1e6
        half = C_PAPER / (2 * df)
        cfg = EstimatorConfig(-half, half, 0.01)
        pv = synth_phases(plan21, -140.0, NoiseModel.none())
        est = ls_estimate(pv, plan21, cfg)
        assert est.q_hat == pytest.approx(-140.0, abs=1e-9)

    def test_dual_minimum_breaks_low(self, plan21):
        pv = synth_phases(plan21, 10.0, NoiseModel.none())
        cfg = EstimatorConfig(-150.0, 460.0, 0.01)  # contains 10 and 310
        est = ls_estimate(pv, plan21, cfg)
        assert est.q_hat == pytest.approx(10.0, abs=1e-9)
        assert ls_cost(pv, plan21, 310.0) <= 1e-12  # the ambiguity really is there

    def test_grid_min_not_above_snapped_truth(self, plan21):
        rng = np.random.Generator(np.random.Philox(key=5))
        cfg = EstimatorConfig(-150.0, 150.0, 0.05)
        grid = cfg.grid()
        for q0 in (0.0, 1.2345, -77.777):
            pv = synth_phases(plan21, q0, NoiseModel.none())
            est = ls_estimate(pv, plan21, cfg)
            snapped = grid[np.argmin(np.abs(grid - q0))]
            assert est.cost_at_min <= ls_cost(pv, plan21, snapped) + 1e-15

    def test_shift_equivariance(self, plan21):
        cfg = EstimatorConfig(-150.0, 150.0, 0.01)
        base = ls_estimate(synth_phases(plan21, 10.0, NoiseModel.none()), plan21, cfg)
        moved = ls_estimate(synth_phases(plan21, 10.05, NoiseModel.none()), plan21, cfg)
        assert moved.q_hat - base.q_hat == pytest.approx(0.05, abs=1e-9)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            EstimatorConfig(0.0, 0.05, 0.1)  # narrower than one step
        with pytest.raises(ValueError):
            EstimatorConfig(0.0, 1.0, -0.1)

    def test_coarse_step_warns(self, plan21):
        pv = synth_phases(plan21, 0.0, NoiseModel.none())
        with pytest.warns(UserWarning):
            ls_estimate(pv, plan21, EstimatorConfig(-10.0, 10.0, 1.0))

    def test_refinement_recovers_off_grid_truth(self, plan21):
        pv = synth_phases(plan21, 0.123456, NoiseModel.none())
        coarse = ls_estimate(pv, plan21, EstimatorConfig(-1.0, 1.0, 0.01))
        fine = ls_estimate(pv, plan21, EstimatorConfig(-1.0, 1.0, 0.01, refine=True))
        assert abs(coarse.q_hat - 0.123456) <= 0.005
        assert fine.refined
        assert fine.q_hat == pytest.approx(0.123456, abs=1e-6)


class TestBatch:
    def test_matches_scalar_path(self, plan21):
        cfg = EstimatorConfig(-2.0, 2.0, 0.01)
        phases = synth_trial_matrix(
            plan21, 0.456, NoiseModel.phase_gaussian(snr_db=15.0), 7, "batch", 0, 8
        )
        q, cost, idx = ls_estimate_batch(phases, plan21, cfg)
        for t in range(8):
            est = ls_estimate(phases[t], plan21, cfg)
            assert est.q_hat == q[t]
            assert est.cost_at_min == pytest.approx(cost[t], rel=1e-12)
            assert est.grid_index == idx[t]

    def test_refined_cost_is_ls_cost_at_refined_range(self, plan21):
        cfg = EstimatorConfig(-2.0, 2.0, 0.01, refine=True)
        phases = synth_trial_matrix(
            plan21, 0.1237, NoiseModel.phase_gaussian(snr_db=15.0), 9, "refine", 0, 20
        )
        q, cost, idx = ls_estimate_batch(phases, plan21, cfg)
        interior = (idx > 0) & (idx < cfg.size - 1)
        assert interior.all()
        for t in range(20):
            assert cost[t] == ls_cost(phases[t], plan21, q[t])

    def test_worker_count_does_not_change_results(self, plan21):
        cfg = EstimatorConfig(-150.0, 150.0, 0.05)
        phases = synth_trial_matrix(
            plan21, 0.0, NoiseModel.phase_gaussian(snr_db=10.0), 11, "det", 0, 300
        )
        q1, c1, i1 = ls_estimate_batch(phases, plan21, cfg, workers=1)
        q4, c4, i4 = ls_estimate_batch(phases, plan21, cfg, workers=4)
        assert np.array_equal(q1, q4)
        assert np.array_equal(c1, c4)
        assert np.array_equal(i1, i4)


class TestUnwrapOk:
    def test_boundary_convention(self, plan21):
        lam = plan21.lambda_min
        assert unwrap_ok(5.0, 5.0, plan21)
        assert unwrap_ok(5.0 + lam, 5.0, plan21)  # closed inequality
        assert not unwrap_ok(5.0 + lam * 1.001, 5.0, plan21)
        assert not unwrap_ok(5.0 + umr(plan21), 5.0, plan21)

    def test_array_matches_scalar(self, plan21):
        lam = plan21.lambda_min
        q_hat = np.array([5.0, 5.0 + lam, 5.0 - lam, 5.0 + lam * 1.001, 5.0 + umr(plan21)])
        got = unwrap_ok(q_hat, 5.0, plan21)
        assert got.tolist() == [unwrap_ok(float(q), 5.0, plan21) for q in q_hat]
        assert got.tolist() == [True, True, True, False, False]
