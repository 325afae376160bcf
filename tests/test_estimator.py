import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfirange import (
    C_PAPER,
    DesignParams,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    coherence_cost,
    design_prime_max_error,
    design_prime_min_error,
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
from mfirange import estimator

TWO_PI = 2 * math.pi

_PRIME = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
PLANS = {
    "rips": design_rips(400e6, 20e6, 21, c=C_PAPER),
    "prime-min": design_prime_min_error(_PRIME, 400e6, c=C_PAPER),
    "prime-max": design_prime_max_error(_PRIME, 400e6, c=C_PAPER),
    "narrowband": FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER),
}


def full_scan(phases, plan, cfg):
    """(cost, grid_index) of the full-scan reference kernel."""
    coef = (TWO_PI / plan.c) * plan.frequencies
    best_val = np.full(phases.shape[0], np.inf)
    best_idx = np.zeros(phases.shape[0], dtype=np.int64)
    estimator._scan_block(phases, coef, cfg.grid(), best_val, best_idx)
    return best_val, best_idx


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

    def test_phases_off_by_whole_turns(self, plan21):
        # Noise-free phases rounded to multiples of 2^-49: phi + 4*pi is then
        # exact, and wrapping it back returns phi bit for bit.
        ph = synth_phases(plan21, 12.34, NoiseModel.none()).as_array()
        ph = np.round(ph * 2.0**49) / 2.0**49
        cfg = EstimatorConfig(-150.0, 150.0, 0.01)
        est = ls_estimate(ph, plan21, cfg)
        assert est.q_hat == pytest.approx(12.34, abs=1e-9)
        assert ls_estimate(ph + 2 * TWO_PI, plan21, cfg) == est

    def test_non_finite_phases_rejected(self, plan21):
        ph = synth_phases(plan21, 1.0, NoiseModel.none()).as_array().copy()
        ph[3] = np.nan
        cfg = EstimatorConfig(-1.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            ls_estimate(ph, plan21, cfg)
        with pytest.raises(ValueError):
            ls_estimate_batch(np.full((2, plan21.n), np.inf), plan21, cfg)

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


class TestWorkers:
    def test_pool_only_when_each_thread_gets_enough_trials(self, plan21, monkeypatch):
        sizes = []

        class Pool(estimator.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(estimator, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(estimator, "_MIN_TRIALS_PER_WORKER", 10)
        cfg = EstimatorConfig(-3.0, 3.0, 0.01)
        phases = synth_trial_matrix(
            plan21, 0.1237, NoiseModel.phase_gaussian(snr_db=10.0), 3, "pool", 0, 35
        )
        ref = ls_estimate_batch(phases, plan21, cfg, workers=1)
        for workers, pool in [(2, 2), (4, 3), (8, 3)]:
            got = ls_estimate_batch(phases, plan21, cfg, workers=workers)
            assert sizes.pop() == pool
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
        ls_estimate_batch(phases[:19], plan21, cfg, workers=4)
        assert sizes == []

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_bad_env_value_warns_once_and_uses_one_worker(self, raw, monkeypatch):
        monkeypatch.setattr(estimator, "_warned_workers", set())
        monkeypatch.setenv(estimator.WORKERS_ENV, raw)
        with pytest.warns(RuntimeWarning, match=repr(raw)):
            assert estimator._default_workers() == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimator._default_workers() == 1

    @pytest.mark.parametrize("raw, workers", [(None, 1), ("", 1), ("3", 3), (" 2 ", 2)])
    def test_valid_env_values_do_not_warn(self, raw, workers, monkeypatch):
        if raw is None:
            monkeypatch.delenv(estimator.WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(estimator.WORKERS_ENV, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimator._default_workers() == workers

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


class TestBranchAndBound:
    @given(
        label=st.sampled_from(sorted(PLANS)),
        snr_db=st.one_of(st.none(), st.floats(-35.0, 40.0)),
        # lambda_min / step: block widths 1 (step above lambda_min/3), 2, 8, 23
        cells_per_lambda=st.sampled_from([2.9, 7.0, 25.0, 70.0]),
        n_pts=st.one_of(st.integers(2, 30), st.integers(31, 3000)),
        lo=st.floats(-200.0, 200.0),
        q0_frac=st.floats(-0.1, 1.1),
        trials=st.integers(1, 40),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_full_scan(
        self, label, snr_db, cells_per_lambda, n_pts, lo, q0_frac, trials, workers, seed
    ):
        plan = PLANS[label]
        step = plan.lambda_min / cells_per_lambda
        cfg = EstimatorConfig(lo, lo + (n_pts - 0.5) * step, step)
        assert cfg.size == n_pts
        noise = NoiseModel.none() if snr_db is None else NoiseModel.phase_gaussian(snr_db=snr_db)
        q0 = lo + q0_frac * (n_pts - 1) * step
        phases = synth_trial_matrix(plan, q0, noise, seed, "bnb", 0, trials)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # steps above lambda_min/4 warn
            _, cost, idx = ls_estimate_batch(phases, plan, cfg, workers=workers)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_noise_free_ambiguity_matches_full_scan(self, workers):
        plan = PLANS["rips"]
        cfg = EstimatorConfig(-20.0, 330.0, 0.01)  # holds 12.34 and 12.34 + UMR
        phases = synth_trial_matrix(plan, 12.34, NoiseModel.none(), 1, "amb", 0, 3)
        q, cost, idx = ls_estimate_batch(phases, plan, cfg, workers=workers)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(q, 12.34, atol=1e-9)
        assert ls_cost(phases[0], plan, 12.34 + umr(plan)) <= 1e-12

    # Zero phases on a dyadic grid: the model c_i*q and its wrap are odd in
    # q bit for bit, so cost(-q) == cost(q) exactly and the cells at
    # -step/2 and +step/2 tie as the minimum.  ``window(w)`` gives the
    # window's ends in steps for block width w.
    TIE_STEP = 2.0**-7

    def tie_window(self, plan, window):
        w = estimator._block_width(plan, self.TIE_STEP)
        lo, hi = window(w)
        return w, EstimatorConfig(lo * self.TIE_STEP, hi * self.TIE_STEP, self.TIE_STEP)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "window, layout",
        [
            (lambda w: (-4 * w - 0.5, 4 * w + 0.5), "one block"),
            (lambda w: (-4 * w + 0.5, 4 * w - 0.5), "two blocks, equal bounds"),
            # The +step/2 cell opens a 3-cell last block, whose bound is
            # lower, so B&B visits it before the -step/2 cell's block.
            (lambda w: (-4 * w + 0.5, 2.5), "short last block first"),
        ],
    )
    def test_exact_tie_goes_to_lower_index(self, workers, window, layout):
        plan = PLANS["rips"]
        zeros = np.zeros(plan.n)
        assert ls_cost(zeros, plan, -self.TIE_STEP / 2) == ls_cost(zeros, plan, self.TIE_STEP / 2)
        width, cfg = self.tie_window(plan, window)
        low = int(np.nonzero(cfg.grid() == -self.TIE_STEP / 2)[0][0])
        assert (low // width == (low + 1) // width) == (layout == "one block")
        phases = np.zeros((3, plan.n))
        _, cost, idx = ls_estimate_batch(phases, plan, cfg, workers=workers)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert idx.tolist() == ref_idx.tolist() == [low] * 3

    # Blocks 3 and 4 hold the -step/2 and +step/2 cells: visited in one
    # call (either order) or the higher block first, then the lower one.
    @pytest.mark.parametrize("calls", [[[3, 4]], [[4, 3]], [[4], [3]]])
    def test_visits_keep_lower_index_of_a_tie(self, calls):
        plan = PLANS["rips"]
        width, cfg = self.tie_window(plan, lambda w: (-4 * w + 0.5, 4 * w - 0.5))
        coef = (TWO_PI / plan.c) * plan.frequencies
        val, idx = np.full(1, np.inf), np.zeros(1, dtype=np.int64)
        for blocks in calls:
            rows = np.zeros(len(blocks), dtype=np.int64)
            estimator._visit(
                np.zeros((1, plan.n)), coef, cfg.grid(), width, rows, np.array(blocks), val, idx
            )
        assert idx[0] == 4 * width - 1

    @pytest.mark.parametrize("label", sorted(PLANS))
    def test_bound_below_block_costs(self, label):
        plan = PLANS[label]
        coef = (TWO_PI / plan.c) * plan.frequencies
        grid = EstimatorConfig(-40.0, 40.0, 0.01).grid()
        rng = np.random.default_rng(2024)
        phases = np.vstack([
            synth_trial_matrix(plan, 1.5, NoiseModel.phase_gaussian(snr_db=5.0), 3, "lb", 0, 4),
            synth_trial_matrix(plan, -7.0, NoiseModel.none(), 3, "lb", 0, 1),
            rng.uniform(-math.pi, math.pi, (3, plan.n)),
        ])
        cost = ls_cost(phases[:, None, :], plan, grid[None, :])
        # 400 cells span 3.99 m, so c_i*h >= pi for every i but in the
        # one-cell last block.
        for width in (1, 5, 23, 400):
            centre, shrink = estimator._blocks(coef, grid, width)
            lb = estimator._lower_bounds(phases, centre, shrink)
            block_min = np.minimum.reduceat(cost, np.arange(0, grid.size, width), axis=1)
            assert (lb <= block_min).all()
            assert lb.max() > 0.0
            whole_cycle = (shrink >= math.pi).all(axis=0)
            assert (lb[:, whole_cycle] == 0.0).all()
            assert whole_cycle.any() == (width == 400)
