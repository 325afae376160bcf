import contextlib
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfirange import (
    C_PAPER,
    DesignParams,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    design_prime_max_error,
    design_prime_min_error,
    design_rips,
    grid_offset,
    ls_cost,
    ls_estimate,
    ls_estimate_batch,
    practical_umr,
    sigma_theta_from_snr_db,
    synth_phases,
    synth_trial_matrix,
    umr,
    unwrap_ok,
    wrap_phase,
)
from mfirange import estimator
from mfirange.core import _wrap_inplace

TWO_PI = 2 * math.pi

_PRIME = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
PLANS = {
    "rips": design_rips(400e6, 20e6, 21, c=C_PAPER),
    "prime-min": design_prime_min_error(_PRIME, 400e6, c=C_PAPER),
    "prime-max": design_prime_max_error(_PRIME, 400e6, c=C_PAPER),
    "narrowband": FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 39, c=C_PAPER),
}


# Grid points per chunk of the reference scan: chunk x trials elements.
SCAN_ELEMS = 4_000_000


def full_scan(phases, plan, cfg):
    """(min cost, lowest argmin index) per trial by a full grid scan.

    The reference for the branch and bound of ``estimator.LsSearch.run``,
    which must return this scan's (cost, index) bit for bit.  With both
    the observed phases and the per-chunk model phases wrapped to
    (-pi, pi], the residual lies in (-2*pi, 2*pi) and its wrapped square
    is min(|d|, 2*pi - |d|)^2; ``estimator._cell_costs`` applies the same
    ``_wrapped_square``, term by term in plan order, to the cells the B&B
    visits.  Earlier chunks win ties, so the lowest index of least cost wins.
    """
    coef = (TWO_PI / plan.c) * plan.frequencies
    grid = cfg.grid()
    wrapped = _wrap_inplace(np.array(phases, dtype=float))
    t = wrapped.shape[0]
    best_val = np.full(t, np.inf)
    best_idx = np.zeros(t, dtype=np.int64)
    chunk = max(16, min(grid.size, SCAN_ELEMS // max(1, t)))
    for start in range(0, grid.size, chunk):
        g = grid[start : start + chunk]
        model = _wrap_inplace(coef[:, None] * g[None, :])
        d, tmp = np.empty((t, g.size)), np.empty((t, g.size))
        acc = np.zeros((t, g.size))
        for i in range(coef.size):
            np.subtract(wrapped[:, i : i + 1], model[i][None, :], out=d)
            acc += estimator._wrapped_square(d, tmp)
        idx = np.argmin(acc, axis=1)
        val = acc[np.arange(t), idx]
        better = val < best_val  # strict: earlier chunks win ties (lower q)
        best_val[better] = val[better]
        best_idx[better] = idx[better] + start
    return best_val, best_idx


# LsSearch's two searches, forced on any grid by patching the cut.
SEARCH_CUTS = {"cosine": 1 << 62, "bnb": 0}


@contextlib.contextmanager
def search_path(path):
    """Force LsSearch's search: "cosine" (the cosine bound) or "bnb" (the
    comb B&B) on every grid.  The cached search of the last (plan, config)
    is dropped on entry and on exit, so no search built under the patch is
    reused outside it."""
    estimator._search.cache_clear()
    try:
        with mock.patch.object(estimator, "_COS_CELLS", SEARCH_CUTS[path]):
            yield
    finally:
        estimator._search.cache_clear()


@pytest.fixture(params=sorted(SEARCH_CUTS))
def path(request):
    with search_path(request.param):
        yield request.param


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
        # The message names the shape received and the plan's N.
        msg = r"^phases have shape {}, but their last axis must hold the plan's 21 frequencies$"
        with pytest.raises(ValueError, match=msg.format(r"\(5,\)")):
            ls_cost(np.zeros(5), plan21, 0.0)
        with pytest.raises(ValueError, match=msg.format(r"\(21, 3\)")):
            ls_cost(np.zeros((plan21.n, 3)), plan21, 0.0)

    def test_block_with_per_row_q_equals_row_calls(self, plan21):
        phases = synth_trial_matrix(
            plan21, 0.3, NoiseModel.phase_gaussian(snr_db=8.0), 5, "block", 0, 6
        )
        q = np.linspace(-1.0, 2.0, 6)
        block = ls_cost(phases, plan21, q)
        assert block.shape == (6,)
        assert block.tolist() == [ls_cost(phases[t], plan21, q[t]) for t in range(6)]


class TestLsEstimate:
    def test_exact_recovery_on_grid(self, plan21):
        pv = synth_phases(plan21, 12.34, NoiseModel.none())
        cfg = EstimatorConfig(-150.0, 150.0, 0.01)
        est = ls_estimate(pv, plan21, cfg)
        assert est.q_hat == pytest.approx(12.34, abs=1e-9)
        assert est.cost_at_min <= 1e-20
        assert not estimator.LsSearch(plan21, cfg).refines(est.grid_index)

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
        # hi - lo, or (hi - lo) / step, overflows: the grid cannot be counted.
        for lo, hi, step in [(-1e308, 1e308, 1.0), (-1e300, 1e300, 1e-300)]:
            with pytest.raises(ValueError, match="too many grid steps to count"):
                EstimatorConfig(lo, hi, step)

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

    def test_phase_count_must_match_the_plan(self, plan21):
        cfg = EstimatorConfig(-1.0, 1.0, 0.01)
        with pytest.raises(ValueError, match=r"^phase vector has 5 phases, but the plan has 21 "):
            ls_estimate(np.zeros(5), plan21, cfg)
        with pytest.raises(ValueError, match=r"^phase vector has shape \(1, 21\), but the plan"):
            ls_estimate(np.zeros((1, plan21.n)), plan21, cfg)

    def test_coarse_step_warns(self, plan21):
        pv = synth_phases(plan21, 0.0, NoiseModel.none())
        with pytest.warns(UserWarning):
            ls_estimate(pv, plan21, EstimatorConfig(-10.0, 10.0, 1.0))

    def test_refinement_recovers_off_grid_truth(self, plan21):
        pv = synth_phases(plan21, 0.123456, NoiseModel.none())
        coarse = ls_estimate(pv, plan21, EstimatorConfig(-1.0, 1.0, 0.01))
        cfg = EstimatorConfig(-1.0, 1.0, 0.01, refine=True)
        fine = ls_estimate(pv, plan21, cfg)
        assert abs(coarse.q_hat - 0.123456) <= 0.005
        assert estimator.LsSearch(plan21, cfg).refines(fine.grid_index)
        assert fine.q_hat == pytest.approx(0.123456, abs=1e-6)


class TestBatch:
    def test_every_search_returns_an_estimate(self, plan21):
        cfg = EstimatorConfig(-2.0, 2.0, 0.01)
        noise = NoiseModel.phase_gaussian(snr_db=15.0)
        phases = synth_trial_matrix(plan21, 0.456, noise, 7, "batch", 0, 3)
        search = estimator.LsSearch(plan21, cfg)
        for est in (search.run(phases), ls_estimate_batch(phases, plan21, cfg)):
            assert type(est) is estimator.Estimate
            assert [x.dtype for x in est] == [np.float64, np.float64, np.int64]
        assert type(ls_estimate(phases[0], plan21, cfg)) is estimator.Estimate

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

    def test_unrefined_cost_is_ls_cost_at_grid_point(self, plan21):
        # One cost kernel: the search's cost of its grid minimum is ls_cost
        # at that grid point, bit for bit, in a batch and one at a time.
        cfg = EstimatorConfig(-3.0, 3.0, 0.01)
        phases = synth_trial_matrix(
            plan21, 0.1237, NoiseModel.phase_gaussian(snr_db=13.0), 5, "kernel", 0, 200
        )
        grid = cfg.grid()
        q, cost, idx = ls_estimate_batch(phases, plan21, cfg)
        assert np.array_equal(q, grid[idx])
        assert cost.tolist() == ls_cost(phases, plan21, grid[idx]).tolist()
        for t in range(200):
            est = ls_estimate(phases[t], plan21, cfg)
            assert est.cost_at_min == ls_cost(phases[t], plan21, grid[est.grid_index])

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

    @pytest.mark.parametrize("shape", [(4, 20), (21,), (2, 3, 21)])
    def test_shape_must_match_the_plan(self, plan21, shape):
        # The message names the shape received and the plan's N.
        cfg = EstimatorConfig(-1.0, 1.0, 0.01)
        got = re.escape(str(shape))
        msg = rf"^phases have shape {got}, but must be \(trials, 21\) for the plan's 21 frequencies$"
        with pytest.raises(ValueError, match=msg):
            ls_estimate_batch(np.zeros(shape), plan21, cfg)
        with pytest.raises(ValueError, match=msg):
            estimator.LsSearch(plan21, cfg).run(np.zeros(shape))

    def test_batch_is_one_search_run(self, plan21):
        # ls_estimate_batch ignores ``workers`` and runs the search of
        # (plan, cfg), whose arrays are read-only: the search is shared.
        cfg = EstimatorConfig(-150.0, 150.0, 0.05, refine=True)
        phases = synth_trial_matrix(
            plan21, 0.0, NoiseModel.phase_gaussian(snr_db=10.0), 11, "det", 0, 300
        )
        search = estimator.LsSearch(plan21, cfg)
        got = ls_estimate_batch(phases, plan21, cfg, workers=4)
        for a, b in zip(got, search.run(phases)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        arrays = (search.grid, search.coef, search.table, search.comb_class, search.base_model)
        for arr in arrays + (search.phasors, *search.bounds):
            assert not arr.flags.writeable


class TestSlices:
    """``LsSearch.run`` searches a block in slices of ``search.slice``
    trials, with one workspace for the run, on either search."""

    # The campaign-fine shape: uniform N = 21 plan, 601 cells, refine on.
    CFG = EstimatorConfig(-3.0, 3.0, 0.01, refine=True)

    def edge_block(self, plan, search):
        """2*S + 1 trials, S = search.slice: noisy interior ones, and
        noise-free ones at the grid ends placed on every slice edge."""
        s = search.slice
        noise = NoiseModel.phase_gaussian(snr_db=20.0)
        phases = synth_trial_matrix(plan, 0.1237, noise, 3, "edges", 0, 2 * s + 1)
        lo, hi = (synth_phases(plan, q, NoiseModel.none()).as_array() for q in search.grid[[0, -1]])
        ends = {0: lo, s - 1: hi, s: lo, 2 * s - 1: hi, 2 * s: lo}
        for t, row in ends.items():
            phases[t] = row
        return phases, ends

    def test_slice_size_from_the_element_budget(self, plan21):
        with search_path("bnb"):
            search = estimator.LsSearch(plan21, self.CFG)
            assert search.slice == estimator._SLICE_ELEMS // (3 * plan21.n) == 520
            # The wide-window far-cluster shape of the acceptance checks (N = 31,
            # 500 001 cells): the (trials x combs) bounds cap the slice.
            replay = REPLAY_PLAN
            far = estimator.LsSearch(replay, EstimatorConfig(-1e3, 2.4e4, 0.05))
            assert far.slice == estimator._TARGET_ELEMS // far.table.shape[0]
            assert far.slice < estimator._SLICE_ELEMS // (3 * replay.n)

    def test_cosine_slice_size_from_the_element_budget(self, plan21):
        # One comb of every cell: its (trials x cells) float32 sums cap the
        # slice below the phase budget's 520 trials, and each matrix product
        # takes at most _GEMM_ELEMS multiply-adds.
        search = estimator.LsSearch(plan21, self.CFG)
        assert search.bounds is None and search.phasors.shape == (1, 2 * plan21.n, 601)
        assert np.array_equal(search.table, np.arange(601)[None, :])
        assert search.slice == search.visit_pairs == estimator._COS_ELEMS // 601 == 218
        assert search.gemm_rows == estimator._GEMM_ELEMS // (2 * plan21.n * 601) == 20
        # The largest grid of one comb, and the smallest with a bound pass.
        step = self.CFG.step
        top = estimator.LsSearch(plan21, EstimatorConfig(0.0, (estimator._COS_CELLS - 1) * step, step))
        assert top.grid.size == estimator._COS_CELLS and top.bounds is None
        assert top.table.shape == (1, estimator._COS_CELLS)
        assert top.slice == estimator._COS_ELEMS // estimator._COS_CELLS == 81
        assert top.gemm_rows == estimator._GEMM_ELEMS // (2 * plan21.n * top.grid.size) == 7
        over = estimator.LsSearch(plan21, EstimatorConfig(0.0, estimator._COS_CELLS * step, step))
        assert over.grid.size == estimator._COS_CELLS + 1 and over.bounds is not None
        assert over.table.shape[0] > 1

    def test_slice_edges_match_per_trial_and_full_scan(self, plan21, path):
        search = estimator.LsSearch(plan21, self.CFG)
        phases, ends = self.edge_block(plan21, search)
        q, cost, idx = search.run(phases)
        assert [idx[t] for t in ends] == [0, self.CFG.size - 1, 0, self.CFG.size - 1, 0]
        refined = search.refines(idx)
        assert refined.sum() == phases.shape[0] - len(ends)
        for t in range(phases.shape[0]):
            est = ls_estimate(phases[t], plan21, self.CFG)
            assert (est.q_hat, est.cost_at_min, est.grid_index) == (q[t], cost[t], idx[t])
            assert search.refines(est.grid_index) == refined[t]
        ref_cost, ref_idx = full_scan(phases, plan21, self.CFG)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(cost[~refined], ref_cost[~refined])
        assert (cost[refined] < ref_cost[refined]).all()

    @pytest.mark.parametrize("size", [1, 7, 519, 521, 5000])
    def test_any_slice_size_keeps_the_bits(self, plan21, size, path):
        search = estimator.LsSearch(plan21, self.CFG)
        phases, _ = self.edge_block(plan21, search)
        want = search.run(phases)
        search.slice = size
        for a, b in zip(search.run(phases), want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_unwrapped_phases_match_prewrapped(self, plan21, path):
        search = estimator.LsSearch(plan21, self.CFG)
        phases, _ = self.edge_block(plan21, search)
        turns = np.random.default_rng(8).integers(-40, 40, phases.shape)
        outside = phases + TWO_PI * turns
        assert (np.abs(outside) > math.pi).mean() > 0.9
        prewrapped = _wrap_inplace(outside.copy())
        for a, b in zip(search.run(outside), search.run(prewrapped)):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(outside, phases + TWO_PI * turns)  # the input is not wrapped

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_in_the_last_slice(self, plan21, path, bad):
        search = estimator.LsSearch(plan21, self.CFG)
        phases, _ = self.edge_block(plan21, search)
        phases[-1, 3] = bad
        with pytest.raises(ValueError, match="^phases must be finite$"):
            search.run(phases)

    def test_empty_block(self, plan21, path):
        q, cost, idx = estimator.LsSearch(plan21, self.CFG).run(np.empty((0, plan21.n)))
        assert (q.dtype, cost.dtype, idx.dtype) == (np.float64, np.float64, np.int64)
        assert q.size == cost.size == idx.size == 0

    @pytest.mark.parametrize("trials", [4000, 40_000])
    def test_memory_does_not_grow_with_the_block(self, plan21, path, trials):
        # The temporaries are one slice's: the (slice x N) phase buffer, the
        # workspace of two buffers of up to _SLICE_ELEMS float64 elements,
        # and the bounds and visit arrays of one slice, about 1.1 MiB on this
        # shape (the B&B), or the (slice x cells) float32 sums and the
        # candidates' arrays, about 1.0 MiB (the cosine bound).  The three
        # outputs, 24 bytes a trial, are 0.92 MiB at 40 000 trials.  The
        # whole block at once took 5.4 and 53.5 MiB here.
        search = estimator.LsSearch(plan21, self.CFG)
        noise = NoiseModel.phase_gaussian(snr_db=20.0)
        phases = synth_trial_matrix(plan21, 0.1237, noise, 4, "memory", 0, trials)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            search.run(phases)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * estimator._SLICE_ELEMS, peak


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


# B/f_max = 0.79: the wideband plan of the confusion-rate acceptance check,
# whose B&B falls back to contiguous blocks.
WIDE = FrequencyPlan(f1=105e6, resolution=10e6, spacings=(1,) * 40, c=C_PAPER)
BNB_PLANS = {**PLANS, "wideband": WIDE}
# A narrowband N=64 plan (B/f_max = 0.14).
N64 = FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 63, c=C_PAPER)
# A narrowband N=128 plan (B/f_max = 0.25).
N128 = FrequencyPlan(f1=390.1e6, resolution=1e6, spacings=(1,) * 127, c=C_PAPER)
# The N=31 plan of the replay workload and the wide-window acceptance check.
REPLAY_PLAN = design_prime_min_error(
    DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, prime_index=12), 410e6, c=C_PAPER
)


def coef_of(plan):
    return (TWO_PI / plan.c) * plan.frequencies


def kernel_costs(phases, plan, grid):
    """(trials x grid) costs in the full scan's per-cell arithmetic."""
    coef = coef_of(plan)
    model = _wrap_inplace(coef[:, None] * grid)[:, None, :]
    return estimator._cell_costs(phases, model, np.zeros(phases.shape[0], dtype=np.int64))


def virtual_cells(search):
    """(combs x width) grid index of each column of the search's coherent
    sums: its super-block's first cell plus its class cell, past the grid's
    end where the last super-block is clipped (there the cell table repeats
    the comb's last real cell).  The first super-block's combs come first,
    one per class; it must not be clipped itself, so the grid must hold more
    than one super-block or be one comb of every cell."""
    table, cls = search.table, search.comb_class
    pattern = table[: search.phasors.shape[0]]
    return table[:, :1] - pattern[cls, :1] + pattern[cls]


class TestFloat32Allowance:
    """The precision rule of the estimator module: float32 cell costs and
    bounds are within E(N) of their float64 values."""

    @pytest.mark.parametrize("n", [2, 21, 31, 64, 200])
    def test_costs_and_bounds_within_allowance(self, n):
        plan = FrequencyPlan(f1=400e6, resolution=0.5e6, spacings=(1,) * (n - 1), c=C_PAPER)
        coef = coef_of(plan)
        e = estimator._allowance(n)
        rng = np.random.default_rng(n)
        # Grid values up to 2e4 m, and ones whose model sits at +-pi.
        q = np.concatenate([
            rng.uniform(-2e4, 2e4, 500),
            np.multiply.outer([-1.0, 1.0], math.pi / coef).ravel(),
            [-2e4, 2e4],
        ])
        model = _wrap_inplace(coef[:, None] * q)
        # Phases at +-pi, uniform ones, and ones opposite a model (terms near pi^2).
        phases = np.vstack([
            np.full((1, n), math.pi),
            np.full((1, n), -math.pi),
            rng.uniform(-math.pi, math.pi, (6, n)),
            _wrap_inplace(model[:, :4].T + math.pi),
        ])
        assert np.abs(model).max() == pytest.approx(math.pi) and (np.abs(model) <= math.pi).all()
        rows = np.zeros(phases.shape[0], dtype=np.int64)
        c64 = estimator._cell_costs(phases, model[:, None, :], rows)
        c32 = estimator._cell_costs(
            phases.astype(np.float32), model[:, None, :].astype(np.float32), rows
        )
        assert c32.dtype == np.float32 and c64.dtype == np.float64
        assert (np.abs(c32 - c64) <= e).all()
        assert c64.max() > 0.9 * n * math.pi**2
        # The bounds of the same centres, with shrinks from 0 to past pi.
        shrink = rng.uniform(0.0, 3.5, model.shape)
        shrink[:, :50] = 0.0
        lb = estimator._lower_bounds(phases, *estimator._bound_arrays(model, shrink))
        d = np.abs(_wrap_inplace(phases[:, :, None] - model[None]))
        lb64 = np.square(np.maximum(d - shrink[None], 0.0)).sum(axis=1)
        assert lb.dtype == np.float32 and lb.shape == lb64.shape
        assert (lb <= lb64).all() and (lb >= lb64 - 2.0 * e).all()
        assert lb.max() > 0.9 * n * math.pi**2

    # (N, cells): one comb of every cell at 1500 cells; combs after a bound
    # pass, with a clipped last super-block, at 6001 (at N = 200 the plan
    # is wideband and its combs are too narrow for coherent visits).
    @pytest.mark.parametrize(
        "n, n_pts", [(n, 1500) for n in (2, 21, 31, 64, 200)] + [(n, 6001) for n in (2, 21, 64)]
    )
    def test_cosine_sums_within_allowance(self, n, n_pts):
        # The coherent sums of a search far from 0: for pairs of every trial with the first, the
        # middle and the last combs, 2*|C32 - C| is within
        # 4*N*(N + 12)*2^-24 + 2*N*pad of the float64 sums over the kernel's
        # model, also at the virtual cells past the grid's end, and every
        # cell's C32 reaches the threshold of its own float64 cost.
        plan = FrequencyPlan(f1=400e6, resolution=0.5e6, spacings=(1,) * (n - 1), c=C_PAPER)
        step = plan.lambda_min / 7.0
        search = estimator.LsSearch(plan, EstimatorConfig(-2e4, -2e4 + (n_pts - 0.5) * step, step))
        assert search.grid.size == n_pts and (search.bounds is None) == (n_pts <= estimator._COS_CELLS)
        assert search.phasors is not None
        assert search.bounds is None or n_pts % estimator._layout(search.coef, step, n_pts)[2]
        coef, grid, table = search.coef, search.grid, search.table
        last = table.shape[0] - 1
        combs = np.unique(np.minimum([0, 1, last // 2, last], last))
        cells = virtual_cells(search)[combs]
        model = _wrap_inplace(coef[:, None, None] * (grid[0] + step * cells))  # (N, combs, width)
        rng = np.random.default_rng(n)
        # Phases at +-pi, uniform ones, ones opposite a model (sums near -N)
        # and ones equal to a model (sums near N, the coherent worst case).
        flat = model.reshape(n, -1)
        phases = np.vstack([
            np.full((1, n), math.pi),
            np.full((1, n), -math.pi),
            rng.uniform(-math.pi, math.pi, (4, n)),
            _wrap_inplace(flat[:, rng.choice(flat.shape[1], 3, replace=False)].T + math.pi),
            flat[:, rng.choice(flat.shape[1], 6, replace=False)].T,
        ])
        rows = np.repeat(np.arange(phases.shape[0]), combs.size)
        comb = np.tile(np.arange(combs.size), phases.shape[0])
        order = np.argsort(search.comb_class[combs][comb], kind="stable")
        rows, comb = rows[order], comb[order]
        ang = _wrap_inplace(phases[rows] - search.base_model[combs][comb])
        sums = np.empty((rows.size, table.shape[1]), np.float32)
        c32 = estimator._coherent_sums(
            ang, search.phasors, search.comb_class[combs][comb], sums, search.gemm_rows
        )
        c64 = np.cos(phases[rows].T[:, :, None] - model[:, comb]).sum(axis=0)
        pad = (search.allowance - estimator._cos_allowance(n, 0.0)) / (2 * n)
        assert 0.0 < pad < 1e-6
        assert (2.0 * np.abs(c32 - c64) <= 4 * n * (n + 12) * 2.0**-24 + 2 * n * pad).all()
        assert c32.max() > n - 1e-3 and c32.min() < -n + 1e-3
        k64 = estimator._cell_costs(phases[rows], model, comb)
        assert (2.0 * n - 2.0 * c64 <= k64 + 1e-9).all()
        floor = (n - 0.5 * (k64 + search.allowance)).astype(np.float32)
        assert (c32 >= floor).all()

    def test_float32_trig_within_its_budget(self):
        # The coherent sums' allowance F takes each float32 cos and sin of
        # an angle wrapped in float64, cast to float32, within 8*2^-24 of
        # the float64 cos and sin of the float64 angle.  A dense sweep of
        # [-pi, pi] in chunks, with the ends and the quarter turns exact.
        budget = 8 * 2.0**-24
        worst = 0.0
        for chunk in np.array_split(np.linspace(-math.pi, math.pi, 1 << 23), 16):
            x32 = chunk.astype(np.float32)
            for f in (np.cos, np.sin):
                worst = max(worst, float(np.abs(f(x32) - f(chunk)).max()))
        ends = np.multiply.outer([-1.0, 1.0], [0.0, math.pi / 2, math.pi]).ravel()
        for f in (np.cos, np.sin):
            worst = max(worst, float(np.abs(f(ends.astype(np.float32)) - f(ends)).max()))
        assert 0.0 < worst <= budget

    def test_reach_term_covers_the_factored_angles(self):
        # Near +-24 km on the N = 31 replay plan the model phases reach
        # 2.3e5 rad, and a cell's factored angle, wrap(phi - wrap(c_i*(b -
        # grid[0]))) - wrap(c_i*x) for its super-block's first cell b and its
        # class cell x, differs from the kernel's phi - wrap(c_i*q) by a few
        # ulps of that: F's reach term 2*N*pad covers it, and pad is the
        # shrink's 16 ulps.
        plan = REPLAY_PLAN
        for lo in (23_980.0, -24_020.0):
            cfg = EstimatorConfig(lo, lo + 40.0, 0.01)
            search = estimator.LsSearch(plan, cfg)
            coef, grid, step = search.coef, search.grid, cfg.step
            assert search.bounds is not None and search.phasors is not None
            cells = virtual_cells(search)
            ncls = search.phasors.shape[0]
            phi = np.random.default_rng(abs(int(lo))).uniform(-math.pi, math.pi, plan.n)
            rotated = _wrap_inplace(phi - search.base_model)  # (combs, N)
            own = _wrap_inplace(coef[:, None, None] * (grid[0] + step * cells[:ncls])[None])
            kernel = _wrap_inplace(coef[:, None, None] * (grid[0] + step * cells)[None])
            factored = rotated.T[:, :, None] - own[:, search.comb_class]
            err = np.abs(_wrap_inplace(factored - (phi[:, None, None] - kernel)))
            pad = estimator._combs(coef, grid, step).pad
            assert 0.0 < err.max() <= pad
            reach_term = search.allowance - estimator._cos_allowance(plan.n, 0.0)
            assert reach_term == pytest.approx(2 * plan.n * pad)
            assert reach_term >= 2 * plan.n * err.max()


class TestBranchAndBound:
    @given(
        label=st.sampled_from(sorted(BNB_PLANS)),
        snr_db=st.one_of(st.none(), st.floats(-35.0, 40.0)),
        # lambda_min / step: the step is above lambda_min/3 at 2.9
        cells_per_lambda=st.sampled_from([2.9, 7.0, 25.0, 70.0]),
        # Short windows are one super-block, with n_u at its floor of 4 up
        # to 20 cells; longer ones mostly end in a partial super-block, and
        # coarse steps put n_u at its floor too.
        n_pts=st.one_of(st.integers(2, 30), st.integers(31, 3000), st.integers(3001, 12000)),
        lo=st.floats(-200.0, 200.0),
        q0_frac=st.floats(-0.1, 1.1),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    # Hard cases pinned, since a new literal in the package shifts the
    # derandomized draws: coarse wideband steps at -35 dB, where most combs
    # stay open and costs are large, and at 0 dB on a short window.
    @example(label="wideband", snr_db=-35.0, cells_per_lambda=2.9, n_pts=3000, lo=-3.1,
             q0_frac=0.5, trials=40, seed=1)
    @example(label="wideband", snr_db=0.0, cells_per_lambda=2.9, n_pts=31, lo=-3.1,
             q0_frac=0.5, trials=31, seed=493)
    @pytest.mark.parametrize("path", sorted(SEARCH_CUTS))
    def test_matches_full_scan(
        self, path, label, snr_db, cells_per_lambda, n_pts, lo, q0_frac, trials, seed
    ):
        plan = BNB_PLANS[label]
        step = plan.lambda_min / cells_per_lambda
        cfg = EstimatorConfig(lo, lo + (n_pts - 0.5) * step, step)
        assert cfg.size == n_pts
        noise = NoiseModel.none() if snr_db is None else NoiseModel.phase_gaussian(snr_db=snr_db)
        q0 = lo + q0_frac * (n_pts - 1) * step
        phases = synth_trial_matrix(plan, q0, noise, seed, "bnb", 0, trials)
        with warnings.catch_warnings(), search_path(path):
            warnings.simplefilter("ignore")  # steps above lambda_min/4 warn
            _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize(
        "label, lo, cells_per_lambda, n_pts",
        [("rips", 1.5e4, 25.0, 3000), ("prime-max", -1.5e4, 70.0, 4001),
         ("wideband", 1.5e4, 7.0, 900), ("n64", -40.0, 25.0, 5000)],
    )
    def test_far_windows_and_many_frequencies_match_full_scan(
        self, label, lo, cells_per_lambda, n_pts, path
    ):
        # Far from 0 the model phases c_i*q reach 1e5 rad before the wrap;
        # at N = 64 the float32 allowance is about 4 times that of N = 31.
        plan = {**BNB_PLANS, "n64": N64}[label]
        step = plan.lambda_min / cells_per_lambda
        cfg = EstimatorConfig(lo, lo + (n_pts - 0.5) * step, step)
        rng = np.random.default_rng(n_pts)
        phases = np.vstack([
            synth_trial_matrix(plan, q0, noise, 5, "far", 0, 5)
            for q0 in rng.uniform(cfg.search_lo, cfg.search_hi, 2)
            for noise in [NoiseModel.none()]
            + [NoiseModel.phase_gaussian(snr_db=snr) for snr in (-10.0, 10.0, 30.0)]
        ] + [rng.uniform(-math.pi, math.pi, (5, plan.n))])
        _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_tie_is_decided_in_float64(self, sign, path):
        # Zero phases, with the cells around 0 at -step/2 - delta and
        # step/2 - delta (sign 1) or mirrored (sign -1): the cell nearer 0
        # costs about 24*delta less, far below the float32 allowance, so
        # both cells are costed again in float64, which picks the nearer one.
        plan, step, delta = PLANS["rips"], self.TIE_STEP, 1e-9
        n_pts = 200
        first = -99.5 * step - sign * delta
        cfg = EstimatorConfig(first, first + (n_pts - 1) * step, step)
        assert cfg.size == n_pts
        grid = cfg.grid()
        low = int(np.argmin(np.abs(grid + step / 2)))
        phases = np.zeros((3, plan.n))
        c_low, c_high = (ls_cost(phases[0], plan, grid[k]) for k in (low, low + 1))
        assert 0.0 < abs(c_low - c_high) < estimator._allowance(plan.n)
        _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert idx.tolist() == ref_idx.tolist() == [low + 1 if sign > 0 else low] * 3

    # (plan, lambda_min/step, cells, layout): each window's layout is
    # asserted, so a change of the layout rule cannot empty a case.
    EDGE_WINDOWS = [
        ("rips", 70.0, 150, "one super-block"),
        ("prime-max", 25.0, 999, "partial last super-block"),
        ("narrowband", 70.0, 30000, "partial last super-block"),
        ("rips", 70.0, 4, "n_u floor"),
        ("prime-min", 25.0, 20000, "n_u floor"),
        ("rips", 2.9, 500, "step above lambda_min/3"),
        ("narrowband", 2.9, 77, "step above lambda_min/3"),
        ("wideband", 25.0, 101, "contiguous"),
        ("wideband", 2.9, 40, "contiguous"),
    ]

    @pytest.mark.parametrize("label, cells_per_lambda, n_pts, layout", EDGE_WINDOWS)
    def test_edge_windows_match_full_scan(self, label, cells_per_lambda, n_pts, layout, path):
        plan = BNB_PLANS[label]
        step = plan.lambda_min / cells_per_lambda
        cfg = EstimatorConfig(-3.1, -3.1 + (n_pts - 0.5) * step, step)
        _, n_u, size = estimator._layout(coef_of(plan), step, n_pts)
        assert {
            "one super-block": size == n_pts and n_u > 4,
            "partial last super-block": n_pts % size != 0 and n_pts > size,
            "n_u floor": n_u == 4,
            "step above lambda_min/3": n_u == 4 and step > plan.lambda_min / 3,
            "contiguous": n_u == 1,
        }[layout]
        rng = np.random.default_rng(n_pts)
        phases = np.vstack([
            synth_trial_matrix(plan, q0, noise, n_pts, "edge", 0, 4)
            for q0 in rng.uniform(cfg.search_lo, cfg.search_hi, 3)
            for noise in (NoiseModel.none(), NoiseModel.phase_gaussian(snr_db=8.0))
        ] + [rng.uniform(-math.pi, math.pi, (4, plan.n))])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    def test_coincident_frequencies_match_full_scan(self, path):
        # 1e-8 Hz spacings vanish in f1 = 1 GHz: every c_i is equal, so the
        # comb bound has no envelope term and the window is one super-block.
        plan = FrequencyPlan(f1=1e9, resolution=1e-8, spacings=(1, 1), c=C_PAPER)
        assert np.unique(plan.frequencies).size == 1
        cfg = EstimatorConfig(-1.0, 1.0, 0.001)
        noise = NoiseModel.phase_gaussian(snr_db=5.0)
        phases = synth_trial_matrix(plan, 0.1, noise, 1, "co", 0, 20)
        _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    def test_noise_free_ambiguity_matches_full_scan(self, path):
        plan = PLANS["rips"]
        cfg = EstimatorConfig(-20.0, 330.0, 0.01)  # holds 12.34 and 12.34 + UMR
        phases = synth_trial_matrix(plan, 12.34, NoiseModel.none(), 1, "amb", 0, 3)
        q, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(q, 12.34, atol=1e-9)
        assert ls_cost(phases[0], plan, 12.34 + umr(plan)) <= 1e-12

    @pytest.mark.parametrize(
        "label, cells_per_lambda, n_pts",
        [("rips", 70.0, 30001), ("narrowband", 25.0, 5000), ("prime-min", 2.9, 333),
         ("wideband", 25.0, 1001), ("wideband", 2.9, 50)],
    )
    def test_layout_from_plan(self, label, cells_per_lambda, n_pts):
        plan = BNB_PLANS[label]
        coef = coef_of(plan)
        step = plan.lambda_min / cells_per_lambda
        grid = EstimatorConfig(0.0, (n_pts - 0.5) * step, step).grid()
        c_bar, n_u, size = estimator._layout(coef, step, n_pts)
        layout = estimator._combs(coef, grid, step)
        table, centre, shrink = layout.table, layout.centre_model, layout.shrink
        # One shrink per frequency, the same for every comb.
        assert centre.shape == (plan.n, table.shape[0]) and shrink.shape == (plan.n, 1)
        assert layout.base_model.shape == (table.shape[0], plan.n)
        # Combs narrower than _COHERENT_WIDTH have no class phasors; wider
        # ones have one (2N x width) block per class, each comb's cells
        # its class cells moved by its super-block's first cell.
        if table.shape[1] < estimator._COHERENT_WIDTH:
            assert layout.phasors is None
        else:
            classes = layout.phasors.shape[0]
            assert layout.phasors.shape == (classes, 2 * plan.n, table.shape[1])
            assert np.array_equal(layout.cls, np.arange(table.shape[0]) % classes)
            full = table[: (n_pts // size) * classes]  # the unclipped super-blocks
            p32 = layout.phasors[layout.cls[: full.shape[0]]]
            angle = np.arctan2(p32[:, plan.n :], p32[:, : plan.n]).transpose(1, 0, 2)
            moved = layout.base_model[: full.shape[0]].T[:, :, None] + angle
            kernel = _wrap_inplace(coef[:, None, None] * grid[full])
            assert np.abs(_wrap_inplace(moved - kernel)).max() < 1e-6
        # Every cell is in exactly one comb; rows ascend; pads repeat a row's last cell.
        last = table[:, -1]
        assert ((table == last[:, None]) | (np.diff(table, axis=1, append=-1) > 0)).all()
        cells = np.concatenate([np.unique(row) for row in table])
        assert np.array_equal(np.sort(cells), np.arange(n_pts))
        if plan.bandwidth / plan.frequencies.max() >= 1.0 / TWO_PI:
            # Wideband: contiguous blocks of at most lambda_min/3.
            width = max(1, int(plan.lambda_min / (3.0 * step)))
            assert (c_bar, n_u, size) == (0.0, 1, width)
            starts = np.arange(0, n_pts, width)
            assert np.array_equal(table[:, 0], starts)
            assert np.array_equal(last, np.minimum(starts + width, n_pts) - 1)
            return
        assert c_bar == (coef.max() + coef.min()) / 2 and n_u >= 4
        # spread*H <= 2*pi/n_u for the super-block half-width H = size*step/2,
        # so every shrink is at most 3*pi/n_u + pad <= 3*pi/4 + pad.
        assert n_u * (coef.max() - coef.min()) / 2 * size * step <= 2 * TWO_PI
        assert (shrink <= 3 * math.pi / n_u + layout.pad).all()
        # Equal super-blocks: the last is clipped by fewer cells than there
        # are super-blocks.
        n_super = -(-n_pts // size)
        assert 0 <= n_super * size - n_pts < n_super
        # A comb's cells share one carrier class within 1/(2 n_u) of a cycle.
        sup = table[:, 0] // size
        q_s = grid[0] + step * (sup * size + 0.5 * (size - 1))
        turns = (c_bar * (grid[table] - q_s[:, None])) / TWO_PI * n_u
        off = turns - np.round(turns[:, :1])
        off -= n_u * np.round(off / n_u)
        assert (np.abs(off) <= 0.5 + 1e-9).all()
        # Each tooth spans at most lambda_bar/n_u <= lambda_bar/3 < lambda_min.
        assert TWO_PI / c_bar / n_u < plan.lambda_min
        # About sqrt(n_pts/2) combs of about sqrt(2*n_pts) cells, once the
        # grid is wide enough that n_u is not at its floor.
        if n_pts > 10_000:
            root = math.sqrt(n_pts / 2)
            assert 0.5 * root <= table.shape[0] <= 2 * root
            assert 0.5 * root <= table.shape[1] / 2 <= 2 * root

    # Zero phases on a dyadic grid: the model c_i*q and its wrap are odd in
    # q bit for bit, so cost(-q) == cost(q) exactly and the cells at
    # -step/2 and +step/2 tie as the minimum.  A tie window has
    # ``TIE_CELLS[layout]`` cells, and ``window(size)`` is its first cell in
    # steps for the super-block size the layout rule gives.  A "block" in
    # the layout names is a B&B comb.
    TIE_STEP = 2.0**-7
    TIE_CELLS = {"one block": 200, "two blocks, equal bounds": 2001, "higher comb first": 200}
    # One super-block centred on 0: both cells sit in the turn-0 class.
    ONE_COMB = lambda size: -99.5  # noqa: E731
    # A super-block boundary at 0, between the second and the third of three
    # full super-blocks: the two combs mirror each other.
    TWO_COMBS = lambda size: 0.5 - 2 * size  # noqa: E731
    # One super-block centred 43 steps up: a class boundary falls between
    # the cells, the +step/2 cell opens the first comb and the -step/2 cell
    # closes the last, whose bound is higher.
    HIGHER_FIRST = lambda size: -56.5  # noqa: E731

    def tie_window(self, plan, window, layout):
        """(cfg, -step/2 cell's index, its comb, the +step/2 cell's comb, layout)."""
        step, n_pts = self.TIE_STEP, self.TIE_CELLS[layout]
        first = window(estimator._layout(coef_of(plan), step, n_pts)[2])
        cfg = EstimatorConfig(first * step, (first + n_pts - 1) * step, step)
        assert cfg.size == n_pts
        low = int(np.nonzero(cfg.grid() == -step / 2)[0][0])
        layout = estimator._combs(coef_of(plan), cfg.grid(), step)
        comb_of = lambda cell: int(np.nonzero((layout.table == cell).any(axis=1))[0][0])
        return cfg, low, comb_of(low), comb_of(low + 1), layout

    @pytest.mark.parametrize(
        "window, layout",
        [
            (ONE_COMB, "one block"),
            (TWO_COMBS, "two blocks, equal bounds"),
            (HIGHER_FIRST, "higher comb first"),
        ],
    )
    def test_exact_tie_goes_to_lower_index(self, window, layout, monkeypatch):
        plan = PLANS["rips"]
        zeros = np.zeros(plan.n)
        assert ls_cost(zeros, plan, -self.TIE_STEP / 2) == ls_cost(zeros, plan, self.TIE_STEP / 2)
        cfg, low, comb_low, comb_high, arrays = self.tie_window(plan, window, layout)
        phases = np.zeros((3, plan.n))
        bounds = estimator._bound_arrays(arrays.centre_model, arrays.shrink)
        lb = estimator._lower_bounds(phases[:1], *bounds)[0]
        visits = []
        visit = estimator.LsSearch._visit_combs

        def spy(search, ph, rows, combs, *args):
            visits.append(set(combs.tolist()))
            visit(search, ph, rows, combs, *args)

        monkeypatch.setattr(estimator.LsSearch, "_visit_combs", spy)
        with search_path("bnb"):
            _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert idx.tolist() == ref_idx.tolist() == [low] * 3
        # Two passes: the least-bound combs, then every comb left open.
        assert 1 <= len(visits) <= 2
        when = lambda comb: min(k for k, combs in enumerate(visits) if comb in combs)
        if layout == "one block":
            assert comb_low == comb_high
        elif layout == "two blocks, equal bounds":
            assert comb_low != comb_high and lb[comb_low] == lb[comb_high]
        else:
            assert comb_high < comb_low and lb[comb_high] < lb[comb_low]
            assert when(comb_high) < when(comb_low)

    def test_two_visit_passes_at_low_snr(self, monkeypatch):
        # The wideband plan at -35 dB, where each trial leaves about 170
        # combs open after its first visit: they are all costed in one more
        # _visit call, and the answers stay the full scan's.  The block is
        # one slice of LsSearch.run: 200 <= 2^15 // (3 * 40) = 273 trials.
        cfg = EstimatorConfig(-32.0, 32.0, 0.02)
        assert estimator.LsSearch(WIDE, cfg).slice >= 200
        noise = NoiseModel.phase_gaussian(snr_db=-35.0)
        phases = synth_trial_matrix(WIDE, 0.0, noise, 7, "passes", 0, 200)
        pairs = []
        visit = estimator._visit

        def spy(ph, coef, grid, table, rows, combs, val, idx, work):
            pairs.append(rows.size)
            visit(ph, coef, grid, table, rows, combs, val, idx, work)

        monkeypatch.setattr(estimator, "_visit", spy)
        with search_path("bnb"):
            _, cost, idx = ls_estimate_batch(phases, WIDE, cfg)
        ref_cost, ref_idx = full_scan(phases, WIDE, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        assert len(pairs) == 2 and pairs[0] == 200 and pairs[1] > 100 * 200

    # The tied cells' combs of the mirrored window, visited in one call
    # (either order) or the higher cell's comb first, then the lower one.
    @pytest.mark.parametrize(
        "calls", [[["low", "high"]], [["high", "low"]], [["high"], ["low"]]]
    )
    def test_visits_keep_lower_index_of_a_tie(self, calls):
        plan = PLANS["rips"]
        cfg, low, comb_low, comb_high, layout = self.tie_window(
            plan, type(self).TWO_COMBS, "two blocks, equal bounds"
        )
        assert comb_low != comb_high
        comb = {"low": comb_low, "high": comb_high}
        val, idx = np.full(1, np.inf), np.zeros(1, dtype=np.int64)
        for call in calls:
            rows = np.zeros(len(call), dtype=np.int64)
            combs = np.array([comb[c] for c in call])
            estimator._visit(
                np.zeros((1, plan.n)), coef_of(plan), cfg.grid(), layout.table, rows, combs, val, idx
            )
        assert idx[0] == low

    @pytest.mark.parametrize(
        "window, layout",
        [
            (ONE_COMB, "one block"),
            (TWO_COMBS, "two blocks, equal bounds"),
            (HIGHER_FIRST, "higher comb first"),
        ],
    )
    def test_cosine_tie_goes_to_lower_index(self, window, layout, monkeypatch):
        # The tie windows above on the cosine bound: the tied cell that is
        # not a trial's first cell reaches the threshold too, so it is costed
        # in float64 and folded in, and the lower index keeps the tie.
        plan = PLANS["rips"]
        cfg, low, *_ = self.tie_window(plan, window, layout)
        phases = np.zeros((3, plan.n))
        folded = set()
        keep = estimator._keep_least

        def spy(best_val, best_idx, rows, val, idx):
            folded.update(zip(rows.tolist(), idx.tolist()))
            keep(best_val, best_idx, rows, val, idx)

        monkeypatch.setattr(estimator, "_keep_least", spy)
        with search_path("cosine"):
            _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert idx.tolist() == ref_idx.tolist() == [low] * 3
        for t in range(3):
            assert {(t, low), (t, low + 1)} & folded

    # Entries folded into trials whose first cells are 9 and 3, at cost 2:
    # trial 0 gets a lower and a higher tied cell, trial 1 a lower cost at
    # a higher index, a tie of that, and a cell tying only its old cost.
    FOLD = [(0, 2.0, 4), (0, 2.0, 12), (1, 1.5, 8), (1, 1.5, 10), (1, 2.0, 1)]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 3, 0, 4, 2]])
    def test_keep_least_keeps_lower_index_of_a_tie(self, order):
        val, idx = np.array([2.0, 2.0]), np.array([9, 3])
        rows, costs, cells = (np.array(col) for col in zip(*[self.FOLD[k] for k in order]))
        estimator._keep_least(val, idx, rows, costs, cells)
        assert val.tolist() == [2.0, 1.5] and idx.tolist() == [4, 8]

    def test_cosine_low_snr_trials_are_visited_whole(self, monkeypatch):
        # At -35 dB most cells reach a trial's threshold, so the trial is
        # visited like one comb of every cell; a 30 dB trial has its few
        # candidates costed one by one.  Both match the full scan.
        plan, cfg = PLANS["rips"], EstimatorConfig(-3.0, 3.0, 0.01)
        phases = np.vstack([
            synth_trial_matrix(plan, 0.1237, NoiseModel.phase_gaussian(snr_db=snr), 8, "wide", 0, 40)
            for snr in (-35.0, 30.0)
        ])
        visited = []
        visit = estimator._visit

        def spy(ph, coef, grid, table, rows, combs, val, idx, work):
            assert np.array_equal(table, np.arange(grid.size)[None, :])
            visited.extend(rows.tolist())
            visit(ph, coef, grid, table, rows, combs, val, idx, work)

        monkeypatch.setattr(estimator, "_visit", spy)
        with search_path("cosine"):
            _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        assert len(visited) == len(set(visited)) >= 30 and max(visited) < 40

    def test_large_plan_noise_free_and_tied_rows_match_full_scan(self, path):
        # The worst case for both allowances, which grow as N^2: N = 128,
        # where F(N) = 0.0081 and E(N) = 0.011.  Rows equal to the kernel's
        # model at a cell cost exactly 0 there, and their coherent sum is N,
        # N terms near 1 each; zero phases tie the cells at -step/2 and
        # +step/2 exactly (the dyadic tie window above).
        plan = N128
        step = self.TIE_STEP
        cfg = EstimatorConfig(-99.5 * step, 99.5 * step, step)
        grid = cfg.grid()
        assert grid.size == 200 and grid[99] == -step / 2 and grid[100] == step / 2
        at = np.array([0, 37, 99, 100, 150, 199])
        phases = np.vstack([
            np.zeros((2, plan.n)),
            _wrap_inplace(coef_of(plan)[None, :] * grid[at, None]),
            synth_trial_matrix(plan, 0.3, NoiseModel.none(), 2, "n128", 0, 2),
            synth_trial_matrix(plan, -0.1, NoiseModel.phase_gaussian(snr_db=30.0), 2, "n128", 0, 2),
        ])
        _, cost, idx = ls_estimate_batch(phases, plan, cfg)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        assert idx[:8].tolist() == [99, 99, *at] and (cost[2:8] == 0.0).all()

    # A "block" is a B&B comb; on the wideband plan it is a contiguous block.
    @pytest.mark.parametrize("label", sorted(BNB_PLANS))
    def test_bound_below_block_costs(self, label):
        plan = BNB_PLANS[label]
        coef = coef_of(plan)
        rng = np.random.default_rng(2024)
        windows = [(70.0, -40.0, 8001), (25.0, 3.3, 777), (2.9, -1e3, 301)]
        for cells_per_lambda, lo, n_pts in windows:
            step = plan.lambda_min / cells_per_lambda
            grid = EstimatorConfig(lo, lo + (n_pts - 0.5) * step, step).grid()
            layout = estimator._combs(coef, grid, step)
            table, centre, shrink = layout.table, layout.centre_model, layout.shrink
            # Phases equal to the kernel's model at 200 cells (cost exactly 0
            # there), noisy and noise-free synthesized ones, and uniform ones.
            at = rng.choice(n_pts, 200, replace=False)
            phases = np.vstack([
                _wrap_inplace(coef[None, :] * grid[at, None]),
                synth_trial_matrix(plan, lo + 1.5, NoiseModel.phase_gaussian(snr_db=5.0), 3,
                                   "lb", 0, 4),
                synth_trial_matrix(plan, grid[n_pts // 3], NoiseModel.none(), 3, "lb", 0, 1),
                rng.uniform(-math.pi, math.pi, (3, plan.n)),
            ])
            lb = estimator._lower_bounds(phases, *estimator._bound_arrays(centre, shrink))
            costs = (kernel_costs(phases, plan, grid), ls_cost(phases[:, None, :], plan, grid))
            for cost in costs:
                comb_min = cost[:, table].min(axis=2)  # padded cells included
                assert (lb <= comb_min).all()
            assert lb.max() > 0.0
            # A term whose shrink is pi or more gives exactly 0.
            wide = np.repeat(shrink, table.shape[0], axis=1)
            wide[:, ::2] = np.maximum(wide[:, ::2], math.pi)
            wide[0, 1::2] = math.pi
            lb_wide = estimator._lower_bounds(phases, *estimator._bound_arrays(centre, wide))
            assert (lb_wide[:, ::2] == 0.0).all()
            assert (lb_wide <= lb).all() and lb_wide.max() > 0.0
            assert (shrink < math.pi).all()


def random_range_phases(plan, cfg, snr_db, trials, seed):
    """(trials x N) wrapped phases of ranges uniform over the window, with
    Gaussian phase noise at ``snr_db`` (None: noise-free)."""
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(cfg.search_lo, cfg.search_hi, trials)
    sigma = 0.0 if snr_db is None else sigma_theta_from_snr_db(snr_db)
    return _wrap_inplace(coef_of(plan) * q0[:, None] + sigma * rng.standard_normal((trials, plan.n)))


class TestCoherentVisit:
    """The coherent visits of ``LsSearch``: each pair's cells filtered by
    their float32 coherent sums, with ``_visit`` as the fallback, keep the
    full scan's answers bit for bit."""

    # A 20 001-cell window at campaign-pf's step: about 130 combs of about
    # 190 cells on the uniform plan.
    WIDE_WINDOW = EstimatorConfig(-100.0, 100.0, 0.01)

    @pytest.mark.parametrize("snr_db", [20.0, 11.0, -5.0])
    def test_random_ranges_match_full_scan(self, snr_db, monkeypatch):
        # Ranges over the whole window, so most trials' combs are far apart.
        # At -5 dB some pairs have candidates in more than a quarter of their
        # comb and are visited by _visit; at 20 dB none is.
        plan, cfg = PLANS["rips"], self.WIDE_WINDOW
        search = estimator.LsSearch(plan, cfg)
        assert search.bounds is not None and search.phasors is not None
        phases = random_range_phases(plan, cfg, snr_db, 48, 7 + int(snr_db))
        visited = []
        visit = estimator._visit

        def spy(ph, coef, grid, table, rows, *args):
            visited.append(rows.size)
            visit(ph, coef, grid, table, rows, *args)

        monkeypatch.setattr(estimator, "_visit", spy)
        _, cost, idx = search.run(phases)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        if snr_db == 20.0:
            assert visited == []
        if snr_db == -5.0:
            assert sum(visited) > 0

    def test_past_the_end_cells_never_win(self):
        # The last super-block is clipped, so some of its coherent sums are
        # those of cells past the grid's end.  Noise-free phases of ranges
        # there make such a cell the best of its comb (cost 0), yet the
        # answers are grid cells, the full scan's: the cell table names the
        # comb's last real cell for every past-the-end column.
        plan, step = PLANS["rips"], 0.01
        # Twelve equal super-blocks of 787 cells: the last ends 11 cells
        # past the grid's end.
        n_pts = 9433
        cfg = EstimatorConfig(-3.0, -3.0 + (n_pts - 0.5) * step, step)
        search = estimator.LsSearch(plan, cfg)
        size = estimator._layout(search.coef, step, n_pts)[2]
        assert search.bounds is not None and search.phasors is not None
        assert n_pts % size != 0 and n_pts > size
        cells = virtual_cells(search)
        past = np.unique(cells[cells >= n_pts])
        assert past.size > 10
        at = np.concatenate([past[:6], past[-6:], [n_pts - 1, n_pts - 2]])
        phases = _wrap_inplace(search.coef * (search.grid[0] + step * at)[:, None])
        noisy = synth_trial_matrix(plan, search.grid[-1], NoiseModel.phase_gaussian(snr_db=10.0),
                                   5, "end", 0, 6)
        phases = np.vstack([phases, noisy])
        _, cost, idx = search.run(phases)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)
        assert (idx < n_pts).all() and idx[-8:-6].tolist() == [n_pts - 1, n_pts - 2]

    # lambda_min / step on the wideband plan: its contiguous combs are
    # floor(cells_per_lambda / 3) cells wide, 11 and 12 here, on both sides
    # of _COHERENT_WIDTH; and narrowband combs of 12 and 23 cells.
    WIDTHS = [("wideband", 35.0, 3001, 11), ("wideband", 36.5, 3001, 12),
              ("n128", 6.2, 6001, 12), ("n64", 6.5, 6001, 23)]

    @pytest.mark.parametrize("label, cells_per_lambda, n_pts, width", WIDTHS)
    def test_combs_on_both_sides_of_the_width_rule(self, label, cells_per_lambda, n_pts, width):
        plan = {
            "wideband": WIDE,
            "n128": FrequencyPlan(f1=400e6, resolution=0.5e6, spacings=(1,) * 127, c=C_PAPER),
            "n64": FrequencyPlan(f1=400e6, resolution=0.5e6, spacings=(1,) * 63, c=C_PAPER),
        }[label]
        step = plan.lambda_min / cells_per_lambda
        cfg = EstimatorConfig(-1.1, -1.1 + (n_pts - 0.5) * step, step)
        search = estimator.LsSearch(plan, cfg)
        assert search.table.shape[1] == width
        assert (search.phasors is None) == (width < estimator._COHERENT_WIDTH)
        phases = np.vstack([
            random_range_phases(plan, cfg, snr, 8, n_pts + k)
            for k, snr in enumerate([None, -10.0, 5.0, 20.0])
        ] + [np.random.default_rng(width).uniform(-math.pi, math.pi, (4, plan.n))])
        _, cost, idx = search.run(phases)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("lo", [23_980.0, -24_020.0])
    @pytest.mark.parametrize("n_pts", [1201, 4001])
    def test_far_windows_on_the_replay_plan_match_full_scan(self, lo, n_pts):
        # Near +-24 km on the N = 31 replay plan the model phases reach
        # 2.3e5 rad: F's reach term covers the factored angles (see
        # TestFloat32Allowance), on one comb and after a bound pass.
        plan = REPLAY_PLAN
        cfg = EstimatorConfig(lo, lo + (n_pts - 0.5) * 0.01, 0.01)
        search = estimator.LsSearch(plan, cfg)
        assert search.grid.size == n_pts and search.phasors is not None
        assert (search.bounds is None) == (n_pts <= estimator._COS_CELLS)
        phases = np.vstack([
            random_range_phases(plan, cfg, snr, 10, n_pts + k)
            for k, snr in enumerate([None, -5.0, 14.0, 30.0])
        ])
        _, cost, idx = search.run(phases)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    # (cells, lambda_min / step): windows whose super-blocks have spread*H
    # between pi/n_u and 2*pi/n_u, on one, 5-6 and 26-91 super-blocks.
    WIDE_BLOCKS = [(1601, 25.0), (7001, 7.0), (30001, 70.0)]

    @pytest.mark.parametrize("label", sorted(PLANS) + ["replay"])
    @pytest.mark.parametrize("n_pts, cells_per_lambda", WIDE_BLOCKS)
    def test_wide_super_blocks_match_full_scan(self, label, n_pts, cells_per_lambda):
        # The layout rule's super-blocks, wider than spread*H = pi/n_u: random
        # ranges over the window, noise-free and from -5 to 30 dB.
        plan = {**PLANS, "replay": REPLAY_PLAN}[label]
        step = plan.lambda_min / cells_per_lambda
        cfg = EstimatorConfig(-7.3, -7.3 + (n_pts - 0.5) * step, step)
        search = estimator.LsSearch(plan, cfg)
        coef = search.coef
        _, n_u, size = estimator._layout(coef, step, n_pts)
        spread = (coef.max() - coef.min()) / 2
        assert search.bounds is not None and n_u >= 4
        assert math.pi / n_u < spread * size * step / 2 <= TWO_PI / n_u
        phases = np.vstack([
            random_range_phases(plan, cfg, snr, 6, n_pts + k)
            for k, snr in enumerate([None, -5.0, 0.0, 10.0, 20.0, 30.0])
        ])
        _, cost, idx = search.run(phases)
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("k", [1.9, 3.0])
    def test_near_collapse_layouts_match_full_scan(self, k, monkeypatch):
        # n_u = 3 with spread*H = k*pi/3: the largest shrink is about (1 +
        # k)*pi/3, 0.97*pi at k = 1.9 and past pi at k = 3, where the edge
        # frequencies' bound terms are 0.  The bounds stay below every cell
        # cost of their combs, the loose bounds leave a larger share of the
        # combs open than the layout rule's, and the answers stay the full
        # scan's.
        plan, cfg = PLANS["rips"], EstimatorConfig(-40.0, 40.0, 0.01)
        coef, grid, step = coef_of(plan), cfg.grid(), cfg.step
        spread = 0.5 * (coef.max() - coef.min())
        layout = (coef.max() - spread, 3, int(k * TWO_PI / (3 * spread * step)))
        combs = estimator._combs(coef, grid, step, layout)
        top = combs.shrink.max()
        assert (0.95 * math.pi < top < math.pi) if k < 2 else (top > math.pi)
        phases = np.vstack([
            random_range_phases(plan, cfg, snr, 8, 40 + j)
            for j, snr in enumerate([None, -5.0, 5.0, 12.0, 30.0])
        ])
        lb = estimator._lower_bounds(phases, *estimator._bound_arrays(combs.centre_model, combs.shrink))
        assert (lb <= kernel_costs(phases, plan, grid)[:, combs.table].min(axis=2)).all()
        open_pairs = {}  # visited pairs per (trial, comb), by table shape
        visit = estimator.LsSearch._visit_combs

        def spy(search, ph, rows, *args):
            share = rows.size / (phases.shape[0] * search.table.shape[0])
            open_pairs[search.table.shape] = open_pairs.get(search.table.shape, 0) + share
            visit(search, ph, rows, *args)

        monkeypatch.setattr(estimator.LsSearch, "_visit_combs", spy)
        rule = estimator.LsSearch(plan, cfg)
        rule.run(phases)
        monkeypatch.setattr(estimator, "_layout", lambda *args: layout)
        loose = estimator.LsSearch(plan, cfg)
        assert loose.table.shape == combs.table.shape != rule.table.shape
        _, cost, idx = loose.run(phases)
        assert open_pairs[loose.table.shape] > open_pairs[rule.table.shape]
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("hi", [3.0, 150.0])
    def test_one_row_searches_match_full_scan(self, hi):
        # ls_estimate searches one row: on one comb of 601 cells, and after
        # a bound pass over the 30 001-cell campaign-pf window.
        plan, cfg = PLANS["rips"], EstimatorConfig(-hi, hi, 0.01)
        phases = np.vstack([
            random_range_phases(plan, cfg, snr, 3, k) for k, snr in enumerate([None, 0.0, 12.0, 30.0])
        ])
        ref_cost, ref_idx = full_scan(phases, plan, cfg)
        for t in range(phases.shape[0]):
            est = ls_estimate(phases[t], plan, cfg)
            assert (est.cost_at_min, est.grid_index) == (ref_cost[t], ref_idx[t])
