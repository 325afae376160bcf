import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfirange import (
    C_EXACT,
    C_PAPER,
    DesignParams,
    FrequencyPlan,
    NoiseModel,
    ambiguity_fn,
    analyze,
    confusion_bound,
    coprime_check,
    crb,
    design_prime_max_error,
    design_prime_min_error,
    design_random,
    design_rips,
    first_primes,
    grid_offset,
    hmse,
    log_pdf_multi,
    log_pdf_multi_via_pairs,
    ls_cost,
    mmse,
    pdf_pair,
    pdf_single,
    permute_max_error,
    permute_min_error,
    practical_umr,
    quadform,
    sidelobe_scan,
    sigma_theta_from_snr_db,
    synth_phases,
    umr,
)
from mfirange import analysis

TWO_PI = 2 * math.pi


class TestUmr:
    def test_uniform_one_mhz(self):
        plan = design_rips(400e6, 40e6, 41, c=C_PAPER)
        assert umr(plan) == pytest.approx(300.0)

    def test_prime_common_factor(self):
        plan = FrequencyPlan(f1=410e6, resolution=65.0, spacings=(200 * 37, 200 * 41), c=C_PAPER)
        assert umr(plan) == pytest.approx(C_PAPER / 13000.0)

    def test_gcd_forced(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(4, 6), c=C_PAPER)
        assert umr(plan) == pytest.approx(150.0)


class TestGridOffset:
    def test_exact_multiple(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,) * 5)
        assert grid_offset(plan) == 0.0

    def test_tenth_offset(self):
        plan = FrequencyPlan(f1=400.1e6, resolution=1e6, spacings=(1,) * 5)
        assert grid_offset(plan) == pytest.approx(0.1, abs=1e-9)

    def test_half_offset_boundary(self):
        plan = FrequencyPlan(f1=105e6, resolution=10e6, spacings=(1,) * 5)
        assert grid_offset(plan) == 0.5

    def test_negative_side(self):
        plan = FrequencyPlan(f1=399.7e6, resolution=1e6, spacings=(1,) * 5)
        assert grid_offset(plan) == pytest.approx(-0.3, abs=1e-9)


class TestPracticalUmr:
    def test_zero_offset_equals_umr(self):
        plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
        assert practical_umr(plan) == umr(plan)

    def test_forty_mhz_prime_plan(self):
        params = DesignParams(bandwidth=40e6, n=41, resolution=65.0)
        plan = design_prime_min_error(params, 400e6, c=C_PAPER)
        assert practical_umr(plan) == pytest.approx(23193.0, rel=0.002)

    def test_two_frequency_dense_scan(self):
        # The deepest noise-free cost dip below the plain ambiguity range
        # must sit where the closed form puts it (1 mm scan; carrier-alias
        # minima nearby are strictly shallower than the true dip).
        plan = FrequencyPlan(f1=400.5e6, resolution=1e6, spacings=(1,), c=C_PAPER)
        assert grid_offset(plan) == 0.5
        dlp = practical_umr(plan)
        assert dlp < umr(plan)
        phases = synth_phases(plan, 0.0, NoiseModel.none())
        qs = np.arange(250.0, 300.0, 0.001)
        costs = ls_cost(phases, plan, qs)
        q_star = qs[np.argmin(costs)]
        assert q_star == pytest.approx(dlp, abs=0.002)
        assert costs.min() == pytest.approx(ls_cost(phases, plan, dlp), abs=1e-4)


class TestConfusionBound:
    def test_reference_points(self):
        five = confusion_bound(10.0, 1.0, 40, 0.1, 5.0)
        ten = confusion_bound(10.0, 1.0, 40, 0.1, 10.0)
        assert five.value == pytest.approx(0.308, abs=0.002)
        assert ten.value == pytest.approx(0.187, abs=0.002)
        assert five.within_validity and ten.within_validity

    def test_vanishing_noise(self):
        assert confusion_bound(10.0, 1.0, 40, 0.1, 60.0).value == pytest.approx(0.0, abs=1e-12)

    def test_validity_flag(self):
        assert not confusion_bound(1.0, 1.0, 40, 0.1, 5.0).within_validity  # f1/B < 4
        assert not confusion_bound(10.0, 1.0, 40, 0.1, -1.0).within_validity  # SNR <= 0


class TestAmbiguityFn:
    def setup_method(self):
        self.plan = design_rips(400e6, 20e6, 21, c=C_PAPER)

    def test_coherent_at_zero(self):
        assert ambiguity_fn(self.plan, 0.0) == pytest.approx(1.0)

    def test_periodic_at_umr(self):
        assert ambiguity_fn(self.plan, umr(self.plan)) == pytest.approx(1.0, abs=1e-9)

    def test_slices_keep_the_one_pass_values(self):
        # Three and a bit slices of points, in a 2-D array: each value has
        # the bits of the one-pass sum over all points at once.
        rows = analysis._SCAN_ELEMS // self.plan.n
        dq = np.linspace(0.0, 400.0, 3 * rows + 7).reshape(-1, 1)
        s = analysis._array_sum(self.plan, dq)
        expected = (s.real**2 + s.imag**2) / self.plan.n**2
        got = ambiguity_fn(self.plan, dq)
        assert got.shape == dq.shape
        assert got.tobytes() == expected.tobytes()

    def test_memory_does_not_grow_with_the_points(self):
        # Beside its float64 output, the temporaries are one slice's: the
        # phases in float64 and two complex128 arrays, 40 bytes an element,
        # where all 50 000 x 31 elements at once would take 62 MB.
        plan = REPLAY_PLAN
        dq = np.linspace(0.0, 1000.0, 50_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ambiguity_fn(plan, dq)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * dq.size + 48 * analysis._SCAN_ELEMS, peak

    def test_two_frequency_closed_form(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,), c=C_PAPER)
        for dq in (0.3, 17.0, 149.0):
            expected = math.cos(math.pi * 1e6 * dq / C_PAPER) ** 2
            assert ambiguity_fn(plan, dq) == pytest.approx(expected, abs=1e-12)

    def test_translation_invariance(self):
        # The noise-free cost landscape depends only on the range offset.
        plan = self.plan
        for q0 in (0.0, 37.5):
            pv = synth_phases(plan, q0, NoiseModel.none())
            offsets = np.array([1.0, 5.0, 20.0])
            costs = ls_cost(pv, plan, q0 + offsets)
            if q0 == 0.0:
                base = costs
            else:
                assert costs == pytest.approx(base, rel=1e-9)


class TestSidelobeScan:
    def test_uniform_matches_dirichlet(self):
        n = 21
        plan = design_rips(400e6, 20e6, n, c=C_PAPER)
        # Null-to-null width of the N-point pattern so the scan starts past
        # the mainlobe.
        bm = 2 * C_PAPER / (n * 1e6)
        peak = sidelobe_scan(plan, mainlobe_width=bm)
        x = math.pi * 1e6 * peak.location / C_PAPER
        analytic = (math.sin(n * x) / (n * math.sin(x))) ** 2
        assert peak.value == pytest.approx(analytic, rel=1e-9)
        assert peak.value == pytest.approx(0.0458, abs=0.003)  # first Dirichlet sidelobe
        # The first sidelobe of sin(Nx)/(N sin x) peaks where the derivative
        # vanishes, tan(Nx) = N tan(x), with Nx between the first null pi and
        # the pole 3pi/2 of tan: Nx = 1.431 pi (20.45 m here), not the
        # midpoint estimate 1.5 pi between the nulls (21.43 m).
        lo, hi = math.pi, 1.5 * math.pi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if math.tan(mid) < n * math.tan(mid / n):
                lo = mid
            else:
                hi = mid
        first_sidelobe = 300.0 * lo / (math.pi * n)  # x = pi * df * q / c, UMR 300 m
        assert peak.location == pytest.approx(first_sidelobe, abs=plan.lambda_min / 20)

    def test_two_frequency_boundary_max(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,), c=C_PAPER)
        peak = sidelobe_scan(plan, mainlobe_width=30.0, step=0.01)
        # AF = cos^2(pi dq / 300 m) falls from the scan start 15 m to the
        # half range 150 m; its mirror 285 m has the same value exactly,
        # cos^2(pi 285/300) = cos^2(pi - pi 15/300), so both the half-range
        # scan and the lowest-location tie-break give 15 m.
        assert peak.location == pytest.approx(15.0, abs=0.02)
        assert peak.value == pytest.approx(math.cos(math.pi * 15.0 / 300.0) ** 2, abs=1e-6)

    def test_normalization_bound(self):
        params = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
        plan = design_prime_min_error(params, 400e6, c=C_PAPER)
        peak = sidelobe_scan(plan, step=plan.lambda_min / 5)
        assert 0.0 <= peak.value <= 1.0

    def test_empty_window_rejected(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,), c=C_PAPER)
        with pytest.raises(ValueError):
            sidelobe_scan(plan)  # c/B equals the whole unambiguous range

    @pytest.mark.parametrize(
        "width, step",
        [
            (-5.0, None),  # returned the mainlobe itself, SidelobePeak(1.0, 0.0)
            (0.0, None),
            (math.nan, None),  # raised "empty scan interval"
            (math.inf, None),
            (None, math.inf),  # returned value -1.0
            (None, math.nan),
            (None, 0.0),
            (None, -0.01),
        ],
    )
    def test_bad_width_or_step_rejected(self, width, step):
        plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
        with pytest.raises(ValueError, match="must be finite and positive"):
            sidelobe_scan(plan, mainlobe_width=width, step=step)


def _reference_sidelobe_scan(plan, mainlobe_width=None, step=None):
    """The chunked full scan that the branch and bound replaced, kept as its
    reference: every grid point, in order, lowest location on ties.

    ``analysis.ambiguity_fn`` is looked up at call time, so a test that
    replaces it changes the reference and the scan alike.
    """
    if mainlobe_width is None:
        mainlobe_width = plan.c / plan.bandwidth
    if step is None:
        step = plan.lambda_min / 20.0
    lo = mainlobe_width / 2.0
    hi = umr(plan) / 2.0
    n_pts = int((hi - lo) / step) + 1
    best_val = -1.0
    best_loc = lo
    chunk = max(1, analysis._SCAN_ELEMS // plan.n)
    for start in range(0, n_pts, chunk):
        dq = lo + step * np.arange(start, min(start + chunk, n_pts))
        vals = analysis.ambiguity_fn(plan, dq)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_loc = float(dq[i])
    return analysis.SidelobePeak(value=best_val, location=best_loc)


def _bits(peak):
    return (repr(peak.value), repr(peak.location))


def _scan_geometry(plan, mainlobe_width=None, step=None):
    """(lo, step, points, slope, block width) of the scan with these settings."""
    width = plan.c / plan.bandwidth if mainlobe_width is None else mainlobe_width
    step = plan.lambda_min / 20.0 if step is None else step
    lo = width / 2.0
    n_pts = int((umr(plan) / 2.0 - lo) / step) + 1
    slope = analysis._sidelobe_slope(plan)
    return lo, step, n_pts, slope, analysis._sidelobe_block_width(plan, step, slope)


# Plans whose UMR is a few hundred meters, so the reference scan is quick.
ODD_PLAN = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,) + (2,) * 8, c=C_PAPER)
TWO_PLAN = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,), c=C_PAPER)
UNIFORM_PLAN = design_rips(400e6, 20e6, 21, c=C_PAPER)
# The plans of the benchmark's campaigns and of its replay (N=31, UMR 23 km).
_CAMPAIGN = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
CAMPAIGN_PLANS = {
    "min_error": design_prime_min_error(_CAMPAIGN, 400e6, c=C_PAPER),
    "uniform": UNIFORM_PLAN,
    "max_error": design_prime_max_error(_CAMPAIGN, 400e6, c=C_PAPER),
}
REPLAY_PLAN = design_prime_min_error(
    DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, prime_index=12), 410e6, c=C_PAPER
)


@st.composite
def scan_plans(draw):
    kind = draw(st.sampled_from(["rips", "prime", "random", "two", "odd"]))
    f1 = draw(st.floats(100e6, 500e6))
    c = draw(st.sampled_from([C_PAPER, C_EXACT]))
    res = draw(st.sampled_from([0.25e6, 0.5e6, 1e6]))
    if kind == "rips":
        n = draw(st.integers(2, 12))
        return design_rips(f1, (n - 1) * res, n, c=c)
    if kind == "prime":
        n, index = draw(st.integers(2, 8)), draw(st.integers(1, 3))
        window = sum(first_primes(index + n - 2)[index - 1 :])
        bandwidth = res * (draw(st.integers(1, 2)) * window + draw(st.integers(0, window - 1)))
        params = DesignParams(bandwidth=bandwidth, n=n, resolution=res, prime_index=index)
        designer = draw(st.sampled_from([design_prime_min_error, design_prime_max_error]))
        return designer(params, f1, c=c)
    if kind == "random":
        n = draw(st.integers(3, 10))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return design_random(f1, res * draw(st.integers(n - 1, 3 * n)), n, res, rng, c=c)
    if kind == "two":
        return FrequencyPlan(f1=f1, resolution=res, spacings=(draw(st.integers(1, 3)),), c=c)
    return FrequencyPlan(f1=f1, resolution=res, spacings=(1,) + (2,) * draw(st.integers(1, 9)), c=c)


@st.composite
def scan_cases(draw):
    """A plan with a default or explicit mainlobe width and step; the steps
    reach past sqrt(N)/L, where blocks hold one grid point, and the widths
    near the UMR, where the scan is shorter than one block."""
    plan = draw(scan_plans())
    width = draw(st.one_of(st.none(), st.floats(1e-4, 0.999)))
    if width is None and plan.c / plan.bandwidth >= umr(plan):  # N = 2: c/B is the UMR
        width = draw(st.floats(1e-4, 0.999))
    if width is not None:
        width *= umr(plan)
    step = draw(st.one_of(st.none(), st.floats(0.01, 4.0)))
    if step is not None:
        step *= plan.lambda_min
    return plan, width, step


class TestSidelobeBranchAndBound:
    """``sidelobe_scan`` against the full scan it replaced: the same value and
    location, bit for bit."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=scan_cases())
    def test_matches_full_scan(self, case):
        plan, width, step = case
        got = sidelobe_scan(plan, mainlobe_width=width, step=step)
        assert _bits(got) == _bits(_reference_sidelobe_scan(plan, width, step))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=scan_cases(), levels=st.sampled_from([4, 16, 64]))
    def test_ties_take_the_lowest_location(self, case, levels):
        # AF floored onto a few levels has many exact ties at its maximum,
        # and stays below every block bound, so the pruning is still exact.
        plan, width, step = case
        exact = analysis.ambiguity_fn

        def floored(plan, dq):
            return np.floor(exact(plan, dq) * levels) / levels

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "ambiguity_fn", floored)
            got = sidelobe_scan(plan, mainlobe_width=width, step=step)
            expected = _reference_sidelobe_scan(plan, width, step)
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize(
        "plan, width, step",
        [
            (UNIFORM_PLAN, 2 * C_PAPER / 21e6, None),  # the first Dirichlet sidelobe
            (TWO_PLAN, 30.0, 0.01),  # cos^2 falls from lo; its equal mirror is not scanned
            (CAMPAIGN_PLANS["min_error"], None, None),
        ],
    )
    def test_named_plans_match_full_scan(self, plan, width, step):
        got = sidelobe_scan(plan, mainlobe_width=width, step=step)
        assert _bits(got) == _bits(_reference_sidelobe_scan(plan, width, step))

    def test_peak_at_lo(self):
        lo, *_ = _scan_geometry(UNIFORM_PLAN)
        got = sidelobe_scan(UNIFORM_PLAN)  # c/B/2 lies on the mainlobe's slope
        assert got.location == lo
        assert _bits(got) == _bits(_reference_sidelobe_scan(UNIFORM_PLAN))

    def test_peak_at_last_point_in_a_short_last_block(self):
        lo, step, n_pts, _, width = _scan_geometry(ODD_PLAN)
        assert n_pts % width != 0
        got = sidelobe_scan(ODD_PLAN)
        assert got.location == lo + step * (n_pts - 1)
        assert got.value == pytest.approx((8 / 10) ** 2, abs=1e-4)  # S(UMR/2) = 1 - 9
        assert _bits(got) == _bits(_reference_sidelobe_scan(ODD_PLAN))

    def test_equal_lobes_take_the_lowest(self):
        # The uniform plan's AF capped at 0.004 (<= AF, so every bound still
        # holds): its first sidelobes all reach the cap, and the lowest grid
        # point, on the first one's rising edge, is reported.
        width = 2 * C_PAPER / 21e6
        exact = analysis.ambiguity_fn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "ambiguity_fn", lambda p, dq: np.minimum(exact(p, dq), 0.004))
            got = sidelobe_scan(UNIFORM_PLAN, mainlobe_width=width)
            expected = _reference_sidelobe_scan(UNIFORM_PLAN, width)
            lo, step, n_pts, *_ = _scan_geometry(UNIFORM_PLAN, width)
            vals = analysis.ambiguity_fn(UNIFORM_PLAN, lo + step * np.arange(n_pts))
        at_max = np.flatnonzero(vals == vals.max())
        assert np.count_nonzero(np.diff(at_max) > 1) >= 2  # three or more lobes tie
        assert got.location == lo + step * at_max[0]
        assert _bits(got) == _bits(expected)

    def test_one_cell_blocks(self):
        plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
        step = 1.5 * math.sqrt(plan.n) / analysis._sidelobe_slope(plan)
        *_, width = _scan_geometry(plan, step=step)
        assert width == 1
        got = sidelobe_scan(plan, step=step)
        assert _bits(got) == _bits(_reference_sidelobe_scan(plan, step=step))

    def test_scan_shorter_than_one_block(self):
        width = 0.999 * umr(TWO_PLAN)
        _, _, n_pts, _, cells = _scan_geometry(TWO_PLAN, width)
        assert n_pts < cells
        got = sidelobe_scan(TWO_PLAN, mainlobe_width=width)
        assert _bits(got) == _bits(_reference_sidelobe_scan(TWO_PLAN, width))

    def test_block_width_from_plan(self):
        # L*h about sqrt(N)/2: 21 grid points on the N=31 plan-replay plan.
        plan = REPLAY_PLAN
        step = plan.lambda_min / 20.0
        slope = analysis._sidelobe_slope(plan)
        width = analysis._sidelobe_block_width(plan, step, slope)
        assert width == 21
        assert slope * step * (width - 1) / 2 == pytest.approx(math.sqrt(plan.n) / 2, rel=0.05)

    @pytest.mark.parametrize(
        "plan, points, calls",
        [
            (CAMPAIGN_PLANS["min_error"], 882, 2),
            (CAMPAIGN_PLANS["uniform"], 56, 1),
            (CAMPAIGN_PLANS["max_error"], 87, 1),
            (REPLAY_PLAN, 2079, 2),
        ],
    )
    def test_two_passes(self, plan, points, calls):
        # The highest-bound block, then every block still open in one batch:
        # no more than two ambiguity_fn calls, over the same points that the
        # earlier round-by-round schedule costed in up to seven.
        seen = []
        exact = analysis.ambiguity_fn

        def spy(plan, dq):
            seen.append(np.size(dq))
            return exact(plan, dq)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "ambiguity_fn", spy)
            got = sidelobe_scan(plan)
        assert (len(seen), sum(seen)) == (calls, points)
        assert _bits(got) == _bits(_reference_sidelobe_scan(plan))

    def test_scan_memory_is_bounded(self):
        # The bound pass holds about ten arrays the length of the block list
        # (block ends, centres, half-widths, one frequency's phases and the
        # float32 sums), under 96 bytes a block; each visit slice holds
        # _SCAN_ELEMS elements of 40 bytes (see test_memory_does_not_grow_with_the_points).
        # Full-size (blocks x N) bound arrays took 8.8 MB here.
        lo, step, n_pts, _, width = _scan_geometry(REPLAY_PLAN)
        blocks = -(-n_pts // width)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sidelobe_scan(REPLAY_PLAN)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 96 * blocks + 40 * analysis._SCAN_ELEMS, (peak, blocks)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=scan_cases(), cells=st.one_of(st.just(1), st.integers(2, 400)))
    def test_bound_covers_its_block(self, case, cells):
        plan, width, step = case
        lo, step, n_pts, slope, _ = _scan_geometry(plan, width, step)
        n_pts = min(n_pts, 20_000)
        bounds = analysis._block_bounds(plan, lo, step, n_pts, cells, slope)
        vals = analysis.ambiguity_fn(plan, lo + step * np.arange(n_pts))
        padded = np.concatenate([vals, np.zeros(bounds.size * cells - n_pts)])
        assert np.all(padded.reshape(bounds.size, cells).max(axis=1) <= bounds)


class TestQuadform:
    def test_hand_value(self):
        assert quadform([2.0, 2.0]) == pytest.approx(8.0)  # (1+4)*4 - 36/3

    def test_uniform_closed_form(self):
        for n in (3, 21, 100, 200):
            d = 1e6
            expected = d * d * n * (n * n - 1) / 12.0
            assert quadform([d] * (n - 1)) == pytest.approx(expected, rel=1e-9)

    def test_matrix_path_agrees(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            x = rng.uniform(0.1, 10.0, size=rng.integers(1, 12))
            assert quadform(x) == pytest.approx(quadform(x, method="matrix"), rel=1e-9)

    def test_elementwise_monotonicity(self):
        assert quadform([1.0, 2.0]) < quadform([2.0, 3.0])


class TestMse:
    def setup_method(self):
        self.plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
        self.sigma = 0.1

    def test_uniform_mmse_closed_form(self):
        n, b = 21, 20e6
        expected = C_PAPER**2 * 12 * self.sigma**2 * (n - 1) / (4 * math.pi**2 * b**2 * n * (n + 1))
        assert mmse(self.plan, self.sigma) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_in_sigma(self):
        assert mmse(self.plan, 2 * self.sigma) == pytest.approx(
            4 * mmse(self.plan, self.sigma), rel=1e-12
        )

    def test_arrangement_ordering(self):
        lo = FrequencyPlan(f1=400e6, resolution=1e6, spacings=tuple(permute_min_error([1, 2, 3, 4, 5])))
        hi = FrequencyPlan(f1=400e6, resolution=1e6, spacings=tuple(permute_max_error([1, 2, 3, 4, 5])))
        assert mmse(lo, self.sigma) < mmse(hi, self.sigma)

    def test_single_frequency_std(self):
        # One frequency contributes range std (c / 2 pi f) * sigma: the
        # single-frequency likelihood drops by exp(-1/2) one std out.
        f = 400e6
        sigma_q = C_PAPER / (TWO_PI * f) * self.sigma
        ratio = pdf_single(f, sigma_q, 0.0, self.sigma, C_PAPER) / pdf_single(
            f, 0.0, 0.0, self.sigma, C_PAPER
        )
        assert ratio == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_hmse_equals_crb(self):
        assert hmse(self.plan, self.sigma) == pytest.approx(
            crb(self.plan, math.sqrt(2.0) * self.sigma), rel=1e-14
        )

    def test_equal_frequency_averaging(self):
        f = 400e6
        single = C_PAPER**2 * self.sigma**2 / (4 * math.pi**2 * f * f)
        # Nearly equal freqs, with the same c as the expected value above.
        plan = FrequencyPlan(f1=f, resolution=1.0, spacings=(1, 1), c=C_PAPER)
        assert hmse(plan, self.sigma) == pytest.approx(single / 3.0, rel=1e-6)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -0.1])
    def test_noise_level_must_be_finite_and_positive(self, sigma):
        # NaN fails every comparison, so `sigma <= 0` alone lets it through.
        for name, call in [
            ("sigma_theta", lambda: mmse(self.plan, sigma)),
            ("sigma_theta", lambda: hmse(self.plan, sigma)),
            ("sigma_n", lambda: crb(self.plan, sigma)),
            ("sigma_theta", lambda: analysis.log_pdf_single(400e6, 0.1, 0.0, sigma, C_PAPER)),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {sigma!r}$"):
                call()

    def test_mmse_above_hmse_for_narrowband(self):
        params = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
        plans = [
            self.plan,
            design_prime_min_error(params, 400e6, c=C_PAPER),
            FrequencyPlan(f1=100e6, resolution=1e6, spacings=(2, 3, 5, 7)),
        ]
        for plan in plans:
            assert plan.f1 >= plan.bandwidth
            assert mmse(plan, self.sigma) >= hmse(plan, self.sigma)


class TestPdfs:
    def test_peak_at_truth(self):
        qs = np.linspace(-0.2, 0.2, 4001)
        dens = pdf_single(400e6, qs, 0.0, 0.2, C_PAPER)
        assert abs(qs[np.argmax(dens)]) <= 1e-4

    def test_pair_periodicity(self):
        per = C_PAPER / 1e6
        for q in (3.7, 120.0):
            a = pdf_pair(400e6, 401e6, q, 0.0, 0.3, C_PAPER)
            b = pdf_pair(400e6, 401e6, q + per, 0.0, 0.3, C_PAPER)
            assert b == pytest.approx(a, rel=1e-6)

    def test_pair_product_identity(self):
        # Every frequency appears exactly twice under the square root, so
        # the pair-product route reproduces the plain product of singles.
        plans = [
            design_rips(400e6, 20e6, 21, c=C_PAPER),
            FrequencyPlan(f1=410e6, resolution=65.0, spacings=(7400, 8600, 10600), c=C_PAPER),
        ]
        for plan in plans:
            for q in (0.0, 7.7, -13.1):
                a = log_pdf_multi(plan, q, 0.0, 0.25)
                b = log_pdf_multi_via_pairs(plan, q, 0.0, 0.25)
                assert b == pytest.approx(a, rel=1e-12)

    def test_log_space_survives_large_n(self):
        plan = design_rips(400e6, 40e6, 41, c=C_PAPER)
        val = log_pdf_multi(plan, 140.0, 0.0, 0.05)
        assert math.isfinite(val)  # plain product would underflow to 0


class TestCoprimeCheck:
    def test_coprime_primes(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(2, 3, 5), c=C_PAPER)
        assert coprime_check(plan) == (True, [])

    def test_shared_factor_pair(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(2, 4, 3), c=C_PAPER)
        ok, locs = coprime_check(plan)
        assert not ok
        assert locs == pytest.approx([umr(plan) / 2.0])

    def test_single_spacing(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(7,), c=C_PAPER)
        assert coprime_check(plan) == (True, [])

    def test_matches_exhaustive_enumeration(self):
        spacings = (6, 10, 15)
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=spacings, c=C_PAPER)
        ok, locs = coprime_check(plan)
        assert not ok
        full = umr(plan)
        oracle = set()
        for i in range(3):
            for j in range(i + 1, 3):
                for ki in range(1, spacings[i]):
                    for kj in range(1, spacings[j]):
                        if ki * spacings[j] == kj * spacings[i]:
                            oracle.add(ki / spacings[i])
        assert locs == pytest.approx(sorted(x * full for x in oracle))

    def test_prime_plan_clean(self):
        params = DesignParams(bandwidth=40e6, n=41, resolution=65.0)
        plan = design_prime_min_error(params, 400e6, c=C_PAPER)
        ok, locs = coprime_check(plan)
        assert ok and locs == []


class TestNoInteriorDip:
    def test_cost_floor_between_truth_and_practical_umr(self):
        # With a fractional base-frequency offset, the noise-free cost has
        # no near-zero local minimum strictly inside (0, practical UMR):
        # everything outside the two mainlobes stays above the dip ceiling
        # 4*N*pi^2*eps^2*(B/f1)^2.
        plan = FrequencyPlan(f1=100.1e6, resolution=1e6, spacings=(1,) * 9, c=C_PAPER)
        eps = grid_offset(plan)
        ratio = plan.f1 / plan.bandwidth
        assert ratio >= 10.0
        ceiling = 4 * plan.n * math.pi**2 * eps**2 / ratio**2
        phases = synth_phases(plan, 0.0, NoiseModel.none())
        dlp = practical_umr(plan)
        bm = C_PAPER / plan.bandwidth
        qs = np.arange(bm / 2, dlp - bm / 2, 0.02)
        costs = ls_cost(phases, plan, qs)
        assert costs.min() > ceiling
        # while the dip itself obeys the ceiling
        assert ls_cost(phases, plan, dlp) <= ceiling


class TestAnalyze:
    def test_report_consistency(self):
        plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
        report = analyze(plan, snr_db=10.0, include_sidelobe=False)
        sigma = sigma_theta_from_snr_db(10.0)
        assert report.umr == pytest.approx(300.0)
        assert report.practical_umr == report.umr
        assert report.hmse == pytest.approx(report.crb, rel=1e-14)
        assert report.mmse == pytest.approx(mmse(plan, sigma))
        assert report.coprime is True
        assert report.sidelobe_value is None

    def test_exactly_one_noise_spec(self):
        plan = design_rips(400e6, 20e6, 21, c=C_PAPER)
        with pytest.raises(ValueError):
            analyze(plan)
        with pytest.raises(ValueError):
            analyze(plan, sigma_theta=0.1, snr_db=10.0)
