import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfirange import (
    C_PAPER,
    FrequencyPlan,
    NoiseModel,
    PhaseVector,
    sigma_theta_from_snr_db,
    snr_db_from_sigma_theta,
    spacing_gcd,
    synth_phases,
    wrap_phase,
)

TWO_PI = 2 * math.pi


class TestWrapPhase:
    def test_identity_zero(self):
        assert wrap_phase(0.0) == 0.0

    def test_single_reduction(self):
        assert wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_phase(-math.pi) == math.pi
        assert wrap_phase(math.pi) == math.pi

    def test_interval(self):
        xs = np.linspace(-50, 50, 10001)
        w = wrap_phase(xs)
        assert np.all(w > -math.pi) and np.all(w <= math.pi)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                wrap_phase(bad)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200, derandomize=True)
    def test_idempotent(self, x):
        assert wrap_phase(wrap_phase(x)) == wrap_phase(x)

    @given(
        st.floats(-math.pi * 0.999, math.pi, allow_nan=False),
        st.integers(-(10**6), 10**6),
    )
    @settings(max_examples=300, derandomize=True)
    def test_two_pi_periodicity(self, x, k):
        # Compare on the circle: for x one ulp below pi, x + 2 pi k may
        # round past pi and wrap to -pi, the other side of the branch cut.
        gap = wrap_phase(wrap_phase(x + TWO_PI * k) - wrap_phase(x))
        assert abs(gap) <= 1e-9

    def test_array_round_trip(self):
        xs = np.array([0.1, 7.0, -9.0])
        w = wrap_phase(xs)
        assert isinstance(w, np.ndarray)
        assert np.allclose(np.exp(1j * w), np.exp(1j * xs))


class TestFrequencyPlan:
    def test_direct_summation(self):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 1))
        assert np.array_equal(plan.frequencies, [400e6, 401e6, 402e6])

    def test_first_forty_prime_spacings_bandwidth(self):
        from mfirange import first_primes

        primes = first_primes(40)
        assert sum(primes) == 3087  # enumeration oracle
        plan = FrequencyPlan(f1=400e6, resolution=65.0, spacings=tuple(199 * p for p in primes))
        assert plan.bandwidth == 199 * 65 * 3087
        assert plan.bandwidth <= 40e6

    def test_experiment_bandwidth_exact(self):
        from mfirange import first_primes

        primes = first_primes(41)[11:]  # 30 consecutive primes starting at the 12th
        assert primes[0] == 37 and primes[-1] == 179 and sum(primes) == 3106
        plan = FrequencyPlan(f1=410e6, resolution=65.0, spacings=tuple(200 * p for p in primes))
        assert plan.frequencies[-1] - plan.frequencies[0] == pytest.approx(40.378e6, abs=1e-3)
        assert plan.bandwidth == 40378000.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            FrequencyPlan(f1=400e6, resolution=1e6, spacings=())
        with pytest.raises(ValueError):
            FrequencyPlan(f1=400e6, resolution=1e6, spacings=(0, 1))
        with pytest.raises(ValueError):
            FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1.5, 1))
        with pytest.raises(ValueError):
            FrequencyPlan(f1=-1.0, resolution=1e6, spacings=(1,))
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(3, 1, 2))
        assert np.all(np.diff(plan.frequencies) > 0)
        assert plan.n == 4

    def test_spacing_gcd(self):
        mk = lambda ks: FrequencyPlan(f1=1e6, resolution=10.0, spacings=ks)
        assert spacing_gcd(mk((2, 3, 5))) == 1
        assert spacing_gcd(mk((4, 6, 10))) == 2
        assert spacing_gcd(mk((7,))) == 7


class TestNoiseModel:
    def test_exactly_one_noise_parameter(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="phase-gaussian")
        with pytest.raises(ValueError):
            NoiseModel(kind="phase-gaussian", sigma_theta=0.1, snr_db=10.0)
        with pytest.raises(ValueError):
            NoiseModel(kind="none", snr_db=10.0)
        with pytest.raises(ValueError):
            NoiseModel(kind="bogus", sigma_theta=0.1)

    def test_snr_sigma_relation(self):
        # SNR = 1/(2*sigma^2)
        assert sigma_theta_from_snr_db(0.0) == pytest.approx(math.sqrt(0.5))
        sigma = sigma_theta_from_snr_db(13.7)
        assert snr_db_from_sigma_theta(sigma) == pytest.approx(13.7, abs=1e-12)
        assert NoiseModel.phase_gaussian(snr_db=10.0).sigma == pytest.approx(
            math.sqrt(0.05)
        )

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, 3231.4, 4000.0, -3082.6, -4000.0])
    def test_snr_without_finite_positive_sigma_refused(self, snr):
        # +inf dB, or above about 3231.3 dB, would give sigma_theta = 0, a
        # noise-free "noisy" model; below about -3082.5 dB the power overflows.
        msg = f"^snr_db must be finite and give a finite, positive sigma_theta, got {snr!r}$"
        with pytest.raises(ValueError, match=msg):
            sigma_theta_from_snr_db(snr)
        with pytest.raises(ValueError, match=msg):
            NoiseModel.complex_awgn(snr_db=snr)

    @pytest.mark.parametrize("snr", [3231.3, -3082.5])
    def test_snr_near_the_limits_keeps_the_formula(self, snr):
        assert sigma_theta_from_snr_db(snr) == math.sqrt(10.0 ** (-snr / 10.0) / 2.0) > 0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -0.1])
    def test_sigma_theta_must_be_finite_and_positive(self, sigma):
        msg = f"sigma_theta must be finite and positive, got {sigma!r}"
        with pytest.raises(ValueError, match=msg):
            NoiseModel.phase_gaussian(sigma_theta=sigma)
        with pytest.raises(ValueError, match=msg):
            snr_db_from_sigma_theta(sigma)


class TestSynthPhases:
    def setup_method(self):
        self.plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,), c=C_PAPER)

    def test_zero_range(self):
        pv = synth_phases(self.plan, 0.0, NoiseModel.none())
        assert np.all(pv.as_array() == 0.0)

    def test_full_cycle_wrap(self):
        q0 = self.plan.c / self.plan.f1  # one wavelength at f1
        pv = synth_phases(self.plan, q0, NoiseModel.none())
        assert pv.as_array()[0] == pytest.approx(0.0, abs=1e-9)

    def test_direct_evaluation_one_meter(self):
        pv = synth_phases(self.plan, 1.0, NoiseModel.none())
        expected = [wrap_phase(TWO_PI * 400e6 / C_PAPER), wrap_phase(TWO_PI * 401e6 / C_PAPER)]
        assert pv.as_array() == pytest.approx(expected, abs=1e-12)

    def test_noise_free_matches_model_exactly(self):
        plan = FrequencyPlan(f1=410e6, resolution=65.0, spacings=(7400, 200, 65))
        q0 = 1234.5678
        pv = synth_phases(plan, q0, NoiseModel.none())
        expected = wrap_phase(TWO_PI * q0 * plan.frequencies / plan.c)
        assert np.max(np.abs(pv.as_array() - expected)) <= 1e-12

    def test_noisy_needs_rng(self):
        with pytest.raises(ValueError):
            synth_phases(self.plan, 0.0, NoiseModel.phase_gaussian(snr_db=10.0))

    def test_bias_length_checked(self):
        with pytest.raises(ValueError):
            synth_phases(self.plan, 0.0, NoiseModel(kind="none", bias=(0.1,)))

    def test_bias_applied(self):
        pv = synth_phases(self.plan, 0.0, NoiseModel(kind="none", bias=(0.25, -0.5)))
        assert pv.as_array() == pytest.approx([0.25, -0.5])

    def test_complex_awgn_high_snr_variance(self):
        # Empirical phase-noise variance matches sigma^2/2 = sigma_theta^2.
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 1, 1, 1), c=C_PAPER)
        rng = np.random.Generator(np.random.Philox(key=12345))
        draws = [
            synth_phases(plan, 0.0, NoiseModel.complex_awgn(snr_db=20.0), rng).as_array()
            for _ in range(20_000)
        ]
        errs = np.concatenate(draws)  # 1e5 phase errors around 0
        sigma_sq = sigma_theta_from_snr_db(20.0) ** 2
        assert errs.var() == pytest.approx(sigma_sq, rel=0.05)


class TestPhaseVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseVector(phases=np.array([0.0, 4.0]))
        with pytest.raises(ValueError):
            PhaseVector(phases=np.array([-math.pi, 0.0]))
        pv = PhaseVector(phases=np.array([math.pi, 0.0]))
        with pytest.raises(ValueError):
            pv.as_array()[0] = 1.0  # read-only
