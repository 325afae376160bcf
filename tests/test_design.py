import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mfirange import (
    C_PAPER,
    DesignInfeasible,
    DesignParams,
    design_constrained_optimal,
    design_prime_max_error,
    design_prime_min_error,
    design_random,
    design_rips,
    design_towers,
    first_primes,
    permute_max_error,
    permute_min_error,
    prime_window_select,
    sieve_primes,
    towers_ideal_frequencies,
    umr,
)
from mfirange.analysis import quadform
from mfirange.core import spacing_gcd
from mfirange.design import _common_factor


def quadform_scaled_int(perm):
    """N * quadform for integer spacings, exact in integer arithmetic."""
    partial = 0
    sums = [0]
    for v in perm:
        partial += v
        sums.append(partial)
    n = len(sums)
    total = sum(sums)
    return n * sum(s * s for s in sums) - total * total


def brute_extrema(multiset):
    vals = [quadform_scaled_int(p) for p in set(itertools.permutations(multiset))]
    return min(vals), max(vals)


class TestPrimes:
    def test_sieve(self):
        assert list(sieve_primes(10)) == [2, 3, 5, 7]
        assert len(sieve_primes(2)) == 0

    def test_first_primes(self):
        primes = first_primes(41)
        assert primes[:5] == [2, 3, 5, 7, 11]
        assert primes[11] == 37  # 12th prime
        assert sum(primes[:40]) == 3087


class TestPrimeWindowSelect:
    def test_forty_mhz_window(self):
        w = prime_window_select(
            DesignParams(bandwidth=40e6, n=41, resolution=65.0), c=C_PAPER
        )
        assert (w.primes[0], w.primes[-1]) == (2, 173)
        assert w.common_factor == 199
        assert w.common_factor * 65.0 * sum(w.primes) <= 40e6

    def test_experiment_window_exact_fit(self):
        w = prime_window_select(
            DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, prime_index=12),
            c=C_PAPER,
        )
        assert (w.primes[0], w.primes[-1]) == (37, 179)
        assert w.common_factor == 200
        assert w.common_factor * 65.0 * sum(w.primes) == 40.378e6

    def test_tiny_exact_fit(self):
        w = prime_window_select(
            DesignParams(bandwidth=65.0 * 3 * (2 + 3), n=3, resolution=65.0), c=C_PAPER
        )
        assert w.primes == (2, 3)
        assert w.common_factor == 3

    def test_umr_requirement_advances_window(self):
        base = prime_window_select(
            DesignParams(bandwidth=40e6, n=41, resolution=65.0), c=C_PAPER
        )
        need = C_PAPER / (base.common_factor * 65.0)  # strict '>' forces i past 1
        w = prime_window_select(
            DesignParams(bandwidth=40e6, n=41, resolution=65.0, umr_requirement=need),
            c=C_PAPER,
        )
        assert w.prime_index > 1
        assert C_PAPER / (w.common_factor * 65.0) > need

    @staticmethod
    def counted_factor(bandwidth, resolution, window_sum):
        """K counted one step at a time from the float quotient: the rule
        the bisection replaced, which needed about K * 2^-52 steps."""
        k = int(bandwidth // (resolution * window_sum))
        while (k + 1) * resolution * window_sum <= bandwidth:
            k += 1
        while k >= 1 and k * resolution * window_sum > bandwidth:
            k -= 1
        return k

    def test_common_factor_is_the_counted_one(self):
        # Random quotients up to 2^66, where counting still ends quickly,
        # and exact fits K * resolution * window_sum == B.
        rng = np.random.default_rng(53)
        primes = first_primes(90)
        cases = 0
        for _ in range(3000):
            i, width = int(rng.integers(1, 50)), int(rng.integers(1, 40))
            window_sum = sum(primes[i - 1 : i - 1 + width])
            if rng.random() < 0.3:
                res = float(rng.integers(1, 1000))
                b = int(rng.integers(1, 10**6)) * res * window_sum
            else:
                b, res = 10.0 ** rng.uniform(0, 12), 10.0 ** rng.uniform(-8, 8)
                if b / res > 2.0**66:
                    continue
            got = _common_factor(b, res, window_sum)
            assert got == self.counted_factor(b, res, window_sum), (b, res, window_sum)
            cases += 1
        assert cases > 2000

    def test_infeasible_bandwidth(self):
        with pytest.raises(DesignInfeasible):
            prime_window_select(
                DesignParams(bandwidth=100.0, n=41, resolution=65.0), c=C_PAPER
            )


class TestPermutations:
    def test_min_error_examples(self):
        assert permute_min_error([1, 2, 3, 4, 5]) == [1, 3, 5, 4, 2]
        assert permute_min_error([4, 4, 4]) == [4, 4, 4]
        assert permute_min_error([1, 1, 8]) == [1, 8, 1]

    def test_max_error_examples(self):
        # The alternating pattern [5, 3, 1, 2, 4] has N * quadform 792, but
        # [4, 3, 1, 2, 5] and its mirror [5, 2, 1, 3, 4] reach 788, the
        # minimum over all 120 orders; the mirror has the larger end first.
        assert permute_max_error([1, 2, 3, 4, 5]) == [5, 2, 1, 3, 4]
        assert quadform_scaled_int([5, 2, 1, 3, 4]) == brute_extrema((1, 2, 3, 4, 5))[0] == 788
        assert quadform_scaled_int([5, 3, 1, 2, 4]) == 792
        assert permute_max_error([3, 3]) == [3, 3]

    def test_max_error_below_min_error(self):
        lo = quadform(permute_max_error([1, 2, 3, 4, 5]))
        hi = quadform(permute_min_error([1, 2, 3, 4, 5]))
        assert lo < hi

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            permute_min_error([3, 1])
        with pytest.raises(ValueError):
            permute_max_error([2, 1, 3])

    def test_min_error_attains_brute_force_max(self):
        # Exhaustive over small multisets; the large sweep lives in the
        # acceptance suite.
        for size in range(1, 6):
            for ms in itertools.combinations_with_replacement(range(1, 6), size):
                _, hi = brute_extrema(ms)
                assert quadform_scaled_int(permute_min_error(list(ms))) == hi, ms

    def test_mirror_value_equality(self):
        # The mirror [a2, a4, ..., a3, a1] attains the same value.
        for ms in [(1, 2, 3, 4, 5), (1, 1, 2, 7), (2, 3, 5, 7, 11, 13)]:
            order = permute_min_error(list(ms))
            mirror = list(ms[1::2]) + list(reversed(ms[0::2]))
            assert order[::-1] == mirror
            assert quadform_scaled_int(mirror) == quadform_scaled_int(order)

    def test_left_shift_identity(self):
        # Partial-sum variance of a full sequence equals the quadratic form
        # of its one-step left shift, for any leading element.
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = rng.integers(2, 12)
            g = rng.uniform(0.1, 10.0, size=n)
            b = np.cumsum(g)
            variance_form = float(np.sum((b - b.mean()) ** 2))
            assert variance_form == pytest.approx(quadform(g[1:]), rel=1e-9)


class TestDesigners:
    def test_rips_uniform(self):
        plan = design_rips(400e6, 40e6, 41, c=C_PAPER)
        assert plan.n == 41
        assert np.all(np.diff(plan.frequencies) == 1e6)
        plan21 = design_rips(400e6, 20e6, 21, c=C_PAPER)
        assert np.all(np.diff(plan21.frequencies) == 1e6)
        two = design_rips(100e6, 7e6, 2, c=C_PAPER)
        assert list(two.frequencies) == [100e6, 107e6]

    def test_rips_grid_divisibility(self):
        with pytest.raises(DesignInfeasible):
            design_rips(400e6, 40e6, 3, resolution=65.0)
        plan = design_rips(400e6, 40e6, 41, resolution=0.5e6, c=C_PAPER)
        assert plan.spacings == (2,) * 40

    @staticmethod
    def every_designer(b=20e6, n=5, res=1e6):
        """One call of each designer; the prime designers take a DesignParams."""
        rng = np.random.default_rng(0)
        return [
            lambda: design_rips(400e6, b, n, resolution=res),
            lambda: design_towers(420e6, b, n, resolution=res),
            lambda: design_constrained_optimal(400e6, b, n, res),
            lambda: design_random(400e6, b, n, res, rng),
            lambda: DesignParams(bandwidth=b, n=n, resolution=res),
        ]

    @pytest.mark.parametrize("res", [0.0, -1.0, math.nan, math.inf])
    def test_resolution_refused_before_any_division(self, res):
        # Every designer divides by the resolution, so the check comes first.
        for design in self.every_designer(res=res):
            with pytest.raises(ValueError, match=f"^resolution must be finite and positive, got {res!r}$"):
                design()

    @pytest.mark.parametrize("b", [0.0, -2e7, math.nan, math.inf, -math.inf])
    def test_bandwidth_must_be_finite_and_positive(self, b):
        # An infinite B overflowed int(B / resolution) and round(B / (N-1)),
        # and inf // (resolution * window sum) is NaN, which no K is.
        for design in self.every_designer(b=b) + [lambda: towers_ideal_frequencies(420e6, b, 5)]:
            with pytest.raises(ValueError, match=f"^bandwidth must be finite and positive, got {b!r}$"):
                design()

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_frequencies_is_one_plain_value_error(self, n):
        # constrained-optimal and random once returned a 2-frequency plan.
        for design in self.every_designer(n=n) + [lambda: towers_ideal_frequencies(420e6, 20e6, n)]:
            with pytest.raises(ValueError, match=f"^N must be at least 2, got {n!r}$") as err:
                design()
            assert type(err.value) is ValueError

    @pytest.mark.parametrize("f_max", [0.0, -4.2e8, math.nan, math.inf])
    def test_towers_f_max_must_be_finite_and_positive(self, f_max):
        for design in (lambda: design_towers(f_max, 20e6, 5), lambda: towers_ideal_frequencies(f_max, 20e6, 5)):
            with pytest.raises(ValueError, match=f"^f_max must be finite and positive, got {f_max!r}$") as err:
                design()
            assert type(err.value) is ValueError
        with pytest.raises(DesignInfeasible, match="needs f_max > B"):
            towers_ideal_frequencies(20e6, 20e6, 5)

    @pytest.mark.parametrize("umr", [math.inf, math.nan, 0.0])
    def test_umr_requirement_must_be_finite_and_positive(self, umr):
        # An infinite requirement advanced the prime index to 2319 before
        # the window failed to fit the bandwidth.
        with pytest.raises(ValueError, match=f"^umr_requirement must be finite and positive, got {umr!r}$"):
            DesignParams(bandwidth=40.378e6, n=31, resolution=65.0, umr_requirement=umr)

    def test_towers_geometric(self):
        plan = design_towers(500e6, 100e6, 3, c=C_PAPER)
        assert list(plan.frequencies) == [400e6, 480e6, 500e6]
        f = plan.frequencies
        assert (f[2] - f[0]) / (f[2] - f[1]) == pytest.approx(5.0)
        plan4 = design_towers(500e6, 100e6, 4, c=C_PAPER)
        assert plan4.frequencies[2] == pytest.approx(496e6)
        two = design_towers(500e6, 100e6, 2, c=C_PAPER)
        assert list(two.frequencies) == [400e6, 500e6]

    def test_towers_snap_and_collision(self):
        ideal = towers_ideal_frequencies(500e6, 100e6, 6)
        plan = design_towers(500e6, 100e6, 6, resolution=1.0, c=C_PAPER)
        assert np.max(np.abs(plan.frequencies - ideal)) <= 0.5
        with pytest.raises(DesignInfeasible):
            design_towers(500e6, 100e6, 12, resolution=1e6)  # tail collides

    def test_constrained_optimal(self):
        plan = design_constrained_optimal(400e6, 10e6, 4, 1e6, c=C_PAPER)
        assert plan.spacings == (1, 8, 1)
        plan5 = design_constrained_optimal(400e6, 12e6, 5, 1e6, c=C_PAPER)
        assert plan5.spacings == (1, 1, 9, 1)
        degenerate = design_constrained_optimal(400e6, 4e6, 5, 1e6, c=C_PAPER)
        assert degenerate.spacings == (1, 1, 1, 1)
        with pytest.raises(DesignInfeasible):
            design_constrained_optimal(400e6, 3e6, 5, 1e6)

    def test_constrained_optimal_brute_force(self):
        # Exhaustive search over all ordered compositions of M into N-1
        # positive parts confirms the two-ends placement.
        for m, n in [(10, 4), (12, 5)]:
            best_val, best = -1, None
            for cut in itertools.combinations(range(1, m), n - 2):
                parts = tuple(np.diff((0,) + cut + (m,)))
                for perm in set(itertools.permutations(parts)):
                    v = quadform_scaled_int(perm)
                    if v > best_val:
                        best_val, best = v, perm
            plan = design_constrained_optimal(1e6, float(m), n, 1.0)
            assert quadform_scaled_int(plan.spacings) == best_val
            assert plan.spacings in set(
                itertools.permutations(best)
            )  # same multiset, optimal value

    def test_prime_min_error_plan(self):
        params = DesignParams(bandwidth=40e6, n=41, resolution=65.0)
        plan = design_prime_min_error(params, 400e6, c=C_PAPER)
        assert spacing_gcd(plan) == 199
        assert umr(plan) == pytest.approx(C_PAPER / (199 * 65.0))
        norm = sorted(k // 199 for k in plan.spacings)
        assert norm == first_primes(40)

    def test_prime_two_spacings(self):
        params = DesignParams(bandwidth=65.0 * 5, n=3, resolution=65.0)
        plan = design_prime_min_error(params, 1e6, c=C_PAPER)
        assert plan.spacings == (2, 3)

    def test_prime_max_error_same_multiset(self):
        params = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
        a = design_prime_min_error(params, 400e6, c=C_PAPER)
        b = design_prime_max_error(params, 400e6, c=C_PAPER)
        assert sorted(a.spacings) == sorted(b.spacings)
        assert quadform(b.spacings_hz) < quadform(a.spacings_hz)

    def test_random_design(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        plan = design_random(410e6, 40.378e6, 31, 65.0, rng, c=C_PAPER)
        assert plan.n == 31
        assert plan.bandwidth <= 40.378e6
        rng2 = np.random.Generator(np.random.Philox(key=7))
        again = design_random(410e6, 40.378e6, 31, 65.0, rng2, c=C_PAPER)
        assert plan.spacings == again.spacings  # seeded determinism

    @pytest.mark.parametrize(
        "m, n, seed",
        [(2, 2, 0), (3, 3, 1), (5, 5, 2), (30, 4, 3), (64, 21, 4), (1000, 31, 5),
         (20_000, 600, 6), (621_200, 31, 7), (10**6 + 7, 3, 8)],
    )
    def test_random_draws_match_the_grid_array(self, m, n, seed):
        # Drawing N - 2 of the M - 1 interior indices picks the same points as
        # drawing from np.arange(1, M), the array the designer used to build.
        plan = design_random(400e6, m * 65.0, n, 65.0, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        interior = rng.choice(np.arange(1, m), size=n - 2, replace=False) if n > 2 else []
        points = np.sort(np.concatenate(([0], interior, [m])))
        assert plan.spacings == tuple(int(d) for d in np.diff(points))

    def test_random_memory_does_not_grow_with_the_grid(self):
        # 20 MHz at 10 Hz is 2e6 grid points, 16 MB as an index array.  The
        # first call loads what the draw needs, so it is left out.
        design_random(400e6, 20e6, 5, 1e3, np.random.default_rng(5))
        peaks = []
        for res in (1e3, 1e2, 10.0):
            tracemalloc.start()
            try:
                design_random(400e6, 20e6, 5, res, np.random.default_rng(5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 64 * 1024, peaks

    def test_all_designers_respect_budget(self):
        params = DesignParams(bandwidth=20e6, n=21, resolution=65.0)
        rng = np.random.Generator(np.random.Philox(key=3))
        plans = [
            design_rips(400e6, 20e6, 21, c=C_PAPER),
            design_constrained_optimal(400e6, 20e6, 21, 65.0, c=C_PAPER),
            design_prime_min_error(params, 400e6, c=C_PAPER),
            design_prime_max_error(params, 400e6, c=C_PAPER),
            design_random(400e6, 20e6, 21, 65.0, rng, c=C_PAPER),
        ]
        for plan in plans:
            assert plan.n == 21
            assert plan.bandwidth <= 20e6 + 1e-6
        # The Towers ladder steps by the ratio f_max/B = 21, so
        # f_max - f_i = 420 MHz * 21**-i: 4.9 Hz at i = 6 but 0.23 Hz at
        # i = 7, which snaps onto f_max on a 1 Hz grid.  N = 7 is the
        # longest ladder that exists in this band; N = 21 is refused.
        towers = design_towers(420e6, 20e6, 7, resolution=1.0, c=C_PAPER)
        assert towers.n == 7
        assert towers.bandwidth <= 20e6 + 1e-6
        with pytest.raises(DesignInfeasible):
            design_towers(420e6, 20e6, 21, resolution=1.0, c=C_PAPER)
