"""Frequency-pattern designers.

Five ways of placing N measurement frequencies in a bandwidth B: uniform
spacing, a geometric wavelength ladder, the two-ends-constrained optimum,
the prime-spacing construction with its min-error/max-error arrangements,
and a random baseline.  All designers emit a :class:`FrequencyPlan` whose
spacings live on the integer resolution grid.

Every designer checks B, N and its grid resolution with :func:`_check_inputs`
first.  B, the resolution, the towers' f_max and a UMR requirement must be
finite and positive, B / resolution finite and N at least 2, or a plain
``ValueError`` is raised (CLI code ``invalid-value``).  Valid values that
cannot be met together raise :class:`DesignInfeasible`
(``design-infeasible``): M < N-1, a uniform step off the grid, a prime
window that does not fit, or a ladder with f_max <= B or with frequencies
that collide on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import C_EXACT, FrequencyPlan, check_positive


class DesignInfeasible(ValueError):
    """Design parameters cannot be met; the message names the constraint."""


class PrimePoolExhausted(RuntimeError):
    """The prime pool could not be grown far enough for the request."""


# Sieve sizes grow geometrically from here until the pool is big enough.
_SIEVE_START = 1 << 10
_SIEVE_LIMIT = 1 << 28


def sieve_primes(limit: int) -> np.ndarray:
    """All primes < limit by Eratosthenes sieve (ascending int64 array)."""
    if limit < 3:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, growing the sieve as needed."""
    if count < 1:
        return []
    limit = _SIEVE_START
    while True:
        primes = sieve_primes(limit)
        if len(primes) >= count:
            return [int(p) for p in primes[:count]]
        if limit >= _SIEVE_LIMIT:
            raise PrimePoolExhausted(
                f"prime pool capped at sieve limit {_SIEVE_LIMIT}; "
                f"needed {count} primes"
            )
        limit *= 4


def _check_inputs(bandwidth: float, n: int, resolution: float | None = None) -> None:
    """ValueError unless B and a resolution not None are finite and positive,
    N >= 2, and B / resolution is finite."""
    check_positive("bandwidth", bandwidth)
    if n < 2:
        raise ValueError(f"N must be at least 2, got {n!r}")
    if resolution is not None:
        check_positive("resolution", resolution)
        if math.isinf(bandwidth / resolution):
            raise ValueError(
                f"bandwidth / resolution must be finite, got {bandwidth!r} / {resolution!r}"
            )


@dataclass(frozen=True)
class DesignParams:
    """Inputs of the prime-window selection: the (B, N, resolution, i) tuple
    plus an optional UMR requirement in meters."""

    bandwidth: float
    n: int
    resolution: float
    prime_index: int = 1  # 1-based start into the ascending prime sequence
    umr_requirement: float | None = None

    def __post_init__(self):
        _check_inputs(self.bandwidth, self.n, self.resolution)
        if self.prime_index < 1:
            raise ValueError("prime_index is 1-based and must be >= 1")
        if self.umr_requirement is not None:
            check_positive("umr_requirement", self.umr_requirement)


@dataclass(frozen=True)
class PrimeWindow:
    """Result of the prime-window selection."""

    primes: tuple[int, ...]
    common_factor: int  # K: every spacing is K * prime * resolution
    prime_index: int  # final (possibly advanced) 1-based window start


def _common_factor(bandwidth: float, resolution: float, window_sum: int) -> int:
    """Largest K with K * resolution * window_sum <= bandwidth."""
    k = int(bandwidth // (resolution * window_sum))
    # Guard against float division landing one off the exact threshold.
    while (k + 1) * resolution * window_sum <= bandwidth:
        k += 1
    while k >= 1 and k * resolution * window_sum > bandwidth:
        k -= 1
    return k


def prime_window_select(params: DesignParams, c: float = C_EXACT) -> PrimeWindow:
    """Pick N-1 consecutive primes and the common factor K filling bandwidth B.

    Starting at the 1-based prime index ``i``, take the N-1 consecutive
    primes and the largest K with ``K * resolution * sum(primes) <= B```.
    When a UMR requirement is set, advance ``i`` (which shrinks K and
    stretches the unambiguous range c/(K*resolution)) until the range
    strictly exceeds the requirement.
    """
    i = params.prime_index
    width = params.n - 1
    while True:
        primes = first_primes(i - 1 + width)[i - 1 :]
        window_sum = sum(primes)
        k = _common_factor(params.bandwidth, params.resolution, window_sum)
        if k < 1:
            raise DesignInfeasible(
                f"bandwidth {params.bandwidth} Hz cannot fit the prime window "
                f"starting at index {i} (sum {window_sum}) at resolution "
                f"{params.resolution} Hz"
            )
        if params.umr_requirement is None:
            return PrimeWindow(tuple(primes), k, i)
        if c / (k * params.resolution) > params.umr_requirement:
            return PrimeWindow(tuple(primes), k, i)
        i += 1


def as_multiset(values: Sequence[int]) -> tuple[int, ...]:
    """Validate an ascending multiset of positive integer spacings."""
    ms = tuple(int(v) for v in values)
    if len(ms) < 1:
        raise ValueError("multiset must be non-empty")
    if any(v < 1 for v in ms):
        raise ValueError("spacings must be >= 1")
    if any(a > b for a, b in zip(ms, ms[1:])):
        raise ValueError("multiset must be sorted ascending")
    return ms


def permute_min_error(sorted_spacings: Sequence[int]):
    """Arrange an ascending spacing multiset for minimum ranging error.

    The arrangement interleaves odd-position entries ascending and
    even-position entries descending, [a1, a3, ..., a4, a2], which
    maximizes the spacing quadratic form over all permutations.  Its
    mirror [a2, a4, ..., a3, a1] (the result reversed) attains the same
    value, as every reversed order does.
    """
    ms = as_multiset(sorted_spacings)
    return list(ms[0::2]) + list(reversed(ms[1::2]))


def _scaled_quadform(order: Sequence[int]) -> tuple[int, int, int]:
    """(N * quadform, sum b, sum b^2) over the partial sums b = [0, cumsum]
    of an integer spacing order, exact in integer arithmetic."""
    b = p = q = 0
    for v in (0, *order):
        b += v
        p += b
        q += b * b
    return (len(order) + 1) * q - p * p, p, q


def _v_shape_for_centre(desc: Sequence[int], m: float) -> list[int]:
    """The V-shaped order of ``desc`` minimizing sum (b - m)^2.

    ``desc`` holds the spacings largest first.  Each but the last is put at
    the left or the right end of the still open gap between the points
    placed so far, so the new point sits at A + d (left) or at
    total - placed + A - d (right), where A is the sum already put on the
    left: the cost is a dynamic program over A with at most sum + 1 states
    per step.  The last (smallest) spacing closes the gap.
    """
    total = sum(desc)
    a = np.arange(total + 1, dtype=float)
    cost = np.full(total + 1, np.inf)
    cost[0] = m * m + (total - m) ** 2  # the two end points 0 and total
    took_left = []
    placed = 0
    for d in desc[:-1]:
        right = cost + (total - placed - d + a - m) ** 2
        left = np.full(total + 1, np.inf)
        left[d:] = cost[:-d] + (a[d:] - m) ** 2
        take = left < right
        cost = np.where(take, left, right)
        took_left.append(take)
        placed += d
    state = int(np.argmin(cost))
    lefts, rights = [], []
    for d, take in zip(reversed(desc[:-1]), reversed(took_left)):
        if take[state]:
            lefts.append(d)
            state -= d
        else:
            rights.append(d)
    return lefts[::-1] + [desc[-1]] + rights


def permute_max_error(sorted_spacings: Sequence[int]):
    """Arrange an ascending spacing multiset to minimize the spacing
    quadratic form (the worst ordering for ranging error), exactly.

    Every minimizer is V-shaped (non-increasing, then non-decreasing):
    swapping adjacent gaps d_p < d_{p+1} moves the point b_p right by
    d_{p+1} - d_p, which lowers the spread of the partial sums iff
    (b_{p-1} + b_{p+1})/2 lies left of the mean of the other points.  That
    difference grows strictly with p, so in a minimizer no descent can
    follow an ascent.  (Ordering gaps to minimize the spread of their
    partial sums is the completion-time-variance problem.)

    For a fixed centre m, :func:`_v_shape_for_centre` finds the best
    V-shape for sum (b - m)^2.  Minimizing over m as well gives the
    minimum spread, reached at m = mean(b) of the optimal order.  The
    search runs over m in [0, total/2] (reversing an order maps m to
    total - m), splitting intervals where the tangent lines of the two
    end orders meet.  An interval is pruned by a chord bound: the DP value
    minus N m^2 is a minimum of lines in m, hence concave, so it lies above
    its chord.

    Tie-break: the alternating pattern [..., a5, a3, a1, a2, a4, ...] is
    returned whenever it attains the minimum; otherwise the first strictly
    better order the search meets, turned so that its larger end spacing
    comes first.
    """
    ms = as_multiset(sorted_spacings)
    alternating = list(reversed(ms[0::2])) + list(ms[1::2])
    if len(ms) <= 2:
        return alternating
    n = len(ms) + 1
    desc = sorted(ms, reverse=True)
    best, best_cost = alternating, _scaled_quadform(alternating)[0]

    def probe(m):
        nonlocal best, best_cost
        order = _v_shape_for_centre(desc, m)
        cost, p, q = _scaled_quadform(order)
        if cost < best_cost:
            best, best_cost = order, cost
        return m, q - 2.0 * m * p, p, q  # centre, its line value, the line

    stack = [(probe(0.0), probe(sum(ms) / 2.0))]
    while stack:
        lo, hi = stack.pop()
        (ma, ga, pa, qa), (mb, gb, pb, qb) = lo, hi
        slope = (gb - ga) / (mb - ma)
        m = min(max(-slope / (2 * n), ma), mb)
        # A strictly better order has N * quadform <= best_cost - 1.
        if n * (ga + slope * (m - ma) + n * m * m) > best_cost - 0.5:
            continue
        mx = (qa - qb) / (2.0 * (pa - pb)) if pa != pb else 0.5 * (ma + mb)
        if not ma < mx < mb:
            mx = 0.5 * (ma + mb)
        mid = probe(mx)
        stack += [(lo, mid), (mid, hi)]
    if best is not alternating and best[0] < best[-1]:
        best.reverse()
    return best


def _grid_count(bandwidth: float, resolution: float, n: int) -> int:
    """M = floor(B / resolution), tolerant of float division residue; raises
    :class:`DesignInfeasible` when M < N-1 leaves no room for N frequencies."""
    _check_inputs(bandwidth, n, resolution)
    m = int(bandwidth / resolution + 1e-9)
    if m < n - 1:
        raise DesignInfeasible(
            f"grid count M = {m} is smaller than N-1 = {n - 1}; "
            "not enough grid room for the requested frequency count"
        )
    return m


def design_rips(
    f1: float, bandwidth: float, n: int, resolution: float | None = None, c: float = C_EXACT
) -> FrequencyPlan:
    """Uniformly spaced frequencies f_i = f1 + (i-1) * B/(N-1).

    With no explicit grid, the uniform step itself becomes the grid unit.
    An explicit ``resolution`` must divide the step exactly.
    """
    _check_inputs(bandwidth, n, resolution)
    step = bandwidth / (n - 1)
    if resolution is None:
        return FrequencyPlan(f1=f1, resolution=step, spacings=(1,) * (n - 1), c=c)
    k = step / resolution
    k_int = round(k)
    if k_int < 1 or abs(k - k_int) > 1e-9 * max(1.0, abs(k)):
        raise DesignInfeasible(
            f"uniform step B/(N-1) = {step} Hz is not an integer multiple of "
            f"resolution {resolution} Hz"
        )
    return FrequencyPlan(f1=f1, resolution=resolution, spacings=(k_int,) * (n - 1), c=c)


def towers_ideal_frequencies(f_max: float, bandwidth: float, n: int) -> np.ndarray:
    """Off-grid frequencies of the geometric wavelength ladder.

    f_i = f_max - f_max * (B/f_max)^i for i = 1..N-1 plus f_max itself, so
    the synthetic-wavelength ratio (f_max - f_{i-1})/(f_max - f_i) is the
    constant f_max/B.
    """
    _check_inputs(bandwidth, n)
    if not check_positive("f_max", f_max) > bandwidth:
        raise DesignInfeasible("geometric ladder needs f_max > B")
    i = np.arange(1, n)
    freqs = f_max - f_max * (bandwidth / f_max) ** i
    return np.sort(np.append(freqs, f_max))


def design_towers(
    f_max: float, bandwidth: float, n: int, resolution: float = 1.0, c: float = C_EXACT
) -> FrequencyPlan:
    """Geometric wavelength ladder snapped to the resolution grid.

    The ideal ladder frequencies are irrational on the grid in general;
    they are rounded to the nearest grid multiple (compare against
    :func:`towers_ideal_frequencies` for the snap error).  Snapping that
    collides two frequencies is rejected.
    """
    _check_inputs(bandwidth, n, resolution)
    ideal = towers_ideal_frequencies(f_max, bandwidth, n)
    grid = np.rint(ideal / resolution).astype(np.int64)
    if len(np.unique(grid)) != n:
        raise DesignInfeasible(
            f"snapping the geometric ladder to a {resolution} Hz grid collides "
            "two frequencies; use a finer resolution"
        )
    spacings = tuple(int(d) for d in np.diff(grid))
    return FrequencyPlan(f1=float(grid[0]) * resolution, resolution=resolution, spacings=spacings, c=c)


def design_constrained_optimal(
    f1: float, bandwidth: float, n: int, resolution: float, c: float = C_EXACT
) -> FrequencyPlan:
    """Frequencies packed as near as possible to both band ends.

    The spacing multiset is {1 x (N-2), M+2-N} on the grid (M = floor(B /
    resolution)), arranged min-error: unit spacings at both ends with the
    single large gap in the middle.  Optimal only when the range is known
    a priori to lie within the +-c/2B mainlobe.
    """
    m = _grid_count(bandwidth, resolution, n)
    multiset = sorted([1] * (n - 2) + [m + 2 - n])
    spacings = tuple(permute_min_error(multiset))
    return FrequencyPlan(f1=f1, resolution=resolution, spacings=spacings, c=c)


def _design_prime(params: DesignParams, f1: float, c: float, worst: bool) -> FrequencyPlan:
    window = prime_window_select(params, c=c)
    arrange = permute_max_error if worst else permute_min_error
    order = arrange(list(window.primes))
    spacings = tuple(window.common_factor * p for p in order)
    return FrequencyPlan(f1=f1, resolution=params.resolution, spacings=spacings, c=c)


def design_prime_min_error(params: DesignParams, f1: float, c: float = C_EXACT) -> FrequencyPlan:
    """Prime spacing construction, min-error arrangement.

    Spacings are K * (arranged consecutive primes) in grid units, so the
    spacing GCD is exactly K and the unambiguous range is about
    c/(K * resolution).
    """
    return _design_prime(params, f1, c, worst=False)


def design_prime_max_error(params: DesignParams, f1: float, c: float = C_EXACT) -> FrequencyPlan:
    """Same prime spacing multiset as min-error, worst arrangement."""
    return _design_prime(params, f1, c, worst=True)


def design_random(
    f1: float, bandwidth: float, n: int, resolution: float, rng, c: float = C_EXACT
) -> FrequencyPlan:
    """Random baseline: N frequencies drawn from the usable band.

    Both band edges are kept and the N-2 interior frequencies are drawn
    uniformly without replacement from the interior grid points, so the
    spacings are positive integers summing exactly to M = floor(B/res).
    """
    m = _grid_count(bandwidth, resolution, n)
    # Drawn from the M - 1 interior indices without building them: the same
    # draws as rng.choice(np.arange(1, m), ...), in memory that grows with N.
    interior = rng.choice(m - 1, size=n - 2, replace=False) + 1 if n > 2 else np.empty(0, int)
    points = np.sort(np.concatenate(([0], interior, [m]))).astype(np.int64)
    spacings = tuple(int(d) for d in np.diff(points))
    return FrequencyPlan(f1=f1, resolution=resolution, spacings=spacings, c=c)
